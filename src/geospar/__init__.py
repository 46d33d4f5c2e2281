"""Dynamic spectral sparsifiers and Laplacian sketches for kernel graphs."""

from .config import RunConfig, adversarial_k, parse_config
from .distance import UltraJlStore, ujl_init, ultra_k
from .kernels import (
    KERNELS,
    KernelFunction,
    PointSet,
    aspect_ratio,
    cauchy_kernel,
    check_spectral_sparsifier,
    dense_laplacian,
    gaussian_kernel,
    gravity_kernel,
    laplacian_from_edges,
    normalize_points,
)
from .projection import (
    SketchMatrix,
    UltraJlMap,
    make_sketch_pair,
    make_ultra_jl,
    sketch_rows,
)
from .quadtree import CompressedQuadTree, MutationReport
from .sampling import PairSample
from .sketches import (
    AuditReport,
    MultiplyState,
    SolveState,
    approximation_audit,
    multiply_init,
    solve_init,
)
from .sparsifier import (
    DynamicGeoSpar,
    FullyDynamicSparsifier,
    UpdateReport,
    adversarial_mode,
)
from .wspd import WspdPairList, compute_wspd, find_modified_pairs, well_separated

__version__ = "0.1.0"
