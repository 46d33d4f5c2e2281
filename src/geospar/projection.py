"""Random projections: the ultra-low-dimensional map and the sketch pair.

Both families use dense Gaussian matrices.  Everything is regenerated from
an explicit seed, never serialized; with a fixed seed the matrices are
bit-reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, DimensionMismatch

DEFAULT_C_SK = 4.0  # rows multiplier for sketch matrices, calibrated once


@dataclass(frozen=True)
class UltraJlMap:
    """k x d map with i.i.d. N(0, 1/k) entries (squared norms unbiased)."""

    matrix: np.ndarray
    k: int
    d: int
    seed: int

    def project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise DimensionMismatch(f"expected dimension {self.d}, got {x.shape}")
        return self.matrix @ x


def make_ultra_jl(d: int, k: int, seed: int) -> UltraJlMap:
    """Draw the k x d projection.  Requires 1 <= k < d."""
    if not 1 <= k < d:
        raise BadDimension(f"need 1 <= k < d, got k={k}, d={d}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    mat = rng.standard_normal((k, d)) / math.sqrt(k)
    return UltraJlMap(mat, k, d, seed)


@dataclass(frozen=True)
class SketchMatrix:
    """m x n matrix with i.i.d. entries of variance 1/m, so E[S^T S] = I."""

    matrix: np.ndarray
    m: int
    n: int

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n,):
            raise DimensionMismatch(f"expected dimension {self.n}, got {v.shape}")
        return self.matrix @ v


def sketch_rows(n: int, eps: float, delta: float, c_sk: float = DEFAULT_C_SK) -> int:
    """m = ceil(c_sk * eps^-2 * ln(n/delta))."""
    return max(1, math.ceil(c_sk * eps ** -2 * math.log(n / delta)))


def _sketch_from_seedseq(n: int, m: int, ss: np.random.SeedSequence) -> SketchMatrix:
    rng = np.random.Generator(np.random.PCG64(ss))
    mat = rng.standard_normal((m, n)) / math.sqrt(m)
    # column-major, so the per-edge and per-entry column gathers of the
    # sketch folds read contiguous memory
    return SketchMatrix(np.asfortranarray(mat), m, n)


def make_sketch_pair(n: int, eps: float, delta: float, seed: int,
                     c_sk: float = DEFAULT_C_SK):
    """Two sketch matrices from independent child streams of one seed."""
    if not (0.0 < eps < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("eps and delta must lie in (0,1)")
    m = sketch_rows(n, eps, delta, c_sk)
    ss_phi, ss_psi = np.random.SeedSequence(seed).spawn(2)
    return _sketch_from_seedseq(n, m, ss_phi), _sketch_from_seedseq(n, m, ss_psi)
