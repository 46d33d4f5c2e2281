"""Points, kernel functions, and dense spectral oracles.

`normalize_points` carries raw input into the unit box the library works
in, `KernelFunction.eval_sqdist` weighs every edge of the sparsifier,
and `laplacian_from_edges` turns an edge list into a Laplacian.  The dense
oracles (`dense_laplacian`, `check_spectral_sparsifier`, `aspect_ratio`)
run at desk scale (n up to a few hundred): the verification CLI and the
test suite check the dynamic structures against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    DuplicatePoint,
    EmptyInput,
    NumericalFailure,
)

MARGIN = 0.25  # offset of the scaled bounding box inside [0,1)^d


@dataclass
class PointSet:
    """A mutable set of n points normalized into [0,1)^d.

    The affine map that carried the raw input into the unit box is kept so
    later updates (given in raw coordinates) can be mapped the same way.
    Indices are stable: index i refers to the logical i-th point forever.
    """

    points: np.ndarray  # (n, d) float64, all inside [0,1)^d
    dim: int
    scale: float  # raw -> unit: x_unit = (x_raw - raw_min) * scale + MARGIN
    raw_min: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def transform_raw(self, z) -> np.ndarray:
        """Map a raw-coordinate vector through the recorded bounding transform."""
        z = np.asarray(z, dtype=np.float64)
        return (z - self.raw_min) * self.scale + MARGIN

    def copy(self) -> "PointSet":
        return PointSet(self.points.copy(), self.dim, self.scale, self.raw_min.copy())


def normalize_points(raw) -> PointSet:
    """Scale and translate raw points so they sit inside [0,1)^d with margin.

    The scaling is uniform (one factor for all axes), so pairwise distance
    ratios — and hence the aspect ratio — are preserved exactly.

    Raises:
        EmptyInput: fewer than 2 points.
        DuplicatePoint: two raw points coincide.
    """
    pts = np.asarray(raw, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise EmptyInput("need at least 2 points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    n, d = pts.shape
    # exact duplicate detection on the raw coordinates
    order = np.lexsort(pts.T)
    sorted_pts = pts[order]
    if np.any(np.all(sorted_pts[1:] == sorted_pts[:-1], axis=1)):
        raise DuplicatePoint("two input points coincide")
    raw_min = pts.min(axis=0)
    maxside = float((pts.max(axis=0) - raw_min).max())
    scale = 1.0 / (2.0 * maxside)
    unit = (pts - raw_min) * scale + MARGIN
    ps = PointSet(unit, d, scale, raw_min)
    return ps


@dataclass(frozen=True)
class KernelFunction:
    """A radial kernel f(||x-y||_2^2) with its multiplicative-Lipschitz budget.

    (C, L) means: for all c in [1/C, C] and t in the kernel's working
    range, |ln(f(c*t)/f(t))| <= L * |ln c| — scaling the argument by c
    moves the value by at most a factor c^L in either direction.  The
    shipped kernels document the range (0, 1], which covers squared
    distances of any normalized point set with d <= 4 (the bounding
    transform caps pairwise distance at sqrt(d)/2).
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    lipschitz_C: float
    lipschitz_L: float

    def eval_sqdist(self, t):
        """Vectorized evaluation on squared distances."""
        return self.f(np.asarray(t, dtype=np.float64))


def gaussian_kernel() -> KernelFunction:
    """f(t) = exp(-t); (2, 2)-Lipschitz on t in (0, 1]."""
    return KernelFunction("gaussian", lambda t: np.exp(-t), 2.0, 2.0)


def gravity_kernel() -> KernelFunction:
    """f(t) = 1/t; exactly (C, 1)-Lipschitz for every C >= 1."""
    return KernelFunction("gravity", lambda t: 1.0 / t, 4.0, 1.0)


def cauchy_kernel() -> KernelFunction:
    """f(t) = 1/(1+t); (C, 1)-Lipschitz for every C >= 1."""
    return KernelFunction("cauchy", lambda t: 1.0 / (1.0 + t), 4.0, 1.0)


KERNELS = {
    "gaussian": gaussian_kernel,
    "gravity": gravity_kernel,
    "cauchy": cauchy_kernel,
}


def aspect_ratio(points: np.ndarray) -> float:
    """Brute-force max/min pairwise distance ratio (O(n^2))."""
    pts = np.asarray(points, dtype=np.float64)
    d2 = pairwise_sqdist(pts)
    iu = np.triu_indices(pts.shape[0], k=1)
    vals = d2[iu]
    dmin = float(vals.min())
    if dmin <= 0.0:
        return math.inf
    return math.sqrt(float(vals.max()) / dmin)


def pairwise_sqdist(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sum(diff * diff, axis=-1)


def dense_laplacian(points: np.ndarray, kernel: KernelFunction) -> np.ndarray:
    """Exact n x n Laplacian of the kernel graph on the given points."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        raise EmptyInput("need at least 2 points")
    d2 = pairwise_sqdist(pts)
    np.fill_diagonal(d2, 1.0)  # keep singular kernels off the diagonal
    w = kernel.eval_sqdist(d2)
    np.fill_diagonal(w, 0.0)
    lap = -w
    np.fill_diagonal(lap, w.sum(axis=1))
    return lap


def laplacian_from_edges(n: int, edges) -> np.ndarray:
    """Laplacian of an explicit weighted edge list [(i, j, w), ...] (or an
    m x 3 array of such rows).

    The edges are sorted by (min id, max id) before they are summed, so
    each diagonal entry adds its weights in one canonical order: the
    result does not depend on the order of the list, bit for bit.
    """
    rows = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
    ids = rows[:, :2].astype(np.int64)
    lo, hi = ids.min(axis=1), ids.max(axis=1)
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], rows[order, 2]
    lap = np.zeros((n, n), dtype=np.float64)
    np.add.at(lap, (np.concatenate([lo, hi]), np.concatenate([lo, hi])),
              np.concatenate([w, w]))
    np.subtract.at(lap, (lo, hi), w)
    np.subtract.at(lap, (hi, lo), w)
    return lap


@dataclass(frozen=True)
class SpectralCheck:
    passed: bool
    min_eig: float
    max_eig: float
    eps: float
    tol: float = 1e-7

    def as_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "min_eig": self.min_eig,
            "max_eig": self.max_eig,
            "eps": self.eps,
        }


def _ones_complement_basis(n: int) -> np.ndarray:
    return scipy.linalg.null_space(np.ones((1, n)))


def check_spectral_sparsifier(lap_g: np.ndarray, lap_h: np.ndarray, eps: float,
                              tol: float = 1e-7) -> SpectralCheck:
    """Check (1-eps) L_G <= L_H <= (1+eps) L_G on the all-ones complement.

    Deflates the shared nullspace, then solves the reduced symmetric pencil
    (L_H, L_G) densely and compares the extreme generalized eigenvalues
    against 1 -+ eps with a fixed numerical slack.
    """
    lap_g = np.asarray(lap_g, dtype=np.float64)
    lap_h = np.asarray(lap_h, dtype=np.float64)
    n = lap_g.shape[0]
    if lap_g.shape != (n, n) or lap_h.shape != (n, n):
        raise ValueError("Laplacians must be square and of matching size")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    basis = _ones_complement_basis(n)
    a = basis.T @ lap_h @ basis
    b = basis.T @ lap_g @ basis
    try:
        eigs = scipy.linalg.eigh(a, b, eigvals_only=True)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalFailure(f"generalized eigensolve failed: {exc}") from exc
    lo, hi = float(eigs[0]), float(eigs[-1])
    passed = (lo >= 1.0 - eps - tol) and (hi <= 1.0 + eps + tol)
    return SpectralCheck(passed, lo, hi, eps, tol)

