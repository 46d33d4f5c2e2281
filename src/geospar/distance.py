"""Adversarially robust all-points distance estimation.

Project once to k = round(sqrt(log2 n)) dimensions; answer a query q with
u_i = n^(1/k) * sqrt(d/k) * ||x~_i - Pi q||.  The estimates overestimate
with high probability; how much they can overestimate is a calibrated
constant (the upper exponent hides in the projection's distortion).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange
from .projection import UltraJlMap, make_ultra_jl


def ultra_k(n: int) -> int:
    """round(sqrt(log2 n)), minimum 1."""
    return max(1, round(math.sqrt(math.log2(max(n, 2)))))


class UltraJlStore:
    """Points plus their cached ultra-low-dimensional projections."""

    def __init__(self, points: np.ndarray, jl: UltraJlMap):
        self.points = np.array(points, dtype=np.float64)
        self.n, self.d = self.points.shape
        self.jl = jl
        self.k = jl.k
        self.scale = self.n ** (1.0 / self.k) * math.sqrt(self.d / self.k)
        self.proj = np.vstack([jl.project(p) for p in self.points])

    def update(self, i: int, z):
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"index {i} outside [0, {self.n})")
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.d,):
            raise DimensionMismatch(f"expected dimension {self.d}")
        self.points[i] = z
        self.proj[i] = self.jl.project(z)

    def query(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.d,):
            raise DimensionMismatch(f"expected dimension {self.d}")
        qp = self.jl.project(q)
        return self.scale * np.linalg.norm(self.proj - qp, axis=1)


def ujl_init(points, eps: float, seed: int) -> UltraJlStore:
    """Build the store; k is derived from n, the projection from the seed.

    ``eps`` is not used: the estimate's distortion is a calibrated
    constant, not a function of eps.
    """
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    k = ultra_k(n)
    log2n = math.log2(max(n, 2))
    if not 0.5 * log2n <= d <= 8.0 * log2n:
        warnings.warn(
            f"d={d} is far from log2(n)={log2n:.1f}; the estimation "
            "guarantee is calibrated for d near log2(n)",
            RuntimeWarning, stacklevel=2)
    jl = make_ultra_jl(d, k, seed)
    return UltraJlStore(points, jl)

