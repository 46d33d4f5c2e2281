"""Sketched Laplacian multiply and solve maintained under updates.

Both structures keep an m x m sketch L~ = Phi * L_H * Psi^T of the
sparsifier's Laplacian plus a sketched vector, and refresh them from the
sparsifier's sparse diff after every graph update.  The sparsifier logs
only edges whose weight changed (owner migration between WSPD pairs never
reaches the log), each as -old then +new; the log is summed per edge
first, so each changed edge becomes one rank-1 term.  The solve side keeps
the LU factors of L~, from one factorization per update, and answers with
triangular solves; it falls back to an SVD pseudoinverse when L~ is
singular or ill-conditioned (always so once m >= n, since
rank L_H <= n - 1).  The incremental state must match
a from-scratch recompute exactly up to float accumulation; accuracy
against the *exact* graph is audited unsketched with dense oracles,
because the eps guarantees are statements about L_H, not about the
sketched image.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DimensionMismatch,
    NumericalFailure,
    SingularMatrix,
    check_index,
)
from .kernels import KernelFunction, PointSet, dense_laplacian
from .projection import DEFAULT_C_SK, SketchMatrix, make_sketch_pair
from .sparsifier import DynamicGeoSpar

PINV_RCOND = 1e-10
# L~ is solved through its LU factors only while LAPACK's 1-norm reciprocal
# condition estimate (gecon) is at least this.  The estimate of ||L~^-1||_1
# is a lower bound that is rarely low by more than a factor of 10, so above
# the constant cond_1 < 1e7 and cond_2 <= m * cond_1 < 1e10 for any
# m < 1000: pinv(rcond=PINV_RCOND) then cuts no singular value and is the
# exact inverse too.  Each computed solve is within about cond_1 * 1.1e-16
# < 1e-8 of it (relative), two orders inside the 1e-6 sketch audit.
# Sketches with m < n sit near cond_1 ~ 1e4, far above the cut.
LU_MIN_RCOND = 1e-6


def _net_edges(diff: list, n: int):
    """The diff log summed per edge: (i, j, net weight) arrays, zeros dropped.

    Merges each edge's -old and +new, and its entries from several moves,
    into one term; an edge whose sum is exactly 0.0 contributes none.
    """
    log = np.fromiter(chain.from_iterable(diff), dtype=np.float64,
                      count=3 * len(diff)).reshape(-1, 3)
    ii = log[:, 0].astype(np.int64)
    jj = log[:, 1].astype(np.int64)
    keys, inverse = np.unique(ii * n + jj, return_inverse=True)
    net = np.bincount(inverse, weights=log[:, 2])
    live = net != 0.0
    ii, jj = np.divmod(keys[live], n)
    return ii, jj, net[live]


def _diff_sketch(phi: SketchMatrix, psi: SketchMatrix, diff: list) -> np.ndarray:
    """Phi * (sum of signed edge updates) * Psi^T as a sum of rank-1 terms,
    one per edge whose net weight changed."""
    m = phi.m
    if not diff:
        return np.zeros((m, m))
    ii, jj, ww = _net_edges(diff, phi.matrix.shape[1])
    u = (phi.matrix[:, ii] - phi.matrix[:, jj]) * ww
    v = psi.matrix[:, ii] - psi.matrix[:, jj]
    return u @ v.T


def _checked(n: int, delta) -> list:
    """delta, [(index, value), ...], as (int, float) pairs; raises
    IndexOutOfRange if an index is not an integer in [0, n)."""
    return [(check_index(idx, n), float(val)) for idx, val in delta]


def _sparse_apply(mat: np.ndarray, delta: list) -> np.ndarray:
    """mat @ delta for delta given as checked [(index, value), ...]."""
    out = np.zeros(mat.shape[0])
    for idx, val in delta:
        out += mat[:, idx] * val
    return out


def _densify(n: int, delta: list) -> np.ndarray:
    out = np.zeros(n)
    for idx, val in delta:
        out[idx] += val
    return out


class MultiplyState:
    """Maintains z~ = L~ v~, a sketch of L_H v."""

    def __init__(self, dgs: DynamicGeoSpar, phi, psi, v):
        self.dgs = dgs
        self.phi = phi
        self.psi = psi
        self.v = np.array(v, dtype=np.float64)
        self.lt = phi.matrix @ dgs.get_laplacian() @ psi.matrix.T
        self.vt = psi.apply(self.v)
        self.zt = self.lt @ self.vt

    @property
    def m(self) -> int:
        return self.phi.m

    def update_g(self, i: int, z):
        self.dgs.update(i, z)
        self.apply_graph_diff(self.dgs.get_diff())

    def apply_graph_diff(self, diff: list):
        """Fold a batch of signed edge updates into the sketches."""
        dlt = _diff_sketch(self.phi, self.psi, diff)
        self.zt = self.zt + dlt @ self.vt
        self.lt = self.lt + dlt

    def update_v(self, delta):
        """Add the sparse vector delta, [(index, value), ...], to v."""
        delta = _checked(self.dgs.n, delta)
        dvt = _sparse_apply(self.psi.matrix, delta)
        self.v = self.v + _densify(self.dgs.n, delta)
        self.vt = self.vt + dvt
        self.zt = self.zt + self.lt @ dvt

    def query(self) -> np.ndarray:
        return self.zt.copy()

    def scratch_recompute(self):
        """(L~, v~, z~) rebuilt from the current graph and vector."""
        lt = self.phi.matrix @ self.dgs.get_laplacian() @ self.psi.matrix.T
        vt = self.psi.apply(self.v)
        return lt, vt, lt @ vt


class SolveState:
    """Maintains z~ = pinv(L~) b~, a sketch of L_H^+ b.

    Every graph update folds its diff into L~ and factors L~ again (LAPACK
    getrf); ``_solve`` then applies pinv(L~) by two triangular solves
    (getrs), both for the refreshed z~ and for each right-hand-side update.
    When L~ is singular or its condition estimate is below
    ``LU_MIN_RCOND``, ``_solve`` is a matvec with the SVD pseudoinverse
    instead.  ``scratch_recompute`` always takes the SVD pseudoinverse, so
    it stays an independent check.
    """

    def __init__(self, dgs: DynamicGeoSpar, phi, psi, b):
        self.dgs = dgs
        self.phi = phi
        self.psi = psi
        self.b = np.array(b, dtype=np.float64)
        self.lt = phi.matrix @ dgs.get_laplacian() @ psi.matrix.T
        self._solve = _solver(self.lt)
        self.bt = phi.apply(self.b)
        self.zt = self._solve(self.bt)

    @property
    def m(self) -> int:
        return self.phi.m

    def update_g(self, i: int, z):
        self.dgs.update(i, z)
        self.apply_graph_diff(self.dgs.get_diff())

    def apply_graph_diff(self, diff: list):
        self.lt = self.lt + _diff_sketch(self.phi, self.psi, diff)
        self._solve = _solver(self.lt)
        self.zt = self._solve(self.bt)

    def update_b(self, delta):
        """Add the sparse vector delta, [(index, value), ...], to b."""
        delta = _checked(self.dgs.n, delta)
        dbt = _sparse_apply(self.phi.matrix, delta)
        self.b = self.b + _densify(self.dgs.n, delta)
        self.bt = self.bt + dbt
        self.zt = self.zt + self._solve(dbt)

    def query(self) -> np.ndarray:
        return self.zt.copy()

    def scratch_recompute(self):
        lt = self.phi.matrix @ self.dgs.get_laplacian() @ self.psi.matrix.T
        bt = self.phi.apply(self.b)
        return lt, bt, np.linalg.pinv(lt, rcond=PINV_RCOND) @ bt


def _solver(mat: np.ndarray):
    """x -> pinv(mat) @ x: LU solves when mat is well conditioned, else a
    matvec with the SVD pseudoinverse with cutoff ``PINV_RCOND``."""
    lu, piv, info = lapack.dgetrf(mat)
    if info == 0:  # info > 0: a zero pivot, mat is singular
        anorm = np.abs(mat).sum(axis=0).max()
        rcond, _ = lapack.dgecon(lu, anorm, norm="1")
        if rcond >= LU_MIN_RCOND:  # False for a NaN estimate too
            return lambda x: lapack.dgetrs(lu, piv, x)[0]
    try:
        pinv = np.linalg.pinv(mat, rcond=PINV_RCOND)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"pseudoinverse failed: {exc}") from exc
    return lambda x: pinv @ x


def _make_states(pset: PointSet, kernel: KernelFunction, eps, delta, k, seed,
                 c_sk, dgs_kwargs):
    ss_dgs, ss_sketch = np.random.SeedSequence(seed).spawn(2)
    dgs = DynamicGeoSpar.initialize(pset, kernel, eps, delta, k,
                                    int(ss_dgs.generate_state(1)[0]),
                                    **dgs_kwargs)
    phi, psi = make_sketch_pair(pset.n, eps, delta,
                                int(ss_sketch.generate_state(1)[0]), c_sk)
    return dgs, phi, psi


def multiply_init(pset: PointSet, kernel: KernelFunction, v, eps: float,
                  delta: float, k: int, seed: int, c_sk: float = DEFAULT_C_SK,
                  **dgs_kwargs) -> MultiplyState:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (pset.n,):
        raise DimensionMismatch(f"v must have length {pset.n}")
    dgs, phi, psi = _make_states(pset, kernel, eps, delta, k, seed, c_sk,
                                 dgs_kwargs)
    return MultiplyState(dgs, phi, psi, v)


def solve_init(pset: PointSet, kernel: KernelFunction, b, eps: float,
               delta: float, k: int, seed: int, c_sk: float = DEFAULT_C_SK,
               **dgs_kwargs) -> SolveState:
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (pset.n,):
        raise DimensionMismatch(f"b must have length {pset.n}")
    dgs, phi, psi = _make_states(pset, kernel, eps, delta, k, seed, c_sk,
                                 dgs_kwargs)
    return SolveState(dgs, phi, psi, b)


@dataclass(frozen=True)
class AuditReport:
    multiply_error: float
    solve_error: float
    eps: float
    multiply_ok: bool
    solve_ok: bool

    def as_dict(self):
        return {
            "multiply_error": self.multiply_error,
            "solve_error": self.solve_error,
            "eps": self.eps,
            "multiply_ok": self.multiply_ok,
            "solve_ok": self.solve_ok,
        }


def approximation_audit(state, vector: Optional[np.ndarray] = None) -> AuditReport:
    """Unsketched accuracy audit against the exact kernel graph.

    Measures ||L_H v - L_G v|| and ||L_H^+ b - L_G^+ b|| in the norms
    natural to each statement (L_G^+ and L_G respectively), normalized by
    the exact quantity.  The multiply side must come in at <= eps and the
    solve side at <= 2 eps / (1 - eps) whenever H is an eps-sparsifier.
    Dense-oracle computation; desk scale only.
    """
    dgs = state.dgs
    if vector is not None:
        vec = np.asarray(vector, dtype=np.float64)
    elif isinstance(state, MultiplyState):
        vec = state.v
    else:
        vec = state.b
    lap_g = dense_laplacian(dgs.pset.points, dgs.kernel)
    lap_h = dgs.get_laplacian()
    eigvals = np.linalg.eigvalsh(lap_g)
    zero_cut = 1e-9 * max(1.0, float(abs(eigvals).max()))
    if int(np.sum(eigvals < zero_cut)) > 1:
        raise SingularMatrix("exact graph is disconnected")
    g_pinv = np.linalg.pinv(lap_g)
    # multiply side, measured in the L_G^+ norm
    r = (lap_h - lap_g) @ vec
    num = float(np.sqrt(max(r @ g_pinv @ r, 0.0)))
    den = float(np.sqrt(max(vec @ lap_g @ vec, 0.0)))
    mul_err = num / den if den > 0 else 0.0
    # solve side, measured in the L_G norm, on the all-ones complement
    b = vec - vec.mean()
    h_pinv = np.linalg.pinv(lap_h)
    d = (h_pinv - g_pinv) @ b
    num = float(np.sqrt(max(d @ lap_g @ d, 0.0)))
    den = float(np.sqrt(max(b @ g_pinv @ b, 0.0)))
    solve_err = num / den if den > 0 else 0.0
    eps = dgs.eps
    bound = 2.0 * eps / (1.0 - eps)
    return AuditReport(mul_err, solve_err, eps,
                       mul_err <= eps, solve_err <= bound)
