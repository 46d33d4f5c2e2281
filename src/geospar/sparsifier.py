"""The dynamic geometric spectral sparsifier.

Pipeline: project the points to k dimensions, build a compressed quad tree
and a 2-WSPD over the projections, view every well-separated pair as a
biclique in the original d-dimensional space, and keep a uniform edge
sample per biclique, scaled by |X||Y|/s (small bicliques are materialized
whole, unscaled).  A point move re-runs only the affected WSPD generators
and converts each touched pair's old sample into a fresh uniform one with
`sampling.resample` (a hypergeometric count of edges through the arriving
point), so the sparsifier changes by few edges.  All draws go through
`sampling`; this module weighs the drawn edges and logs the net change.

A pair's state has hysteresis, so moves near a threshold do not flip it:
a new pair (at set-up or on a move) is materialized iff |X||Y| <= s, a
sampled pair stays sampled while |X||Y| > s, and a materialized pair stays
whole while |X||Y| <= 4s.  A sampled pair keeps its scale while that is
within SCALE_BAND * eps (theta * eps) of the exact |X||Y|/s, relative;
only when the band is left is the whole sample rewritten at the exact
scale.  Each pair's Laplacian is then its exactly scaled sample's times a
factor in [1 - theta*eps, 1 + theta*eps], so an eps-sparsifier at exact
scales stays a ((1 + eps)(1 + theta*eps) - 1)-sparsifier.

Edges are stored with raw kernel weights per pair; the graph H maps an
unordered id pair to raw * scale.  Both hold an edge as one packed int, as
the WSPD keys do: a sample keys it by its oriented ids, a-side id << 32 |
b-side id (`sampling.SHIFT`), and H by min id << 32 | max id.  H and the
samples' indexes are then dicts of ints and floats, which the garbage
collector never tracks; `edge_map`, `fold_store`, `get_laplacian` and the
diff log decode the keys to (i, j) with i < j.  Every new weight comes
from one path:
edges drawn by sampled builds and resamples, materialized edges (whole
small bicliques, the arriving point's slab of a whole pair) and the moved
point's edges in pairs that keep their ids (reweights) are queued and
weighed in one batched kernel evaluation at the end of set-up and of each
move, then written in queue order.  Kernel values do not depend on the
batch, and no other pair touches a queued key, so every weight is the
same as if each edge were weighed on the spot.

The diff log is net per move: H writes remember each key's weight from
before the move, and one pass at its end logs (i, j, -old) then
(i, j, +new) per edge whose weight changed (no zero entries), so replaying
the log onto an older edge map rebuilds the current one exactly.  An edge
that only changes owner between two WSPD pairs never reaches the log.

A move finds the moved point's edges in a sampled pair through the pair's
per-point index.  A materialized pair keeps no index: it holds its whole
biclique, so the point's edges there are its slab, the point against each
id of the other side (`subtree_ids` of that side's node) whose edge is in
the sample; the point may have just crossed into that other side.  A
whole pair that turns sampled builds its index once, before it resamples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import sampling, wspd
from .config import RunConfig, adversarial_k
from .errors import (
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    OutOfRegion,
)
from .kernels import (
    KernelFunction,
    PointSet,
    check_spectral_sparsifier,
    dense_laplacian,
    laplacian_from_edges,
)
from .projection import make_ultra_jl
from .quadtree import CompressedQuadTree
from .sampling import MASK, SHIFT, PairSample

# WSPD pair keys: a-node token << 32 | b-node token
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1
# theta: a sampled pair keeps its scale while that is within SCALE_BAND * eps
# of the exact |X||Y|/s, relative
SCALE_BAND = 0.1


def _h_keys(edges) -> list:
    """The H keys, min id << 32 | max id, of packed sample edges."""
    return [e if e >> SHIFT < e & MASK else (e & MASK) << SHIFT | e >> SHIFT
            for e in edges]


@dataclass
class UpdateReport:
    """Per-update accounting, used by replay reports and churn tests.

    Every touched pair is counted in exactly one of the six pair counters.
    """

    pairs_touched: int = 0         # WSPD pairs added, removed or changed
    pairs_removed: int = 0         # pairs dropped from the WSPD
    pairs_added: int = 0           # pairs new to the WSPD, built afresh
    pairs_resampled: int = 0       # changed pairs left sampled (resample)
    pairs_rematerialized: int = 0  # changed sampled pairs rebuilt whole
    pairs_extended: int = 0        # changed whole pairs kept whole: the
    #                                departed and arriving slabs only
    pairs_reweighted: int = 0      # same ids, moved point's edges reweighed
    edges_changed: int = 0         # diff entries appended, churn..2*churn
    churn: int = 0                 # edges whose weight changed; a change
    #                                of owning pair alone is not counted
    rebuilt: bool = False          # the wrapper rebuilt before this move


class DynamicGeoSpar:
    """Spectral sparsifier of a kernel graph under single-point moves."""

    def __init__(self):
        raise TypeError("use DynamicGeoSpar.initialize(...)")

    @classmethod
    def initialize(cls, pset: PointSet, kernel: KernelFunction, eps: float,
                   delta: float, k: int, seed: int, *, c_s: float = 0.25,
                   c_jl: float = 1.0, allow_large_eps: bool = False,
                   separation: float = wspd.SEPARATION) -> "DynamicGeoSpar":
        if pset.n < 2:
            raise EmptyInput("need at least 2 points")
        hi = 1.0 if allow_large_eps else 0.1
        if not 0.0 < eps <= hi:
            raise ValueError(f"eps must lie in (0, {hi}]")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        self = object.__new__(cls)
        self.pset = pset
        self.kernel = kernel
        self.eps = eps
        self.delta = delta
        self.k = k
        self.n = pset.n
        self.seed = seed
        self.c_s = c_s
        self.c_jl = c_jl
        self.gamma = c_jl * kernel.lipschitz_L / k
        ss_jl, ss_samp = np.random.SeedSequence(seed).spawn(2)
        self.jl = make_ultra_jl(pset.dim, k, int(ss_jl.generate_state(1)[0]))
        self.rng = np.random.Generator(np.random.PCG64(ss_samp))
        # affine map taking any projection of [0,1]^d strictly inside [0,1)^k
        bound = float(np.abs(self.jl.matrix).sum(axis=1).max())
        self._proj_off = bound
        self._proj_scale = 1.0 / (2.0 * bound * (1.0 + 1e-9))
        self._h = {}
        self._diff = []
        self._store = {}
        self._before = {}         # H key -> its weight before the operation
        self._queued = ([], [])   # owner sample, packed sample edge
        proj = {i: self._project_unit(pset.points[i]) for i in range(self.n)}
        self.tree = CompressedQuadTree.build(proj, k)
        self.pairs = wspd.compute_wspd(self.tree, separation)
        for key in sorted(self.pairs.pairs):
            a = self.tree.by_tok[key >> _SHIFT]
            b = self.tree.by_tok[key & _MASK]
            self._store[key] = self._build_pair(a, b)
        self._flush_queued()
        self.sparsity_budget = sum(
            min(e.s_target, e.nx * e.ny) for e in self._store.values())
        self._before = {}
        return self

    # -- projection ---------------------------------------------------------

    def _project_unit(self, x) -> np.ndarray:
        return (self.jl.project(x) + self._proj_off) * self._proj_scale

    # -- sizing policy ------------------------------------------------------

    def sample_size(self, nx: int, ny: int) -> int:
        """ceil(c_s * eps^-2 * n^gamma * (nx+ny) * ln(nx+ny+1))."""
        return math.ceil(self.c_s * self.eps ** -2 * self.n ** self.gamma
                         * (nx + ny) * math.log(nx + ny + 1))

    # -- H / diff primitives --------------------------------------------------

    def _set_edge(self, key: int, w: float):
        """Set the weight of H key min id << 32 | max id."""
        old = self._h.get(key, 0.0)
        if old == w:
            return
        self._before.setdefault(key, old)
        if w != 0.0:
            self._h[key] = w
        else:
            del self._h[key]

    def _log_net_change(self) -> int:
        """Append (i, j, -old) then (i, j, +new) for each edge whose weight
        the operation changed, and return their count."""
        before, self._before = self._before, {}
        h, diff = self._h, self._diff
        changed = 0
        for key, old in before.items():
            new = h.get(key, 0.0)
            if new != old:
                changed += 1
                i, j = key >> SHIFT, key & MASK
                if old != 0.0:
                    diff.append((i, j, -old))
                if new != 0.0:
                    diff.append((i, j, new))
        return changed

    # -- pair construction ----------------------------------------------------

    def _weights(self, ids_a, ids_b) -> np.ndarray:
        pts = self.pset.points
        d2 = np.sum((pts[ids_a] - pts[ids_b]) ** 2, axis=1)
        return self.kernel.eval_sqdist(d2)

    def _queue_slab(self, entry: PairSample, a_ids: list, b_ids: list):
        """Queue the edges a_ids x b_ids of a materialized sample, row by
        row.  Ints and owner references only: the queue allocates no
        objects for the garbage collector to track."""
        owners, edges = self._queued
        owners.extend([entry] * (len(a_ids) * len(b_ids)))
        for i in a_ids:
            hi = i << SHIFT
            edges.extend([hi | j for j in b_ids])

    def _queue_edges(self, entry: PairSample, edges: list):
        """Queue packed edges of `entry`, in order."""
        owners, queued = self._queued
        owners.extend([entry] * len(edges))
        queued.extend(edges)

    def _flush_queued(self):
        """Weigh every queued edge with one kernel evaluation, then write
        them to their samples and to H, at the sample's scale, in queue
        order.

        The queue holds drawn and materialized edges, which are added, and
        the moved point's edges in pairs whose ids did not change, which
        are reweighed in place.  Runs once at the end of set-up and of each
        move.  No other pair of the operation claims a queued key, and no
        edit of its sample follows, so deferring the write changes neither
        a weight nor a sample's edge order.
        """
        owners, edges = self._queued
        if not owners:
            return
        self._queued = ([], [])
        packed = np.array(edges, dtype=np.int64)
        ids_a, ids_b = packed >> SHIFT, packed & MASK
        ws = self._weights(ids_a, ids_b)
        h_keys = np.where(ids_a < ids_b, packed, ids_b << SHIFT | ids_a)
        for entry, edge, key, w in zip(owners, edges, h_keys.tolist(),
                                       ws.tolist()):
            idx = entry.pos.get(edge)
            if idx is None:
                entry.add(edge, w)
            else:                # reweighted: the sample keeps its order
                entry.raw[idx] = w
            self._set_edge(key, w * entry.scale)

    def _build_pair(self, a_node, b_node) -> PairSample:
        nx, ny = a_node.count, b_node.count
        s = self.sample_size(nx, ny)
        total = nx * ny
        if total <= s:
            a_ids = self.tree.subtree_ids(a_node)
            b_ids = self.tree.subtree_ids(b_node)
            entry = PairSample(s, nx, ny, 1.0, True)
            self._queue_slab(entry, a_ids, b_ids)
            return entry
        entry = PairSample(s, nx, ny, total / s, False)
        kth = self.tree.kth_leaf
        self._queue_edges(entry, [
            kth(a_node, idx // ny).pid << SHIFT | kth(b_node, idx % ny).pid
            for idx in sampling.draw_indices(total, s, self.rng)])
        return entry

    def _point_edges(self, entry: PairSample, delta: wspd.PairDelta,
                     pid: int) -> list:
        """The edges of `entry` through `pid`, on the side `delta.old`
        names: from the index of a sampled pair, from the slab against the
        other side for a whole one."""
        if not entry.materialized:
            return entry.point_edges(pid)
        key, pos = delta.key, entry.pos
        if delta.old[0]:
            other = self.tree.subtree_ids(self.tree.by_tok[key & _MASK])
            hi = pid << SHIFT
            return [hi | j for j in other if hi | j in pos]
        if delta.old[1]:
            other = self.tree.subtree_ids(self.tree.by_tok[key >> _SHIFT])
            return [e for j in other if (e := j << SHIFT | pid) in pos]
        return []

    def _drop_pair(self, key):
        entry = self._store.pop(key)
        for h_key in _h_keys(entry.edges):
            self._set_edge(h_key, 0.0)

    # -- update ---------------------------------------------------------------

    def update(self, i: int, z) -> UpdateReport:
        """Move point i to z (coordinates in the unit frame [0,1)^d)."""
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"index {i} outside [0, {self.n})")
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.pset.dim,):
            raise DimensionMismatch(
                f"expected dimension {self.pset.dim}, got {z.shape}")
        if not np.all((z >= 0.0) & (z < 1.0)):
            raise OutOfRegion("target outside the unit bounding region")
        q_new = self._project_unit(z)
        diff_mark = len(self._diff)
        deltas = wspd.find_modified_pairs(self.tree, self.pairs, i, q_new)
        self.pset.set_point(i, z)
        report = UpdateReport(pairs_touched=len(deltas))
        # Phase one: release every edge changing owner (dropped pairs, and
        # the moved point's edges inside surviving pairs).  Only then may
        # other pairs claim the same edge keys: the final WSPD covers each
        # id pair exactly once, so claims never collide with each other.
        later = []
        for delta in deltas:
            if delta.new is None:
                self._drop_pair(delta.key)
                report.pairs_removed += 1
                continue
            if delta.old is not None and not delta.unchanged_ids:
                entry = self._store[delta.key]
                edges = self._point_edges(entry, delta, i)
                for edge, h_key in zip(edges, _h_keys(edges)):
                    entry.discard(edge)
                    self._set_edge(h_key, 0.0)
            later.append(delta)
        for delta in later:
            self._apply_delta(delta, i, report)
        self._flush_queued()
        report.churn = self._log_net_change()
        report.edges_changed = len(self._diff) - diff_mark
        return report

    def _apply_delta(self, delta: wspd.PairDelta, pid: int,
                     report: UpdateReport):
        key = delta.key
        a_node = self.tree.by_tok[key >> _SHIFT]
        b_node = self.tree.by_tok[key & _MASK]
        if delta.old is None:
            self._store[key] = self._build_pair(a_node, b_node)
            report.pairs_added += 1
            return
        entry = self._store[key]
        if delta.unchanged_ids:
            # same id universe, the moved point changed position: queue its
            # edges for the move's batched evaluation, which reweighs them
            self._queue_edges(entry, self._point_edges(entry, delta, pid))
            report.pairs_reweighted += 1
            return
        self._resample_pair(key, entry, delta, a_node, b_node, pid, report)

    def _resample_pair(self, key, entry: PairSample, delta, a_node, b_node,
                       pid: int, report: UpdateReport):
        new_a, new_b = delta.new
        nx, ny = new_a[0], new_b[0]
        s_new = self.sample_size(nx, ny)
        # hysteresis: a whole pair stays whole up to 4 * s, a sampled pair
        # stays sampled down to s
        if entry.materialized and nx * ny <= 4 * s_new:
            # the departed point's edges are already evicted; only the
            # arriving point's slab is new
            if new_a[1]:
                self._queue_slab(entry, [pid], self.tree.subtree_ids(b_node))
            elif new_b[1]:
                self._queue_slab(entry, self.tree.subtree_ids(a_node), [pid])
            entry.nx, entry.ny, entry.s_target = nx, ny, s_new
            report.pairs_extended += 1
        elif not entry.materialized and nx * ny <= s_new:
            self._drop_pair(key)
            self._store[key] = self._build_pair(a_node, b_node)
            report.pairs_rematerialized += 1
        else:
            self._fast_resample(entry, a_node, b_node, new_a, new_b, pid,
                                s_new)
            report.pairs_resampled += 1

    def _side(self, node):
        kth = self.tree.kth_leaf
        return node.count, lambda idx: kth(node, idx).pid

    def _fast_resample(self, entry, a_node, b_node, new_a, new_b, pid, s_new):
        nx, in_a = new_a
        ny, in_b = new_b
        total = nx * ny   # > s_new, or the pair would have been made whole
        if entry.materialized:
            entry.to_sampled()
        # the departed point's edges were evicted in the release phase
        evicted, added = sampling.resample(
            entry, self._side(a_node), self._side(b_node), pid, in_a, in_b,
            s_new, self.rng)
        for h_key in _h_keys(evicted):
            self._set_edge(h_key, 0.0)
        if abs(entry.scale * s_new / total - 1.0) > SCALE_BAND * self.eps:
            entry.scale = total / s_new
            scale = entry.scale
            for h_key, raw in zip(_h_keys(entry.edges), entry.raw):
                self._set_edge(h_key, raw * scale)
        self._queue_edges(entry, added)
        entry.s_target = s_new
        entry.nx, entry.ny = nx, ny

    # -- read-out interfaces ----------------------------------------------------

    def get_diff(self) -> list:
        """Return and clear the pending log: per move, (i, j, -old) then
        (i, j, +new), i < j, for each edge whose weight changed, no zeros."""
        out = self._diff
        self._diff = []
        return out

    def get_laplacian(self) -> np.ndarray:
        return laplacian_from_edges(
            self.n, [(k >> SHIFT, k & MASK, w) for k, w in self._h.items()])

    def edge_map(self) -> dict:
        """H as {(i, j): weight}, i < j."""
        return {(k >> SHIFT, k & MASK): w for k, w in self._h.items()}

    @property
    def edge_count(self) -> int:
        return len(self._h)

    def fold_store(self) -> dict:
        """Recompute H from the per-pair samples (consistency oracle)."""
        out = {}
        for entry in self._store.values():
            scale = entry.scale
            for edge, raw in zip(entry.edges, entry.raw):
                i, j = edge >> SHIFT, edge & MASK
                ekey = (i, j) if i < j else (j, i)
                if ekey in out:
                    raise AssertionError(f"edge {ekey} owned by two pairs")
                out[ekey] = raw * scale
        return out

    def spectral_check(self, eps: Optional[float] = None):
        lap_g = dense_laplacian(self.pset.points, self.kernel)
        return check_spectral_sparsifier(lap_g, self.get_laplacian(),
                                         self.eps if eps is None else eps)


class FullyDynamicSparsifier:
    """Unbounded-update wrapper: rebuild with a fresh projection every
    `budget` moves (default n // 2)."""

    def __init__(self, pset: PointSet, kernel: KernelFunction, eps: float,
                 delta: float, k: int, seed: int, rebuild_budget: int = 0,
                 **kwargs):
        self._kernel = kernel
        self._eps = eps
        self._delta = delta
        self._k = k
        self._kwargs = kwargs
        self.base_seed = seed
        self.budget = rebuild_budget if rebuild_budget > 0 else max(1, pset.n // 2)
        self.rebuild_count = 0
        self.updates_since_rebuild = 0
        self.inner = DynamicGeoSpar.initialize(
            pset, kernel, eps, delta, k, self.seed_for(0), **kwargs)

    def seed_for(self, rebuild_index: int) -> int:
        ss = np.random.SeedSequence([self.base_seed, rebuild_index])
        return int(ss.generate_state(1)[0])

    def update(self, i: int, z) -> UpdateReport:
        rebuilt = False
        if self.updates_since_rebuild >= self.budget:
            self.rebuild()
            rebuilt = True
        report = self.inner.update(i, z)
        self.updates_since_rebuild += 1
        report.rebuilt = rebuilt
        return report

    def rebuild(self):
        self.rebuild_count += 1
        self.updates_since_rebuild = 0
        self.inner = DynamicGeoSpar.initialize(
            self.inner.pset, self._kernel, self._eps, self._delta, self._k,
            self.seed_for(self.rebuild_count), **self._kwargs)

    def get_laplacian(self):
        return self.inner.get_laplacian()

    def spectral_check(self, eps=None):
        return self.inner.spectral_check(eps)


def adversarial_mode(cfg: RunConfig, n: int, d: int, alpha: float,
                     budget_c: float = 4.0) -> RunConfig:
    """Preset for adversarially robust operation: k = ceil(sqrt(log2 n)).

    Warns (never raises) when d * log2(alpha) exceeds budget_c * log2(n),
    the regime where the robustness guarantee degrades.
    """
    if d * math.log2(max(alpha, 1.0)) > budget_c * math.log2(max(n, 2)):
        warnings.warn(
            "aspect-ratio/dimension budget exceeded: "
            f"d*log2(alpha) = {d * math.log2(alpha):.1f} > "
            f"{budget_c} * log2(n) = {budget_c * math.log2(n):.1f}",
            RuntimeWarning, stacklevel=2)
    return replace(cfg, k=adversarial_k(n))
