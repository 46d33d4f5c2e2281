"""The dynamic geometric spectral sparsifier.

Pipeline: project the points to k dimensions, build a compressed quad tree
and a 2-WSPD over the projections, view every well-separated pair as a
biclique in the original d-dimensional space, and keep a uniform edge
sample per biclique, scaled by |X||Y|/s (a biclique of fewer than 2s
cells is kept whole, unscaled).  A point move re-runs only the affected WSPD generators
and converts each touched pair's old sample into a fresh uniform one with
`sampling.resample` (a hypergeometric count of edges through the arriving
point), so the sparsifier changes by few edges.  All draws go through
`sampling`; this module weighs the drawn edges and logs the net change.

A pair is sampled only where its sample is at most half its biclique: a
new pair (at set-up or on a move) is sampled iff 2s <= |X||Y|.  A changed
pair keeps its kind while it stays in that kind's band, so moves near the
threshold do not flip it: a whole pair stays whole while |X||Y| <= 4s, and
a sampled pair stays sampled while 4s <= 3|X||Y|, so every rejection loop
in `sampling` runs at a fill of at most 3/4.  A pair past its band is
built afresh from its own lists, as the other kind.  A sampled pair keeps
its scale while that is within SCALE_BAND * eps (theta * eps) of the
exact |X||Y|/s, relative; only when the band is left is the whole sample
rewritten at the exact scale.  Each pair's Laplacian is then its exactly
scaled sample's times a factor in [1 - theta*eps, 1 + theta*eps], so an
eps-sparsifier at exact scales stays a
((1 + eps)(1 + theta*eps) - 1)-sparsifier.

Every pair keeps its two sides as id lists (`sampling.Biclique`).  A
small biclique is kept whole as a `WholePair`: only the lists, so its
edges are a x b and the graph H is the only store of their (unscaled)
weights.  A sampled pair is a `sampling.PairSample`, which also keeps its
edges with their raw kernel weights, and draws its cells from the lists;
H maps an unordered id pair to raw * scale.  The samples, the write queue
and H all hold an edge as one packed int, `sampling.edge(i, j)` = min id
<< 32 | max id, as the WSPD keys do with tokens.  H and the samples'
indexes are then dicts of ints and floats, which the garbage collector
never tracks; `edge_map`, `fold_store`, `get_laplacian` and the diff log
decode the keys to (i, j) with i < j.  Every new weight comes from one
path: edges drawn by sampled builds and resamples, whole bicliques, the
arriving point's slab of a whole pair and the moved point's edges in pairs
that keep their ids (reweights) are queued and weighed in one batched
kernel evaluation at the end of set-up and of each move, then written in
queue order.  Kernel values do not depend on the batch, and no other pair
touches a queued key, so every weight is the same as if each edge were
weighed on the spot.

The diff log is net per move: H writes remember each key's weight from
before the move, and one pass at its end logs (i, j, -old) then
(i, j, +new) per edge whose weight changed (no zero entries), so replaying
the log onto an older edge map rebuilds the current one exactly.  An edge
that only changes owner between two WSPD pairs never reaches the log.

The WSPD hands a move back as a set of pair keys, and the sparsifier reads
each pair's state itself, in key order: it is old if the store holds its
key and new if the WSPD does, its sides' point counts are their nodes'
counts, and a side holds the moved point before (after) the move if its
token is on the point's root path before (after) it.  A pair old and new
whose sides hold the point as before kept its ids: only the point's
edges there are reweighed.

A pair whose sides gained or lost the point is first released: the
point's edges leave H (found through a sampled pair's per-point index, or
as a whole pair's slab, [pid] x b or a x [pid]) and the point leaves its
old side's list.  The point is then appended to its new side's list,
before its arriving slab is queued, `sampling.resample` draws or the
pair is built afresh from its lists.
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
from .sampling import MASK, SHIFT, Biclique, PairSample, edge

# theta: a sampled pair keeps its scale while that is within SCALE_BAND * eps
# of the exact |X||Y|/s, relative
SCALE_BAND = 0.1


class WholePair(Biclique):
    """A biclique kept whole: its edges are a x b, and H is the only store
    of their weights (at scale 1)."""

    __slots__ = ()

    @property
    def edges(self) -> list:
        """The packed edges a x b, row by row."""
        return [edge(i, j) for i in self.a for j in self.b]

    def slab(self, pid: int, sides: tuple) -> list:
        """The packed edges through `pid`: [pid] x b or a x [pid]."""
        if sides[0]:
            return [edge(pid, j) for j in self.b]
        return [edge(pid, j) for j in self.a] if sides[1] else []

    def release(self, pid: int, sides: tuple) -> list:
        """Remove `pid` from its side; return the slab it leaves."""
        edges = self.slab(pid, sides)
        self.leave(pid, sides)
        return edges


@dataclass
class UpdateReport:
    """Per-update accounting, used by replay reports and churn tests.

    Every touched pair is counted in exactly one of the six pair counters.
    """

    pairs_touched: int = 0         # WSPD pairs added, removed or changed
    pairs_removed: int = 0         # pairs dropped from the WSPD
    pairs_added: int = 0           # pairs new to the WSPD, built afresh
    pairs_resampled: int = 0       # changed pairs left sampled (resample)
    pairs_rematerialized: int = 0  # changed pairs rebuilt as the other
    #                                kind, in either direction
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
                   allow_large_eps: bool = False) -> "DynamicGeoSpar":
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
        self.gamma = kernel.lipschitz_L / k
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
        self._queued = ([], [])   # owner sample (None: whole), packed edge
        proj = {i: self._project_unit(pset.points[i]) for i in range(self.n)}
        self.tree = CompressedQuadTree.build(proj, k)
        self.pairs = wspd.compute_wspd(self.tree)
        tree, by_tok = self.tree, self.tree.by_tok
        for key in sorted(self.pairs.pairs):
            self._store[key] = self._build_pair(
                tree.subtree_ids(by_tok[key >> SHIFT]),
                tree.subtree_ids(by_tok[key & MASK]))
        self._flush_queued()
        # H's edge count at set-up: |X||Y| per whole pair, s per sampled one
        self.sparsity_budget = len(self._h)
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

    def _queue_edges(self, entry: Optional[PairSample], edges: list):
        """Queue packed edges of `entry`, in order; `entry` is None for a
        whole pair, whose weights only H holds.  Ints and owner references
        only: the queue allocates no objects for the garbage collector to
        track."""
        owners, queued = self._queued
        owners.extend([entry] * len(edges))
        queued.extend(edges)

    def _flush_queued(self):
        """Weigh every queued edge with one kernel evaluation, then write
        them to H, and a sampled pair's also to its sample, at the sample's
        scale, in queue order.

        The queue holds drawn and whole-pair edges, which are added, and
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
        for entry, key, w in zip(owners, edges, ws.tolist()):
            if entry is not None:
                idx = entry.pos.get(key)
                if idx is None:
                    entry.add(key, w)
                else:            # reweighted: the sample keeps its order
                    entry.raw[idx] = w
                w *= entry.scale
            self._set_edge(key, w)

    def _build_pair(self, a: list, b: list):
        """The pair a x b built afresh: sampled iff its sample is at most
        half its biclique, whole otherwise."""
        s = self.sample_size(len(a), len(b))
        total = len(a) * len(b)
        if 2 * s > total:
            entry = WholePair(a, b)
            self._queue_edges(None, entry.edges)
        else:
            entry = PairSample(a, b, total / s)
            self._queue_edges(entry, sampling.draw_sample(a, b, s, self.rng))
        return entry

    def _drop_pair(self, key):
        for e in self._store.pop(key).edges:
            self._set_edge(e, 0.0)

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
        tree = self.tree
        old_path = {nd.tok for nd in tree.path_to_root(tree.point_index[i])}
        keys = wspd.find_modified_pairs(tree, self.pairs, i, q_new)
        new_path = {nd.tok for nd in tree.path_to_root(tree.point_index[i])}
        self.pset.points[i] = z
        report = UpdateReport(pairs_touched=len(keys))
        # Pairs go in key order, which fixes the order of RNG draws.  Every
        # claim of an edge is queued until the flush, and a pair's direct H
        # writes touch only its own edges, so releasing and applying each
        # pair in turn leaves no edge to two owners.  old/new: whether each
        # side holds the moved point before/after the move; old is None for
        # a pair new to the WSPD.
        store, live, by_tok = self._store, self.pairs.pairs, tree.by_tok
        for key in sorted(keys):
            if key not in live:
                self._drop_pair(key)
                report.pairs_removed += 1
                continue
            ta, tb = key >> SHIFT, key & MASK
            new = (ta in new_path, tb in new_path)
            old = (ta in old_path, tb in old_path) if key in store else None
            if old is not None and old != new:
                for e in store[key].release(i, old):
                    self._set_edge(e, 0.0)
            self._apply_change(key, by_tok[ta], by_tok[tb], old, new, i,
                               report)
        self._flush_queued()
        report.churn = self._log_net_change()
        report.edges_changed = len(self._diff) - diff_mark
        return report

    def _apply_change(self, key, a_node, b_node, old, new, pid: int,
                      report: UpdateReport):
        if old is None:
            self._store[key] = self._build_pair(
                self.tree.subtree_ids(a_node), self.tree.subtree_ids(b_node))
            report.pairs_added += 1
            return
        entry = self._store[key]
        if old == new:
            # same id universe, the moved point changed position: queue its
            # edges for the move's batched evaluation, which reweighs them
            if type(entry) is WholePair:
                self._queue_edges(None, entry.slab(pid, old))
            else:
                self._queue_edges(entry, entry.point_edges(pid))
            report.pairs_reweighted += 1
            return
        self._resample_pair(key, entry, a_node.count, b_node.count, new, pid,
                            report)

    def _resample_pair(self, key, entry, nx: int, ny: int, new: tuple,
                       pid: int, report: UpdateReport):
        """A pair whose sides gained or lost the moved point, nx x ny after
        the move; the departed point's edges are already released.  It is
        extended, resampled, or rebuilt as the other kind."""
        s, total = self.sample_size(nx, ny), nx * ny
        whole = type(entry) is WholePair
        # hysteresis: a whole pair stays whole while |X||Y| <= 4s and a
        # sampled pair stays sampled while 4s <= 3|X||Y|
        if (total > 4 * s) if whole else (4 * s > 3 * total):
            self._drop_pair(key)
            entry.join(pid, new)
            self._store[key] = self._build_pair(entry.a, entry.b)
            report.pairs_rematerialized += 1
            return
        entry.join(pid, new)
        if whole:
            # only the arriving point's slab is new
            self._queue_edges(None, entry.slab(pid, new))
            report.pairs_extended += 1
            return
        evicted, added = sampling.resample(entry, pid, *new, s, self.rng)
        for e in evicted:
            self._set_edge(e, 0.0)
        if abs(entry.scale * s / total - 1.0) > SCALE_BAND * self.eps:
            scale = entry.scale = total / s
            for e, raw in zip(entry.edges, entry.raw):
                self._set_edge(e, raw * scale)
        self._queue_edges(entry, added)
        report.pairs_resampled += 1

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
        """Recompute H from the pairs (consistency oracle): a sampled pair's
        raw weights times its scale, and a whole pair's edges weighed anew
        at the current points, in one kernel evaluation."""
        edges, weights, whole = [], [], []
        for entry in self._store.values():
            if type(entry) is WholePair:
                whole.extend(entry.edges)
            else:
                edges.extend(entry.edges)
                weights.extend([raw * entry.scale for raw in entry.raw])
        packed = np.array(whole, dtype=np.int64)
        edges.extend(whole)
        weights.extend(self._weights(packed >> SHIFT, packed & MASK).tolist())
        out = {}
        for key, w in zip(edges, weights):
            ekey = key >> SHIFT, key & MASK
            if ekey in out:
                raise AssertionError(f"edge {ekey} owned by two pairs")
            out[ekey] = w
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
    """Preset for adversarially robust operation: `cfg` with k set to
    `adversarial_k(n, d)`, ceil(sqrt(log2 n)) capped at d - 1.

    Warns (never raises) when d * log2(alpha) exceeds budget_c * log2(n),
    the regime where the robustness guarantee degrades.
    """
    if d * math.log2(max(alpha, 1.0)) > budget_c * math.log2(max(n, 2)):
        warnings.warn(
            "aspect-ratio/dimension budget exceeded: "
            f"d*log2(alpha) = {d * math.log2(alpha):.1f} > "
            f"{budget_c} * log2(n) = {budget_c * math.log2(n):.1f}",
            RuntimeWarning, stacklevel=2)
    return replace(cfg, k=adversarial_k(n, d))
