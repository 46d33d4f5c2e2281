"""The dynamic geometric spectral sparsifier.

Pipeline: project the points to k dimensions, build a compressed quad tree
and a 2-WSPD over the projections, stopped where no pair can be sampled,
view every pair as a biclique in the original d-dimensional space, and
keep a uniform edge sample per biclique, scaled by |X||Y|/s (a biclique
of fewer than 2s cells is kept whole, unscaled).  A point move re-runs
only the affected WSPD generators and converts each touched sampled
pair's old sample into a fresh uniform one with `sampling.resample` (a
hypergeometric count of edges through the arriving point), so the
sparsifier changes by few edges.  All draws go through `sampling`; this
module weighs the drawn edges and logs the net change.

A pair is sampled only where its sample is at most half its biclique: a
new pair (at set-up or on a move) is sampled iff 2s <= |X||Y|.  A changed
pair keeps its kind while it stays in that kind's band, so moves near the
threshold do not flip it: a whole pair stays whole while |X||Y| <= 4s, and
a sampled pair stays sampled while 4s <= 3|X||Y|, so the rejection loop
in `sampling` runs at a fill of at most 3/4.  The rule reads the sides'
point counts off their tree nodes.  A sampled pair keeps its scale while
that is within SCALE_BAND * eps (theta * eps) of the exact |X||Y|/s,
relative; only when the band is left is the whole sample rewritten at the
exact scale.  Each pair's Laplacian is then its exactly scaled sample's
times a factor in [1 - theta*eps, 1 + theta*eps], so an eps-sparsifier at
exact scales stays a ((1 + eps)(1 + theta*eps) - 1)-sparsifier.

So no pair with a side of fewer than t points can be sampled, where t is
the least side count m of any pair (m, M), m + M <= n, that meets the
loosest band, 4s <= 3mM (n + 1 if none does; `_least_sampled_side`).
The WSPD is built with min_side t: a recursion call with a side below t
is kept as one stop key, a block of cells that are all whole, and is not
split further.  A stop key need not be well separated; its side counts
fail every band, so the sparsifier sees it as a whole pair, and with the
pairs it still covers every cell once.  Sides only shrink down the
recursion, so every pair with both sides of t points or more is the
full WSPD's pair, under the same key.  A key that emerges on a move when
a side reaches t points is new to the pair set, so it takes the new-pair
rule, 2s <= |X||Y|; the full WSPD would have held it already as a whole
pair, and kept it whole up to 4s.  Both rules give a valid sparsifier,
and here they agree.  The side that reached t holds exactly t points,
and t - 1 points fail the loosest band with any partner: for |Y| = M,
the pair (t - 1, M + 1) gives 4s > 3(t - 1)(M + 1), which is at least
2tM once t >= 3.  So 2s > tM, and the new key is whole.  (A node that
reaches t <= 2 points is new, since a leaf never gains a point, so no
key emerges there.)

A whole pair is its WSPD key alone: the store holds only the sampled
pairs, as `sampling.PairSample`s, and a live key the store does not hold
is whole.  Its edges are its biclique's cells, and a whole edge's weight
is its kernel value at the current points, which the points already fix:
nothing stores it.  A sample keeps its two sides as id lists, and its
edges and their raw weights as two numpy arrays; a sampled edge's weight
is raw * scale, read from its sample, and nothing else holds it.  The
samples, the write queue and the diff pass all hold an edge as one
packed int, `sampling.edge(i, j)` = min id << 32 | max id, as the WSPD
keys do with tokens.  The whole edges are the cells outside the samples'
side lists, so `edge_count` comes from the counts, n(n - 1)/2 less each
sample's |X||Y| plus its size, and `edge_map` and `get_laplacian` read
the samples' edges and weigh the whole ones on call, in one kernel
evaluation; they and the diff log decode the keys to (i, j) with i < j.

Set-up lists the ids of the sampled pairs alone (the kind rule reads the
sides' point counts off their nodes), draws their samples and weighs
them in one batch, one kernel evaluation.  An all-whole set-up weighs
nothing and stores no sample.

The WSPD covers every pair of points exactly once (Callahan and Kosaraju,
JACM 1995), before a move and after it.  A pair the move keeps covers the
same cells apart from those through the moved point p, so the pairs it
drops and the pairs it adds cover the same cells apart from p's.  An edge
that avoids p therefore keeps its weight unless it passes between a
whole pair and a sampled one: only where a sampled pair is born, dropped
or flips kind does a move list cells, from the tree or from the sample's
lists.  A born sample (new, or a whole pair turned sampled) draws its
edges; a dropped sample (gone, or turned whole) leaves the store with
its edges, as a kept sample drops the edges through p it releases.  The
move logs the whole edges' change from two maps of weights, before and
after: p's whole edges, weighed at its old position and at its new one
((p, j) is whole unless j is on the other side of a sample holding p),
and the cells that change kind, weighed once since neither end moved: a
born sample's cells that no dropped sample held (before), and a dropped
sample's cells that no born sample took (after).  An all-whole move thus
weighs p's 2(n - 1) edges and lists no cell.  `fold_store` lists every
whole pair's cells from the tree, an oracle independent of the moves:
`fold_store() == edge_map()` checks the tree's pair cover against the
samples' side lists and their complement.  Both sides read a sampled
edge from its sample, so only a replay of the diff log checks the
sampled edges' change.

A sample's new edges go through one queue of blocks, one per sample: its
new draws (builds and resamples), or the indices of the moved point's
edges in a sample that keeps its ids (reweights).  The queue is flushed
once, at the end of each move, and the flush writes each block to its
sample, in queue order.  The queued edges and the two maps' edges are
weighed in one kernel evaluation per operation.  Kernel values do not
depend on the batch, and no other pair touches a queued edge, so every
weight is the same as if each edge were weighed on the spot.  A
resample's evictions and a rescale edit their sample directly, and
they touch only their own pair's edges.

The diff log is net per move.  Each edit of a sample records the edges
it takes out, at their weights before the move: a dropped sample's
edges, the edges a release takes through p, a resample's evictions, a
rescaled sample's edges at the old scale, and a reweight's indices.  The
flush returns the queued edges at raw * scale, and a rescale adds its
edges at the new scale; the maps give the whole edges' weights.  An edge
is taken out at most once and put in at most once, so one numpy pass at
the move's end (`np.unique` over the edges, then a mask of the changed
ones) logs (i, j, -old) then (i, j, +new) per edge whose weight changed
(no zero entries), and replaying the log onto an older edge map rebuilds
the current one exactly.  An edge that only changes owner between two
WSPD pairs never reaches the log.

The WSPD hands a move back as the set of pair keys it may have changed
and, among them, the keys new to the pair set; the sparsifier reads the
rest itself.  A key is dropped if the WSPD no longer holds it, its sides'
point counts are their nodes' counts, and a side holds the moved point
before (after) the move if its token is on the point's root path before
(after) it.  A kept pair whose sides hold the point as before kept its
ids: only a sample's edges through the point are reweighed.  Pairs go in
key order, which fixes the order of RNG draws.  The moved point is
appended to its new side's list before `sampling.resample` draws.
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
    OutOfRegion,
    check_index,
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
from .sampling import MASK, SHIFT, PairSample, edge, pack

# theta: a sampled pair keeps its scale while that is within SCALE_BAND * eps
# of the exact |X||Y|/s, relative
SCALE_BAND = 0.1
# adversarial_mode warns where d * log2(alpha) exceeds BUDGET_C * log2(n)
BUDGET_C = 4.0


def _cat(arrays, dtype=np.int64) -> np.ndarray:
    """The arrays joined in order, as one array of `dtype` (empty if none)."""
    return np.concatenate([np.empty(0, dtype), *arrays])


def _cells(a: list, b: list, pid: int = -1) -> list:
    """The packed edges a x b that do not pass through `pid`, row by row."""
    return [edge(i, j) for i in a if i != pid for j in b if j != pid]


@dataclass
class UpdateReport:
    """Per-update accounting, used by replay reports and churn tests.

    Every touched pair is counted in exactly one of the six pair counters.
    A pair here is a key of the WSPD's pair set, a stop key included.
    """

    pairs_touched: int = 0         # WSPD pairs added, removed or changed
    pairs_removed: int = 0         # pairs dropped from the WSPD
    pairs_added: int = 0           # pairs new to the WSPD
    pairs_resampled: int = 0       # changed pairs left sampled (resample)
    pairs_rematerialized: int = 0  # changed pairs turned the other kind,
    #                                in either direction
    pairs_extended: int = 0        # changed whole pairs kept whole
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
        """Build the sparsifier of `pset`'s kernel graph.  The structure
        owns a copy of the points (`self.pset`), which its moves update;
        the caller's PointSet is never written."""
        if pset.n < 2:
            raise EmptyInput("need at least 2 points")
        hi = 1.0 if allow_large_eps else 0.1
        if not 0.0 < eps <= hi:
            raise ValueError(f"eps must lie in (0, {hi}]")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        self = object.__new__(cls)
        self.pset = pset.copy()
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
        self._size_c = c_s * eps ** -2 * self.n ** self.gamma
        self._diff = []
        self._store = {}          # sampled pair key -> PairSample
        self._queued = []         # blocks (sample, edges, indices or None)
        proj = {i: self._project_unit(pset.points[i]) for i in range(self.n)}
        self.tree = CompressedQuadTree.build(proj, k)
        self.pairs = wspd.compute_wspd(self.tree,
                                       min_side=self._least_sampled_side())
        by_tok = self.tree.by_tok
        for key in sorted(self.pairs.pairs):
            nx, ny = by_tok[key >> SHIFT].count, by_tok[key & MASK].count
            if 2 * self.sample_size(nx, ny) <= nx * ny:
                self._sample_pair(key)
        self._flush_queued()
        # the edge count at set-up: |X||Y| per whole pair, s per sampled one
        self.sparsity_budget = self.edge_count
        return self

    # -- projection ---------------------------------------------------------

    def _project_unit(self, x) -> np.ndarray:
        return (self.jl.project(x) + self._proj_off) * self._proj_scale

    # -- sizing policy ------------------------------------------------------

    def sample_size(self, nx: int, ny: int) -> int:
        """ceil(c_s * eps^-2 * n^gamma * (nx+ny) * ln(nx+ny+1))."""
        return math.ceil(self._size_c * (nx + ny) * math.log(nx + ny + 1))

    def _least_sampled_side(self) -> int:
        """t: the least m such that some pair (m, M), m + M <= n, can be
        sampled, 4 * sample_size(m, M) <= 3mM; n + 1 if none can.

        The sample size depends on x = m + M alone, and for a fixed x,
        3m(x - m) grows with the smaller side m up to x / 2, so the sides
        m <= x / 2 that pass form a range that ends at x / 2.  One pass
        over x, from the least side found so far down, finds t; every
        test is exact integer arithmetic on `sample_size` itself.
        """
        best = self.n + 1
        for x in range(2, self.n + 1):
            m = min(best - 1, x // 2)
            while m >= 1 and 4 * self.sample_size(m, x - m) <= 3 * m * (x - m):
                best = m
                m -= 1
        return best

    # -- diff log -----------------------------------------------------------

    def _log_net_change(self, gone: list, came: list) -> int:
        """Append (i, j, -old) then (i, j, +new) for each edge whose weight
        the move changed, and return their count.  `gone` and `came` are
        blocks (packed edges, weights): the edges the move took out, at
        their weights before it, and the edges it put in, at their weights
        after it.  Each edge is in at most one block of each list, and an
        edge missing from a list weighs 0 there."""
        cut = sum(len(e) for e, _ in gone)
        keys, at = np.unique(_cat([e for e, _ in gone + came]),
                             return_inverse=True)
        old, new = np.zeros(len(keys)), np.zeros(len(keys))
        old[at[:cut]] = _cat([w for _, w in gone], np.float64)
        new[at[cut:]] = _cat([w for _, w in came], np.float64)
        changed = old != new
        keys = np.repeat(keys[changed], 2)
        w = np.column_stack([-old[changed], new[changed]]).ravel()
        logged = w != 0.0
        keys, w = keys[logged], w[logged]
        self._diff.extend(zip((keys >> SHIFT).tolist(),
                              (keys & MASK).tolist(), w.tolist()))
        return int(changed.sum())

    # -- pair construction ----------------------------------------------------

    def _sqdist(self, packed: np.ndarray) -> np.ndarray:
        """The squared lengths of packed edges at the current points."""
        pts = self.pset.points
        return np.sum((pts[packed >> SHIFT] - pts[packed & MASK]) ** 2, axis=1)

    def _weigh(self, *sqdists) -> list:
        """Kernel values of each array of squared distances, with one kernel
        evaluation over them all, and none if they are all empty."""
        d2 = np.concatenate(sqdists)
        w = self.kernel.eval_sqdist(d2) if len(d2) else d2
        return np.split(w, np.cumsum([len(x) for x in sqdists])[:-1])

    def _weights(self, packed: np.ndarray) -> np.ndarray:
        """The raw kernel weights of packed edges at the current points."""
        return self._weigh(self._sqdist(packed))[0]

    def _flush_queued(self, *sqdists):
        """Weigh the queued edges and each array of `sqdists` with one
        kernel evaluation, empty the queue, and write each block to its
        sample: new draws are appended, reweighed indices are written in
        place.  Returns the queued edges with their weights (raw times
        their sample's scale) as one block, and the weights of `sqdists`.
        Runs once per set-up and once at the end of each move.  No other
        pair of the move claims a queued edge, and no edit of its sample
        follows, so deferring the write changes neither a weight nor a
        sample's edge order."""
        blocks, self._queued = self._queued, []
        packed = _cat([edges for _, edges, _ in blocks])
        ws, *rest = self._weigh(self._sqdist(packed), *sqdists)
        scaled, at = [], 0
        for entry, edges, idx in blocks:
            w = ws[at:at + len(edges)]
            at += len(edges)
            if idx is None:
                entry.append(edges, w)
            else:                # reweighted: the sample keeps its order
                entry.raw[idx] = w
            scaled.append(w * entry.scale)
        return (packed, _cat(scaled, np.float64)), rest

    def _draw_pair(self, a: list, b: list) -> PairSample:
        """A fresh uniform sample of a x b, its drawn edges queued."""
        s = self.sample_size(len(a), len(b))
        entry = PairSample(a, b, len(a) * len(b) / s)
        self._queued.append(
            (entry, sampling.draw_sample(a, b, s, self.rng), None))
        return entry

    def _sample_pair(self, key) -> PairSample:
        """Sample the pair under `key`, which was whole or is new: its
        sides are listed from the tree and a fresh sample is drawn."""
        tree, by_tok = self.tree, self.tree.by_tok
        self._store[key] = entry = self._draw_pair(
            tree.subtree_ids(by_tok[key >> SHIFT]),
            tree.subtree_ids(by_tok[key & MASK]))
        return entry

    # -- update ---------------------------------------------------------------

    def update(self, i: int, z) -> UpdateReport:
        """Move point i to z (coordinates in the unit frame [0,1)^d)."""
        i = check_index(i, self.n)
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
        keys, fresh = wspd.find_modified_pairs(tree, self.pairs, i, q_new)
        new_path = {nd.tok for nd in tree.path_to_root(tree.point_index[i])}
        # the squared lengths of i's edges, at its old and its new position
        pts = self.pset.points
        d2_old = np.sum((pts - pts[i]) ** 2, axis=1)
        pts[i] = z
        d2_new = np.sum((pts - z) ** 2, axis=1)
        report = UpdateReport(pairs_touched=len(keys))
        # Pairs go in key order, which fixes the order of RNG draws.  Every
        # draw waits for the flush, and a pair's direct edits touch only
        # its own sample, so the pairs can go one at a time.  old/new:
        # whether each side holds the moved point before/after the move;
        # old is None for a new pair.  (i, j) was (is) whole unless j is on
        # the other side of a sample that held (holds) i.  gone/came: the
        # (edges, weights) blocks the move takes out and puts in.
        store, live, by_tok = self._store, self.pairs.pairs, tree.by_tok
        was_whole, is_whole = np.ones(self.n, bool), np.ones(self.n, bool)
        was_whole[i] = is_whole[i] = False
        born, dropped, gone, came = [], [], [], []
        for key in sorted(keys):
            entry = store.get(key)
            ta, tb = key >> SHIFT, key & MASK
            old = None if key in fresh else (ta in old_path, tb in old_path)
            if entry is not None and any(old):
                was_whole[entry.b if old[0] else entry.a] = False
            if key not in live:
                if entry is not None:
                    dropped.append(store.pop(key))
                report.pairs_removed += 1
                continue
            new = (ta in new_path, tb in new_path)
            if old == new:
                # same ids, the moved point changed position: queue its
                # sampled edges for the move's batched evaluation
                if entry is not None:
                    idx = np.flatnonzero(entry.through(i))
                    edges = entry.edges[idx]
                    gone.append((edges, entry.raw[idx] * entry.scale))
                    self._queued.append((entry, edges, idx))
                    if any(new):
                        is_whole[entry.b if new[0] else entry.a] = False
                report.pairs_reweighted += 1
                continue
            a_node, b_node = by_tok[ta], by_tok[tb]
            nx, ny = a_node.count, b_node.count
            s, total = self.sample_size(nx, ny), nx * ny
            if old is None:
                report.pairs_added += 1
                if 2 * s <= total:
                    entry = self._sample_pair(key)
                    born.append(entry)
            elif entry is None:
                # a whole pair stays whole while |X||Y| <= 4s
                if total > 4 * s:
                    entry = self._sample_pair(key)
                    born.append(entry)
                    report.pairs_rematerialized += 1
                else:
                    report.pairs_extended += 1
            else:
                released, raw = entry.release(i, old)
                gone.append((released, raw * entry.scale))
                # a sampled pair stays sampled while 4s <= 3|X||Y|
                if 4 * s > 3 * total:
                    dropped.append(store.pop(key))
                    entry = None
                    report.pairs_rematerialized += 1
                else:
                    entry.join(i, new)
                    self._resample_pair(entry, s, total, new, i, gone, came)
                    report.pairs_resampled += 1
            if entry is not None and any(new):
                is_whole[entry.b if new[0] else entry.a] = False
        # the whole edges before and after: i's, weighed at its old and new
        # position, and the cells that change kind, weighed once since
        # neither end moved
        js_old, js_new = np.flatnonzero(was_whole), np.flatnonzero(is_whole)
        taken = {e for x in born for e in _cells(x.a, x.b, i)}
        freed = {e for x in dropped for e in _cells(x.a, x.b, i)}
        gained = np.fromiter(taken - freed, np.int64)
        lost = np.fromiter(freed - taken, np.int64)
        queued, (w_before, w_after) = self._flush_queued(
            np.concatenate([d2_old[js_old], self._sqdist(gained)]),
            np.concatenate([d2_new[js_new], self._sqdist(lost)]))
        gone += [(x.edges, x.raw * x.scale) for x in dropped]
        gone.append((np.concatenate([pack(i, js_old), gained]), w_before))
        came += [queued, (np.concatenate([pack(i, js_new), lost]), w_after)]
        report.churn = self._log_net_change(gone, came)
        report.edges_changed = len(self._diff) - diff_mark
        return report

    def _resample_pair(self, entry: PairSample, s: int, total: int,
                       new: tuple, pid: int, gone: list, came: list):
        """Turn a kept sample whose sides gained or lost the moved point
        into a uniform s-sample of its total cells; the departed point's
        edges are already released.  The evicted edges go to `gone`; a
        rescale puts the kept edges in `gone` at the old scale and in
        `came` at the new one."""
        evicted, raw, added = sampling.resample(entry, pid, *new, s, self.rng)
        gone.append((evicted, raw * entry.scale))
        if abs(entry.scale * s / total - 1.0) > SCALE_BAND * self.eps:
            gone.append((entry.edges, entry.raw * entry.scale))
            entry.scale = total / s
            came.append((entry.edges, entry.raw * entry.scale))
        self._queued.append((entry, added, None))

    # -- read-out interfaces ----------------------------------------------------

    def get_diff(self) -> list:
        """Return and clear the pending log: per move, (i, j, -old) then
        (i, j, +new), i < j, for each edge whose weight changed, no zeros."""
        out = self._diff
        self._diff = []
        return out

    def _edges(self):
        """Every edge of the sparsifier as id arrays i < j and weights: the
        samples' edges at raw * scale, then the whole edges, every cell
        outside the samples' side lists, weighed at the current points."""
        samples = self._store.values()
        whole = np.triu(np.ones((self.n, self.n), dtype=bool), 1)
        for x in samples:
            whole[np.ix_(x.a, x.b)] = whole[np.ix_(x.b, x.a)] = False
        ia, ib = np.nonzero(whole)
        keys = _cat([x.edges for x in samples])
        return (np.concatenate([keys >> SHIFT, ia]),
                np.concatenate([keys & MASK, ib]),
                _cat([x.raw * x.scale for x in samples]
                     + [self._weights(ia << SHIFT | ib)], np.float64))

    def get_laplacian(self) -> np.ndarray:
        return laplacian_from_edges(self.n, np.column_stack(self._edges()))

    def edge_map(self) -> dict:
        """The sparsifier as {(i, j): weight}, i < j."""
        ia, ib, w = self._edges()
        return dict(zip(zip(ia.tolist(), ib.tolist()), w.tolist()))

    @property
    def edge_count(self) -> int:
        """n(n - 1)/2, less each sample's |X||Y| cells, plus its edges."""
        return self.n * (self.n - 1) // 2 + sum(
            len(x) - len(x.a) * len(x.b) for x in self._store.values())

    def fold_store(self) -> dict:
        """Recompute the edge map from the pairs (consistency oracle): a
        sampled pair's raw weights times its scale, and every other live
        pair's cells, listed from the tree, weighed anew at the current
        points in one kernel evaluation.  `fold_store() == edge_map()`
        checks the tree's pair cover against the samples' side lists and
        their complement; it reads each sampled edge from its sample, as
        `edge_map` does."""
        store, tree, by_tok = self._store, self.tree, self.tree.by_tok
        if not store.keys() <= self.pairs.pairs:
            raise AssertionError("a sample outlived its WSPD pair")
        edges, weights, whole = [], [], []
        for key in self.pairs.pairs:
            entry = store.get(key)
            if entry is None:
                whole.extend(_cells(tree.subtree_ids(by_tok[key >> SHIFT]),
                                    tree.subtree_ids(by_tok[key & MASK])))
            else:
                edges.extend(entry.edges.tolist())
                weights.extend((entry.raw * entry.scale).tolist())
        edges.extend(whole)
        weights.extend(self._weights(np.array(whole, np.int64)).tolist())
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
        """Move point i to z, rebuilding first when the budget is spent.
        A rejected move undoes that rebuild: it changes nothing."""
        before = self.inner, self.rebuild_count, self.updates_since_rebuild
        rebuilt = self.updates_since_rebuild >= self.budget
        if rebuilt:
            self.rebuild()
        try:
            report = self.inner.update(i, z)
        except BaseException:
            self.inner, self.rebuild_count, self.updates_since_rebuild = before
            raise
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


def adversarial_mode(cfg: RunConfig, n: int, d: int,
                     alpha: float) -> RunConfig:
    """Preset for adversarially robust operation: `cfg` with k set to
    `adversarial_k(n, d)`, ceil(sqrt(log2 n)) capped at d - 1.

    Warns (never raises) when d * log2(alpha) exceeds BUDGET_C * log2(n),
    the regime where the robustness guarantee degrades.
    """
    if d * math.log2(max(alpha, 1.0)) > BUDGET_C * math.log2(max(n, 2)):
        warnings.warn(
            "aspect-ratio/dimension budget exceeded: "
            f"d*log2(alpha) = {d * math.log2(alpha):.1f} > "
            f"{BUDGET_C} * log2(n) = {BUDGET_C * math.log2(n):.1f}",
            RuntimeWarning, stacklevel=2)
    return replace(cfg, k=adversarial_k(n, d))
