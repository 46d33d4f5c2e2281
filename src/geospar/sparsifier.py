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
is whole.  Its edges are its biclique's cells, with their raw kernel
weights in H.  A sample keeps its two sides as id lists, and its edges
and their raw weights as two numpy arrays; H maps an unordered id pair
to raw * scale.  H, the samples and the write queue all hold an edge as
one packed int, `sampling.edge(i, j)` = min id << 32 | max id, as the
WSPD keys do with tokens.  H is then a dict of Python ints and floats,
which the garbage collector never tracks; `edge_map`, `fold_store`,
`get_laplacian` and the diff log decode the keys to (i, j) with i < j.

Set-up writes H in one batch, without the per-edge bookkeeping of a
move: H is every edge of the complete graph, less the cells of the
sampled pairs, plus each sample's raw * scale.  The kind rule reads the
sides' point counts off their nodes, so only the sampled pairs list
their ids, and one kernel evaluation weighs the whole edges and the
drawn ones together.

The WSPD covers every pair of points exactly once (Callahan and Kosaraju,
JACM 1995), before a move and after it.  A pair the move keeps covers the
same cells apart from those through the moved point p, so the pairs it
drops and the pairs it adds cover the same cells apart from p's.  An edge
that avoids p therefore keeps its weight unless it passes between a
whole pair and a sampled one: only where a sampled pair is born, dropped
or flips kind does a move list cells, from the tree or from the sample's
lists.  A born sample (new, or a whole pair turned sampled) releases its
cells' edges from H and draws its own; a dropped sample (gone, or turned
whole) releases its edges, and its cells that no born sample took are
claimed whole.  p's edges are settled apart: every edge (p, j) goes to
the whole pairs unless j is on the other side of a sampled pair that
holds p after the move, and where p arrived in such a pair, its edges
there leave H unless the pair draws them.  An all-whole move thus
queues p's n - 1 edges and nothing else.  `fold_store` lists every
whole pair's cells from the tree, an oracle independent of the moves and
of the batch set-up.

Every edge a move claims goes through one queue of blocks, one per
owner: a whole pair's edges (the moved point's edges in whole pairs and a
dropped sample's cells), a sample's new draws (builds and resamples), or
the indices of the moved point's edges in a sample that keeps its ids
(reweights).  The queue is flushed once, at the end of each move, and
the flush writes each edge once, in queue order.  A queued edge that the
move released and that does not pass through p keeps the raw weight it
carried: its ends did not move, so its kernel value is the one it had.
Every other queued edge is weighed in one batched kernel evaluation.
Kernel values do not depend on the batch, and no other pair touches a
queued key, so every weight is the same as if each edge were weighed on
the spot.  Released edges stay in H until the flush; only those no pair
claimed are zeroed, after the writes.  A resample's evictions and a
rescale write H directly, and they touch only their own pair's edges.

The diff log is net per move: H writes remember each key's weight from
before the move, and one pass at its end logs (i, j, -old) then
(i, j, +new) per edge whose weight changed (no zero entries), so replaying
the log onto an older edge map rebuilds the current one exactly.  An edge
that only changes owner between two WSPD pairs never reaches the log.

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
from .sampling import MASK, SHIFT, PairSample, edge

# theta: a sampled pair keeps its scale while that is within SCALE_BAND * eps
# of the exact |X||Y|/s, relative
SCALE_BAND = 0.1


def _concat(blocks) -> np.ndarray:
    """The packed edges of queued blocks, in order, as one int64 array."""
    return np.concatenate([np.asarray(edges, dtype=np.int64)
                           for _, edges, _ in blocks])


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
        self._h = {}
        self._diff = []
        self._store = {}          # sampled pair key -> PairSample
        self._before = {}         # H key -> its weight before the move
        self._queued = []         # blocks (sample or None, edges, indices)
        self._released = {}       # released H key -> raw weight, or NaN
        proj = {i: self._project_unit(pset.points[i]) for i in range(self.n)}
        self.tree = CompressedQuadTree.build(proj, k)
        self.pairs = wspd.compute_wspd(self.tree,
                                       min_side=self._least_sampled_side())
        # H is the complete graph, less the sampled pairs' cells, plus the
        # samples; only the sampled pairs list their ids
        tree, by_tok = self.tree, self.tree.by_tok
        whole = np.triu(np.ones((self.n, self.n), dtype=bool), 1)
        for key in sorted(self.pairs.pairs):
            a_node, b_node = by_tok[key >> SHIFT], by_tok[key & MASK]
            nx, ny = a_node.count, b_node.count
            if 2 * self.sample_size(nx, ny) <= nx * ny:
                a, b = tree.subtree_ids(a_node), tree.subtree_ids(b_node)
                whole[np.ix_(a, b)] = whole[np.ix_(b, a)] = False
                self._store[key] = self._draw_pair(a, b)
        ia, ib = np.nonzero(whole)
        blocks = [(None, ia << SHIFT | ib, None)] + self._queued
        self._queued = []
        packed = _concat(blocks)
        ws = self._weights(packed >> SHIFT, packed & MASK)
        for keys, w in self._settled(blocks, packed, ws):
            self._h.update(zip(keys, w))
        # H's edge count at set-up: |X||Y| per whole pair, s per sampled one
        self.sparsity_budget = len(self._h)
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
        the move changed, and return their count."""
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

    def _queue_edges(self, entry: Optional[PairSample], edges, idx=None):
        """Queue one block of packed edges, in order: a whole pair's
        (`entry` None), whose weights only H holds, a sample's new draws,
        or, with `idx`, the sample's edges at those indices, reweighed."""
        self._queued.append((entry, edges, idx))

    def _release(self, edges):
        """Release edges through the moved point: the flush weighs them
        if a pair claims them and zeroes them if none does."""
        self._released.update(dict.fromkeys(edges, math.nan))

    def _flush_queued(self, pid: int):
        """Settle the move's edges: weigh every queued edge that needs it
        with one kernel evaluation, write the queue to H, block by block in
        queue order, a sample's block at the sample's scale and also to
        the sample, then zero the released edges no pair claimed.

        The queue holds drawn edges and whole pairs' edges, which are
        written to H, and the moved point's edges in samples whose ids did
        not change, which are reweighed in place.  A queued edge that a
        pair released and that does not pass through the moved point `pid`
        keeps the raw weight it carried: its ends did not move.  Runs once
        at the end of each move.  No other pair of the move claims a queued
        key, and no edit of its sample follows, so deferring the write
        changes neither a weight nor a sample's edge order.
        """
        blocks, released = self._queued, self._released
        self._queued, self._released = [], {}
        packed = _concat(blocks)
        ws = np.array([released.pop(e, math.nan) for e in packed.tolist()])
        ia, ib = packed >> SHIFT, packed & MASK
        weigh = np.isnan(ws) | (ia == pid) | (ib == pid)
        ws[weigh] = self._weights(ia[weigh], ib[weigh])
        for keys, w in self._settled(blocks, packed, ws):
            for key, x in zip(keys, w):
                self._set_edge(key, x)
        for key in released:
            self._set_edge(key, 0.0)

    @staticmethod
    def _settled(blocks, packed, ws):
        """Each block's H keys and weights, its raw weights `ws` times its
        sample's scale; a sample's block also goes to the sample: new
        draws are appended, reweighed indices are written in place."""
        at = 0
        for entry, edges, idx in blocks:
            end = at + len(edges)
            w = ws[at:end]
            if entry is not None:
                if idx is None:
                    entry.append(edges, w)
                else:            # reweighted: the sample keeps its order
                    entry.raw[idx] = w
                w = w * entry.scale
            yield packed[at:end].tolist(), w.tolist()
            at = end

    def _draw_pair(self, a: list, b: list) -> PairSample:
        """A fresh uniform sample of a x b, its drawn edges queued."""
        s = self.sample_size(len(a), len(b))
        entry = PairSample(a, b, len(a) * len(b) / s)
        self._queue_edges(entry, sampling.draw_sample(a, b, s, self.rng))
        return entry

    def _sample_pair(self, key, pid: int) -> PairSample:
        """Sample the pair under `key`, which was whole or is new: its
        cells, listed from the tree, leave H, and a fresh sample is drawn.
        A cell's edge in H is released with its H weight, which a whole
        pair's raw weight is; where a dropped sample releases it, before
        or after, the sample's raw weight stands.  The moved point's edges
        are settled with its others."""
        tree, by_tok = self.tree, self.tree.by_tok
        a = tree.subtree_ids(by_tok[key >> SHIFT])
        b = tree.subtree_ids(by_tok[key & MASK])
        h, released = self._h, self._released
        for e in _cells(a, b, pid):
            if e in h:
                released.setdefault(e, h[e])
        self._store[key] = entry = self._draw_pair(a, b)
        return entry

    def _drop_sample(self, key):
        """Release every edge of the sample under `key`, with its raw
        weight, and return the sample."""
        entry = self._store.pop(key)
        self._released.update(zip(entry.edges.tolist(), entry.raw.tolist()))
        return entry

    def _settle_point(self, pid: int, held: list):
        """Queue the moved point's edges in whole pairs and release those
        in H that a sampled pair it arrived in now owns.  `held` lists the
        other side of each sampled pair that holds `pid` after the move,
        with whether `pid` arrived there; (pid, j) is whole unless j is on
        one of those sides."""
        skip = {pid}
        h, gone = self._h, []
        for other, arrived in held:
            skip.update(other)
            if arrived:
                gone.extend([e for e in [edge(pid, j) for j in other]
                             if e in h])
        self._release(gone)
        self._queue_edges(None, [edge(pid, j) for j in range(self.n)
                                 if j not in skip])

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
        self.pset.points[i] = z
        report = UpdateReport(pairs_touched=len(keys))
        # Pairs go in key order, which fixes the order of RNG draws.  Every
        # claim and every release of an edge waits for the flush, and a
        # pair's direct H writes touch only its own edges, so the pairs can
        # go one at a time.  old/new: whether each side holds the moved
        # point before/after the move; old is None for a new pair.
        store, live, by_tok = self._store, self.pairs.pairs, tree.by_tok
        held, born, dropped = [], [], []
        for key in sorted(keys):
            entry = store.get(key)
            if key not in live:
                if entry is not None:
                    dropped.append(self._drop_sample(key))
                report.pairs_removed += 1
                continue
            ta, tb = key >> SHIFT, key & MASK
            new = (ta in new_path, tb in new_path)
            old = None if key in fresh else (ta in old_path, tb in old_path)
            if old == new:
                # same ids, the moved point changed position: queue its
                # sampled edges for the move's batched evaluation
                if entry is not None:
                    idx = np.flatnonzero(entry.through(i))
                    self._queue_edges(entry, entry.edges[idx], idx)
                    if any(new):
                        held.append((entry.b if new[0] else entry.a, False))
                report.pairs_reweighted += 1
                continue
            a_node, b_node = by_tok[ta], by_tok[tb]
            nx, ny = a_node.count, b_node.count
            s, total = self.sample_size(nx, ny), nx * ny
            if old is None:
                report.pairs_added += 1
                if 2 * s <= total:
                    entry = self._sample_pair(key, i)
                    born.append(entry)
            elif entry is None:
                # a whole pair stays whole while |X||Y| <= 4s
                if total > 4 * s:
                    entry = self._sample_pair(key, i)
                    born.append(entry)
                    report.pairs_rematerialized += 1
                else:
                    report.pairs_extended += 1
            else:
                self._release(entry.release(i, old).tolist())
                # a sampled pair stays sampled while 4s <= 3|X||Y|
                if 4 * s > 3 * total:
                    dropped.append(self._drop_sample(key))
                    entry = None
                    report.pairs_rematerialized += 1
                else:
                    entry.join(i, new)
                    self._resample_pair(entry, s, total, new, i)
                    report.pairs_resampled += 1
            if entry is not None and any(new):
                held.append((entry.b if new[0] else entry.a, True))
        self._settle_point(i, held)
        if dropped:
            # a dropped sample's cells are whole now, unless a born sample
            # took them
            taken = set()
            for entry in born:
                taken.update(_cells(entry.a, entry.b, i))
            for entry in dropped:
                cells = _cells(entry.a, entry.b, i)
                self._queue_edges(None, [e for e in cells if e not in taken])
        self._flush_queued(i)
        report.churn = self._log_net_change()
        report.edges_changed = len(self._diff) - diff_mark
        return report

    def _resample_pair(self, entry: PairSample, s: int, total: int,
                       new: tuple, pid: int):
        """Turn a kept sample whose sides gained or lost the moved point
        into a uniform s-sample of its total cells; the departed point's
        edges are already released."""
        evicted, added = sampling.resample(entry, pid, *new, s, self.rng)
        for e in evicted.tolist():
            self._set_edge(e, 0.0)
        if abs(entry.scale * s / total - 1.0) > SCALE_BAND * self.eps:
            scale = entry.scale = total / s
            for e, w in zip(entry.edges.tolist(), (entry.raw * scale).tolist()):
                self._set_edge(e, w)
        self._queue_edges(entry, added)

    # -- read-out interfaces ----------------------------------------------------

    def get_diff(self) -> list:
        """Return and clear the pending log: per move, (i, j, -old) then
        (i, j, +new), i < j, for each edge whose weight changed, no zeros."""
        out = self._diff
        self._diff = []
        return out

    def get_laplacian(self) -> np.ndarray:
        h = self._h
        keys = np.fromiter(h, np.int64, len(h))
        return laplacian_from_edges(self.n, np.column_stack(
            [keys >> SHIFT, keys & MASK, np.fromiter(h.values(), np.float64,
                                                     len(h))]))

    def edge_map(self) -> dict:
        """H as {(i, j): weight}, i < j."""
        return {(k >> SHIFT, k & MASK): w for k, w in self._h.items()}

    @property
    def edge_count(self) -> int:
        return len(self._h)

    def fold_store(self) -> dict:
        """Recompute H from the pairs (consistency oracle): a sampled pair's
        raw weights times its scale, and every other live pair's cells,
        listed from the tree, weighed anew at the current points in one
        kernel evaluation."""
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
