"""Uniform biclique edge sampling: the one core the sparsifier and the
tests both run.

A biclique side is a pair ``(count, id_at)``: ``id_at(idx)`` returns the
idx-th id of the side, for idx in range(count).  The sparsifier backs a
side with a quad-tree subtree (``tree.kth_leaf(node, idx).pid``), the
tests with a sorted id list, so neither materializes a biclique.  All
randomness flows through an explicit numpy Generator, so every draw is
seed-reproducible.

An edge of a biclique is one packed int, ``a << SHIFT | b`` for the
a-side id a and the b-side id b (ids below 2**32), so a sample holds no
per-edge object: its edges and raw weights are flat arrays, and its edge
index is a dict of ints, which the garbage collector never tracks.
"""

from __future__ import annotations

from array import array

import numpy as np

SHIFT = 32
MASK = (1 << SHIFT) - 1


class PairSample:
    """Edge sample of one sampled biclique, indexed for O(churn) edits.

    `edges` holds the packed edges ``a << SHIFT | b`` and `raw` their raw
    kernel weights, index for index; `pos` maps an edge to that index.  A
    discard moves the last edge (and its weight) into the freed slot, so
    both arrays stay dense and aligned.  `by_point` maps an id to the set
    of its edges, so a move finds the moved point's edges without a scan.

    A biclique kept whole is no sample: the sparsifier keeps only its two
    sides' id lists, and the graph holds its weights.
    """

    __slots__ = ("edges", "pos", "raw", "by_point", "s_target",
                 "nx", "ny", "scale")

    def __init__(self, s_target, nx, ny, scale):
        self.edges = array("q")   # a-side id << SHIFT | b-side id
        self.raw = array("d")     # raw kernel weight of edges[idx]
        self.pos = {}             # edge -> index in edges and raw
        self.by_point = {}        # id -> set of edges
        self.s_target = s_target
        self.nx = nx
        self.ny = ny
        self.scale = scale

    def __len__(self):
        return len(self.edges)

    def __contains__(self, edge):
        return edge in self.pos

    def add(self, edge, raw_w):
        self.pos[edge] = len(self.edges)
        self.edges.append(edge)
        self.raw.append(raw_w)
        by_point = self.by_point
        by_point.setdefault(edge >> SHIFT, set()).add(edge)
        by_point.setdefault(edge & MASK, set()).add(edge)

    def discard(self, edge):
        idx = self.pos.pop(edge)
        last = self.edges.pop()
        last_w = self.raw.pop()
        if last != edge:
            self.edges[idx] = last
            self.raw[idx] = last_w
            self.pos[last] = idx
        by_point = self.by_point
        for endpoint in (edge >> SHIFT, edge & MASK):
            bucket = by_point[endpoint]
            bucket.discard(edge)
            if not bucket:
                del by_point[endpoint]

    def pop_random(self, rng):
        idx = int(rng.integers(0, len(self.edges)))
        edge = self.edges[idx]
        self.discard(edge)
        return edge

    def point_edges(self, pid):
        """The edges through `pid`, ascending, so that what the caller does
        with them in turn does not depend on set layout."""
        return sorted(self.by_point.get(pid, ()))


def draw_indices(total: int, s: int, rng: np.random.Generator) -> list:
    """min(s, total) distinct uniform indices of range(total), ascending.

    Rejection sampling in O(min(s, total - s)) expected draws: above half
    the range it rejects on the complement instead.  Index idx stands for
    the edge a.id_at(idx // nb) << SHIFT | b.id_at(idx % nb) of an na x nb
    biclique.
    """
    if s <= total // 2:
        picked = set()
        while len(picked) < s:
            idx = int(rng.integers(0, total))
            if idx not in picked:
                picked.add(idx)
    else:
        excluded = set()
        while len(excluded) < total - s:
            idx = int(rng.integers(0, total))
            if idx not in excluded:
                excluded.add(idx)
        picked = set(range(total)) - excluded
    return sorted(picked)


def _draw_id(side, rng: np.random.Generator, exclude=None) -> int:
    count, id_at = side
    while True:
        pid = id_at(int(rng.integers(0, count)))
        if pid != exclude:
            return pid


def resample(sample: PairSample, a, b, pid, in_a: bool, in_b: bool,
             s_out: int, rng: np.random.Generator):
    """Turn a uniform sample of a biclique into one of A x B after the
    id sets changed by the single point `pid`.

    On entry `sample` holds a uniform sample of the cells A x B shares
    with the old biclique: the departed point's edges are already evicted.
    `pid` arrives on side A (`in_a`), on side B (`in_b`), or on neither,
    and s_out <= |A x B| is the output size.  The number x of fresh edges
    (those through an arriving point) is hypergeometric, as in a direct
    uniform s_out-sample of A x B.  The old sample is cut to s_out - x by
    uniform evictions, or topped up with uniform cells of the shared part.

    Evicted edges are removed from `sample`; added ones are not, since the
    caller weighs them.  Returns (evicted, added), lists of packed edges,
    with the top-ups first in `added` and then the fresh edges.
    """
    na, nb = a[0], b[0]
    total = na * nb
    fresh_count = nb if in_a else na if in_b else 0
    inter = total - fresh_count
    x = int(rng.hypergeometric(fresh_count, inter, s_out))
    fresh = []
    seen = set()
    while len(fresh) < x:
        edge = (pid << SHIFT | _draw_id(b, rng) if in_a
                else _draw_id(a, rng) << SHIFT | pid)
        if edge not in seen:
            seen.add(edge)
            fresh.append(edge)
    keep = s_out - x
    evicted = []
    while len(sample) > keep:
        evicted.append(sample.pop_random(rng))
    ex_a = pid if in_a else None
    ex_b = pid if in_b else None
    topups = []
    while len(sample) + len(topups) < keep:
        edge = _draw_id(a, rng, ex_a) << SHIFT | _draw_id(b, rng, ex_b)
        if edge not in sample and edge not in seen:
            seen.add(edge)
            topups.append(edge)
    return evicted, topups + fresh
