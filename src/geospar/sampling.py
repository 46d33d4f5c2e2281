"""Uniform biclique edge sampling: the one core the sparsifier and the
tests both run.

A sampled WSPD pair keeps the two sides of its biclique as plain id
lists, `a` and `b`, so a draw of side index idx is ``side[idx]`` and no
draw walks the quad tree.  The sparsifier fills the lists from the tree
when it builds a sample and keeps them current under moves: a release
removes the moved point from its old side, and the point is appended to
its new side before `resample` draws.  The tests drive the same functions
on lists of their own.  All randomness flows through an explicit numpy
Generator, so every draw is seed-reproducible.

An edge is one packed int, ``edge(i, j)`` = min id << SHIFT | max id (ids
below 2**32), the key the sparsifier's graph H uses too, so a sample
holds no per-edge object: its edges and raw weights are flat arrays, and
its edge index is a dict of ints, which the garbage collector never
tracks.
"""

from __future__ import annotations

from array import array

import numpy as np

SHIFT = 32
MASK = (1 << SHIFT) - 1


def edge(i: int, j: int) -> int:
    """The packed edge of ids i and j: min id << SHIFT | max id."""
    return i << SHIFT | j if i < j else j << SHIFT | i


class PairSample:
    """Edge sample of one sampled biclique, indexed for O(churn) edits.

    `edges` holds the packed edges and `raw` their raw kernel weights,
    index for index; `pos` maps an edge to that index.  A discard moves the
    last edge (and its weight) into the freed slot, so both arrays stay
    dense and aligned.  `by_point` maps an id to the set of its edges, so
    a move finds the moved point's edges without a scan.  `a` and `b` are
    the id lists of the biclique's sides.

    `sides`, below, is a pair of flags saying whether the a side or the b
    side holds a point; at most one does.
    """

    __slots__ = ("a", "b", "edges", "pos", "raw", "by_point", "scale")

    def __init__(self, a: list, b: list, scale: float):
        self.a, self.b = a, b
        self.edges = array("q")   # packed edges
        self.raw = array("d")     # raw kernel weight of edges[idx]
        self.pos = {}             # edge -> index in edges and raw
        self.by_point = {}        # id -> set of edges
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

    def join(self, pid: int, sides: tuple):
        """Append `pid` to its side."""
        if any(sides):
            (self.a if sides[0] else self.b).append(pid)

    def release(self, pid: int, sides: tuple) -> list:
        """Evict `pid`'s edges and remove it from its side; return the
        evicted edges."""
        edges = self.point_edges(pid)
        for e in edges:
            self.discard(e)
        if any(sides):
            (self.a if sides[0] else self.b).remove(pid)
        return edges


def draw_sample(a: list, b: list, s: int, rng: np.random.Generator) -> list:
    """min(s, |a||b|) distinct uniform edges of a x b, packed, in ascending
    order of their index ia * |b| + ib.

    Rejection sampling: the sparsifier asks for at most half the biclique,
    so the s edges take at most 2s expected draws.
    """
    nb = len(b)
    total = len(a) * nb
    if s >= total:
        return [edge(i, j) for i in a for j in b]
    picked = set()
    while len(picked) < s:
        picked.add(int(rng.integers(0, total)))
    return [edge(a[idx // nb], b[idx % nb]) for idx in sorted(picked)]


def _draw_id(side: list, rng: np.random.Generator, exclude=None) -> int:
    while True:
        pid = side[int(rng.integers(0, len(side)))]
        if pid != exclude:
            return pid


def resample(sample: PairSample, pid: int, in_a: bool, in_b: bool,
             s_out: int, rng: np.random.Generator):
    """Turn a uniform sample of a biclique into one of A x B after the
    id sets changed by the single point `pid`.

    On entry the sample's lists are A and B, with `pid` already appended
    to side A (`in_a`) or side B (`in_b`) if it arrives there, and the
    sample holds a uniform sample of the cells A x B shares with the old
    biclique: the departed point's edges are already evicted.  s_out <=
    |A x B| is the output size.  The number x of fresh edges (those
    through an arriving point) is hypergeometric, as in a direct uniform
    s_out-sample of A x B.  The old sample is cut to s_out - x by uniform
    evictions, or topped up with uniform cells of the shared part.  The
    sparsifier keeps s_out <= 3/4 |A x B|, so the draws' rejections of
    cells already taken cost a constant factor.

    Evicted edges are removed from `sample`; added ones are not, since the
    caller weighs them.  Returns (evicted, added), lists of packed edges,
    with the top-ups first in `added` and then the fresh edges.
    """
    a, b = sample.a, sample.b
    total = len(a) * len(b)
    fresh_count = len(b) if in_a else len(a) if in_b else 0
    inter = total - fresh_count
    x = int(rng.hypergeometric(fresh_count, inter, s_out))
    fresh = []
    seen = set()
    while len(fresh) < x:
        e = edge(pid, _draw_id(b if in_a else a, rng))
        if e not in seen:
            seen.add(e)
            fresh.append(e)
    keep = s_out - x
    evicted = []
    while len(sample) > keep:
        evicted.append(sample.pop_random(rng))
    ex_a = pid if in_a else None
    ex_b = pid if in_b else None
    topups = []
    while len(sample) + len(topups) < keep:
        e = edge(_draw_id(a, rng, ex_a), _draw_id(b, rng, ex_b))
        if e not in sample and e not in seen:
            seen.add(e)
            topups.append(e)
    return evicted, topups + fresh
