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
below 2**32), as the sparsifier queues, weighs and logs it too.  A sample
keeps its edges (int64) and their raw weights (float64) as two aligned
numpy arrays and nothing per edge besides: a point's edges are one mask
over the edge array, a build's cells are drawn in one call, and
`resample`'s rejection loop tests membership against a sorted copy of
the edges, made only when that loop runs.
"""

from __future__ import annotations

import numpy as np

SHIFT = 32
MASK = (1 << SHIFT) - 1


def edge(i: int, j: int) -> int:
    """The packed edge of ids i and j: min id << SHIFT | max id."""
    return i << SHIFT | j if i < j else j << SHIFT | i


def pack(ia, ib) -> np.ndarray:
    """The packed edges of id arrays ia and ib, element by element."""
    return np.minimum(ia, ib) << SHIFT | np.maximum(ia, ib)


class PairSample:
    """Edge sample of one sampled biclique.

    `a` and `b` are the id lists of the biclique's sides; `edges` holds
    the packed edges and `raw` their raw kernel weights, index for index;
    `scale` is the factor that turns a raw weight into the edge's weight
    in the sparsifier, which reads it nowhere else.

    `sides`, below, is a pair of flags saying whether the a side or the b
    side holds a point; at most one does.
    """

    __slots__ = ("a", "b", "edges", "raw", "scale")

    def __init__(self, a: list, b: list, scale: float, edges=(), raw=()):
        self.a, self.b = a, b
        self.edges = np.array(edges, dtype=np.int64)
        self.raw = np.array(raw, dtype=np.float64)
        self.scale = scale

    def __len__(self):
        return len(self.edges)

    def through(self, pid: int) -> np.ndarray:
        """The mask of the edges through `pid`."""
        edges = self.edges
        return (edges >> SHIFT == pid) | (edges & MASK == pid)

    def append(self, edges, raw):
        """Append packed edges and their raw weights."""
        self.edges = np.concatenate([self.edges, edges])
        self.raw = np.concatenate([self.raw, raw])

    def join(self, pid: int, sides: tuple):
        """Append `pid` to its side."""
        if any(sides):
            (self.a if sides[0] else self.b).append(pid)

    def release(self, pid: int, sides: tuple):
        """Evict `pid`'s edges and remove it from its side; return the
        evicted edges and their raw weights."""
        through = self.through(pid)
        evicted = self.edges[through], self.raw[through]
        self.edges, self.raw = self.edges[~through], self.raw[~through]
        if any(sides):
            (self.a if sides[0] else self.b).remove(pid)
        return evicted


def draw_sample(a: list, b: list, s: int,
                rng: np.random.Generator) -> np.ndarray:
    """min(s, |a||b|) distinct uniform edges of a x b, packed, in ascending
    order of their index ia * |b| + ib: one draw without replacement."""
    nb = len(b)
    total = len(a) * nb
    idx = np.arange(total) if s >= total else np.sort(
        rng.choice(total, s, replace=False, shuffle=False))
    return pack(np.asarray(a, dtype=np.int64)[idx // nb],
                np.asarray(b, dtype=np.int64)[idx % nb])


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
    s_out-sample of A x B, and they are drawn in one call.  The old sample
    is cut to s_out - x by evicting a uniform subset in one draw, or
    topped up with uniform cells of the shared part.  The sparsifier keeps
    s_out <= 3/4 |A x B|, so the top-up loop's rejections of cells already
    taken cost a constant factor.

    Evicted edges are removed from `sample`; added ones are not, since the
    caller weighs them.  Returns (evicted, evicted_raw, added): the
    evicted edges, packed, with the raw weights the sample held for them,
    and the added edges, packed, the top-ups first and then the fresh
    edges.
    """
    a, b = sample.a, sample.b
    total = len(a) * len(b)
    fresh_count = len(b) if in_a else len(a) if in_b else 0
    x = int(rng.hypergeometric(fresh_count, total - fresh_count, s_out))
    fresh = np.empty(0, dtype=np.int64)
    if fresh_count:
        other = np.asarray(b if in_a else a, dtype=np.int64)
        fresh = pack(pid, other[rng.choice(fresh_count, x, replace=False,
                                           shuffle=False)])
    keep = s_out - x
    evicted, evicted_raw = np.empty(0, dtype=np.int64), np.empty(0)
    if len(sample) > keep:
        gone = rng.choice(len(sample), len(sample) - keep, replace=False,
                          shuffle=False)
        evicted, evicted_raw = sample.edges[gone], sample.raw[gone]
        sample.edges = np.delete(sample.edges, gone)
        sample.raw = np.delete(sample.raw, gone)
    topups = {}                 # distinct, in draw order
    if len(sample) < keep:
        ex_a = pid if in_a else None
        ex_b = pid if in_b else None
        taken = np.sort(sample.edges)
        while len(sample) + len(topups) < keep:
            e = edge(_draw_id(a, rng, ex_a), _draw_id(b, rng, ex_b))
            at = int(taken.searchsorted(e))
            if at == len(taken) or taken[at] != e:
                topups[e] = None
    return evicted, evicted_raw, np.concatenate(
        [np.fromiter(topups, np.int64, len(topups)), fresh])
