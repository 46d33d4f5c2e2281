"""The sampling core on list-backed sides.

`rand_sample` and `resample_fast` below drive `geospar.sampling` the way
the sparsifier does: a sample keeps its sides as id lists, and a set
change A x B -> A' x B' runs as single-point steps that remove a departed
id from its list and append an arriving one.  A sample holds packed
edges; `pairs` decodes them to (min id, max id) in order, which is
(a-side id, b-side id) here, since every a-side id below is smaller than
every b-side id.
"""

import statistics

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from geospar.sampling import MASK, SHIFT, PairSample, draw_sample, resample


def cells(a, b):
    return [(i, j) for i in sorted(a) for j in sorted(b)]


def pairs(sample):
    """The sample's edges as (min id, max id), in sample order."""
    return [(e >> SHIFT, e & MASK) for e in sample.edges]


def rand_sample(a, b, s, rng):
    """Uniform min(s, |A||B|)-edge sample of A x B, as the sparsifier
    builds a sampled pair."""
    a, b = sorted(a), sorted(b)
    edges = draw_sample(a, b, s, rng)
    return PairSample(a, b, 1.0, edges, np.ones(len(edges)))


def resample_fast(sample, a, b, a2, b2, s, rng):
    """Carry `sample` of A x B over to A' x B' in single-point steps, as a
    run of moves would: release the departed ids first, then append each
    arriving id to its side and resample (once with no arriving id when
    none arrives).  Edits `sample` in place; returns the churn."""
    before = set(pairs(sample))
    for pid in sorted((a - a2) | (b - b2)):
        sample.release(pid, (pid in a, pid in b))
    arrivals = ([(pid, (True, False)) for pid in sorted(a2 - a)]
                + [(pid, (False, True)) for pid in sorted(b2 - b)])
    for pid, sides in arrivals or [(None, (False, False))]:
        sample.join(pid, sides)
        s_out = min(s, len(sample.a) * len(sample.b))
        _, added = resample(sample, pid, *sides, s_out, rng)
        sample.append(added, np.ones(len(added)))
    return len(before.symmetric_difference(pairs(sample)))


class TestRandSample:
    def test_full_biclique_when_s_large(self):
        es = rand_sample({1, 2}, {7, 8, 9}, 100, np.random.default_rng(0))
        assert len(es.edges) == 6
        assert set(pairs(es)) == {(i, j) for i in (1, 2) for j in (7, 8, 9)}

    def test_empty_sample(self):
        es = rand_sample({1, 2}, {3}, 0, np.random.default_rng(0))
        assert len(es.edges) == 0

    def test_edges_inside_biclique_no_duplicates(self):
        rng = np.random.default_rng(1)
        es = rand_sample(set(range(5)), set(range(10, 17)), 12, rng)
        assert len(set(es.edges)) == 12
        for i, j in pairs(es):
            assert i in range(5) and j in range(10, 17)

    def test_per_cell_inclusion_uniform(self):
        # |A|=3, |B|=4, s=4: every cell included w.p. 1/3
        rng = np.random.default_rng(2)
        a, b = {0, 1, 2}, {10, 20, 30, 40}
        trials = 20_000
        counts = {}
        for _ in range(trials):
            for e in pairs(rand_sample(a, b, 4, rng)):
                counts[e] = counts.get(e, 0) + 1
        expected = trials / 3
        sd = (trials * (1 / 3) * (2 / 3)) ** 0.5
        for cell in cells(a, b):
            assert abs(counts.get(cell, 0) - expected) < 3.5 * sd


class TestResampleFast:
    def test_no_change_zero_churn_when_binomial_is_zero(self):
        # no arriving point: the fresh count is 0 and the sample stays
        rng = np.random.default_rng(6)
        a, b = {0, 1, 2}, {5, 6, 7, 8}
        out = rand_sample(a, b, 6, rng)
        old = pairs(out)
        churn = resample_fast(out, a, b, a, b, 6, rng)
        assert churn == 0 and pairs(out) == old

    def test_empty_sample_full_target(self):
        rng = np.random.default_rng(7)
        out = rand_sample({0}, {1}, 0, rng)
        resample_fast(out, {0}, {1}, {2, 3}, {4, 5}, 4, rng)
        assert set(pairs(out)) == {(i, j) for i in (2, 3) for j in (4, 5)}

    def test_output_always_valid(self):
        rng = np.random.default_rng(8)
        a, b = set(range(4)), set(range(10, 15))
        a2, b2 = {0, 1, 2, 9}, set(range(10, 16))
        for s in range(1, 12):
            out = rand_sample(a, b, s, rng)
            old = set(pairs(out))
            churn = resample_fast(out, a, b, a2, b2, s, rng)
            assert len(set(out.edges)) == len(out.edges) == min(s, 24)
            for i, j in pairs(out):
                assert i in a2 and j in b2
            assert churn == len(old.symmetric_difference(pairs(out)))

    def test_total_variation_against_direct_sampling(self):
        # |A x B| = 20, |A' x B'| = 24 overlapping in 15, s = 8
        rng = np.random.default_rng(9)
        a, b = set(range(4)), set(range(10, 15))
        a2, b2 = {0, 1, 2, 5}, set(range(10, 16))
        s = 8
        trials = 50_000
        cf, cr = {}, {}
        for _ in range(trials):
            out = rand_sample(a, b, s, rng)
            resample_fast(out, a, b, a2, b2, s, rng)
            for e in pairs(out):
                cf[e] = cf.get(e, 0) + 1
            for e in pairs(rand_sample(a2, b2, s, rng)):
                cr[e] = cr.get(e, 0) + 1
        norm = trials * s
        tv = 0.5 * sum(abs(cf.get(c, 0) - cr.get(c, 0)) / norm
                       for c in cells(a2, b2))
        assert tv <= 0.02

    def test_churn_small_for_single_point_change(self):
        # the update pattern: one point leaves, one arrives
        rng = np.random.default_rng(10)
        a, b = set(range(6)), set(range(10, 20))
        a2 = (a - {3}) | {99}
        s = 10
        churns = []
        for _ in range(2000):
            out = rand_sample(a, b, s, rng)
            churns.append(resample_fast(out, a, b, a2, b, s, rng))
        fresh_frac = 10 / 60  # |{99} x B| / |A' x B'|
        x_bar = s * fresh_frac
        evicted_mean = s * 10 / 60  # edges of the departed point in E
        assert statistics.median(churns) <= 2 * (2 * (x_bar + evicted_mean))

    def test_fresh_count_is_exact(self):
        # A={0,1,2} x B={10,11} -> A'={0,1,9}, s=4: a uniform 4-sample of
        # the 6 target cells holds each fresh cell w.p. 4/6.  A binomial
        # count clamped to [s - |shared|, |fresh|] gives about 0.60.
        rng = np.random.default_rng(11)
        a, b, a2 = {0, 1, 2}, {10, 11}, {0, 1, 9}
        trials = 20_000
        counts = {(9, 10): 0, (9, 11): 0}
        for _ in range(trials):
            out = rand_sample(a, b, 4, rng)
            resample_fast(out, a, b, a2, b, 4, rng)
            for i, j in counts:
                counts[(i, j)] += i << SHIFT | j in out.edges
        p = 4 / 6
        sd = (trials * p * (1 - p)) ** 0.5
        for e, c in counts.items():
            assert abs(c - trials * p) < 4 * sd, (e, c / trials)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 5), st.integers(0, 30), st.integers(0, 2 ** 31 - 1))
def test_resample_fast_size_and_membership(na, nb, na2, nb2, s, seed):
    rng = np.random.default_rng(seed)
    a = set(range(na))
    b = set(range(100, 100 + nb))
    a2 = set(range(na2))            # overlaps a
    b2 = set(range(100, 100 + nb2))
    out = rand_sample(a, b, min(s, na * nb), rng)
    churn = resample_fast(out, a, b, a2, b2, s, rng)
    assert len(set(out.edges)) == len(out.edges) == min(s, na2 * nb2)
    for i, j in pairs(out):
        assert i in a2 and j in b2
    assert churn >= 0
