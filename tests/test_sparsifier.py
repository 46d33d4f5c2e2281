import gc
import math

import numpy as np
import pytest

from geospar import quadtree, wspd
from geospar.config import RunConfig
from geospar.errors import (
    DimensionMismatch,
    DuplicatePoint,
    IndexOutOfRange,
    OutOfRegion,
)
from geospar.kernels import (
    KernelFunction,
    cauchy_kernel,
    gaussian_kernel,
    normalize_points,
)
from geospar.sampling import MASK, SHIFT, PairSample
from geospar.sparsifier import (
    SCALE_BAND,
    DynamicGeoSpar,
    FullyDynamicSparsifier,
    WholePair,
    adversarial_mode,
)
from test_sampling import pairs


def make_dgs(n=64, d=4, seed=0, eps=0.5, kernel=None, **kw):
    rng = np.random.default_rng(seed)
    ps = normalize_points(rng.random((n, d)) * 10.0)
    return DynamicGeoSpar.initialize(
        ps, kernel or gaussian_kernel(), eps, 0.05, 3, seed,
        allow_large_eps=True, **kw), rng


def random_unit_move(rng, d=4):
    return rng.random(d) * 0.5 + 0.25


def _dims(g, key):
    """The side sizes of a stored pair's biclique: its WSPD nodes' point
    counts."""
    a_node, b_node = (g.tree.by_tok[t] for t in wspd.unpack(key))
    return a_node.count, b_node.count


def _biggest(g):
    """The stored pair with the largest biclique, as (key, entry)."""
    key = max(g._store, key=lambda k: math.prod(_dims(g, k)))
    return key, g._store[key]


def _cells(entry):
    """A whole pair's edges as (a-side id, b-side id), row by row."""
    return [(i, j) for i in entry.a for j in entry.b]


def apply_diff(edge_map, diff):
    acc = dict(edge_map)
    for i, j, dw in diff:
        cur = acc.get((i, j), 0.0) + dw
        if cur == 0.0:
            acc.pop((i, j), None)
        else:
            acc[(i, j)] = cur
    return acc


class TestInitialize:
    def test_two_points_single_edge(self):
        ps = normalize_points([[0.0, 0.0], [3.0, 4.0]])
        g = DynamicGeoSpar.initialize(ps, gaussian_kernel(), 0.5, 0.05, 1, 0,
                                      allow_large_eps=True)
        assert g.edge_count == 1
        ((edge, w),) = g.edge_map().items()
        assert edge == (0, 1)
        assert w == gaussian_kernel().eval_sqdist(
            np.sum((ps.points[0] - ps.points[1]) ** 2))
        (entry,) = g._store.values()
        assert isinstance(entry, WholePair)
        assert sorted(entry.a + entry.b) == [0, 1]

    def test_fold_equals_h_exactly(self):
        g, _ = make_dgs(seed=1)
        assert g.fold_store() == g.edge_map()

    def test_eps_range_enforced_by_default(self):
        rng = np.random.default_rng(2)
        ps = normalize_points(rng.random((8, 2)))
        with pytest.raises(ValueError):
            DynamicGeoSpar.initialize(ps, gaussian_kernel(), 0.5, 0.05, 1, 0)
        DynamicGeoSpar.initialize(ps, gaussian_kernel(), 0.1, 0.05, 1, 0)

    def test_members_mutually_consistent(self):
        g, _ = make_dgs(seed=3, n=48)
        # projected points: leaf centers replay the projection bit-exactly
        for pid, leaf in g.tree.point_index.items():
            expect = g._project_unit(g.pset.points[pid])
            assert tuple(float(v) for v in expect) == leaf.center
        # pair list equals a fresh WSPD of the tree
        fresh = wspd.compute_wspd(g.tree)
        assert fresh.pairs == g.pairs.pairs
        # every stored pair has a sample entry and vice versa
        assert set(g._store) == set(g.pairs.pairs)

    def test_sample_size_formula(self):
        g, _ = make_dgs(seed=4)
        for key, entry in g._store.items():
            nx, ny = _dims(g, key)
            s = g.sample_size(nx, ny)
            assert s == math.ceil(
                g.c_s * g.eps ** -2 * g.n ** g.gamma
                * (nx + ny) * math.log(nx + ny + 1))
            assert (len(entry.a), len(entry.b)) == (nx, ny)
            # at set-up a pair is whole iff its sample would exceed half
            # its biclique
            if isinstance(entry, PairSample):
                assert 2 * s <= nx * ny
                assert len(entry) == s
                assert entry.scale == nx * ny / s
            else:
                assert nx * ny < 2 * s

    def test_edge_count_within_budget(self):
        g, _ = make_dgs(seed=5, n=128)
        # the budget is H's edge count at set-up: |X||Y| per whole pair and
        # s per sampled one
        assert g.edge_count == g.sparsity_budget == sum(
            math.prod(_dims(g, k)) if isinstance(e, WholePair)
            else g.sample_size(*_dims(g, k)) for k, e in g._store.items())

    def test_budget_fixture(self, calibration):
        cal = calibration["sparsifier"]
        for n in (64, 128):
            g, _ = make_dgs(seed=6, n=n)
            proj = np.vstack([g._project_unit(p) for p in g.pset.points])
            from geospar.kernels import aspect_ratio
            log_a = max(1.0, math.log2(aspect_ratio(proj)))
            bound = (cal["budget_constant"] * g.eps ** -2
                     * n ** (1.0 + g.gamma) * math.log(n + 1) * log_a)
            assert g.sparsity_budget <= bound


class TestUpdate:
    def test_fold_and_replay_after_updates(self):
        g, rng = make_dgs(seed=7)
        base = dict(g.edge_map())
        diffs = []
        for _ in range(50):
            g.update(int(rng.integers(0, g.n)), random_unit_move(rng))
            diffs.extend(g.get_diff())
            assert g.fold_store() == g.edge_map()
        assert apply_diff(base, diffs) == g.edge_map()

    def test_spectral_after_moves(self):
        g, rng = make_dgs(seed=8, n=96)
        for _ in range(30):
            g.update(int(rng.integers(0, g.n)), random_unit_move(rng))
        assert g.spectral_check().passed

    def test_diff_cleared_and_definitional_count(self):
        g, rng = make_dgs(seed=9)
        rep = g.update(3, random_unit_move(rng))
        diff = g.get_diff()
        assert len(diff) == rep.edges_changed
        assert g.get_diff() == []

    def test_out_of_region_rejected(self):
        g, _ = make_dgs(seed=10)
        with pytest.raises(OutOfRegion):
            g.update(0, np.full(4, 1.5))

    def test_unknown_index_rejected(self):
        g, _ = make_dgs(seed=11)
        with pytest.raises(IndexOutOfRange):
            g.update(g.n + 5, np.full(4, 0.5))

    def test_rejected_update_changes_nothing(self):
        g, _ = make_dgs(seed=15)
        state = (g.tree.dump(), g.edge_map(), set(g.pairs.pairs),
                 g.pset.points.copy())
        bad = [(DuplicatePoint, 0, g.pset.points[1]),
               (OutOfRegion, 0, np.full(4, 1.5)),
               (DimensionMismatch, 0, np.full(3, 0.5)),
               (IndexOutOfRange, g.n, np.full(4, 0.5))]
        for err, i, z in bad:
            with pytest.raises(err):
                g.update(i, z.copy())
            assert g.tree.dump() == state[0]
            assert g.edge_map() == state[1]
            assert set(g.pairs.pairs) == state[2]
            assert np.array_equal(g.pset.points, state[3])
            assert g.get_diff() == []

    def test_wspd_oracle_after_updates(self):
        g, rng = make_dgs(seed=12, n=80)
        for _ in range(40):
            g.update(int(rng.integers(0, g.n)), random_unit_move(rng))
        proj = {i: g._project_unit(g.pset.points[i]) for i in range(g.n)}
        fresh_tree = quadtree.CompressedQuadTree.build(proj, g.k)
        fresh = wspd.compute_wspd(fresh_tree)
        assert (g.pairs.canonical_pairs(g.tree)
                == fresh.canonical_pairs(fresh_tree))

    def test_churn_cap_fixture(self, calibration):
        cap = calibration["sparsifier"]["churn_cap"]
        g, rng = make_dgs(seed=13, n=128)
        for _ in range(60):
            rep = g.update(int(rng.integers(0, g.n)), random_unit_move(rng))
            g.get_diff()
            assert rep.churn <= cap["128"]

    def test_move_within_own_leaf_cell_reweights_only(self):
        g, rng = make_dgs(seed=20, n=48)
        # nudge a point by far less than its leaf cell's side: the tree,
        # and hence the pair list, must not change shape
        pid = 7
        old_pairs = set(g.pairs.pairs)
        z = g.pset.points[pid] + 1e-12
        rep = g.update(pid, z)
        assert set(g.pairs.pairs) == old_pairs
        assert rep.pairs_removed == rep.pairs_added == 0
        assert rep.pairs_reweighted > 0
        assert g.fold_store() == g.edge_map()
        assert g.spectral_check().passed

    def test_get_laplacian_matches_fold(self):
        g, rng = make_dgs(seed=14, n=32)
        g.update(5, random_unit_move(rng))
        lap = g.get_laplacian()
        assert np.allclose(lap @ np.ones(g.n), 0.0, atol=1e-9)
        from geospar.kernels import laplacian_from_edges
        lap2 = laplacian_from_edges(
            g.n, [(i, j, w) for (i, j), w in g.fold_store().items()])
        assert np.array_equal(lap, lap2)


class TestResamplingInVivo:
    """Clustered instance with an L=1 kernel: the big cluster-pair biclique
    is genuinely sampled, and cross-cluster hops in either direction take
    the fast-resample route while the spectral invariant keeps holding."""

    def _clustered(self, seed=0, n=400, c_s=0.1):
        rng = np.random.default_rng(seed)
        half = n // 2
        raw = np.vstack([rng.normal(0, 0.02, (half, 4)) + 0.3,
                         rng.normal(0, 0.02, (half, 4)) + 5.0])
        ps = normalize_points(raw)
        g = DynamicGeoSpar.initialize(ps, cauchy_kernel(), 0.5, 0.05, 3, seed,
                                      allow_large_eps=True, c_s=c_s)
        return g, rng, half

    def test_big_pair_sampled_and_spectrally_sound(self):
        g, _, _ = self._clustered()
        key, big = _biggest(g)
        assert isinstance(big, PairSample)
        nx, ny = _dims(g, key)
        assert len(big) == g.sample_size(nx, ny) < nx * ny
        assert g.edge_count < g.n * (g.n - 1) // 2
        assert g.spectral_check().passed

    def test_cross_cluster_hops_use_fast_resample(self):
        g, rng, half = self._clustered(seed=1)
        resamples = 0
        for _ in range(25):
            i = int(rng.integers(0, g.n))
            base = 5.0 if i < half else 0.3
            z = g.pset.transform_raw(rng.normal(0, 0.02, 4) + base)
            if np.all((z >= 0) & (z < 1)):
                rep = g.update(i, z)
                resamples += rep.pairs_resampled
                assert g.fold_store() == g.edge_map()
        assert resamples > 0
        assert g.spectral_check().passed


class TestFillRule:
    """A pair is sampled only where its sample is at most half its
    biclique, so a sample that would save few edges is kept whole."""

    def test_pair_sampled_past_half_its_biclique_is_kept_whole(self):
        # two Cauchy clusters of 100 at the default c_s: the cluster pair's
        # sample would hold 0.62 of its 10,000 cells
        rng = np.random.default_rng(0)
        raw = np.vstack([rng.normal(0, 0.02, (100, 4)) + 0.3,
                         rng.normal(0, 0.02, (100, 4)) + 5.0])
        ps = normalize_points(raw)
        g = DynamicGeoSpar.initialize(ps, cauchy_kernel(), 0.5, 0.05, 3, 0,
                                      allow_large_eps=True)
        key, big = _biggest(g)
        nx, ny = _dims(g, key)
        assert (nx, ny) == (100, 100)
        assert 0.6 < g.sample_size(nx, ny) / (nx * ny) < 0.65
        assert isinstance(big, WholePair)
        # every pair is whole, so H is the kernel graph itself
        assert all(isinstance(e, WholePair) for e in g._store.values())
        assert g.edge_count == g.n * (g.n - 1) // 2
        chk = g.spectral_check()
        assert chk.passed
        assert abs(chk.min_eig - 1.0) < 1e-9 and abs(chk.max_eig - 1.0) < 1e-9
        # hops between the clusters keep it whole: |X||Y| stays below 4s
        for i in (3, 150, 7):
            g.update(i, _near(rng, ps, 5.0 if i < 100 else 0.3))
            assert g._store[key] is big
            _assert_point_index(g)
        assert g.edge_count == g.n * (g.n - 1) // 2


def _near(rng, ps, center):
    """A unit-frame point drawn around a raw-frame center (sigma 0.02)."""
    while True:
        z = ps.transform_raw(rng.normal(0, 0.02, 4) + center)
        if np.all((z >= 0) & (z < 1)):
            return z


def _clustered_moves(seed, n, count):
    """Two tight clusters, and moves that alternate jitters inside a
    cluster (odd steps) with hops out of the larger one, which keep the
    sizes within one of each other."""
    rng = np.random.default_rng(seed)
    half = n // 2
    centers = (0.3, 5.0)
    raw = np.vstack([rng.normal(0, 0.02, (half, 4)) + centers[0],
                     rng.normal(0, 0.02, (n - half, 4)) + centers[1]])
    ps = normalize_points(raw)
    cluster = np.array([0] * half + [1] * (n - half))
    moves = []
    for step in range(count):
        if step % 2:
            src = int(np.argmax(np.bincount(cluster, minlength=2)))
            i = int(rng.choice(np.flatnonzero(cluster == src)))
            cluster[i] = 1 - src
        else:
            i = int(rng.integers(0, n))
        moves.append((i, _near(rng, ps, centers[cluster[i]])))
    return ps, moves


def _assert_scales_in_band(g):
    for key, entry in g._store.items():
        if isinstance(entry, PairSample):
            nx, ny = _dims(g, key)
            assert len(entry) == g.sample_size(nx, ny)
            assert 4 * len(entry) <= 3 * nx * ny
            assert (abs(entry.scale * len(entry) / (nx * ny) - 1)
                    <= SCALE_BAND * g.eps)


class TestHysteresis:
    """A moved pair keeps its state: a sampled pair stays sampled while
    4s <= 3|X||Y| and keeps its scale while that is within SCALE_BAND * eps
    of |X||Y|/s; a whole pair stays whole while |X||Y| <= 4s.  So hops
    neither densify H nor rewrite a whole sample."""

    def test_hops_between_clusters_keep_h_sparse(self):
        rng = np.random.default_rng(0)
        centers = rng.random((4, 4)) * 10
        raw = centers[np.arange(256) % 4] + rng.normal(0, 0.02, (256, 4))
        ps = normalize_points(raw)
        g = DynamicGeoSpar.initialize(ps, cauchy_kernel(), 0.5, 0.05, 3,
                                      12345, allow_large_eps=True, c_s=0.1)
        base = g.edge_count
        assert base < g.n * (g.n - 1) // 2
        smallest = min(len(e) for e in g._store.values()
                       if isinstance(e, PairSample))
        churn = []
        for _ in range(40):
            i = int(rng.integers(0, g.n))
            rep = g.update(i, _near(rng, ps, centers[rng.integers(0, 4)]))
            churn.append(rep.churn)
            assert abs(g.edge_count - base) <= 0.02 * base
            assert g.fold_store() == g.edge_map()
            _assert_scales_in_band(g)
        # a hop redraws no sample whole, except when its scale leaves the band
        assert np.median(churn) < smallest
        assert g.spectral_check().passed

    def test_imbalanced_pair_keeps_resampling(self):
        rng = np.random.default_rng(3)
        raw = np.vstack([rng.normal(0, 0.02, (240, 4)) + 0.3,
                         rng.normal(0, 0.02, (160, 4)) + 5.0])
        ps = normalize_points(raw)
        g = DynamicGeoSpar.initialize(ps, cauchy_kernel(), 0.5, 0.05, 3, 12345,
                                      allow_large_eps=True, c_s=0.1)
        key, big = _biggest(g)
        assert _dims(g, key) in ((240, 160), (160, 240))
        for i in rng.choice(240, 10, replace=False):
            rep = g.update(int(i), _near(rng, ps, 5.0))
            assert rep.pairs_resampled >= 1
            assert g._store[key] is big and isinstance(big, PairSample)
            assert rep.churn < len(big) // 4
            _assert_scales_in_band(g)
            _assert_point_index(g)
        assert g.fold_store() == g.edge_map()
        assert g.spectral_check().passed

    def test_hops_append_fewer_entries_than_the_sample(self):
        ps, moves = _clustered_moves(32, 200, 60)
        g = DynamicGeoSpar.initialize(ps, cauchy_kernel(), 0.5, 0.05, 3, 5,
                                      allow_large_eps=True, c_s=0.1)
        _, big = _biggest(g)
        assert isinstance(big, PairSample)
        hop_entries = []
        for step, (i, z) in enumerate(moves):
            rep = g.update(i, z)
            g.get_diff()
            _assert_scales_in_band(g)
            if step % 2:
                hop_entries.append(rep.edges_changed)
        assert sum(e < len(big) for e in hop_entries) > len(hop_entries) / 2


class TestBatchedSlabs:
    """Whole-pair slabs are weighed in one batched kernel call per
    operation; every weight must equal the edge evaluated on its own."""

    @staticmethod
    def _assert_raw_weights_exact(g, checked):
        """Every raw weight, a sampled pair's or a whole pair's H weight,
        equals its edge evaluated alone.  `checked` maps an edge to the raw
        weight already found exact; the caller drops the moved point's
        edges from it after a move."""
        pts = g.pset.points
        h = g.edge_map()
        for entry in g._store.values():
            if isinstance(entry, WholePair):
                cells = _cells(entry)
                raw = [h[(i, j) if i < j else (j, i)] for i, j in cells]
            else:
                cells, raw = pairs(entry), entry.raw
            for (i, j), w in zip(cells, raw):
                if checked.get((i, j)) == w:
                    continue
                alone = g.kernel.eval_sqdist(
                    np.array([np.sum((pts[i] - pts[j]) ** 2)]))[0]
                assert w.hex() == float(alone).hex(), (i, j)
                checked[(i, j)] = w

    @pytest.mark.parametrize("inputs", ["uniform", "clustered"])
    def test_weights_fold_and_diff_exact_every_move(self, inputs):
        if inputs == "uniform":
            g, rng = make_dgs(seed=31)
            moves = [(int(rng.integers(0, g.n)), random_unit_move(rng))
                     for _ in range(100)]
        else:
            # big enough that the cluster-pair biclique stays sampled
            ps, moves = _clustered_moves(32, 200, 100)
            g = DynamicGeoSpar.initialize(ps, cauchy_kernel(), 0.5, 0.05, 3,
                                          5, allow_large_eps=True, c_s=0.1)
        checked = {}
        self._assert_raw_weights_exact(g, checked)
        assert g.fold_store() == g.edge_map()
        resampled = 0
        for i, z in moves:
            before = g.edge_map()
            rep = g.update(i, z)
            resampled += rep.pairs_resampled
            checked = {e: w for e, w in checked.items() if i not in e}
            self._assert_raw_weights_exact(g, checked)
            after = g.edge_map()
            assert g.fold_store() == after
            diff = g.get_diff()
            assert apply_diff(before, diff) == after
            assert len(diff) == rep.edges_changed
            # the log is net: each changed edge logs -old (if it was in H)
            # then +new (if it still is), and no other edge appears
            changed = {e for e in before.keys() | after.keys()
                       if before.get(e) != after.get(e)}
            assert rep.churn == len(changed)
            logged = {}
            for a, b, w in diff:
                logged.setdefault((a, b), []).append(w)
            assert logged.keys() == changed
            for e, ws in logged.items():
                assert ws == ([-before[e]] if e in before else []) + (
                    [after[e]] if e in after else [])
        if inputs == "clustered":
            assert resampled > 0

    @staticmethod
    def _counting_kernel(base):
        calls = []

        def f(t):
            if np.ndim(t):  # eval_sqdist passes arrays, eval a float
                calls.append(np.size(t))
            return base.f(t)

        return KernelFunction("counted-" + base.name, f, base.lipschitz_C,
                              base.lipschitz_L), calls

    def test_initialize_makes_one_vectorized_call(self):
        kernel, calls = self._counting_kernel(gaussian_kernel())
        g, _ = make_dgs(seed=33, kernel=kernel)
        assert all(isinstance(e, WholePair) for e in g._store.values())
        assert calls == [g.n * (g.n - 1) // 2]

    def test_each_operation_makes_at_most_one_call(self):
        # sampled builds and resamples draw edges; those are weighed in the
        # operation's one batched call too
        kernel, calls = self._counting_kernel(cauchy_kernel())
        ps, moves = _clustered_moves(32, 200, 60)
        g = DynamicGeoSpar.initialize(ps, kernel, 0.5, 0.05, 3, 5,
                                      allow_large_eps=True, c_s=0.1)
        assert len(calls) == 1
        assert any(isinstance(e, PairSample) for e in g._store.values())
        resampled = batched = 0
        for i, z in moves:
            del calls[:]
            rep = g.update(i, z)
            assert len(calls) <= 1
            batched += len(calls)
            resampled += rep.pairs_resampled
        assert resampled > 0 and batched > 0


def _edges_by_point(edges):
    index = {}
    for edge in edges:
        for endpoint in (edge >> SHIFT, edge & MASK):
            index.setdefault(endpoint, set()).add(edge)
    return index


def _assert_point_index(g):
    """Every pair's id lists hold exactly its two nodes' ids, once each; a
    sampled pair holds s of its biclique's edges, at most three quarters
    of them, and a per-point index equal to a scan of its edges.  The
    store holds exactly the WSPD's pairs."""
    assert set(g._store) == g.pairs.pairs
    tree = g.tree
    for key, entry in g._store.items():
        a_node, b_node = (tree.by_tok[t] for t in wspd.unpack(key))
        for ids, node in ((entry.a, a_node), (entry.b, b_node)):
            assert len(ids) == len(set(ids)) == node.count
            assert set(ids) == set(tree.subtree_ids(node))
        if isinstance(entry, PairSample):
            nx, ny = a_node.count, b_node.count
            assert len(entry) == g.sample_size(nx, ny)
            assert 4 * len(entry) <= 3 * nx * ny
            assert entry.by_point == _edges_by_point(entry.edges)
    assert g.fold_store() == g.edge_map()


def _side_of(entry, pid):
    """0 if pid is on the a side of a whole pair, 1 if on the b side."""
    return 0 if pid in entry.a else 1 if pid in entry.b else None


class TestPointIndex:
    """A whole pair keeps no per-point index: the moved point's edges there
    are its slab against the other side's id list."""

    @pytest.mark.parametrize("inputs", ["uniform", "clustered"])
    def test_index_only_on_sampled_pairs(self, inputs):
        if inputs == "uniform":
            g, rng = make_dgs(seed=41, n=64)
            moves = [(int(rng.integers(0, g.n)), random_unit_move(rng))
                     for _ in range(50)]
        else:
            ps, moves = _clustered_moves(32, 200, 50)
            g = DynamicGeoSpar.initialize(ps, cauchy_kernel(), 0.5, 0.05, 3,
                                          5, allow_large_eps=True, c_s=0.1)
            assert any(isinstance(e, PairSample) for e in g._store.values())
        _assert_point_index(g)
        for i, z in moves:
            rep = g.update(i, z)
            _assert_point_index(g)
            assert rep.pairs_touched == (
                rep.pairs_removed + rep.pairs_added + rep.pairs_resampled
                + rep.pairs_rematerialized + rep.pairs_extended
                + rep.pairs_reweighted)

    def test_whole_pair_past_four_s_turns_sampled(self):
        # a 4-point cluster far from a 196-point one; hops into the small
        # cluster grow their whole pair until |X||Y| > 4s
        rng = np.random.default_rng(0)
        raw = np.vstack([rng.normal(0, 0.02, (4, 4)) + 0.3,
                         rng.normal(0, 0.02, (196, 4)) + 5.0])
        ps = normalize_points(raw)
        g = DynamicGeoSpar.initialize(ps, cauchy_kernel(), 0.5, 0.05, 3, 0,
                                      allow_large_eps=True, c_s=0.032)
        key, pair = _biggest(g)
        assert isinstance(pair, WholePair)
        center = raw[:4].mean(axis=0)
        turned = None
        for step, i in enumerate(range(4, 24)):
            before = pair
            rep = g.update(i, ps.transform_raw(
                center + rng.normal(0, 1e-4, 4)))
            pair = g._store[key]
            if isinstance(before, WholePair) and isinstance(pair, PairSample):
                # the same key now holds a sample of the grown biclique,
                # built afresh from the pair's lists
                turned = step
                assert rep.pairs_rematerialized >= 1
                nx, ny = _dims(g, key)
                assert nx * ny > 4 * g.sample_size(nx, ny)
                assert len(pair) == g.sample_size(nx, ny)
            else:
                assert pair is before
            _assert_point_index(g)
        # the pair turns sampled with hops left to resample it again
        assert turned is not None and turned < 19

    def test_sampled_pair_past_three_quarters_turns_whole(self):
        # a 12-point cluster far from a 188-point one; hops out of the small
        # cluster shrink their sampled pair, which stays sampled past half
        # its biclique and is rebuilt whole once 4s > 3|X||Y|
        rng = np.random.default_rng(0)
        raw = np.vstack([rng.normal(0, 0.02, (12, 4)) + 0.3,
                         rng.normal(0, 0.02, (188, 4)) + 5.0])
        ps = normalize_points(raw)
        g = DynamicGeoSpar.initialize(ps, cauchy_kernel(), 0.5, 0.05, 3, 0,
                                      allow_large_eps=True, c_s=0.032)
        (key,) = [k for k in g._store if sorted(_dims(g, k)) == [12, 188]]
        pair = g._store[key]
        assert isinstance(pair, PairSample)
        center = raw[12:].mean(axis=0)
        turned = None
        fills = []
        for i in range(10):
            before = pair
            rep = g.update(i, ps.transform_raw(
                center + rng.normal(0, 1e-4, 4)))
            pair = g._store[key]
            nx, ny = _dims(g, key)
            fill = g.sample_size(nx, ny) / (nx * ny)
            if isinstance(before, PairSample) and isinstance(pair, WholePair):
                turned = i
                assert rep.pairs_rematerialized >= 1
                assert fill > 0.75
            else:
                assert pair is before
                if isinstance(pair, PairSample):
                    fills.append(fill)
            _assert_point_index(g)
        # it stayed sampled above half its biclique, then turned whole
        assert max(fills) > 0.5
        assert turned is not None and turned < 9

    def test_crossing_point_releases_exactly_its_slab(self):
        g, rng = make_dgs(seed=23, n=64)
        crossings = 0
        for _ in range(50):
            i = int(rng.integers(0, g.n))
            whole = {key: (e, _side_of(e, i), _cells(e))
                     for key, e in g._store.items()
                     if isinstance(e, WholePair)}
            g.update(i, random_unit_move(rng))
            removed = {}
            for a, b, w in g.get_diff():
                if w < 0:
                    removed[(a, b)] = removed.get((a, b), 0) + 1
            for key, (e, before, cells) in whole.items():
                after = _side_of(e, i) if g._store.get(key) is e else None
                if before is None or after is None or after == before:
                    continue
                crossings += 1
                departed = {edge for edge in cells if edge[before] == i}
                released = {edge for edge in cells
                            if removed.get(tuple(sorted(edge)))}
                assert released == departed
                assert all(removed[tuple(sorted(edge))] == 1
                           for edge in departed)
            _assert_point_index(g)
        assert crossings > 0


class TestFlatStorage:
    """H and the samples keep no per-edge object the garbage collector
    would track and scan: their keys are packed ints.  A whole pair keeps
    nothing per edge, only its sides' ids, as ints."""

    @staticmethod
    def _assert_untracked(g):
        assert not gc.is_tracked(g._h)
        for e in g._store.values():
            if isinstance(e, PairSample):
                assert not gc.is_tracked(e.pos)
            else:
                assert all(type(pid) is int for pid in e.a + e.b)
        h = g.edge_map()
        assert all(i < j for i, j in h)
        assert h == g.fold_store()

    @pytest.mark.parametrize("inputs", ["uniform", "clustered"])
    def test_no_per_edge_object_is_tracked(self, inputs):
        # no gc.collect(): a fresh tuple key is tracked until a collection
        # finds it holds only ints, so a tuple-keyed H would be tracked here
        if inputs == "uniform":
            g, rng = make_dgs(seed=43, n=64)
            moves = [(int(rng.integers(0, g.n)), random_unit_move(rng))
                     for _ in range(30)]
        else:
            ps, moves = _clustered_moves(32, 200, 30)
            g = DynamicGeoSpar.initialize(ps, cauchy_kernel(), 0.5, 0.05, 3,
                                          5, allow_large_eps=True, c_s=0.1)
            assert any(isinstance(e, PairSample) for e in g._store.values())
        self._assert_untracked(g)
        for i, z in moves:
            g.update(i, z)
            self._assert_untracked(g)


class TestFullyDynamicWrapper:
    def test_rebuild_schedule_and_counter(self):
        rng = np.random.default_rng(15)
        ps = normalize_points(rng.random((64, 4)) * 10)
        w = FullyDynamicSparsifier(ps, gaussian_kernel(), 0.5, 0.05, 3, 21,
                                   allow_large_eps=True)
        assert w.budget == 32
        for step in range(128):
            w.update(int(rng.integers(0, 64)), random_unit_move(rng))
        assert w.rebuild_count >= 3
        assert w.updates_since_rebuild == 128 - w.rebuild_count * w.budget
        assert w.spectral_check().passed

    def test_counter_resets_at_rebuild(self):
        rng = np.random.default_rng(16)
        ps = normalize_points(rng.random((8, 2)) * 3)
        w = FullyDynamicSparsifier(ps, gaussian_kernel(), 0.5, 0.05, 1, 5,
                                   rebuild_budget=3, allow_large_eps=True)
        for step in range(3):
            w.update(int(rng.integers(0, 8)), random_unit_move(rng, 2))
        assert w.rebuild_count == 0 and w.updates_since_rebuild == 3
        w.update(0, random_unit_move(rng, 2))
        assert w.rebuild_count == 1 and w.updates_since_rebuild == 1

    def test_rebuild_equals_fresh_initialize(self):
        rng = np.random.default_rng(17)
        ps = normalize_points(rng.random((24, 3)) * 2)
        w = FullyDynamicSparsifier(ps, gaussian_kernel(), 0.5, 0.05, 2, 99,
                                   rebuild_budget=5, allow_large_eps=True)
        for _ in range(5):
            w.update(int(rng.integers(0, 24)), random_unit_move(rng, 3))
        w.rebuild()
        fresh = DynamicGeoSpar.initialize(
            w.inner.pset.copy(), gaussian_kernel(), 0.5, 0.05, 2,
            w.seed_for(w.rebuild_count), allow_large_eps=True)
        assert fresh.edge_map() == w.inner.edge_map()

    def test_deterministic_replay(self):
        rng = np.random.default_rng(18)
        raw = rng.random((32, 3)) * 4
        moves = [(int(rng.integers(0, 32)), random_unit_move(rng, 3))
                 for _ in range(40)]

        def run():
            w = FullyDynamicSparsifier(
                normalize_points(raw), gaussian_kernel(), 0.5, 0.05, 2, 7,
                rebuild_budget=10, allow_large_eps=True)
            for i, z in moves:
                w.update(i, z)
            return w.inner.edge_map()

        assert run() == run()


class TestAdversarialMode:
    def test_k_formula(self):
        cfg = adversarial_mode(RunConfig(), 256, 8, 4.0)
        assert cfg.k == 3  # ceil(sqrt(8))

    def test_budget_check_passes_quietly(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adversarial_mode(RunConfig(), 256, 8, 4.0)  # 16 <= 32

    def test_budget_violation_warns(self):
        with pytest.warns(RuntimeWarning):
            adversarial_mode(RunConfig(), 256, 8, 1000.0)

    def test_adversarial_replay_spectral(self):
        # scripted adversary: always move the point with the worst current
        # projected-distance distortion
        rng = np.random.default_rng(19)
        raw = rng.random((48, 4)) * 6
        ps = normalize_points(raw)
        cfg = adversarial_mode(RunConfig(eps=0.5, allow_large_eps=True),
                               48, 4, 20.0)
        g = DynamicGeoSpar.initialize(ps, gaussian_kernel(), 0.5, 0.05,
                                      cfg.k, 3, allow_large_eps=True)
        for step in range(30):
            pts = g.pset.points
            proj = np.vstack([g._project_unit(p) for p in pts])
            i, j = 0, 1
            worst = 0.0
            for a in range(0, 48, 3):
                for b in range(a + 1, 48, 5):
                    dd = np.linalg.norm(pts[a] - pts[b])
                    pp = np.linalg.norm(proj[a] - proj[b])
                    if dd > 0 and pp / dd > worst:
                        worst, i = pp / dd, a
            g.update(i, random_unit_move(rng))
            if step % 10 == 9:
                assert g.spectral_check().passed
