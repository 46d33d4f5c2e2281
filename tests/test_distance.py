import numpy as np
import pytest

from geospar.distance import UltraJlStore, ujl_init, ultra_k
from geospar.errors import DimensionMismatch, IndexOutOfRange


def make_store(n=256, d=8, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    return ujl_init(pts, 0.1, seed), pts, rng


class TestInit:
    def test_k_from_n(self):
        assert ultra_k(256) == 3   # round(sqrt(8)) = 3
        assert ultra_k(1024) == 3  # round(sqrt(10)) = 3
        assert ultra_k(2) == 1

    def test_projections_consistent_bit_exact(self):
        store, pts, _ = make_store()
        for i in range(0, 256, 17):
            assert np.array_equal(store.proj[i], store.jl.project(pts[i]))

    def test_query_on_own_point_is_zero(self):
        store, pts, _ = make_store(seed=1)
        u = store.query(pts[5])
        assert u[5] == 0.0

    def test_warns_when_d_far_from_log_n(self):
        rng = np.random.default_rng(2)
        with pytest.warns(RuntimeWarning):
            ujl_init(rng.standard_normal((256, 100)), 0.1, 0)


class TestUpdate:
    def test_update_reflected_in_query(self):
        store, pts, rng = make_store(seed=3)
        z = rng.standard_normal(8)
        store.update(7, z)
        u = store.query(z)
        assert u[7] == pytest.approx(0.0, abs=1e-12)

    def test_noop_update(self):
        store, pts, _ = make_store(seed=4)
        before = store.proj.copy()
        store.update(3, pts[3])
        assert np.array_equal(store.proj, before)

    def test_index_out_of_range(self):
        store, _, _ = make_store()
        with pytest.raises(IndexOutOfRange):
            store.update(999, np.zeros(8))

    def test_dimension_mismatch(self):
        store, _, _ = make_store()
        with pytest.raises(DimensionMismatch):
            store.query(np.zeros(5))

    def test_batch_recompute_after_updates(self):
        store, pts, rng = make_store(seed=5)
        current = pts.copy()
        for _ in range(100):
            i = int(rng.integers(0, 256))
            z = rng.standard_normal(8)
            store.update(i, z)
            current[i] = z
        fresh = np.vstack([store.jl.project(p) for p in current])
        assert np.array_equal(store.proj, fresh)


class TestQuery:
    def test_scaling_linearity(self):
        store, pts, _ = make_store(seed=6)
        q = np.zeros(8)
        u1 = store.query(q)
        doubled = ujl_init(pts * 2.0, 0.1, 6)
        # same seed means the same projection matrix, so distances double
        store2 = UltraJlStore(pts * 2.0, store.jl)
        u2 = store2.query(q)
        assert np.allclose(u2, 2.0 * u1, rtol=1e-12)

    def test_determinism(self):
        s1, pts, _ = make_store(seed=7)
        s2 = ujl_init(pts, 0.1, 7)
        q = np.ones(8)
        assert np.array_equal(s1.query(q), s2.query(q))

    def test_guarantee_at_calibrated_bound(self, calibration):
        cal = calibration["ujl"]
        n, d = cal["n"], cal["d"]
        cap = cal["D"]
        rng = np.random.default_rng(999)
        pts = rng.standard_normal((n, d))
        store = ujl_init(pts, 0.1, 999)
        failures = 0
        total = 0
        lower = 0
        for _ in range(40):
            q = rng.standard_normal(d)
            u = store.query(q)
            dist = np.linalg.norm(pts - q, axis=1)
            ratio = u / dist
            failures += int(((ratio < 1.0) | (ratio > cap)).sum())
            lower += int((ratio < 1.0).sum())
            total += n
        assert failures / total <= 2.0 / n
        assert lower / total <= 1e-2
