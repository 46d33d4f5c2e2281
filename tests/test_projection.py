import json
import math

import numpy as np
import pytest

from geospar.errors import BadDimension, DimensionMismatch
from geospar.projection import (
    make_sketch_pair,
    make_ultra_jl,
    sketch_rows,
)


class TestUltraJl:
    def test_zero_maps_to_zero(self):
        jl = make_ultra_jl(8, 3, 0)
        assert np.array_equal(jl.project(np.zeros(8)), np.zeros(3))

    def test_same_seed_identical(self):
        a = make_ultra_jl(10, 4, 42)
        b = make_ultra_jl(10, 4, 42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_different_seed_differs(self):
        a = make_ultra_jl(10, 4, 1)
        b = make_ultra_jl(10, 4, 2)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_linearity(self):
        jl = make_ultra_jl(12, 3, 7)
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(12), rng.standard_normal(12)
        lhs = jl.project(a + b)
        rhs = jl.project(a) + jl.project(b)
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.allclose(jl.project(2.0 * a), 2.0 * jl.project(a), atol=1e-12)

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            make_ultra_jl(4, 4, 0)
        with pytest.raises(BadDimension):
            make_ultra_jl(4, 0, 0)

    def test_dimension_mismatch(self):
        jl = make_ultra_jl(6, 2, 0)
        with pytest.raises(DimensionMismatch):
            jl.project(np.zeros(5))

    def test_golden_projection_bit_exact(self, fixtures_dir):
        golden = json.loads((fixtures_dir / "golden_projection.json").read_text())
        jl = make_ultra_jl(golden["d"], golden["k"], golden["seed"])
        x = np.array([float.fromhex(h) for h in golden["x_hex"]])
        y = jl.project(x)
        assert [float(v).hex() for v in y] == golden["y_hex"]

    def test_distortion_below_calibrated_cap(self, calibration):
        cal = calibration["jl_distortion"]
        d, k, npairs = cal["d"], cal["k"], cal["npairs"]
        spreads = []
        for seed in range(1000, 1100):  # seeds disjoint from calibration runs
            rng = np.random.default_rng(seed)
            jl = make_ultra_jl(d, k, seed)
            u = rng.standard_normal((npairs, d))
            v = rng.standard_normal((npairs, d))
            ratio = (np.linalg.norm((u - v) @ jl.matrix.T, axis=1)
                     / np.linalg.norm(u - v, axis=1))
            spreads.append(ratio.max() / ratio.min())
        assert np.isfinite(spreads).all()
        assert np.quantile(spreads, 0.99) < cal["cap"]


class TestSketchPair:
    def test_pair_is_distinct(self):
        phi, psi = make_sketch_pair(32, 0.5, 0.05, 0)
        assert not np.array_equal(phi.matrix, psi.matrix)

    def test_rows_formula_monotone_in_eps(self):
        assert sketch_rows(100, 0.1, 0.05) > sketch_rows(100, 0.5, 0.05)
        assert sketch_rows(100, 0.5, 0.05) >= 1

    def test_norm_preservation_failure_fraction(self):
        eps, delta = 0.3, 0.05
        phi, _ = make_sketch_pair(64, eps, delta, 3)
        rng = np.random.default_rng(4)
        failures = 0
        for _ in range(100):
            x = rng.standard_normal(64)
            r = np.linalg.norm(phi.apply(x)) / np.linalg.norm(x)
            if not (1 - 2 * eps) <= r <= (1 + 2 * eps):
                failures += 1
        assert failures <= 2 * delta * 100

    def test_mean_squared_norm_near_one(self, calibration):
        # calibration already averaged 1000 seeds; re-check a 200-seed slice
        rng = np.random.default_rng(5)
        x = rng.standard_normal(48)
        x /= np.linalg.norm(x)
        vals = []
        for seed in range(200):
            phi, _ = make_sketch_pair(48, 0.5, 0.01, 2000 + seed)
            vals.append(np.linalg.norm(phi.apply(x)) ** 2)
        assert 0.95 <= np.mean(vals) <= 1.05
        assert 0.95 <= calibration["sketch_norms"]["mean_sq_norm"] <= 1.05

    def test_gram_expectation_is_identity(self):
        # average Psi^T Psi over seeds converges to I in max-entry norm
        n = 12
        acc = np.zeros((n, n))
        trials = 400
        for seed in range(trials):
            _, psi = make_sketch_pair(n, 0.5, 0.05, seed)
            acc += psi.matrix.T @ psi.matrix
        acc /= trials
        assert np.abs(acc - np.eye(n)).max() < 0.15

    def test_independence_surrogate(self):
        # entries of Phi and Psi are uncorrelated
        phi, psi = make_sketch_pair(100, 0.2, 0.05, 9)
        a = phi.matrix.ravel()[:10_000]
        b = psi.matrix.ravel()[:10_000]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_deterministic_given_seed(self):
        a1, b1 = make_sketch_pair(20, 0.5, 0.05, 77)
        a2, b2 = make_sketch_pair(20, 0.5, 0.05, 77)
        assert np.array_equal(a1.matrix, a2.matrix)
        assert np.array_equal(b1.matrix, b2.matrix)

    def test_column_major_and_bit_equal_to_row_major_draw(self):
        n, eps, delta, seed = 40, 0.5, 0.05, 13
        m = sketch_rows(n, eps, delta)
        for sk, ss in zip(make_sketch_pair(n, eps, delta, seed),
                          np.random.SeedSequence(seed).spawn(2)):
            rng = np.random.Generator(np.random.PCG64(ss))
            expect = rng.standard_normal((m, n)) / math.sqrt(m)
            assert expect.flags.c_contiguous
            assert sk.matrix.flags.f_contiguous and sk.matrix.shape == (m, n)
            assert np.array_equal(sk.matrix, expect)
