import numpy as np
import pytest

from geospar import sketches
from geospar.kernels import (dense_laplacian, gaussian_kernel,
                             laplacian_from_edges, normalize_points)
from geospar.sketches import (PINV_RCOND, _diff_sketch, _inverse, _net_edges,
                              approximation_audit, multiply_init, solve_init)


def make_pset(n=48, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return normalize_points(rng.random((n, d)) * 9.0), rng


def relerr(a, b):
    nb = np.linalg.norm(b)
    return np.linalg.norm(a - b) / nb if nb else np.linalg.norm(a)


class TestMultiply:
    def test_zero_vector_gives_zero_sketch(self):
        ps, _ = make_pset()
        st = multiply_init(ps, gaussian_kernel(), np.zeros(48), 0.5, 0.05,
                           3, 0, allow_large_eps=True)
        assert np.array_equal(st.query(), np.zeros(st.m))

    def test_single_edge_rank_one_identity(self):
        ps = normalize_points([[0.0, 0.0], [1.0, 2.0]])
        v = np.array([1.0, -2.0])
        st = multiply_init(ps, gaussian_kernel(), v, 0.5, 0.05, 1, 1,
                           allow_large_eps=True)
        ((_, w),) = st.dgs.edge_map().items()
        phi_d = st.phi.column(0) - st.phi.column(1)
        psi_d = st.psi.column(0) - st.psi.column(1)
        expect = w * np.outer(phi_d, psi_d)
        assert np.allclose(st.lt, expect, atol=1e-12)

    def test_init_matches_dense_path(self):
        ps, rng = make_pset(n=64, seed=2)
        v = rng.standard_normal(64)
        st = multiply_init(ps, gaussian_kernel(), v, 0.5, 0.05, 3, 2,
                           allow_large_eps=True)
        dense = (st.phi.matrix @ st.dgs.get_laplacian()
                 @ st.psi.matrix.T @ (st.psi.matrix @ v))
        assert relerr(st.query(), dense) < 1e-9

    def test_empty_diff_leaves_sketch_unchanged(self):
        ps, rng = make_pset(seed=3)
        v = rng.standard_normal(48)
        st = multiply_init(ps, gaussian_kernel(), v, 0.5, 0.05, 3, 3,
                           allow_large_eps=True)
        before = st.query()
        st.apply_graph_diff([])
        assert np.array_equal(st.query(), before)

    def test_one_update_matches_scratch(self):
        ps, rng = make_pset(seed=4)
        v = rng.standard_normal(48)
        st = multiply_init(ps, gaussian_kernel(), v, 0.5, 0.05, 3, 4,
                           allow_large_eps=True)
        st.update_g(7, rng.random(4) * 0.5 + 0.25)
        lt, _, zt = st.scratch_recompute()
        assert relerr(st.lt, lt) < 1e-9
        assert relerr(st.query(), zt) < 1e-9

    def test_update_v_unit_vector_is_column(self):
        ps, rng = make_pset(seed=5)
        st = multiply_init(ps, gaussian_kernel(), np.zeros(48), 0.5, 0.05,
                           3, 5, allow_large_eps=True)
        before = st.query()
        st.update_v([(11, 1.0)])
        expect = before + st.lt @ st.psi.column(11)
        assert np.allclose(st.query(), expect, atol=1e-12)

    def test_zero_delta_is_noop(self):
        ps, rng = make_pset(seed=6)
        st = multiply_init(ps, gaussian_kernel(), rng.standard_normal(48),
                           0.5, 0.05, 3, 6, allow_large_eps=True)
        before = st.query()
        st.update_v([])
        assert np.array_equal(st.query(), before)

    def test_interleaved_updates_match_scratch(self):
        ps, rng = make_pset(seed=7)
        v = rng.standard_normal(48)
        st = multiply_init(ps, gaussian_kernel(), v, 0.5, 0.05, 3, 7,
                           allow_large_eps=True)
        for step in range(50):
            if step % 3 == 0:
                st.update_v([(int(rng.integers(0, 48)),
                              float(rng.standard_normal()))])
            else:
                st.update_g(int(rng.integers(0, 48)),
                            rng.random(4) * 0.5 + 0.25)
            if step % 10 == 9:
                _, _, zt = st.scratch_recompute()
                assert relerr(st.query(), zt) < 1e-8

    def test_linearity_in_v(self):
        ps, rng = make_pset(seed=8)
        v1 = rng.standard_normal(48)
        v2 = rng.standard_normal(48)

        def run(v):
            return multiply_init(make_pset(seed=8)[0], gaussian_kernel(), v,
                                 0.5, 0.05, 3, 8, allow_large_eps=True).query()

        z12 = run(v1 + v2)
        z1 = run(v1)
        z2 = run(v2)
        z0 = run(np.zeros(48))
        assert np.allclose(z12, z1 + z2 - z0, atol=1e-10)


class TestSolve:
    def test_zero_rhs_gives_zero(self):
        ps, _ = make_pset(seed=9)
        st = solve_init(ps, gaussian_kernel(), np.zeros(48), 0.5, 0.05, 3, 9,
                        allow_large_eps=True)
        assert np.allclose(st.query(), 0.0)

    def test_pseudoinverse_property(self):
        ps, rng = make_pset(seed=10)
        st = solve_init(ps, gaussian_kernel(), rng.standard_normal(48),
                        0.5, 0.05, 3, 10, allow_large_eps=True)
        lhs = st.lt @ st.lt_pinv @ st.lt
        assert np.linalg.norm(lhs - st.lt) <= 1e-8 * np.linalg.norm(st.lt)

    def test_init_matches_dense_path(self):
        ps, rng = make_pset(n=64, seed=11)
        b = rng.standard_normal(64)
        st = solve_init(ps, gaussian_kernel(), b, 0.5, 0.05, 3, 11,
                        allow_large_eps=True)
        lt = st.phi.matrix @ st.dgs.get_laplacian() @ st.psi.matrix.T
        dense = np.linalg.pinv(lt, rcond=1e-10) @ (st.phi.matrix @ b)
        assert relerr(st.query(), dense) < 1e-7

    def test_update_g_matches_scratch(self):
        ps, rng = make_pset(seed=12)
        st = solve_init(ps, gaussian_kernel(), rng.standard_normal(48),
                        0.5, 0.05, 3, 12, allow_large_eps=True)
        st.update_g(3, rng.random(4) * 0.5 + 0.25)
        _, _, zt = st.scratch_recompute()
        assert relerr(st.query(), zt) < 1e-7

    def test_many_updates_match_scratch(self):
        ps, rng = make_pset(seed=13)
        st = solve_init(ps, gaussian_kernel(), rng.standard_normal(48),
                        0.5, 0.05, 3, 13, allow_large_eps=True)
        for step in range(50):
            if step % 4 == 0:
                st.update_b([(int(rng.integers(0, 48)),
                              float(rng.standard_normal()))])
            else:
                st.update_g(int(rng.integers(0, 48)),
                            rng.random(4) * 0.5 + 0.25)
            if step % 10 == 9:
                _, _, zt = st.scratch_recompute()
                assert relerr(st.query(), zt) < 1e-6

    def test_update_b_roundtrip(self):
        ps, rng = make_pset(seed=14)
        st = solve_init(ps, gaussian_kernel(), rng.standard_normal(48),
                        0.5, 0.05, 3, 14, allow_large_eps=True)
        before = st.query()
        st.update_b([(5, 2.5)])
        st.update_b([(5, -2.5)])
        assert np.allclose(st.query(), before, atol=1e-10)


def random_move(rng, d=4):
    return rng.random(d) * 0.5 + 0.25


def dense_diff_sketch(st, diff):
    lap = laplacian_from_edges(st.dgs.n, diff)
    return st.phi.matrix @ lap @ st.psi.matrix.T


class TestPerEdgeFold:
    def test_cancelled_pair_adds_no_term(self):
        ps, rng = make_pset(seed=17)
        v = rng.standard_normal(48)
        noisy = multiply_init(ps, gaussian_kernel(), v, 0.5, 0.05, 3, 17,
                              allow_large_eps=True)
        net = multiply_init(ps, gaussian_kernel(), v, 0.5, 0.05, 3, 17,
                            allow_large_eps=True)
        w = noisy.dgs.edge_map()[(2, 9)]
        real = (4, 30, 0.125)
        # owner migration: the edge leaves one pair and another claims it
        diff = [(2, 9, -w), real, (2, 9, w)]
        ii, jj, ww = _net_edges(diff, 48)
        assert (ii.tolist(), jj.tolist(), ww.tolist()) == ([4], [30], [0.125])
        assert relerr(_diff_sketch(noisy.phi, noisy.psi, diff),
                      dense_diff_sketch(noisy, diff)) < 1e-12
        noisy.apply_graph_diff(diff)
        net.apply_graph_diff([real])
        assert np.array_equal(noisy.lt, net.lt)
        assert np.array_equal(noisy.query(), net.query())

    @pytest.mark.parametrize("init", [multiply_init, solve_init])
    def test_concatenated_moves_fold_as_one(self, init):
        ps, rng = make_pset(seed=18)
        vec = rng.standard_normal(48)
        stepwise = init(ps, gaussian_kernel(), vec, 0.5, 0.05, 3, 18,
                        allow_large_eps=True)
        batched = init(ps, gaussian_kernel(), vec, 0.5, 0.05, 3, 18,
                       allow_large_eps=True)
        concat = []
        for _ in range(5):
            i, z = int(rng.integers(0, 48)), random_move(rng)
            stepwise.update_g(i, z)
            batched.dgs.update(i, z)
            concat += batched.dgs.get_diff()
        assert relerr(_diff_sketch(batched.phi, batched.psi, concat),
                      dense_diff_sketch(batched, concat)) < 1e-12
        batched.apply_graph_diff(concat)
        assert relerr(batched.lt, stepwise.lt) < 1e-12
        assert relerr(batched.query(), stepwise.query()) < 1e-12
        lt, _, zt = batched.scratch_recompute()
        assert relerr(batched.lt, lt) < 1e-9
        assert relerr(batched.query(), zt) < 1e-7


class TestInverse:
    def test_invertible_sketch_takes_lu_and_tracks_scratch(self, monkeypatch):
        ps, rng = make_pset(n=256, seed=19)
        st = solve_init(ps, gaussian_kernel(), rng.standard_normal(256),
                        0.5, 0.05, 3, 19, allow_large_eps=True)
        assert st.m == 137  # m < n: L~ has full rank
        svd_calls = []
        real_pinv = np.linalg.pinv

        def spy(a, *args, **kwargs):
            svd_calls.append(a.shape)
            return real_pinv(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", spy)
        for step in range(50):
            if step % 2 == 0:
                st.update_b([(int(rng.integers(0, 256)),
                              float(rng.standard_normal()))])
            else:
                st.update_g(int(rng.integers(0, 256)), random_move(rng))
            if step % 10 == 9:
                assert svd_calls == []  # every refresh was an LU inverse
                _, _, zt = st.scratch_recompute()
                svd_calls.clear()
                assert relerr(st.query(), zt) < 1e-6
        a, x = st.lt, st.lt_pinv
        na, nx = np.linalg.norm(a), np.linalg.norm(x)
        assert np.linalg.norm(a @ x @ a - a) <= 1e-10 * na
        assert np.linalg.norm(x @ a @ x - x) <= 1e-10 * nx
        assert np.linalg.norm(a @ x - (a @ x).T) <= 1e-10 * na * nx
        assert np.linalg.norm(x @ a - (x @ a).T) <= 1e-10 * na * nx

    def test_rank_deficient_sketch_falls_back_to_pinv(self):
        ps, rng = make_pset(seed=20)
        st = solve_init(ps, gaussian_kernel(), rng.standard_normal(48),
                        0.5, 0.05, 3, 20, allow_large_eps=True)
        assert st.m == 110  # m > n: rank L~ <= n - 1
        expect = np.linalg.pinv(st.lt, rcond=PINV_RCOND)
        assert np.array_equal(_inverse(st.lt), expect)
        assert np.array_equal(st.lt_pinv, expect)

    def test_scratch_recompute_is_an_independent_svd(self, monkeypatch):
        ps, rng = make_pset(n=256, seed=21)
        st = solve_init(ps, gaussian_kernel(), rng.standard_normal(256),
                        0.5, 0.05, 3, 21, allow_large_eps=True)
        seen = []
        real_pinv = np.linalg.pinv

        def spy(a, *args, **kwargs):
            seen.append(kwargs)
            return real_pinv(a, *args, **kwargs)

        def forbidden(_):
            raise AssertionError("the oracle must not use the LU helper")

        monkeypatch.setattr(np.linalg, "pinv", spy)
        monkeypatch.setattr(sketches, "_inverse", forbidden)
        lt, bt, zt = st.scratch_recompute()
        assert seen == [{"rcond": PINV_RCOND}]
        assert np.array_equal(zt, real_pinv(lt, rcond=PINV_RCOND) @ bt)


class TestAudit:
    def test_exact_sparsifier_zero_errors(self):
        ps, rng = make_pset(seed=15)
        st = multiply_init(ps, gaussian_kernel(), rng.standard_normal(48),
                           0.5, 0.05, 3, 15, allow_large_eps=True)
        # at this scale every biclique is materialized, so H == G exactly
        assert np.allclose(st.dgs.get_laplacian(),
                           dense_laplacian(ps.points, gaussian_kernel()))
        rep = approximation_audit(st)
        assert rep.multiply_error < 1e-9 and rep.solve_error < 1e-7
        assert rep.multiply_ok and rep.solve_ok

    def test_scaled_graph_hits_eps_exactly(self):
        # L_H = (1 + eps) L_G -> multiply error == eps by the scaling identity
        ps, rng = make_pset(n=20, seed=16)
        st = multiply_init(ps, gaussian_kernel(), rng.standard_normal(20),
                           0.25, 0.05, 3, 16, allow_large_eps=True)
        eps = st.dgs.eps
        for key, w in list(st.dgs._h.items()):
            st.dgs._h[key] = w * (1 + eps)
        rep = approximation_audit(st)
        assert rep.multiply_error == pytest.approx(eps, rel=1e-6)
