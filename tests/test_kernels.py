import math

import numpy as np
import pytest

from geospar.errors import DuplicatePoint, EmptyInput, SingularMatrix
from geospar.kernels import (
    KERNELS,
    aspect_ratio,
    cauchy_kernel,
    check_spectral_sparsifier,
    dense_laplacian,
    gaussian_kernel,
    gravity_kernel,
    laplacian_from_edges,
    normalize_points,
)


def kernel_weight(kernel, u, v):
    """Edge weight K(u, v) = f(||u-v||^2), through `eval_sqdist`."""
    diff = np.asarray(u, dtype=np.float64) - np.asarray(v, dtype=np.float64)
    return kernel.eval_sqdist(np.sum(diff * diff))


def brute_force_leverage_scores(lap, edges) -> list:
    """Weighted leverage scores w_e * (mu_i - mu_j)^T L^+ (mu_i - mu_j).

    Dense oracle; needs a connected graph.
    """
    lap = np.asarray(lap, dtype=np.float64)
    eigvals = np.linalg.eigvalsh(lap)
    zero_cut = 1e-9 * max(1.0, float(abs(eigvals).max()))
    if int(np.sum(eigvals < zero_cut)) > 1:
        raise SingularMatrix("graph is disconnected")
    pinv = np.linalg.pinv(lap)
    out = []
    for i, j, w in edges:
        chi = pinv[i, i] - 2.0 * pinv[i, j] + pinv[j, j]
        out.append(float(w) * float(chi))
    return out


class TestNormalizePoints:
    def test_two_points_land_in_unit_box(self):
        ps = normalize_points([[0.0, 0.0], [2.0, 2.0]])
        assert np.all(ps.points >= 0.0) and np.all(ps.points < 1.0)
        # uniform scaling: the distance ratio to itself is trivially 1, so
        # check the recorded scale against the mapped distance
        d_raw = math.sqrt(8.0)
        d_unit = float(np.linalg.norm(ps.points[0] - ps.points[1]))
        assert d_unit == pytest.approx(d_raw * ps.scale)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicatePoint):
            normalize_points([[1.0, 1.0], [1.0, 1.0]])

    def test_too_few_points(self):
        with pytest.raises(EmptyInput):
            normalize_points([[1.0, 2.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            normalize_points([[0.0, 0.0], [np.inf, 1.0]])

    def test_aspect_ratio_preserved(self):
        rng = np.random.default_rng(0)
        raw = rng.random((100, 3)) * 37.5 - 11.0
        ps = normalize_points(raw)
        before = aspect_ratio(raw)
        after = aspect_ratio(ps.points)
        assert after == pytest.approx(before, rel=1e-12)

    def test_transform_raw_matches_stored_points(self):
        rng = np.random.default_rng(1)
        raw = rng.random((10, 2)) * 5
        ps = normalize_points(raw)
        for i in range(10):
            assert np.array_equal(ps.transform_raw(raw[i]), ps.points[i])


class TestKernelWeight:
    def test_gaussian_unit_offset(self):
        k = gaussian_kernel()
        v = np.array([0.3, 0.4, 0.1])
        u = v + np.array([1.0, 0.0, 0.0])
        assert kernel_weight(k, u, v) == pytest.approx(math.exp(-1.0))

    def test_gravity_at_distance_two(self):
        k = gravity_kernel()
        assert kernel_weight(k, [0.0, 0.0], [2.0, 0.0]) == pytest.approx(0.25)

    def test_gravity_is_exactly_one_lipschitz(self):
        k = gravity_kernel()
        rng = np.random.default_rng(2)
        for _ in range(200):
            t = float(rng.random() * 0.99 + 0.01)
            c = float(rng.random() * (k.lipschitz_C - 1 / k.lipschitz_C)
                      + 1 / k.lipschitz_C)
            ratio = k.f(c * t) / k.f(t)
            assert ratio == pytest.approx(1.0 / c)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_multiplicative_lipschitz_on_working_range(self, name):
        # |ln(f(c t)/f(t))| <= L |ln c| for c in [1/C, C], t in (0, 1]
        kern = KERNELS[name]()
        rng = np.random.default_rng(3)
        for _ in range(500):
            t = float(rng.random() * 0.999 + 0.001)
            c = float(np.exp(rng.uniform(-math.log(kern.lipschitz_C),
                                         math.log(kern.lipschitz_C))))
            ratio = float(kern.f(c * t) / kern.f(t))
            assert abs(math.log(ratio)) <= \
                kern.lipschitz_L * abs(math.log(c)) + 1e-12

    def test_symmetry_and_nonnegativity(self):
        k = cauchy_kernel()
        rng = np.random.default_rng(4)
        for _ in range(50):
            u, v = rng.random(3), rng.random(3)
            assert kernel_weight(k, u, v) == kernel_weight(k, v, u) >= 0.0


class TestDenseLaplacian:
    def test_two_points(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.5]])
        k = gaussian_kernel()
        w = kernel_weight(k, pts[0], pts[1])
        lap = dense_laplacian(pts, k)
        assert np.allclose(lap, [[w, -w], [-w, w]])

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        pts = rng.random((17, 3))
        lap = dense_laplacian(pts, cauchy_kernel())
        assert np.allclose(lap @ np.ones(17), 0.0, atol=1e-12)

    def test_quadratic_form_matches_edge_sum(self):
        # x^T L x = sum_{i<j} w_ij (x_i - x_j)^2, brute-force oracle
        rng = np.random.default_rng(6)
        pts = rng.random((5, 2))
        k = gaussian_kernel()
        lap = dense_laplacian(pts, k)
        for _ in range(20):
            x = rng.standard_normal(5)
            direct = sum(
                kernel_weight(k, pts[i], pts[j]) * (x[i] - x[j]) ** 2
                for i in range(5) for j in range(i + 1, 5))
            assert x @ lap @ x == pytest.approx(direct, rel=1e-10)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            pts = rng.random((12, 4))
            lap = dense_laplacian(pts, gravity_kernel())
            eigs = np.linalg.eigvalsh(lap)
            assert eigs.min() >= -1e-9 * abs(eigs).max()


class TestSpectralCheck:
    def _laplacian(self, n, seed):
        rng = np.random.default_rng(seed)
        return dense_laplacian(rng.random((n, 3)), gaussian_kernel())

    def test_identity_passes_any_eps(self):
        lap = self._laplacian(10, 0)
        for eps in (0.01, 0.3, 0.9):
            chk = check_spectral_sparsifier(lap, lap, eps)
            assert chk.passed
            assert chk.min_eig == pytest.approx(1.0, abs=1e-9)
            assert chk.max_eig == pytest.approx(1.0, abs=1e-9)

    def test_doubled_graph_fails_at_half(self):
        lap = self._laplacian(10, 1)
        chk = check_spectral_sparsifier(lap, 2.0 * lap, 0.5)
        assert not chk.passed
        assert chk.max_eig == pytest.approx(2.0, rel=1e-9)

    def test_two_point_biclique_exact(self):
        pts = np.array([[0.1, 0.1], [0.8, 0.3]])
        lap = dense_laplacian(pts, gaussian_kernel())
        chk = check_spectral_sparsifier(lap, lap.copy(), 0.1)
        assert chk.passed and chk.min_eig == pytest.approx(1.0)

    def test_agrees_with_rayleigh_search(self):
        # no random vector may contradict a passing verdict beyond tol
        rng = np.random.default_rng(8)
        lap_g = self._laplacian(32, 2)
        lap_h = self._laplacian(32, 2) * (1 + 0.05 * rng.standard_normal())
        eps = 0.4
        chk = check_spectral_sparsifier(lap_g, lap_h, eps)
        ones = np.ones(32) / math.sqrt(32)
        for _ in range(10_000):
            x = rng.standard_normal(32)
            x -= (x @ ones) * ones
            num = x @ lap_h @ x
            den = x @ lap_g @ x
            ratio = num / den
            assert chk.min_eig - 1e-7 <= ratio <= chk.max_eig + 1e-7
            if chk.passed:
                assert 1 - eps - 1e-6 <= ratio <= 1 + eps + 1e-6


class TestLaplacianFromEdges:
    def test_bit_equal_in_any_edge_order(self):
        # every diagonal entry sums its weights in one canonical order, so
        # shuffling the list or flipping an edge's ends changes no bit
        rng = np.random.default_rng(11)
        pts = rng.random((24, 3))
        k = gaussian_kernel()
        edges = [(i, j, kernel_weight(k, pts[i], pts[j]))
                 for i in range(24) for j in range(i + 1, 24)
                 if rng.random() < 0.6]
        lap = laplacian_from_edges(24, edges)
        assert np.allclose(lap, dense_laplacian_of(24, edges))
        for _ in range(5):
            order = rng.permutation(len(edges))
            shuffled = [edges[x] if rng.random() < 0.5
                        else (edges[x][1], edges[x][0], edges[x][2])
                        for x in order]
            assert np.array_equal(laplacian_from_edges(24, shuffled), lap)
            assert np.array_equal(
                laplacian_from_edges(24, np.array(shuffled)), lap)

    def test_empty_list_gives_zero_matrix(self):
        assert np.array_equal(laplacian_from_edges(3, []), np.zeros((3, 3)))


def dense_laplacian_of(n, edges):
    """The Laplacian of an edge list, summed entry by entry in list
    order."""
    lap = np.zeros((n, n))
    for i, j, w in edges:
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
    return lap


class TestLeverageScores:
    def test_triangle_equal_weights(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
        lap = laplacian_from_edges(3, edges)
        scores = brute_force_leverage_scores(lap, edges)
        assert scores == pytest.approx([2.0 / 3.0] * 3)

    def test_single_edge_is_tree(self):
        edges = [(0, 1, 3.7)]
        lap = laplacian_from_edges(2, edges)
        assert brute_force_leverage_scores(lap, edges) == pytest.approx([1.0])

    def test_scores_sum_to_n_minus_one(self):
        rng = np.random.default_rng(9)
        pts = rng.random((9, 2))
        k = cauchy_kernel()
        edges = [(i, j, kernel_weight(k, pts[i], pts[j]))
                 for i in range(9) for j in range(i + 1, 9)]
        lap = laplacian_from_edges(9, edges)
        assert sum(brute_force_leverage_scores(lap, edges)) == pytest.approx(8.0)

    def test_disconnected_raises(self):
        edges = [(0, 1, 1.0), (2, 3, 1.0)]
        lap = laplacian_from_edges(4, edges)
        with pytest.raises(SingularMatrix):
            brute_force_leverage_scores(lap, edges)


def test_lipschitz_distortion_transfer():
    # distances within factor K -> kernel weights within factor K^L
    k = gaussian_kernel()
    rng = np.random.default_rng(10)
    for _ in range(300):
        t = float(rng.random() * 0.9 + 0.05)
        factor = float(rng.uniform(1.0, k.lipschitz_C))
        lo, hi = sorted((float(k.f(t)), float(k.f(t * factor ** 2))))
        # squared distances scale by factor^2; weight ratio <= (factor^2)^L
        assert hi / lo <= factor ** (2 * k.lipschitz_L) * (1 + 1e-12)
