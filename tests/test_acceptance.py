"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, not deferred to configuration.  Default
constants throughout: c_s = 0.25, c_sk = 4, k = 3, gaussian kernel (so
gamma = L / k = 2/3), eps = 0.5, delta = 0.05 (desk-scale override of the
production eps range).  Criteria with wall-clock budgets assert them.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import importlib.util
import itertools
import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from geospar import quadtree, wspd
from geospar.cli import main as cli_main
from geospar.distance import ujl_init
from geospar.kernels import gaussian_kernel, normalize_points
from geospar.sketches import multiply_init, solve_init
from geospar.sparsifier import DynamicGeoSpar, FullyDynamicSparsifier
from test_sampling import pairs, rand_sample, resample_fast

EPS = 0.5
DELTA = 0.05
K = 3
SEEDS = 20


def _instance(n, seed, d=4):
    rng = np.random.default_rng(seed)
    ps = normalize_points(rng.random((n, d)) * 10.0)
    return ps, rng


def _dgs(n, seed):
    ps, rng = _instance(n, seed)
    g = DynamicGeoSpar.initialize(ps, gaussian_kernel(), EPS, DELTA, K, seed,
                                  allow_large_eps=True)
    return g, rng


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_spectral_after_init():
    t0 = time.perf_counter()
    results = {}
    for n in (64, 128, 256):
        passes = 0
        for seed in range(SEEDS):
            g, _ = _dgs(n, seed)
            if g.spectral_check().passed:
                passes += 1
        results[n] = passes
    elapsed = time.perf_counter() - t0
    ok = all(v >= 19 for v in results.values()) and elapsed < 60.0
    _report("01 spectral-after-init",
            ok, f"passes per n: {results}, {elapsed:.1f}s (< 60s)")
    assert all(v >= 19 for v in results.values())
    assert elapsed < 60.0


def test_criterion_02_dynamic_maintenance():
    t0 = time.perf_counter()
    total = passed = 0
    for n in (64, 128, 256):
        for seed in range(SEEDS):
            g, rng = _dgs(n, seed)
            for step in range(1, 101):
                g.update(int(rng.integers(0, n)), rng.random(4) * 0.5 + 0.25)
                g.get_diff()
                if step % 10 == 0:
                    total += 1
                    if g.spectral_check().passed:
                        passed += 1
    elapsed = time.perf_counter() - t0
    rate = passed / total
    ok = rate >= 0.90 and elapsed < 300.0
    _report("02 dynamic-maintenance",
            ok, f"checkpoint pass rate {rate:.3f} ({passed}/{total}), "
                f"{elapsed:.0f}s (< 300s)")
    assert rate >= 0.90
    assert elapsed < 300.0


def test_criterion_03_wspd_oracle_equivalence():
    t0 = time.perf_counter()
    n = 200
    for seed in range(SEEDS):
        rng = np.random.default_rng(seed)
        pts = {i: rng.random(K) for i in range(n)}
        tree = quadtree.CompressedQuadTree.build(dict(pts), K)
        pl = wspd.compute_wspd(tree)
        for _ in range(500):
            pid = int(rng.integers(0, n))
            z = rng.random(K)
            wspd.find_modified_pairs(tree, pl, pid, z)
            pts[pid] = z
        fresh_tree = quadtree.CompressedQuadTree.build(pts, K)
        fresh = wspd.compute_wspd(fresh_tree)
        assert (pl.canonical_pairs(tree)
                == fresh.canonical_pairs(fresh_tree)), f"seed {seed}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report("03 wspd-oracle-equivalence",
            ok, f"20 seeds x 500 moves exact, {elapsed:.1f}s (< 60s)")
    assert elapsed < 60.0


def test_criterion_04_resampling_distribution():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    trials = 50_000
    grid = [
        # (A, B, A2, B2, s): targets span 12..24 cells, s spans 4..8
        ({0, 1, 2}, {10, 11, 12, 13}, {0, 1, 2}, {10, 11, 12, 19}, 4),
        ({0, 1, 2}, {10, 11, 12, 13}, {0, 1, 9}, {10, 11, 12, 13}, 6),
        ({0, 1, 2, 3}, {10, 11, 12, 13, 14},
         {0, 1, 2, 9}, {10, 11, 12, 13, 14, 15}, 8),
        ({0, 1, 2, 3}, {10, 11, 12, 13, 14},
         {0, 1, 2, 3}, {11, 12, 13, 14}, 5),
    ]
    worst_p = 1.0
    worst_tv = 0.0
    for a, b, a2, b2, s in grid:
        cells = [(i, j) for i in sorted(a2) for j in sorted(b2)]
        ncells = len(cells)
        assert 12 <= ncells <= 24
        cf = {c: 0 for c in cells}
        cr = {c: 0 for c in cells}
        for _ in range(trials):
            out = rand_sample(a, b, s, rng)
            resample_fast(out, a, b, a2, b2, s, rng)
            for e in pairs(out):
                cf[e] += 1
            for e in pairs(rand_sample(a2, b2, s, rng)):
                cr[e] += 1
        expect = trials * s / ncells
        chi2 = sum((cf[c] - expect) ** 2 / expect for c in cells)
        pval = float(scipy.stats.chi2.sf(chi2, df=ncells - 1))
        tv = 0.5 * sum(abs(cf[c] - cr[c]) for c in cells) / (trials * s)
        worst_p = min(worst_p, pval)
        worst_tv = max(worst_tv, tv)
        assert pval > 0.001, (a, b, a2, b2, s, pval)
        assert tv <= 0.02, (a, b, a2, b2, s, tv)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _report("04 resampling-distribution",
            ok, f"min chi2 p {worst_p:.4f} (> 0.001), max TV {worst_tv:.4f} "
                f"(<= 0.02), {elapsed:.0f}s (< 120s)")
    assert elapsed < 120.0


def _assert_churn_below_cap(name, g, hops, t0, extra=""):
    """Churn per move: median below 5% of the sparsifier's edges, 95% of moves below."""
    churns = []
    for i, z in hops:
        rep = g.update(i, z)
        g.get_diff()
        churns.append(rep.churn)
    cap = 0.05 * g.edge_count
    frac_below = sum(1 for c in churns if c < cap) / len(churns)
    med = statistics.median(churns)
    elapsed = time.perf_counter() - t0
    ok = med < cap and frac_below >= 0.95 and elapsed < 60.0
    _report(name, ok, f"median {med:.0f} vs cap {cap:.0f}, below-cap "
                      f"fraction {frac_below:.2f} (>= 0.95), {extra}"
                      f"{elapsed:.1f}s (< 60s)")
    assert med < cap
    assert frac_below >= 0.95
    assert elapsed < 60.0


def test_criterion_05_churn_bound():
    # dense input: every pair is whole, so a move's churn is its n - 1 edges
    t0 = time.perf_counter()
    g, rng = _dgs(256, 0)
    hops = ((int(rng.integers(0, 256)), rng.random(4) * 0.5 + 0.25)
            for _ in range(100))
    _assert_churn_below_cap("05 churn-bound", g, hops, t0)


def test_criterion_05_churn_bound_sampled():
    # scripts/sparse_probe.py's input: 8 tight clusters, hops between them,
    # with c_s low enough that the cluster pairs are sampled
    spec = importlib.util.spec_from_file_location(
        "sparse_probe",
        Path(__file__).resolve().parents[1] / "scripts" / "sparse_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    n = 512
    t0 = time.perf_counter()
    pset, hops = probe.clusters(n, 0)
    g = probe.build(pset, 0.05)
    g.get_diff()
    edge_ratio = g.edge_count / (n * (n - 1) // 2)
    _assert_churn_below_cap("05 churn-bound (sampled)", g,
                            itertools.islice(hops, 100), t0,
                            f"edge_ratio {edge_ratio:.3f} (< 0.5), ")
    assert edge_ratio < 0.5


def test_criterion_06_sketch_exactness():
    t0 = time.perf_counter()
    n = 64
    for seed in range(SEEDS):
        ps, rng = _instance(n, seed)
        v = rng.standard_normal(n)
        mul = multiply_init(ps, gaussian_kernel(), v, EPS, DELTA, K, seed,
                            allow_large_eps=True)
        ps2, _ = _instance(n, seed)
        sol = solve_init(ps2, gaussian_kernel(), v, EPS, DELTA, K, seed,
                         allow_large_eps=True)
        for step in range(50):
            if step % 5 == 2:
                idx = int(rng.integers(0, n))
                val = float(rng.standard_normal())
                mul.update_v([(idx, val)])
                sol.update_b([(idx, val)])
            else:
                i = int(rng.integers(0, n))
                z = rng.random(4) * 0.5 + 0.25
                mul.update_g(i, z)
                sol.update_g(i, z)
        _, _, z_mul = mul.scratch_recompute()
        _, _, z_sol = sol.scratch_recompute()
        rel_mul = np.linalg.norm(mul.query() - z_mul) / np.linalg.norm(z_mul)
        rel_sol = np.linalg.norm(sol.query() - z_sol) / np.linalg.norm(z_sol)
        assert rel_mul <= 1e-6, (seed, rel_mul)
        assert rel_sol <= 1e-6, (seed, rel_sol)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _report("06 sketch-exactness",
            ok, f"20 seeds x 50 mixed updates, rel err <= 1e-6, "
                f"{elapsed:.0f}s (< 120s)")
    assert elapsed < 120.0


def test_criterion_07_unsketched_audit():
    t0 = time.perf_counter()
    n = 64
    mul_pass = solve_pass = 0
    for seed in range(SEEDS):
        ps, rng = _instance(n, seed)
        v = rng.standard_normal(n)
        st = multiply_init(ps, gaussian_kernel(), v, EPS, DELTA, K, seed,
                           allow_large_eps=True)
        from geospar.sketches import approximation_audit
        rep = approximation_audit(st)
        mul_pass += rep.multiply_ok
        solve_pass += rep.solve_ok
    elapsed = time.perf_counter() - t0
    ok = mul_pass >= 19 and solve_pass >= 19 and elapsed < 120.0
    _report("07 unsketched-audit",
            ok, f"multiply {mul_pass}/20, solve {solve_pass}/20 (>= 19), "
                f"{elapsed:.1f}s (< 120s)")
    assert mul_pass >= 19
    assert solve_pass >= 19
    assert elapsed < 120.0


def test_criterion_08_ultra_jl_guarantee(calibration):
    t0 = time.perf_counter()
    cal = calibration["ujl"]
    n, d, cap = cal["n"], cal["d"], cal["D"]
    queries = 100
    seed_pass = 0
    iid_failures = 0
    adv_failures = 0
    pair_total = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, d))
        store = ujl_init(pts, 0.1, seed)
        fails = 0
        for _ in range(queries):
            q = rng.standard_normal(d)
            u = store.query(q)
            dist = np.linalg.norm(pts - q, axis=1)
            ratio = u / dist
            fails += int(((ratio < 1.0) | (ratio > cap)).sum())
        iid_failures += fails
        pair_total += queries * n
        if fails / (queries * n) <= 2.0 / n:
            seed_pass += 1
        # adversarial replay: requery at the worst-distortion point
        q = rng.standard_normal(d)
        for _ in range(queries):
            u = store.query(q)
            dist = np.linalg.norm(pts - q, axis=1)
            dist[dist == 0.0] = np.inf
            ratio = u / dist
            adv_failures += int(((ratio < 1.0) | (ratio > cap)).sum())
            worst = int(np.argmax(ratio))
            q = pts[worst] + 1e-3 * rng.standard_normal(d)
    iid_rate = iid_failures / pair_total
    adv_rate = adv_failures / pair_total
    elapsed = time.perf_counter() - t0
    rate_ok = adv_rate <= 2.0 * max(iid_rate, 1.0 / pair_total)
    ok = seed_pass >= 27 and rate_ok and elapsed < 120.0
    _report("08 ultra-jl-guarantee",
            ok, f"{seed_pass}/30 seeds within 2/n, iid rate {iid_rate:.2e}, "
                f"adversarial rate {adv_rate:.2e} (<= 2x), "
                f"{elapsed:.0f}s (< 120s)")
    assert seed_pass >= 27
    assert rate_ok
    assert elapsed < 120.0


def test_criterion_09_fully_dynamic_wrapper():
    t0 = time.perf_counter()
    n = 64
    total = passed = 0
    for seed in range(SEEDS):
        ps, rng = _instance(n, seed)
        w = FullyDynamicSparsifier(ps, gaussian_kernel(), EPS, DELTA, K, seed,
                                   allow_large_eps=True)
        assert w.budget == n // 2
        for step in range(1, 2 * n + 1):
            w.update(int(rng.integers(0, n)), rng.random(4) * 0.5 + 0.25)
            if step % 10 == 0:
                total += 1
                passed += w.spectral_check().passed
        assert w.rebuild_count >= 3, seed
        expected_counter = 2 * n - w.rebuild_count * w.budget
        assert w.updates_since_rebuild == expected_counter, seed
    rate = passed / total
    elapsed = time.perf_counter() - t0
    ok = rate >= 0.90 and elapsed < 120.0
    _report("09 fully-dynamic-wrapper",
            ok, f"checkpoint pass rate {rate:.3f}, >= 3 rebuilds per run, "
                f"counters exact, {elapsed:.0f}s (< 120s)")
    assert rate >= 0.90
    assert elapsed < 120.0


def test_criterion_10_sublinear_trend(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "bench.json"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("eps = 0.5\nallow_large_eps = true\nk = 3\n"
                   "kernel = gaussian\nseed = 11\n")
    rc = cli_main(["bench", "--sizes", "128,512", "--moves", "40",
                   "--repeats", "3", "--config", str(cfg),
                   "--out", str(out)])
    rep = json.loads(out.read_text())
    rows = rep["detail"]["rows"]
    ratios = {r["n"]: r["ratio"] for r in rows}
    elapsed = time.perf_counter() - t0
    ok = rc == 0 and ratios[512] < ratios[128] and elapsed < 300.0
    _report("10 sublinear-trend",
            ok, f"update/rebuild ratio {ratios[128]:.4f} (n=128) -> "
                f"{ratios[512]:.4f} (n=512), {elapsed:.0f}s (< 300s)")
    assert rc == 0
    assert ratios[512] < ratios[128]
    assert elapsed < 300.0
