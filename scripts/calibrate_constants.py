#!/usr/bin/env python3
"""Measure and freeze the empirical constants used by the test suite.

Writes tests/fixtures/calibration.json.  Each entry records the
measurement protocol inputs alongside the frozen value, so re-running
this script documents where every constant came from.  Run from the
repository root:

    python3 scripts/calibrate_constants.py
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import geospar as gs
from geospar import wspd as wspd_mod
from geospar.quadtree import CompressedQuadTree

OUT = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "calibration.json"


def jl_distortion_cap(trials=400, d=16, k=4, npairs=100):
    """99.9th pct of the pairwise-distance distortion spread, with margin."""
    worst = []
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        jl = gs.make_ultra_jl(d, k, seed)
        u = rng.standard_normal((npairs, d))
        v = rng.standard_normal((npairs, d))
        num = np.linalg.norm((u - v) @ jl.matrix.T, axis=1)
        den = np.linalg.norm(u - v, axis=1)
        ratio = num / den
        worst.append(float(ratio.max() / ratio.min()))
    q = float(np.quantile(worst, 0.999))
    return {"d": d, "k": k, "npairs": npairs, "trials": trials,
            "q999": q, "cap": 1.5 * q}


def ujl_guarantee(n=1024, d=10, seeds=30, queries=100):
    """Smallest exponent c with D = n^(c/k) covering the upper side, with margin."""
    max_ratio = []
    lower_viol = 0
    total = 0
    for seed in range(seeds):
        rng = np.random.default_rng(10_000 + seed)
        pts = rng.standard_normal((n, d))
        store = gs.ujl_init(pts, 0.1, seed)
        qs = rng.standard_normal((queries, d))
        for q in qs:
            u = store.query(q)
            dist = np.linalg.norm(pts - q, axis=1)
            ratio = u / dist
            max_ratio.append(float(ratio.max()))
            lower_viol += int((ratio < 1.0).sum())
            total += n
    k = gs.ultra_k(n)
    dmax = float(np.max(max_ratio))
    c_needed = k * math.log(dmax) / math.log(n)
    c = round(c_needed + 0.25, 2)
    return {"n": n, "d": d, "k": k, "seeds": seeds, "queries": queries,
            "max_ratio_observed": dmax, "c_needed": c_needed, "c": c,
            "D": n ** (c / k),
            "lower_violation_rate": lower_viol / total}


def sparsifier_stats(sizes=(64, 128, 256), seeds=3, moves=120):
    """Churn caps, modified-pair and membership constants, depth, budget.

    The membership and modified-pair bounds hold for the full WSPD, which
    the sparsifier stops short of where no pair can be sampled, and the
    tests check them on the full WSPD.  So both are measured on a full
    WSPD of the sparsifier's tree, kept up to date beside it on a copy of
    that tree."""
    churn_cap = {}
    budget_c = []
    member_c = []
    modified_c = []
    depth_slack = []
    for n in sizes:
        worst_churn = 0
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            raw = rng.random((n, 4)) * 10.0
            ps = gs.normalize_points(raw)
            g = gs.DynamicGeoSpar.initialize(
                ps, gs.gaussian_kernel(), 0.5, 0.05, 3, seed,
                allow_large_eps=True)
            # projected-point aspect ratio drives the log-alpha bounds
            proj = np.vstack([g._project_unit(p) for p in ps.points])
            alpha = gs.aspect_ratio(proj)
            log_a = max(1.0, math.log2(alpha))
            gamma = g.gamma
            denom = 0.5 ** -2 * n ** (1.0 + gamma) * math.log(n + 1) * log_a
            budget_c.append(g.sparsity_budget / denom)
            tree = CompressedQuadTree.build(dict(enumerate(proj)), g.k)
            full = wspd_mod.compute_wspd(tree)
            per_point = {}
            for key in full.pairs:
                for t in wspd_mod.unpack(key):
                    node = tree.by_tok[t]
                    for leaf in tree.iter_leaves(node):
                        per_point[leaf.pid] = per_point.get(leaf.pid, 0) + 1
            member_c.append(max(per_point.values()) / (2 ** 3 * log_a))
            depth = _max_depth(g.tree)
            depth_slack.append(depth - math.ceil(math.log2(alpha)))
            for _ in range(moves):
                i = int(rng.integers(0, n))
                z = rng.random(4) * 0.5 + 0.25
                rep = g.update(i, z)
                g.get_diff()
                worst_churn = max(worst_churn, rep.churn)
                reported, _ = wspd_mod.find_modified_pairs(
                    tree, full, i, g._project_unit(z))
                modified_c.append(len(reported) / (2 ** 3 * log_a))
        churn_cap[str(n)] = int(worst_churn * 1.5)
    return {
        "churn_cap": churn_cap,
        "budget_constant": 1.5 * max(budget_c),
        "membership_constant": 1.5 * max(member_c),
        "modified_pairs_constant": 1.5 * max(modified_c),
        "depth_slack_max": int(max(depth_slack)),
    }


def _max_depth(tree):
    best = 0
    stack = [(tree.root, 1)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            best = max(best, depth)
        else:
            for c in node.children.values():
                stack.append((c, depth + 1))
    return best


def sketch_norms(seeds=1000, n=64, eps=0.5, delta=0.01):
    """Mean of ||Phi x||^2 over unit vectors: should straddle 1 tightly."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    vals = []
    for seed in range(seeds):
        phi, _ = gs.make_sketch_pair(n, eps, delta, seed)
        vals.append(float(np.linalg.norm(phi.apply(x)) ** 2))
    return {"n": n, "eps": eps, "delta": delta, "seeds": seeds,
            "mean_sq_norm": float(np.mean(vals))}


def main():
    t0 = time.time()
    out = {
        "jl_distortion": jl_distortion_cap(),
        "ujl": ujl_guarantee(),
        "sparsifier": sparsifier_stats(),
        "sketch_norms": sketch_norms(),
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT} in {time.time()-t0:.1f}s")
    print(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
