#!/usr/bin/env python3
"""Probe the sampled regime: hops between tight clusters.

Builds a DynamicGeoSpar on n points in 8 clusters in [0, 10)^4 (centers
uniform, sigma 0.02 around them; Cauchy kernel, eps 0.5, delta 0.05,
k 3, sparsifier seed 12345) and makes --hops hops, each of which moves a
random point next to a random cluster's center.  --seed draws the
centers, the points and the hops.  Prints one JSON object:

- setup_s: wall time of the set-up;
- hop_p50_ms: median wall time of a hop (update plus get_diff);
- churn_per_n: mean churn of a hop (edges whose weight changed) over n;
- edge_ratio: the sparsifier's edge count (sampled and whole) after
  the hops over n(n - 1)/2;
- sampled_pairs: pairs held as samples after the hops;
- fill_min, fill_max: the least and greatest share of its biclique a
  sampled pair holds, len(sample) / |X||Y| (null with no sampled pair);
- fold_exact: whether the edge map equals a fold of the pairs after
  the hops;
- replay_exact: whether every hop's get_diff() log, replayed in order
  onto the set-up edge map, gives the edge map after the hops, bit for
  bit.  The set-up map is built again after the hops, from the same
  points and seed, so no copy of it is held while the hops run.  A
  sampled edge's weight is read from its sample on both sides of
  fold_exact, so only this check covers the log of the sampled edges;
- setup_rss_mb: the process's peak resident memory
  (`resource.getrusage`), in MB, right after the set-up;
- peak_rss_mb: the same after the hops, read before the checks, whose
  own dicts and dense matrices would otherwise count;
- spectral: with --spectral, the dense spectral check after the hops
  ({passed, min_eig, max_eig, eps}); null without.  It costs seconds at
  n = 1024 and grows as n^3.

The exit code is 1 when fold_exact or replay_exact is false or fill_max
exceeds 3/4, the fill the sparsifier's kind rule keeps every sample
within so that the rejection loop stays short.

Stdlib, numpy and geospar only.  Run from the repository root:

    python3 scripts/sparse_probe.py --n 1024 --hops 30
    python3 scripts/sparse_probe.py --n 1024 --c-s 0.05 --spectral
"""

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import geospar as gs  # noqa: E402

D = 4
CLUSTERS = 8
SIGMA = 0.02
FILL_CAP = 0.75  # no sample may hold more of its biclique


def near(rng, pset, center) -> np.ndarray:
    """A unit-frame point drawn around a raw-frame center."""
    while True:
        z = pset.transform_raw(rng.normal(0.0, SIGMA, D) + center)
        if np.all((z >= 0.0) & (z < 1.0)):
            return z


def clusters(n: int, seed: int):
    """The probe's points and its endless stream of (point id, target) hops."""
    rng = np.random.default_rng(seed)
    centers = rng.random((CLUSTERS, D)) * 10.0
    raw = centers[np.arange(n) % CLUSTERS] + rng.normal(0.0, SIGMA, (n, D))
    pset = gs.normalize_points(raw)

    def hops():
        while True:
            i = int(rng.integers(0, n))
            yield i, near(rng, pset, centers[rng.integers(0, CLUSTERS)])

    return pset, hops()


def build(pset, c_s: float) -> gs.DynamicGeoSpar:
    return gs.DynamicGeoSpar.initialize(pset, gs.cauchy_kernel(), 0.5, 0.05,
                                        3, 12345, c_s=c_s,
                                        allow_large_eps=True)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KB on Linux
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def replay(edges: dict, logs) -> dict:
    """`edges` with each (i, j, dw) of the logs added in order, an edge
    that reaches 0 taken out; edits `edges` in place."""
    for log in logs:
        for i, j, dw in log:
            w = edges.get((i, j), 0.0) + dw
            if w == 0.0:
                edges.pop((i, j), None)
            else:
                edges[(i, j)] = w
    return edges


def probe(n: int, c_s: float, hops: int, seed: int, spectral: bool) -> dict:
    pset, stream = clusters(n, seed)
    t0 = time.perf_counter()
    g = build(pset, c_s)
    setup_s = time.perf_counter() - t0
    setup_rss_mb = _peak_rss_mb()
    g.get_diff()
    hop_s, churn, logs = [], 0, []
    for i, z in itertools.islice(stream, hops):
        t1 = time.perf_counter()
        churn += g.update(i, z).churn
        log = g.get_diff()
        hop_s.append(time.perf_counter() - t1)
        logs.append(log)
    peak_rss_mb = _peak_rss_mb()
    fills = [len(e) / (len(e.a) * len(e.b)) for e in g._store.values()]
    check = g.spectral_check().as_dict() if spectral else None
    edges = g.edge_map()
    fold_exact = g.fold_store() == edges
    replay_exact = replay(build(pset, c_s).edge_map(), logs) == edges
    return {
        "n": n, "c_s": c_s, "hops": hops, "seed": seed,
        "setup_s": round(setup_s, 3),
        "hop_p50_ms": round(1e3 * statistics.median(hop_s), 3) if hops else None,
        "churn_per_n": round(churn / max(hops, 1) / n, 4),
        "edge_ratio": round(g.edge_count / (n * (n - 1) // 2), 4),
        "sampled_pairs": len(fills),
        "fill_min": round(min(fills), 4) if fills else None,
        "fill_max": round(max(fills), 4) if fills else None,
        "fold_exact": fold_exact,
        "replay_exact": replay_exact,
        "spectral": check,
        "setup_rss_mb": setup_rss_mb,
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1024)
    ap.add_argument("--c-s", type=float, default=0.25,
                    help="sample-size constant (the library default 0.25)")
    ap.add_argument("--hops", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spectral", action="store_true",
                    help="run the dense spectral check after the hops")
    args = ap.parse_args(argv)
    if args.n < 2 * CLUSTERS or args.hops < 0 or args.c_s <= 0.0:
        ap.error(f"need --n >= {2 * CLUSTERS}, --hops >= 0 and --c-s > 0")
    rep = probe(args.n, args.c_s, args.hops, args.seed, args.spectral)
    print(json.dumps(rep))
    fill_ok = rep.get("fill_max") is None or rep["fill_max"] <= FILL_CAP
    exact = rep["fold_exact"] and rep["replay_exact"]
    return 0 if exact and fill_ok else 1


if __name__ == "__main__":
    sys.exit(main())
