#!/usr/bin/env python3
"""Measure what CPython's garbage collector costs the sparsifier.

Builds a DynamicGeoSpar on n uniform points in [0, 10)^4 (Gaussian
kernel, eps 0.5, delta 0.05, k 3, as the benchmark's uniform-moves
workload) and moves random points into the middle of the unit frame.
Prints one JSON object:

- tracked_after_setup: objects the collector tracks after set-up and one
  full collection (tuples and dicts of untracked items are untracked
  by then; sets never are);
- collections: collections per generation during the moves;
- gc_ms_per_move: collector time per move, timed through gc.callbacks;
- move_ms_mean: mean wall time of a move, collector included;
- setup_rss_kb_per_edge: resident-set growth over set-up per edge of H
  (read from /proc/self/statm, so null where that is missing).

Stdlib and geospar only.  Run from the repository root:

    python3 scripts/gc_probe.py --n 512 --moves 200 --seed 3
"""

import argparse
import gc
import json
import os
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import geospar as gs  # noqa: E402

D = 4


def rss_kb():
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


class CollectorClock:
    """Counts collections per generation and sums their wall time."""

    def __init__(self):
        self.counts = [0, 0, 0]
        self.seconds = 0.0
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.seconds += time.perf_counter() - self._start
            self.counts[info["generation"]] += 1
            self._start = None


def probe(n: int, moves: int, seed: int) -> dict:
    rnd = random.Random(seed)
    raw = [[rnd.random() * 10.0 for _ in range(D)] for _ in range(n)]
    targets = [(rnd.randrange(n), [rnd.random() * 0.5 + 0.25 for _ in range(D)])
               for _ in range(moves)]
    pset = gs.normalize_points(raw)
    gc.collect()
    rss0 = rss_kb()
    g = gs.DynamicGeoSpar.initialize(pset, gs.gaussian_kernel(), 0.5, 0.05,
                                     3, seed, allow_large_eps=True)
    rss1 = rss_kb()
    gc.collect()
    tracked = len(gc.get_objects())
    edges = g.edge_count

    clock = CollectorClock()
    gc.callbacks.append(clock)
    try:
        t0 = time.perf_counter()
        for i, z in targets:
            g.update(i, z)
            g.get_diff()
        wall = time.perf_counter() - t0
    finally:
        gc.callbacks.remove(clock)
    per_edge = None if rss0 is None else round((rss1 - rss0) / edges, 3)
    return {
        "n": n, "moves": moves, "seed": seed, "edges": edges,
        "tracked_after_setup": tracked,
        "collections": dict(zip(("gen0", "gen1", "gen2"), clock.counts)),
        "gc_ms_per_move": round(1e3 * clock.seconds / max(moves, 1), 3),
        "move_ms_mean": round(1e3 * wall / max(moves, 1), 3),
        "setup_rss_kb_per_edge": per_edge,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=512)
    ap.add_argument("--moves", type=int, default=200)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args(argv)
    if args.n < 2 or args.moves < 0:
        ap.error("need --n >= 2 and --moves >= 0")
    print(json.dumps(probe(args.n, args.moves, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
