#!/usr/bin/env python3
"""Print one digest per benchmark workload of everything a move returns.

Builds each workload of perfbench/workloads.py on its inputs for --seed
and replays its moves in order (the sketch-serve workload's other
operations are skipped; they do not touch the sparsifier).  Each digest
is a SHA-256 over the edge map after set-up and then, per move, the
UpdateReport's fields, the get_diff() log and the edge map, both sorted by
(i, j), weights compared bit for bit.  Two trees that print the same
digests behave identically move for move on these inputs.

A second digest, `shape`, covers only each move's path through the
pairs: the UpdateReport's fields other than `churn` and `edges_changed`,
and the sparsifier's edge count, after set-up and after every move.  It
survives a change of which cells a sample holds (and so of the weights
and the log), as long as every pair takes the same path and holds as
many edges.

A third digest, `maps`, covers what a caller of the sparsifier sees and
nothing of how the pairs are kept: the edge map after set-up and then,
per move, the sorted get_diff() log and the edge map, with no
UpdateReport field.  It survives a change of the WSPD's pair counters,
as long as every move writes the same weights.

The order of entries within one move's log is not part of the contract:
the log holds, per changed edge, -old then +new.  So the log is hashed
after a stable sort by (i, j), which keeps each edge's -old before its
+new.

Stdlib, numpy and geospar only.  Run from the repository root:

    python3 scripts/move_digest.py
    python3 scripts/move_digest.py --workload clustered-drift --seed 7
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

# operations generated per workload: 150, 300 and 80 moves
OPS = {"uniform-moves": 150, "clustered-drift": 300, "sketch-serve": 400}
# UpdateReport fields left out of the shape digest: they count cells
SHAPE_SKIP = ("churn", "edges_changed")


def hash_edge_map(h, g):
    em = g.edge_map()
    ij = np.array(list(em), dtype=np.int64).reshape(-1, 2)
    w = np.fromiter(em.values(), np.float64, len(em))
    order = np.lexsort((ij[:, 1], ij[:, 0]))
    h.update(ij[order].tobytes())
    h.update(w[order].tobytes())


def digest(name: str, seed: int) -> dict:
    wl = WORKLOADS[name]
    inputs = wl.generate(seed, OPS[name])
    g = wl._sparsifier(inputs)
    h, shape, maps = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    hash_edge_map(h, g)
    hash_edge_map(maps, g)
    shape.update(repr(g.edge_count).encode())
    moves = 0
    for op in inputs.ops:
        if op[0] != "move":
            continue
        _, i, z = op
        rep = g.update(i, z)
        h.update(repr(dataclasses.astuple(rep)).encode())
        diff = sorted(g.get_diff(), key=lambda e: (e[0], e[1]))
        h.update(repr(diff).encode())
        hash_edge_map(h, g)
        maps.update(repr(diff).encode())
        hash_edge_map(maps, g)
        path = {k: v for k, v in dataclasses.asdict(rep).items()
                if k not in SHAPE_SKIP}
        shape.update(repr((path, g.edge_count)).encode())
        moves += 1
    return {"workload": name, "seed": seed, "moves": moves,
            "digest": h.hexdigest(), "shape": shape.hexdigest(),
            "maps": maps.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="uniform-moves, clustered-drift, sketch-serve or all")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        ap.error(f"unknown workload {args.workload!r}")
    for name in names:
        print(json.dumps(digest(name, args.seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
