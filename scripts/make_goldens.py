#!/usr/bin/env python3
"""Regenerate the golden fixtures under tests/fixtures/.

Goldens hold only the deterministic report sections (counts and pass/fail
booleans driven by the seeded RNG), never wall-clock numbers, plus the
seed-7 and seed-3 move digests of scripts/move_digest.py
(move_digests.json, keyed by seed, then by workload), which pin every
move's edge map, diff log and report on the benchmark's three workloads.
Run from the repository root after any intentional behavior change:

    python3 scripts/make_goldens.py

Exits 1 when any CLI command it runs (build, replay, bench) exits
non-zero; that command's golden is then left as it was.
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

import geospar as gs
import move_digest
from geospar.cli import main as cli_main, write_points_csv

FIX = ROOT / "tests" / "fixtures"


def make_points_and_trace():
    rng = np.random.default_rng(2024)
    pts = rng.random((128, 4)) * 10.0
    write_points_csv(FIX / "points_n128.csv", pts)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    ops = []
    for step in range(30):
        i = int(rng.integers(0, 128))
        z = (lo + rng.random(4) * (hi - lo)).tolist()
        ops.append({"op": "move", "i": i, "z": z})
        if step % 10 == 5:
            ops.append({"op": "mulv",
                        "nz": [[int(rng.integers(0, 128)), 1.0]]})
            ops.append({"op": "solveb",
                        "nz": [[int(rng.integers(0, 128)), -2.0]]})
    with open(FIX / "trace_n128.jsonl", "w") as fh:
        for op in ops:
            fh.write(json.dumps(op) + "\n")


def make_config():
    (FIX / "config_desk.txt").write_text(
        "# desk-scale verification config\n"
        "eps = 0.5\n"
        "allow_large_eps = true\n"
        "delta = 0.05\n"
        "k = 3\n"
        "kernel = gaussian\n"
        "seed = 7\n"
        "checkpoint = 10\n")


def run_and_extract(argv, out_name) -> int:
    tmp = FIX / ("_tmp_" + out_name)
    rc = cli_main(argv + ["--out", str(tmp)])
    print(out_name, "rc:", rc)
    if rc == 0:
        golden = json.loads(tmp.read_text())["golden"]
        (FIX / out_name).write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n")
    tmp.unlink(missing_ok=True)
    return rc


def make_projection_golden():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(16)
    jl = gs.make_ultra_jl(16, 4, 123)
    y = jl.project(x)
    (FIX / "golden_projection.json").write_text(json.dumps({
        "d": 16, "k": 4, "seed": 123,
        "x_hex": [float(v).hex() for v in x],
        "y_hex": [float(v).hex() for v in y],
    }, indent=2) + "\n")


# seeds whose move digests are pinned: the tests check seed 7, CI seed 3
DIGEST_SEEDS = (7, 3)


def make_move_digests():
    digests = {str(seed): {name: move_digest.digest(name, seed)
                           for name in move_digest.WORKLOADS}
               for seed in DIGEST_SEEDS}
    (FIX / "move_digests.json").write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main() -> int:
    FIX.mkdir(parents=True, exist_ok=True)
    make_points_and_trace()
    make_config()
    cfg = str(FIX / "config_desk.txt")
    pts = str(FIX / "points_n128.csv")
    rcs = [
        run_and_extract(["build", "--points", pts, "--config", cfg],
                        "golden_build.json"),
        run_and_extract(["replay", "--points", pts,
                         "--trace", str(FIX / "trace_n128.jsonl"),
                         "--config", cfg], "golden_replay.json"),
        run_and_extract(["bench", "--sizes", "48,96", "--moves", "15",
                         "--repeats", "1", "--config", cfg],
                        "golden_bench.json"),
    ]
    make_projection_golden()
    make_move_digests()
    print("goldens written to", FIX)
    return 1 if any(rcs) else 0


if __name__ == "__main__":
    sys.exit(main())
