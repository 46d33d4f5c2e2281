"""geospar benchmark: closed loop, one caller, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload uniform-moves --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

A run generates the workload's inputs from --seed, builds the system four
times (set-up time is the median of the three builds after a warm-up
build), sends operations for --seconds, each one only after the previous
one returned, and then audits the final state outside the timing.  It
prints one JSON report per workload, then a result line whose metrics are
the end-to-end metrics named in BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1).  With --trace 1 the first half of the
measured time runs untraced and the second half traced; trace.slowdown is
the ratio of their throughputs.  The exit code is non-zero when an audit
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="uniform-moves, clustered-drift, sketch-serve or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    # One closed-loop caller: one BLAS thread (at or below nproc) keeps
    # timings steady.  The cap must be set before numpy loads OpenBLAS.
    cap = 1
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    if not (SRC / "geospar" / "__init__.py").is_file():
        print(f"geospar sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import geospar
    if Path(geospar.__file__).resolve().parent != SRC / "geospar":
        print(f"imported geospar from {geospar.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        ap.error(f"unknown workload {args.workload!r}")
    section = "per_layer" if args.trace else "end_to_end"
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())[section]

    env = harness.environment(cap)
    correct, attempted, failed, selected = True, 0, 0, {}
    for name in names:
        rep = harness.run_workload(WORKLOADS[name], args.seed, args.seconds,
                                   bool(args.trace))
        rep["environment"] = env
        print(json.dumps(rep), flush=True)
        for m in wanted:
            got = rep[section][m["name"]]
            if got["unit"] != m["unit"]:
                raise ValueError(f"{m['name']} is measured in {got['unit']}, "
                                 f"BENCHMARK.json says {m['unit']}")
            key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
            selected[key] = got
        correct = correct and rep["correct"]
        attempted += rep["attempted"]
        failed += rep["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": selected}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
