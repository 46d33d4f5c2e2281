"""Command-line harness: build, replay, bench, ujl, verify.

Reports are JSON with three sections: "golden" (deterministic for a fixed
seed: counts, config, pass/fail booleans), "detail" (floating-point
measurements), and "timing" (wall-clock, never compared against goldens).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from .config import RunConfig, parse_config
from .distance import ujl_init
from .errors import GeosparError, TraceError
from .kernels import normalize_points
from .projection import make_sketch_pair
from .sketches import MultiplyState, SolveState
from .sparsifier import DynamicGeoSpar, FullyDynamicSparsifier


# -- file formats --------------------------------------------------------------


def _is_number(v) -> bool:
    """An int or a float (not a bool) that a finite float can hold."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def read_points_csv(path) -> np.ndarray:
    """CSV point file: header '# dim=<d> n=<n>', one comma-separated row per point."""
    rows = []
    dim = None
    declared_n = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                try:
                    for token in line[1:].split():
                        if token.startswith("dim="):
                            dim = int(token[4:])
                        elif token.startswith("n="):
                            declared_n = int(token[2:])
                except ValueError:
                    raise TraceError(f"{path}:{lineno}: malformed header {line!r}")
                continue
            try:
                vals = [float(v) for v in line.split(",")]
            except ValueError:
                raise TraceError(f"{path}:{lineno}: malformed point row {line!r}")
            if not all(map(_is_number, vals)):
                raise TraceError(f"{path}:{lineno}: non-finite coordinate in {line!r}")
            if dim is not None and len(vals) != dim:
                raise TraceError(
                    f"{path}:{lineno}: expected {dim} coordinates, got {len(vals)}")
            rows.append(vals)
    if not rows:
        raise TraceError(f"{path}: no points found")
    if declared_n is not None and declared_n != len(rows):
        raise TraceError(f"{path}: header declares n={declared_n}, found {len(rows)}")
    return np.asarray(rows, dtype=np.float64)


def write_points_csv(path, pts: np.ndarray):
    pts = np.asarray(pts, dtype=np.float64)
    with open(path, "w") as fh:
        fh.write(f"# dim={pts.shape[1]} n={pts.shape[0]}\n")
        for row in pts:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_trace(path) -> list:
    """JSON-lines trace: move / mulv / solveb ops, with line numbers."""
    ops = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                op = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{lineno}: invalid JSON ({exc})")
            if type(op) is not dict:
                raise TraceError(f"{path}:{lineno}: expected a JSON object")
            kind = op.get("op")
            if kind == "move":
                if "i" not in op or "z" not in op:
                    raise TraceError(f"{path}:{lineno}: move needs 'i' and 'z'")
            elif kind in ("mulv", "solveb"):
                if "nz" not in op:
                    raise TraceError(f"{path}:{lineno}: {kind} needs 'nz'")
            else:
                raise TraceError(f"{path}:{lineno}: unknown op {kind!r}")
            ops.append((lineno, op))
    return ops


def _emit(report: dict, out_path):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "checkpoint", None) is not None:
        cfg.checkpoint = args.checkpoint
    return cfg


def _init_sparsifier(points_raw, cfg: RunConfig):
    pset = normalize_points(points_raw)
    kernel = cfg.make_kernel()
    k = cfg.resolve_k(pset.n, pset.dim)
    dgs = DynamicGeoSpar.initialize(
        pset, kernel, cfg.eps, cfg.delta, k, cfg.seed,
        c_s=cfg.c_s, allow_large_eps=cfg.allow_large_eps)
    return pset, kernel, dgs


# -- subcommands ----------------------------------------------------------------


def cmd_build(args) -> int:
    cfg = _load_config(args)
    raw = read_points_csv(args.points)
    t0 = time.perf_counter()
    pset, kernel, dgs = _init_sparsifier(raw, cfg)
    init_s = time.perf_counter() - t0
    golden = {
        "command": "build",
        "n": pset.n,
        "d": pset.dim,
        "k": dgs.k,
        "eps": cfg.eps,
        "kernel": kernel.name,
        "seed": cfg.seed,
        "pairs": len(dgs.pairs),
        "edges": dgs.edge_count,
        "sparsity_budget": dgs.sparsity_budget,
    }
    detail = {}
    ok = True
    if args.verify:
        chk = dgs.spectral_check()
        golden["spectral_pass"] = bool(chk.passed)
        detail["spectral"] = chk.as_dict()
        ok = chk.passed
    _emit({"golden": golden, "detail": detail,
           "timing": {"init_seconds": init_s}}, args.out)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    raw = read_points_csv(args.points)
    pset, kernel, dgs = _init_sparsifier(raw, cfg)
    chk = dgs.spectral_check()
    fold_exact = dgs.fold_store() == dgs.edge_map()
    budget_ok = dgs.edge_count <= dgs.sparsity_budget
    ok = bool(chk.passed and fold_exact and budget_ok)
    _emit({
        "golden": {
            "command": "verify",
            "n": pset.n,
            "edges": dgs.edge_count,
            "spectral_pass": bool(chk.passed),
            "fold_exact": fold_exact,
            "budget_ok": budget_ok,
            "verified": ok,
        },
        "detail": {"spectral": chk.as_dict()},
        "timing": {},
    }, args.out)
    return 0 if ok else 1


def _preflight(ops, pset):
    for lineno, op in ops:
        if op["op"] != "move":
            if not isinstance(op["nz"], list):
                raise TraceError(f"trace line {lineno}: 'nz' is not a list")
            for entry in op["nz"]:
                if not (type(entry) is list and len(entry) == 2
                        and _is_number(entry[1])):
                    raise TraceError(f"trace line {lineno}: nz entry {entry!r}"
                                     " is not an [index, number] pair")
                i = entry[0]
                if type(i) is not int or not 0 <= i < pset.n:
                    raise TraceError(
                        f"trace line {lineno}: unknown point index {i}")
            continue
        i = op["i"]
        if type(i) is not int or not 0 <= i < pset.n:
            raise TraceError(f"trace line {lineno}: unknown point index {i}")
        z = op["z"]
        if not (type(z) is list and len(z) == pset.dim
                and all(map(_is_number, z))):
            raise TraceError(f"trace line {lineno}: expected {pset.dim} coordinates")
        zu = pset.transform_raw(np.asarray(z, dtype=np.float64))
        if not np.all((zu >= 0.0) & (zu < 1.0)):
            raise TraceError(
                f"trace line {lineno}: move leaves the bounding region")


# UpdateReport counters summed over a replay's moves: the pairs touched,
# the path each of them took, and the diff entries logged
_UPDATE_TOTALS = ("pairs_touched", "pairs_added", "pairs_removed",
                  "pairs_reweighted", "pairs_resampled", "pairs_extended",
                  "pairs_rematerialized", "edges_changed")


def cmd_replay(args) -> int:
    cfg = _load_config(args)
    raw = read_points_csv(args.points)
    ops = read_trace(args.trace)
    pset = normalize_points(raw)
    _preflight(ops, pset)
    kernel = cfg.make_kernel()
    k = cfg.resolve_k(pset.n, pset.dim)
    t0 = time.perf_counter()
    wrapper = FullyDynamicSparsifier(
        pset, kernel, cfg.eps, cfg.delta, k, cfg.seed,
        rebuild_budget=cfg.rebuild_budget,
        c_s=cfg.c_s, allow_large_eps=cfg.allow_large_eps)
    init_s = time.perf_counter() - t0
    needs_sketch = any(op["op"] in ("mulv", "solveb") for _, op in ops)
    mul = sol = None
    if needs_sketch:
        sk_seed = np.random.SeedSequence([cfg.seed, 7]).generate_state(2)
        phi1, psi1 = make_sketch_pair(pset.n, cfg.eps, cfg.delta,
                                      int(sk_seed[0]), cfg.c_sk)
        phi2, psi2 = make_sketch_pair(pset.n, cfg.eps, cfg.delta,
                                      int(sk_seed[1]), cfg.c_sk)
        mul = MultiplyState(wrapper.inner, phi1, psi1, np.zeros(pset.n))
        sol = SolveState(wrapper.inner, phi2, psi2, np.zeros(pset.n))
        wrapper.inner.get_diff()  # sketches start synchronized

    checkpoints = []
    churns = []
    totals = dict.fromkeys(_UPDATE_TOTALS, 0)
    op_times = []
    n_moves = n_mulv = n_solveb = 0
    for index, (lineno, op) in enumerate(ops, start=1):
        t1 = time.perf_counter()
        if op["op"] == "move":
            if needs_sketch:
                # sketches share the one sparsifier: feed them its diff.
                # This path bypasses the wrapper, so it never rebuilds and
                # ignores rebuild_budget: a rebuild would orphan the sketch
                # states built on the first sparsifier.
                report = wrapper.inner.update(op["i"],
                                              pset.transform_raw(op["z"]))
                diff = wrapper.inner.get_diff()
                mul.apply_graph_diff(diff)
                sol.apply_graph_diff(diff)
            else:
                report = wrapper.update(op["i"], pset.transform_raw(op["z"]))
                wrapper.inner.get_diff()  # nothing reads the log here
            churns.append(report.churn)
            for name in totals:
                totals[name] += getattr(report, name)
            n_moves += 1
        elif op["op"] == "mulv":
            mul.update_v([(int(i), float(v)) for i, v in op["nz"]])
            n_mulv += 1
        else:
            sol.update_b([(int(i), float(v)) for i, v in op["nz"]])
            n_solveb += 1
        op_times.append(time.perf_counter() - t1)
        if cfg.checkpoint > 0 and index % cfg.checkpoint == 0:
            inner = wrapper.inner
            chk = inner.spectral_check()
            entry = {
                "op_index": index,
                "spectral_pass": bool(chk.passed),
                "fold_exact": inner.fold_store() == inner.edge_map(),
            }
            if needs_sketch:
                _, _, z_mul = mul.scratch_recompute()
                _, _, z_sol = sol.scratch_recompute()
                entry["sketch_mul_ok"] = bool(_relerr(mul.zt, z_mul) <= 1e-6)
                entry["sketch_solve_ok"] = bool(_relerr(sol.zt, z_sol) <= 1e-6)
            checkpoints.append(entry)

    def pct(vals, q):
        if not vals:
            return 0.0
        return float(np.percentile(vals, q))

    golden = {
        "command": "replay",
        "n": pset.n,
        "ops": len(ops),
        "moves": n_moves,
        "mulv": n_mulv,
        "solveb": n_solveb,
        "rebuilds": wrapper.rebuild_count,
        "final_edges": wrapper.inner.edge_count,
        "churn_total": int(sum(churns)),
        "checkpoints": checkpoints,
        "all_checkpoints_pass": all(
            all(v for k, v in c.items() if k != "op_index")
            for c in checkpoints),
    }
    report = {
        "golden": golden,
        "detail": {
            "churn": {"median": pct(churns, 50), "p90": pct(churns, 90),
                      "max": max(churns) if churns else 0},
            "update_totals": totals,
        },
        "timing": {
            "init_seconds": init_s,
            "op_seconds_median": pct(op_times, 50),
            "op_seconds_p90": pct(op_times, 90),
        },
    }
    _emit(report, args.out)
    return 0 if golden["all_checkpoints_pass"] else 1


def _relerr(a, b):
    denom = float(np.linalg.norm(b))
    if denom == 0.0:
        return float(np.linalg.norm(a))
    return float(np.linalg.norm(a - b) / denom)


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    sizes = [int(s) for s in args.sizes.split(",")]
    rows = []
    for n in sizes:
        rng = np.random.default_rng(cfg.seed + n)
        raw = rng.random((n, 4)) * 10.0
        moves = [(int(rng.integers(0, n)), rng.random(4) * 0.5 + 0.25)
                 for _ in range(args.moves)]
        init_times = []
        update_times = []
        churn_total = 0
        for _rep in range(args.repeats):
            pset = normalize_points(raw)
            kernel = cfg.make_kernel()
            t0 = time.perf_counter()
            dgs = DynamicGeoSpar.initialize(
                pset, kernel, cfg.eps, cfg.delta, cfg.resolve_k(n, pset.dim),
                cfg.seed, c_s=cfg.c_s, allow_large_eps=cfg.allow_large_eps)
            init_times.append(time.perf_counter() - t0)
            churn_total = 0
            t1 = time.perf_counter()
            for i, z in moves:
                rep = dgs.update(i, z)
                dgs.get_diff()
                churn_total += rep.churn
            update_times.append((time.perf_counter() - t1) / len(moves))
        init_s = statistics.median(init_times)
        upd_s = statistics.median(update_times)
        rows.append({
            "n": n,
            "edges": dgs.edge_count,
            "churn_total": churn_total,   # deterministic for a fixed seed
            "init_seconds": init_s,
            "update_seconds": upd_s,
            "ratio": upd_s / init_s,
        })
    ratios = [r["ratio"] for r in rows]
    trend_ok = all(b < a for a, b in zip(ratios, ratios[1:]))
    golden = {
        "command": "bench",
        "sizes": sizes,
        "moves": args.moves,
        "counts": [{"n": r["n"], "edges": r["edges"],
                    "churn_total": r["churn_total"]} for r in rows],
    }
    _emit({
        "golden": golden,
        "detail": {"rows": rows, "trend_ok": trend_ok},
        "timing": {},
    }, args.out)
    return 0


def cmd_ujl(args) -> int:
    pts = read_points_csv(args.points)
    queries = read_points_csv(args.queries)
    store = ujl_init(pts, args.eps, args.seed if args.seed is not None else 0)
    lines = []
    for q in queries:
        u = store.query(q)
        lines.append(",".join(repr(float(v)) for v in u))
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geospar",
        description="dynamic spectral sparsifier of kernel geometric graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (u64)")
        p.add_argument("--out", help="write the JSON report here")
        if checkpoint:
            p.add_argument("--checkpoint", type=int, default=None,
                           help="verification stride")

    p = sub.add_parser("build", help="initialize a sparsifier from a points file")
    p.add_argument("--points", required=True)
    p.add_argument("--verify", action="store_true",
                   help="run the dense spectral check")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="initialize and verify against the exact graph")
    p.add_argument("--points", required=True)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="replay an update trace with periodic audits")
    p.add_argument("--points", required=True)
    p.add_argument("--trace", required=True)
    common(p, checkpoint=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("bench", help="init/update timing trend across sizes")
    p.add_argument("--sizes", default="128,256,512")
    p.add_argument("--moves", type=int, default=50)
    p.add_argument("--repeats", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ujl", help="all-points distance estimates for queries")
    p.add_argument("--points", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    common(p)
    p.set_defaults(func=cmd_ujl)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeosparError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(json.dumps({"error": "FileNotFound", "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
