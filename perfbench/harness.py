"""Runs one workload: set-up builds, the closed loop, audits, metrics.

Timings are scaled to a reference host speed.  Every CAL_EVERY_S of loop
time, and around every build, the loop times a fixed calibration unit: a
pure-Python arithmetic loop that calls no library code.  Each operation's
latency is multiplied by CAL_REF_S over the median calibration time of its
window of WINDOW_S seconds, and each build time by the calibration around
the build.  On a shared host, other tenants slow whole stretches of
10-30 s, and sometimes whole minutes, by up to 2x; the calibration unit
slows with them, so the scaled figures stay put, while a change to the
library still shows in full.  The report keeps the raw wall-clock figures
next to the scaled ones.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext

import numpy as np
import scipy

import tracing
from workloads import AUDIT_ERRORS, OP_ERRORS

SETUP_BUILDS = 3     # timed builds, after one untimed warm-up build
WINDOW_S = 3.0       # operations share the calibration of their window
CAL_EVERY_S = 0.1    # loop time between calibration units
CAL_AROUND_BUILD = 5  # calibration units before and after each build
CAL_REF_S = 1.0e-3   # calibration time of the reference host speed


def calibration_unit():
    """Fixed interpreter work that slows down with the host, not with the
    library: it calls no library code and allocates nothing the garbage
    collector tracks."""
    acc = 0
    for i in range(15000):
        acc += i * i % 7
    return acc


def _calibrate(count: int) -> list:
    """Times of `count` calibration units, after an untimed one that warms
    the caches the preceding library call left cold."""
    out = []
    gc.disable()
    try:
        calibration_unit()
        for _ in range(count):
            t0 = time.perf_counter()
            calibration_unit()
            out.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return out


def environment(cap: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "blas_thread_cap": cap,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": openblas}


def run_workload(wl, seed: int, seconds: float, traced: bool) -> dict:
    inputs = wl.generate(seed, max(1, int(wl.pool_rate * seconds)))
    tracer = tracing.make_tracer()

    builds = []      # (raw seconds, speed factor)
    st = None
    with tracer.installed() if traced else nullcontext():
        for _ in range(1 + SETUP_BUILDS):
            st = None  # free the previous build before timing the next
            gc.collect()
            cal = _calibrate(CAL_AROUND_BUILD)
            t0 = time.perf_counter()
            st = wl.build(inputs)
            raw = time.perf_counter() - t0
            cal += _calibrate(CAL_AROUND_BUILD)
            builds.append((raw, CAL_REF_S / statistics.median(cal)))
    setup_stats = tracer.stats
    setup_pairs = len(st.g.pairs)

    if traced:
        plain = closed_loop(wl, st, inputs.ops, 0, seconds / 2)
        tracer.reset()
        with tracer.installed():
            spanned = closed_loop(wl, st, inputs.ops, plain["ops"],
                                  seconds / 2, tracer)
        loops = (plain, spanned)
    else:
        plain = closed_loop(wl, st, inputs.ops, 0, seconds)
        loops = (plain,)
    ops = sum(r["ops"] for r in loops)
    failed = sum(r["failed"] for r in loops)

    audits = {}
    for name, check in wl.audits(st).items():
        try:
            audits[name] = bool(check())
        except AUDIT_ERRORS as exc:
            audits[name] = False
            print(f"audit {name} raised {exc!r}", file=sys.stderr)
    audit_failures = sum(not ok for ok in audits.values())

    # Timings come from the untraced loop only: (scaled, raw, unit).
    timed = {"setup_s": (statistics.median(r * f for r, f in builds[1:]),
                         statistics.median(r for r, _ in builds[1:]), "s"),
             "ops_per_s": (_rate(plain, scaled=True), _rate(plain), "1/s")}
    kinds = [("move", 1e3, "ms")] + [
        (kind, 1e6, "us") for kind in ("mulv", "solveb", "dist")
        if kind in wl.mix]
    for kind, scale, unit in kinds:
        for q in (50, 90):
            timed[f"{kind}_p{q}_{unit}"] = (
                _pct(plain, kind, q, scaled=True) * scale,
                _pct(plain, kind, q) * scale, unit)
    e2e = {k: (v, u) for k, (v, _, u) in timed.items()}
    e2e.update({
        "churn_per_move": (_mean([r.churn for r in st.reports]), "count"),
        "edge_ratio": (st.g.edge_count / (st.n * (st.n - 1) / 2), "ratio"),
        "spectral_dev": (st.spectral_dev, "ratio"),
        "ops_failed_ratio": (failed / max(1, ops), "ratio"),
        "audit_fail_ratio": (audit_failures / len(audits), "ratio"),
    })
    if "dist" in wl.mix:
        e2e["dist_violation_rate"] = (
            st.dist_violations / max(1, st.dist_pairs), "ratio")

    win = plain["windows"]
    report = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "params": wl.params(),
        "load": "closed loop: one caller, next operation sent when the last returns",
        "correct": audit_failures == 0,
        "attempted": ops,
        "failed": failed,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "raw": {k: {"value": v, "unit": u} for k, (_, v, u) in timed.items()},
        "samples": {f"{kind}_count": sum(len(w["lat"][kind]) for w in win)
                    for kind, _, _ in kinds},
        "host": {"cal_ref_ms": CAL_REF_S * 1e3,
                 "build_factors": [f for _, f in builds],
                 "windows": [{"factor": w["factor"], "ops": w["ops"],
                              "busy_s": w["busy"],
                              "move_p50_ms": _percentile(w["lat"]["move"], 50) * 1e3,
                              "move_p90_ms": _percentile(w["lat"]["move"], 90) * 1e3}
                             for w in win]},
        "setup_builds_raw_s": [r for r, _ in builds],
        "ops_generated": len(inputs.ops),
        "pool_exhausted": ops >= len(inputs.ops),
        "audits": audits,
    }
    if traced:
        moved = spanned["moves"]
        report["per_layer"] = tracing.layer_metrics(
            setup_stats, 1 + SETUP_BUILDS, setup_pairs, tracer.stats,
            spanned["ops"], st.reports[len(st.reports) - moved:],
            spanned["sampled_moves"],
            _rate(plain, scaled=True) / _rate(spanned, scaled=True),
            tracer.absent)
        report["spans"] = {
            "setup": {k: s.as_dict() for k, s in setup_stats.items() if s.calls},
            "loop": {k: s.as_dict() for k, s in tracer.stats.items() if s.calls},
            "absent": tracer.absent,
        }
    return report


def closed_loop(wl, st, ops: list, start: int, seconds: float,
                tracer=None) -> dict:
    """Run ops[start:] one after another until `seconds` have passed.

    Only execute() is inside an operation's latency; prepare() and
    observe() are the benchmark's own bookkeeping, and count towards the
    loop time that ops_per_s divides by.  Calibration units run between
    operations and count towards neither.  With a tracer, also counts the
    moves during which the sampling layer ran (kth_leaf or binomial_draw).
    """
    windows = [{"ops": 0, "busy": 0.0, "cal": [], "lat": defaultdict(list)}
               for _ in range(max(1, math.ceil(seconds / WINDOW_S)))]
    done = failed = moves = sampled = 0
    gc.collect()
    t_start = time.perf_counter()
    deadline = t_start + seconds
    next_cal = t_start
    idx = start
    while idx < len(ops):
        t_op = time.perf_counter()
        if t_op >= deadline:
            break
        w = windows[min(int((t_op - t_start) / WINDOW_S), len(windows) - 1)]
        if t_op >= next_cal:
            w["cal"] += _calibrate(1)
            next_cal = t_op + CAL_EVERY_S
            t_op = time.perf_counter()
        op = wl.prepare(st, ops[idx])
        idx += 1
        done += 1
        probe = _sampling_calls(tracer) if tracer else 0
        t0 = time.perf_counter()
        try:
            out = wl.execute(st, op)
        except OP_ERRORS as exc:
            failed += 1
            print(f"operation {idx - 1} failed: {exc!r}", file=sys.stderr)
            continue
        w["lat"][op[0]].append(time.perf_counter() - t0)
        if op[0] == "move":
            moves += 1
            if tracer and _sampling_calls(tracer) != probe:
                sampled += 1
        wl.observe(st, op, out)
        w["ops"] += 1
        w["busy"] += time.perf_counter() - t_op
    every = [c for w in windows for c in w["cal"]] or [CAL_REF_S]
    for w in windows:
        w["factor"] = CAL_REF_S / statistics.median(w["cal"] or every)
    return {"ops": done, "failed": failed, "windows": windows,
            "moves": moves, "sampled_moves": sampled}


def _sampling_calls(tracer) -> int:
    s = tracer.stats
    return s["quadtree.kth_leaf"].calls + s["sampling.binomial_draw"].calls


def _rate(loop: dict, scaled: bool = False) -> float:
    """Operations completed per second of loop time."""
    wins = loop["windows"]
    busy = sum(w["busy"] * (w["factor"] if scaled else 1.0) for w in wins)
    return sum(w["ops"] for w in wins) / busy if busy else 0.0


def _pct(loop: dict, kind: str, q: float, scaled: bool = False) -> float:
    """q-th percentile latency of one operation kind over the whole loop."""
    return _percentile([x * (w["factor"] if scaled else 1.0)
                        for w in loop["windows"] for x in w["lat"][kind]], q)


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0
