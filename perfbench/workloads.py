"""The benchmark's workloads: input generation, set-up, operations, audits.

Every workload uses d = 4, eps = 0.5 (allow_large_eps), delta = 0.05 and
k = 3, and drives the library only through its public API.  Inputs come
from the workload seed alone and are generated before anything is timed.
The library's own seeds are constants of the workload, like eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import geospar as gs
from geospar.errors import GeosparError

D, EPS, DELTA, K = 4, 0.5, 0.05, 3
C_SK = 4.0
# Library seeds.  The sparsifier's seed fixes its projection; with 12345
# each clustered-drift cluster projects inside one quadtree cell for every
# workload seed from 1 to 20.  About one projection in five splits a
# cluster across a cell boundary instead, and hops then run up to 4x
# slower: a different scenario from the one clustered-drift measures.
LIB_SEED, SKETCH_SEED, UJL_SEED = 12345, 1, 2
NNZ = 4             # nonzeros in one sparse vector update
DIST_JITTER = 1e-3  # distance queries land this close to the chosen point
SKETCH_RTOL = 1e-6  # incremental sketch answer vs a from-scratch recompute

# Errors an operation may raise on bad input; the generator avoids them,
# so any that occur are counted as failed operations.
OP_ERRORS = (GeosparError, ValueError, np.linalg.LinAlgError)
AUDIT_ERRORS = (GeosparError, AssertionError, KeyError, ValueError,
                np.linalg.LinAlgError)


@dataclass
class Inputs:
    raw: np.ndarray        # points as the user supplies them
    unit: np.ndarray       # the same points in the unit frame
    ops: list              # pre-generated operations, in order
    extra: dict = field(default_factory=dict)


@dataclass
class State:
    """A built system plus the benchmark's own record of what it did."""

    g: object
    n: int
    pos: np.ndarray                 # true unit-frame positions
    base_edges: dict                # edge map right after set-up
    diffs: list = field(default_factory=list)   # (i * n + j, weight) arrays
    reports: list = field(default_factory=list)
    bad_outputs: int = 0
    parts: dict = field(default_factory=dict)
    worst: int = 0                  # point the next distance query targets
    dist_violations: int = 0
    dist_pairs: int = 0
    spectral_dev: float = math.nan


class MoveTargets:
    """Tracks positions so every drawn target is in region and collides
    with no current point; a rejected draw is redrawn by the caller."""

    def __init__(self, unit: np.ndarray):
        self.pos = unit.copy()
        self.occupied = {tuple(p) for p in self.pos.tolist()}

    def accept(self, i: int, z: np.ndarray) -> bool:
        if not np.all((z >= 0.0) & (z < 1.0)):
            return False
        key = tuple(z.tolist())
        if key in self.occupied:
            return False
        self.occupied.discard(tuple(self.pos[i].tolist()))
        self.occupied.add(key)
        self.pos[i] = z
        return True


class Workload:
    name = ""
    why = ""
    n = 0
    kernel = "gaussian"
    c_s = None       # None: the library default
    mix = {}         # operation kind -> share of operations
    pool_rate = 0    # pre-generated operations per measured second

    def params(self) -> dict:
        return {"why": self.why, "n": self.n, "d": D, "kernel": self.kernel,
                "eps": EPS, "delta": DELTA, "k": K, "allow_large_eps": True,
                "c_s": "default" if self.c_s is None else self.c_s,
                "lib_seed": LIB_SEED, "mix": self.mix}

    def generate(self, seed: int, count: int) -> Inputs:
        raise NotImplementedError

    def _sparsifier(self, inputs: Inputs):
        pset = gs.normalize_points(inputs.raw)
        kwargs = {} if self.c_s is None else {"c_s": self.c_s}
        return gs.DynamicGeoSpar.initialize(
            pset, gs.KERNELS[self.kernel](), EPS, DELTA, K, LIB_SEED,
            allow_large_eps=True, **kwargs)

    def build(self, inputs: Inputs) -> State:
        g = self._sparsifier(inputs)
        return State(g, self.n, inputs.unit.copy(), g.edge_map())

    def prepare(self, st: State, op):
        """Fill in the parts of an operation that depend on earlier answers."""
        return op

    def execute(self, st: State, op):
        _, i, z = op
        rep = st.g.update(i, z)
        return rep, st.g.get_diff()

    def observe(self, st: State, op, out):
        """Record an operation's result; runs outside the latency window."""
        _, i, z = op
        rep, diff = out
        st.pos[i] = z
        st.reports.append(rep)
        # kept as arrays so the retained log adds no objects for the
        # garbage collector to scan during later operations
        log = np.array(diff, dtype=np.float64).reshape(-1, 3)
        st.diffs.append((log[:, 0].astype(np.int64) * st.n
                         + log[:, 1].astype(np.int64), log[:, 2].copy()))
        if len(diff) != rep.edges_changed:
            st.bad_outputs += 1

    def audits(self, st: State) -> dict:
        g = st.g
        return {
            "spectral": lambda: _spectral(st),
            "fold_store": lambda: g.fold_store() == g.edge_map(),
            "diff_replay": lambda: _diff_replay(st),
            "positions": lambda: np.array_equal(g.pset.points, st.pos),
            "op_outputs": lambda: st.bad_outputs == 0,
        }


def _spectral(st: State) -> bool:
    chk = st.g.spectral_check()
    st.spectral_dev = max(1.0 - chk.min_eig, chk.max_eig - 1.0)
    return bool(chk.passed)


def _diff_replay(st: State) -> bool:
    """Fold every diff entry onto the set-up-time edge weights (the exact
    content of the set-up-time Laplacian): the result must equal the
    current graph weight for weight, and the Laplacian assembled from it
    must equal get_laplacian() bit for bit.

    The fold adds each edge's entries one at a time in log order, as a
    consumer would, but for all edges at once: round r adds every edge's
    r-th entry.
    """
    n = st.n
    keys = np.concatenate(
        [np.fromiter((i * n + j for i, j in st.base_edges), np.int64)]
        + [d[0] for d in st.diffs])
    vals = np.concatenate(
        [np.fromiter(st.base_edges.values(), np.float64)]
        + [d[1] for d in st.diffs])
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    edge_keys, first, counts = np.unique(keys, return_index=True,
                                         return_counts=True)
    group = np.repeat(np.arange(len(edge_keys)), counts)
    rank = np.arange(len(keys)) - np.repeat(first, counts)
    by_round = np.argsort(rank, kind="stable")
    bounds = np.searchsorted(rank[by_round], np.arange(counts.max() + 1))
    acc = np.zeros(len(edge_keys))
    for r in range(counts.max()):
        sel = by_round[bounds[r]:bounds[r + 1]]
        acc[group[sel]] += vals[sel]  # one entry per edge per round
    held = acc != 0.0
    current = st.g.edge_map()
    want_keys = np.fromiter((i * n + j for i, j in current), np.int64,
                            len(current))
    want_vals = np.fromiter(current.values(), np.float64, len(current))
    order = np.argsort(want_keys)
    if not (np.array_equal(edge_keys[held], want_keys[order])
            and np.array_equal(acc[held].view(np.int64),
                               want_vals[order].view(np.int64))):
        return False
    folded = dict(zip(edge_keys[held].tolist(), acc[held].tolist()))
    lap = gs.laplacian_from_edges(
        n, [(i, j, folded[i * n + j]) for (i, j) in current])
    return bool(np.array_equal(lap, st.g.get_laplacian()))


class UniformMoves(Workload):
    name = "uniform-moves"
    why = ("every biclique is materialized, so WSPD upkeep and slab builds "
           "dominate; sparsifier.sampled_move_share is 0 by construction, so "
           "it bypasses sampling-layer changes")
    n = 512
    mix = {"move": 1.0}
    pool_rate = 1000

    def generate(self, seed, count):
        rng = np.random.default_rng(seed)
        raw = rng.random((self.n, D)) * 10.0
        unit = gs.normalize_points(raw).points
        targets = MoveTargets(unit)
        ops = []
        for _ in range(count):
            i = int(rng.integers(0, self.n))
            z = rng.random(D) * 0.5 + 0.25
            while not targets.accept(i, z):
                z = rng.random(D) * 0.5 + 0.25
            ops.append(("move", i, z))
        return Inputs(raw, unit, ops)


class ClusteredDrift(Workload):
    name = "clustered-drift"
    why = ("the only input with a genuinely sampled biclique: hops take the "
           "fast-resample path (binomial counts, kth_leaf draws, rescale "
           "churn), jitters the reweight path")
    n = 400
    kernel = "cauchy"
    c_s = 0.1
    centers = (0.3, 5.0)
    sigma = 0.02
    # Three jitters to two hops, interleaved: move_p50_ms then falls inside
    # the jitter (reweight) population and move_p90_ms inside the hop
    # (resample) population.  An even split puts the median on the gap
    # between the two, where it jumps between runs.
    pattern = ("jitter", "hop", "jitter", "hop", "jitter")
    mix = {"jitter": 0.6, "hop": 0.4}
    pool_rate = 1000

    def generate(self, seed, count):
        rng = np.random.default_rng(seed)
        half = self.n // 2
        raw = np.vstack([
            rng.normal(0.0, self.sigma, (half, D)) + self.centers[0],
            rng.normal(0.0, self.sigma, (self.n - half, D)) + self.centers[1]])
        pset = gs.normalize_points(raw)
        targets = MoveTargets(pset.points)
        cluster = np.array([0] * half + [1] * (self.n - half))
        ops = []
        for step in range(count):
            if self.pattern[step % len(self.pattern)] == "hop":
                # from the larger cluster, so the sizes stay within one of
                # each other: past a small imbalance the fast-resample test
                # fails and hops take the rematerialize path instead
                sizes = np.bincount(cluster, minlength=2)
                src = int(rng.integers(0, 2)) if sizes[0] == sizes[1] \
                    else int(np.argmax(sizes))
                i = int(rng.choice(np.flatnonzero(cluster == src)))
                dest = 1 - src
            else:
                i = int(rng.integers(0, self.n))
                dest = cluster[i]
            while True:
                z = pset.transform_raw(
                    rng.normal(0.0, self.sigma, D) + self.centers[dest])
                if targets.accept(i, z):
                    break
            cluster[i] = dest
            ops.append(("move", i, z))
        return Inputs(raw, pset.points, ops)


class SketchServe(Workload):
    name = "sketch-serve"
    why = ("us reads between ms writes that fold the diff log into two "
           "sketches (entries x m, plus an m x m pinv per move); the only "
           "workload that runs distance.py")
    n = 256
    mix = {"move": 0.2, "mulv": 0.3, "solveb": 0.3, "dist": 0.2}
    block = ("move",) * 2 + ("mulv",) * 3 + ("solveb",) * 3 + ("dist",) * 2
    pool_rate = 5000

    def params(self) -> dict:
        out = super().params()
        out.update(c_sk=C_SK, m=gs.sketch_rows(self.n, EPS, DELTA, C_SK),
                   sketch_seed=SKETCH_SEED, ujl_seed=UJL_SEED, nnz=NNZ,
                   dist_jitter=DIST_JITTER)
        return out

    def generate(self, seed, count):
        rng = np.random.default_rng(seed)
        raw = rng.random((self.n, D)) * 10.0
        extra = {"v": rng.standard_normal(self.n),
                 "b": rng.standard_normal(self.n)}
        unit = gs.normalize_points(raw).points
        targets = MoveTargets(unit)
        ops = []
        # whole blocks in shuffled order keep the mix exact in every run
        while len(ops) < count:
            for kind in rng.permutation(self.block):
                if kind == "move":
                    i = int(rng.integers(0, self.n))
                    z = rng.random(D) * 0.5 + 0.25
                    while not targets.accept(i, z):
                        z = rng.random(D) * 0.5 + 0.25
                    ops.append(("move", i, z))
                elif kind == "dist":
                    ops.append(("dist", rng.standard_normal(D)))
                else:
                    idx = rng.choice(self.n, size=NNZ, replace=False)
                    vals = rng.standard_normal(NNZ)
                    ops.append((str(kind), list(zip(idx.tolist(), vals.tolist()))))
        return Inputs(raw, unit, ops[:count], extra)

    def build(self, inputs):
        st = super().build(inputs)
        phi, psi = gs.make_sketch_pair(self.n, EPS, DELTA, SKETCH_SEED, C_SK)
        st.parts = {
            "mul": gs.MultiplyState(st.g, phi, psi, inputs.extra["v"]),
            "sol": gs.SolveState(st.g, phi, psi, inputs.extra["b"]),
            "store": gs.ujl_init(st.g.pset.points, EPS, UJL_SEED),
        }
        return st

    def prepare(self, st, op):
        if op[0] == "dist":
            return ("dist", st.pos[st.worst] + DIST_JITTER * op[1])
        return op

    def execute(self, st, op):
        kind = op[0]
        p = st.parts
        if kind == "move":
            _, i, z = op
            rep = st.g.update(i, z)
            diff = st.g.get_diff()
            p["mul"].apply_graph_diff(diff)
            p["sol"].apply_graph_diff(diff)
            p["store"].update(i, z)
            return rep, diff
        if kind == "mulv":
            p["mul"].update_v(op[1])
            return p["mul"].query()
        if kind == "solveb":
            p["sol"].update_b(op[1])
            return p["sol"].query()
        return p["store"].query(op[1])

    def observe(self, st, op, out):
        kind = op[0]
        if kind == "move":
            super().observe(st, op, out)
        elif kind == "dist":
            if out.shape != (st.n,) or not np.all(np.isfinite(out)):
                st.bad_outputs += 1
                return
            true = np.linalg.norm(st.pos - op[1], axis=1)
            true[true == 0.0] = np.inf
            ratio = out / true
            st.dist_violations += int(np.count_nonzero(ratio < 1.0))
            st.dist_pairs += st.n
            st.worst = int(np.argmax(ratio))
        elif out.shape != (st.parts["mul"].m,) or not np.all(np.isfinite(out)):
            st.bad_outputs += 1

    def audits(self, st):
        out = super().audits(st)
        p = st.parts
        out["multiply_sketch"] = lambda: _sketch_ok(p["mul"])
        out["solve_sketch"] = lambda: _sketch_ok(p["sol"])
        out["distance_store"] = lambda: _store_ok(p["store"], st.pos)
        return out


def _sketch_ok(state) -> bool:
    _, _, z = state.scratch_recompute()
    err = np.linalg.norm(state.query() - z) / np.linalg.norm(z)
    return bool(err <= SKETCH_RTOL)


def _store_ok(store, pos) -> bool:
    proj = np.vstack([store.jl.project(p) for p in store.points])
    return bool(np.array_equal(store.points, pos)
                and np.array_equal(store.proj, proj))


WORKLOADS = {w.name: w for w in (UniformMoves(), ClusteredDrift(), SketchServe())}
