import itertools
import math

import numpy as np
import pytest

from geospar import wspd
from geospar.errors import DuplicatePoint, UnknownPoint
from geospar.kernels import aspect_ratio
from geospar.quadtree import CompressedQuadTree
from geospar.sampling import edge
from geospar.wspd import (
    _run_generator,
    compute_wspd,
    find_modified_pairs,
    unpack,
    well_separated,
)


def make_instance(n, k, seed):
    rng = np.random.default_rng(seed)
    return {i: rng.random(k) for i in range(n)}


def coverage_counts(tree, pl):
    """How often each unordered point pair is covered by the pair list."""
    sub = {t: frozenset(tree.subtree_ids(node))
           for t, node in tree.by_tok.items()}
    counts = {}
    for key in pl.pairs:
        ta, tb = unpack(key)
        a_set, b_set = sub[ta], sub[tb]
        assert not (a_set & b_set), "pair sides overlap"
        for p in a_set:
            for q in b_set:
                pq = (p, q) if p < q else (q, p)
                counts[pq] = counts.get(pq, 0) + 1
    return counts


def assert_exact_coverage(tree, pl):
    counts = coverage_counts(tree, pl)
    ids = sorted(tree.point_index)
    for p, q in itertools.combinations(ids, 2):
        assert counts.get((p, q), 0) == 1, (p, q)


class TestComputeWspd:
    def test_two_points_single_pair(self):
        tree = CompressedQuadTree.build({0: [0.1, 0.2], 1: [0.8, 0.9]}, 2)
        pl = compute_wspd(tree)
        assert len(pl) == 1
        (key,) = pl.pairs
        ta, tb = unpack(key)
        assert tree.by_tok[ta].is_leaf and tree.by_tok[tb].is_leaf

    def test_three_collinear_points_covered_once(self):
        tree = CompressedQuadTree.build({0: [0.0], 1: [0.5], 2: [0.51]}, 1)
        pl = compute_wspd(tree)
        assert_exact_coverage(tree, pl)

    def test_interaction_product_counts(self):
        # sum over pairs of |A||B| equals n(n-1)/2 exactly
        tree = CompressedQuadTree.build(make_instance(100, 2, 0), 2)
        pl = compute_wspd(tree)
        total = 0
        for key in pl.pairs:
            ta, tb = unpack(key)
            total += tree.by_tok[ta].count * tree.by_tok[tb].count
        assert total == 100 * 99 // 2

    @pytest.mark.parametrize("n,k,seed", [(30, 1, 1), (60, 2, 2), (40, 3, 3)])
    def test_coverage_and_separation(self, n, k, seed):
        tree = CompressedQuadTree.build(make_instance(n, k, seed), k)
        pl = compute_wspd(tree)
        assert_exact_coverage(tree, pl)
        for key in pl.pairs:
            ta, tb = unpack(key)
            assert well_separated(tree.by_tok[ta], tree.by_tok[tb], 2.0)

    def test_membership_bound(self, calibration):
        cal = calibration["sparsifier"]
        pts = make_instance(150, 3, 4)
        tree = CompressedQuadTree.build(pts, 3)
        pl = compute_wspd(tree)
        alpha = aspect_ratio(np.array([pts[i] for i in sorted(pts)]))
        per_point = {}
        for key in pl.pairs:
            for t in unpack(key):
                for leaf in tree.iter_leaves(tree.by_tok[t]):
                    per_point[leaf.pid] = per_point.get(leaf.pid, 0) + 1
        bound = cal["membership_constant"] * 2 ** 3 * max(1.0, math.log2(alpha))
        assert max(per_point.values()) <= bound


class TestWellSeparated:
    def test_singletons_always_separated(self):
        tree = CompressedQuadTree.build({0: [0.2, 0.2], 1: [0.200001, 0.2]}, 2)
        leaves = [tree.point_index[0], tree.point_index[1]]
        for s in (1.0, 2.0, 100.0):
            assert well_separated(leaves[0], leaves[1], s)

    def test_same_node_never_separated(self):
        tree = CompressedQuadTree.build({0: [0.2, 0.2], 1: [0.9, 0.9]}, 2)
        assert not well_separated(tree.root, tree.root, 2.0)
        leaf = tree.point_index[0]
        assert not well_separated(leaf, leaf, 2.0)

    def test_adjacent_cells_not_separated_at_two(self):
        # adjacent half-unit cells: ball gap is negative
        tree = CompressedQuadTree.build({0: [0.1, 0.1], 1: [0.26, 0.26], 2: [0.6, 0.1],
                      3: [0.9, 0.4]}, 2)
        internal = [n for n in tree.by_tok.values()
                    if not n.is_leaf and n.level == 1]
        if len(internal) >= 2:
            assert not well_separated(internal[0], internal[1], 2.0)


class TestFindModifiedPairs:
    def test_move_to_same_location_is_noop(self):
        pts = make_instance(20, 2, 5)
        tree = CompressedQuadTree.build(pts, 2)
        pl = compute_wspd(tree)
        before = pl.canonical_pairs(tree)
        find_modified_pairs(tree, pl, 3, pts[3])
        assert pl.canonical_pairs(tree) == before

    def test_unknown_point_raises(self):
        tree = CompressedQuadTree.build(make_instance(5, 2, 6), 2)
        pl = compute_wspd(tree)
        with pytest.raises(UnknownPoint):
            find_modified_pairs(tree, pl, 99, [0.5, 0.5])

    def test_collision_raises(self):
        pts = make_instance(5, 2, 7)
        tree = CompressedQuadTree.build(pts, 2)
        pl = compute_wspd(tree)
        with pytest.raises(DuplicatePoint):
            find_modified_pairs(tree, pl, 0, pts[1])

    def test_hand_instance_matches_fresh_diff(self):
        # moving the far point toward the cluster changes exactly the
        # set-difference of the two from-scratch pair lists
        pts = {0: np.array([0.05, 0.05]), 1: np.array([0.07, 0.05]),
               2: np.array([0.9, 0.9])}
        tree = CompressedQuadTree.build(dict(pts), 2)
        pl = compute_wspd(tree)
        old_path = path_toks(tree, 2)
        before = set(pl.pairs)
        target = np.array([0.1, 0.08])
        reported, _ = find_modified_pairs(tree, pl, 2, target)
        pts[2] = target
        fresh_tree = CompressedQuadTree.build(pts, 2)
        fresh = compute_wspd(fresh_tree)
        assert pl.canonical_pairs(tree) == fresh.canonical_pairs(fresh_tree)
        assert before ^ pl.pairs  # the hand move restructures
        assert_reported_bounds(tree, pl, 2, old_path, before, reported)

    def test_oracle_equivalence_every_step(self):
        pts = make_instance(80, 3, 8)
        tree = CompressedQuadTree.build(dict(pts), 3)
        pl = compute_wspd(tree)
        rng = np.random.default_rng(9)
        for step in range(150):
            pid = int(rng.integers(0, 80))
            z = rng.random(3)
            find_modified_pairs(tree, pl, pid, z)
            pts[pid] = z
            fresh_tree = CompressedQuadTree.build(pts, 3)
            fresh = compute_wspd(fresh_tree)
            assert pl.canonical_pairs(tree) == fresh.canonical_pairs(fresh_tree)

    def test_coverage_and_index_after_mutations(self):
        pts = make_instance(40, 2, 10)
        tree = CompressedQuadTree.build(dict(pts), 2)
        pl = compute_wspd(tree)
        rng = np.random.default_rng(11)
        for step in range(30):
            pid = int(rng.integers(0, 40))
            z = rng.random(2)
            find_modified_pairs(tree, pl, pid, z)
            pts[pid] = z
        assert_exact_coverage(tree, pl)
        rebuilt_index = {}
        for key in pl.pairs:
            for t in unpack(key):
                rebuilt_index.setdefault(t, set()).add(key)
        assert rebuilt_index == pl.node_index
        for key in pl.pairs:
            ta, tb = unpack(key)
            assert well_separated(tree.by_tok[ta], tree.by_tok[tb], 2.0)

    def test_modified_pair_count_bound(self, calibration):
        cal = calibration["sparsifier"]
        pts = make_instance(200, 3, 12)
        tree = CompressedQuadTree.build(dict(pts), 3)
        pl = compute_wspd(tree)
        alpha = aspect_ratio(np.array([pts[i] for i in sorted(pts)]))
        bound = cal["modified_pairs_constant"] * 2 ** 3 * max(1.0, math.log2(alpha))
        rng = np.random.default_rng(13)
        for _ in range(50):
            pid = int(rng.integers(0, 200))
            z = rng.random(3)
            reported, _ = find_modified_pairs(tree, pl, pid, z)
            pts[pid] = z
            assert len(reported) <= bound


def sibling_gens(tree):
    gens = set()
    for node in tree.by_tok.values():
        if not node.is_leaf:
            kids = node.child_list()
            for i, a in enumerate(kids):
                for b in kids[i + 1:]:
                    gens.add(edge(a.tok, b.tok))
    return gens


def assert_pair_list_matches_full_runs(tree, pl):
    """Every generator equals a full run on the current tree, and the
    indexes equal versions rebuilt from by_gen."""
    assert set(pl.by_gen) == sibling_gens(tree)
    pairs = set()
    gens_by_node = {}
    node_index = {}
    for gen, keys in pl.by_gen.items():
        ta, tb = unpack(gen)
        assert keys == _run_generator(tree.by_tok[ta], tree.by_tok[tb],
                                      pl.s, pl.t)
        for t in (ta, tb):
            gens_by_node.setdefault(t, set()).add(gen)
        for key in keys:
            pairs.add(key)
            for t in unpack(key):
                node_index.setdefault(t, set()).add(key)
    assert pl.pairs == pairs
    assert pl.gens_by_node == gens_by_node
    assert pl.node_index == node_index


def path_toks(tree, pid):
    """Tokens of the nodes on the point's root path."""
    return {nd.tok for nd in tree.path_to_root(tree.point_index[pid])}


def assert_reported_bounds(tree, pl, pid, old_path, before, reported,
                           ctx=None):
    """A move reports every pair removed or added and every surviving pair
    with a side on the moved point's old or new root path, and nothing
    outside the pairs before and after it."""
    after = pl.pairs
    new_path = path_toks(tree, pid)
    touched = {key for key in before & after
               if any(t in old_path or t in new_path for t in unpack(key))}
    assert (before ^ after) | touched <= reported, ctx
    assert reported <= before | after, ctx


@pytest.fixture
def mutation_cases(monkeypatch):
    """Record the MutationReport case of every tree insert and delete."""
    seen = set()
    insert = CompressedQuadTree.insert
    delete = CompressedQuadTree.delete

    def record(report):
        case = report.case
        if case == "SplitCompressedEdge":
            # a new top has no parent; an inner edge's new cell has one
            new_top = report.reparented[0].parent.parent is None
            case += " (new top)" if new_top else " (inner edge)"
        seen.add(case)
        return report

    monkeypatch.setattr(CompressedQuadTree, "insert",
                        lambda tree, pid, vec: record(insert(tree, pid, vec)))
    monkeypatch.setattr(CompressedQuadTree, "delete",
                        lambda tree, pid: record(delete(tree, pid)))
    return seen


def move_target(rng, pts, pid, k, center):
    """A uniform target, one within 1e-9 of some point, or one near the
    input's center."""
    r = rng.random()
    if r < 1 / 3:
        return rng.random(k)
    if r < 2 / 3:
        other = pts[int(rng.integers(0, len(pts)))]
        offset = rng.choice([-1.0, 1.0], k) * rng.uniform(1e-12, 1e-9, k)
        return np.clip(other + offset, 0.0, 1.0 - 1e-12)
    return np.clip(center + rng.normal(0.0, 1e-3, k), 0.0, 1.0 - 1e-12)


def test_dirty_rewalk_matches_full_runs(mutation_cases):
    n = 40
    for k in (1, 2, 3):
        for clustered in (False, True):
            rng = np.random.default_rng(20 + 2 * k + clustered)
            center = rng.uniform(0.25, 0.75, k)
            if clustered:
                pts = {i: center + rng.normal(0.0, 1e-3, k) for i in range(n)}
            else:
                pts = {i: rng.random(k) for i in range(n)}
            tree = CompressedQuadTree.build(dict(pts), k)
            pl = compute_wspd(tree)
            for step in range(80):
                pid = int(rng.integers(0, n))
                z = move_target(rng, pts, pid, k, center)
                old_path = path_toks(tree, pid)
                before = set(pl.pairs)
                reported, fresh = find_modified_pairs(tree, pl, pid, z)
                pts[pid] = z
                assert fresh == pl.pairs - before
                assert_pair_list_matches_full_runs(tree, pl)
                assert_reported_bounds(tree, pl, pid, old_path, before,
                                       reported, (k, clustered, step))
    assert mutation_cases >= {
        "RemoveLeaf", "RemoveAndSplice", "ChildOfExisting",
        "SplitCompressedEdge (inner edge)", "SplitCompressedEdge (new top)",
    }, mutation_cases


def test_rewalk_exact_on_a_separation_tie():
    # Cells y (level 4) and c (level 6) are exactly 2-separated in real
    # arithmetic, and the separation test rounds to different answers for
    # the two argument orders: (c, y) is split, (y, c) is emitted.  Moving
    # point 6 from next to c to next to y inserts a cell between y and its
    # parent, so the recursion reaches the pair from y's side instead of
    # from c's.  The re-walk must follow y although y's subtree did not
    # change, and must drop the leaf pairs that (c, y) emitted below it.
    pts = {
        0: [0.03, 0.03, 0.03],
        1: [3.25 / 16, 3.25 / 16, 2.25 / 16],   # y = cell (4, (3, 3, 2))
        2: [3.75 / 16, 3.75 / 16, 2.75 / 16],
        3: [10.25 / 64, 7.25 / 64, 18.25 / 64],  # c = cell (6, (10, 7, 18))
        4: [10.75 / 64, 7.75 / 64, 18.75 / 64],
        5: [0.03, 0.2, 0.45],
        6: [0.2, 0.2, 0.45],
    }
    tree = CompressedQuadTree.build(pts, 3)
    pl = compute_wspd(tree)
    by_wsid = {node.wsid: node for node in tree.by_tok.values()}
    y = by_wsid[(4, (3, 3, 2))]
    c = by_wsid[(6, (10, 7, 18))]
    leaf_pairs = {edge(tree.point_index[i].tok, c.tok) for i in (1, 2)}
    assert leaf_pairs <= pl.pairs
    find_modified_pairs(tree, pl, 6, [2.5 / 16, 2.5 / 16, 2.5 / 16])
    assert y.parent.wsid == (3, (1, 1, 1))
    assert edge(y.tok, c.tok) in pl.pairs
    assert not leaf_pairs & pl.pairs
    assert_pair_list_matches_full_runs(tree, pl)


@pytest.fixture
def rewalk_routes(monkeypatch):
    """Record the routes that surviving generators' re-walks took."""
    seen = set()
    live = {"shared_root": False}
    insert = CompressedQuadTree.insert
    rewalk, fork, walk = wspd._rewalk, wspd._fork, wspd._walk

    def rec_insert(tree, pid, vec):
        live["by_tok"] = tree.by_tok
        return insert(tree, pid, vec)

    def rec_rewalk(a_old, b_old, a, b, s, t, dirty, old_kids, old_counts):
        live["shared_root"] = a_old is a and b_old is b
        if not live["shared_root"]:
            seen.add("moved leaf side")
        try:
            return rewalk(a_old, b_old, a, b, s, t, dirty, old_kids,
                          old_counts)
        finally:
            live["shared_root"] = False

    def rec_fork(a, b, s, t, dirty, old_kids, old_counts):
        old_calls, new_calls = fork(a, b, s, t, dirty, old_kids, old_counts)
        split = {child.parent.tok for child, _keep in new_calls}
        split.update(t for child, _keep in old_calls
                     for t, kids in old_kids.items() if child in kids.values())
        for t in split:
            node = live["by_tok"][t]
            if any(old_kids[t].get(q) is c for q, c in node.children.items()):
                seen.add("split with shared and forked children")
        return old_calls, new_calls

    def rec_walk(a, b, s, t, out, dirty=None, kids=None, frontier=None,
                 counts=None):
        if dirty is None and live["shared_root"]:
            seen.add("one-sided frontier call below a fork")
        walk(a, b, s, t, out, dirty, kids, frontier, counts)

    monkeypatch.setattr(CompressedQuadTree, "insert", rec_insert)
    monkeypatch.setattr(wspd, "_rewalk", rec_rewalk)
    monkeypatch.setattr(wspd, "_fork", rec_fork)
    monkeypatch.setattr(wspd, "_walk", rec_walk)
    return seen


@pytest.mark.parametrize("clustered", [False, True],
                         ids=["uniform", "clustered"])
def test_rewalk_forks_on_long_paths(clustered, rewalk_routes):
    # n = 300 gives long root paths, and a splice can lift a large clean
    # subtree into a call the old tree reached through the spliced node.
    # Every other move is a small step, which often keeps the leaf under
    # its parent, so a surviving generator has the moved leaf as a side.
    n, k = 300, 3
    rng = np.random.default_rng(40 + clustered)
    center = rng.uniform(0.25, 0.75, k)
    if clustered:
        pts = {i: center + rng.normal(0.0, 1e-3, k) for i in range(n)}
    else:
        pts = {i: rng.random(k) for i in range(n)}
    tree = CompressedQuadTree.build(dict(pts), k)
    pl = compute_wspd(tree)
    spread = 1e-3 if clustered else 1.0
    for step in range(25):
        pid = int(rng.integers(0, n))
        if step % 2:
            z = np.clip(pts[pid] + rng.normal(0.0, 1e-3 * spread, k),
                        0.0, 1.0 - 1e-12)
        else:
            z = move_target(rng, pts, pid, k, center)
        find_modified_pairs(tree, pl, pid, z)
        pts[pid] = z
        assert_pair_list_matches_full_runs(tree, pl)
    assert rewalk_routes >= {
        "moved leaf side", "split with shared and forked children",
    }, rewalk_routes


def test_rewalk_runs_a_one_sided_frontier_call(rewalk_routes):
    # before the tie instance's move, splitting (c, y) reached the clean
    # calls of y's two leaves with c; after it, (y, c) is emitted instead,
    # so those frontier calls are reached on the old side only
    test_rewalk_exact_on_a_separation_tie()
    assert "one-sided frontier call below a fork" in rewalk_routes


# t - 1 points in quadrant A = [0, 1/2)^2, five in its neighbour B and
# five in C = [1/2, 1)^2; each set spans its quadrant, so each quadrant
# is one node.  The first move takes a point of C into A, which then
# holds t points; the second takes it back.
T = 4
CROSSING = {0: [0.1, 0.1], 1: [0.4, 0.4], 2: [0.1, 0.4],
            3: [0.6, 0.1], 4: [0.9, 0.4], 5: [0.6, 0.4], 6: [0.9, 0.1],
            7: [0.75, 0.2],
            8: [0.6, 0.6], 9: [0.9, 0.9], 10: [0.6, 0.9], 11: [0.9, 0.6],
            12: [0.7, 0.7]}
CROSSING_MOVES = [(12, [0.4, 0.1]), (12, [0.7, 0.7])]
A_CELL, B_CELL = (1, (0, 0)), (1, (1, 0))


def crossing_steps(fresh_start):
    """Run the crossing moves on a pair list stopped at T.  Yields, after
    each move, the tree, the maintained pair list and the canonical pairs
    of a fresh build on the moved points.  With `fresh_start`, each move
    starts from a fresh build of the tree before it."""
    pts = dict(CROSSING)
    tree = CompressedQuadTree.build(dict(pts), 2)
    pl = compute_wspd(tree, min_side=T)
    assert (A_CELL, B_CELL) in pl.canonical_pairs(tree)
    for pid, z in CROSSING_MOVES:
        if fresh_start:
            pl = compute_wspd(tree, min_side=T)
        find_modified_pairs(tree, pl, pid, z)
        pts[pid] = z
        fresh_tree = CompressedQuadTree.build(dict(pts), 2)
        fresh = compute_wspd(fresh_tree, min_side=T)
        yield tree, pl, fresh.canonical_pairs(fresh_tree)


def test_side_crossing_t_matches_a_fresh_truncated_build():
    # A holds t - 1 points, so (A, B) is one stop key; once A holds t, the
    # call (A, B) is split, and it is a stop key again when A is back at
    # t - 1.  The old tree's walk must read A's count before the move.
    counts = []
    for tree, pl, fresh in crossing_steps(fresh_start=False):
        a_node = next(nd for nd in tree.by_tok.values() if nd.wsid == A_CELL)
        counts.append(a_node.count)
        assert pl.canonical_pairs(tree) == fresh
        assert ((A_CELL, B_CELL) in fresh) == (a_node.count < T)
        assert_pair_list_matches_full_runs(tree, pl)
        assert_exact_coverage(tree, pl)
    assert counts == [T, T - 1]


def test_side_crossing_t_fails_on_new_counts(monkeypatch):
    # a mutant whose old-tree walks read the counts after the move
    rewalk = wspd._rewalk
    monkeypatch.setattr(wspd, "_rewalk", lambda *args: rewalk(*args[:-1], {}))
    for tree, pl, fresh in crossing_steps(fresh_start=True):
        assert pl.canonical_pairs(tree) != fresh


@pytest.mark.parametrize("min_side", [3, 8])
@pytest.mark.parametrize("clustered", [False, True],
                         ids=["uniform", "clustered"])
def test_truncated_rewalk_matches_fresh_builds(min_side, clustered):
    # random moves on a pair list stopped at min_side: every generator
    # equals a full run, the pairs and stop keys equal a fresh build at
    # the same t and cover every cell once, and the report bounds hold
    n, k = 60, 2
    rng = np.random.default_rng(50 + min_side + clustered)
    center = rng.uniform(0.25, 0.75, k)
    if clustered:
        pts = {i: center + rng.normal(0.0, 1e-3, k) for i in range(n)}
    else:
        pts = {i: rng.random(k) for i in range(n)}
    tree = CompressedQuadTree.build(dict(pts), k)
    pl = compute_wspd(tree, min_side=min_side)
    for step in range(60):
        pid = int(rng.integers(0, n))
        z = move_target(rng, pts, pid, k, center)
        old_path = path_toks(tree, pid)
        before = set(pl.pairs)
        reported, fresh = find_modified_pairs(tree, pl, pid, z)
        pts[pid] = z
        assert fresh == pl.pairs - before
        assert_pair_list_matches_full_runs(tree, pl)
        assert_reported_bounds(tree, pl, pid, old_path, before, reported,
                               step)
        fresh_tree = CompressedQuadTree.build(dict(pts), k)
        rebuilt = compute_wspd(fresh_tree, min_side=min_side)
        assert (pl.canonical_pairs(tree)
                == rebuilt.canonical_pairs(fresh_tree)), step
    assert_exact_coverage(tree, pl)
