import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geospar.errors import DuplicatePoint, PointOutOfRange, UnknownPoint
from geospar.kernels import aspect_ratio
from geospar.quadtree import build, structurally_equal


def random_points(n, k, seed):
    rng = np.random.default_rng(seed)
    return {i: rng.random(k) for i in range(n)}


class TestBuild:
    def test_single_point_is_leaf_root(self):
        tree = build({0: [0.3, 0.7]}, 2)
        assert tree.root.is_leaf
        assert tree.dump() == "0 (0, 0) 1"

    def test_two_opposite_corners(self):
        # subdividing [0,1)^2 once separates them: two leaves at level 1
        tree = build({0: [0.01, 0.01], 1: [0.99, 0.99]}, 2)
        root = tree.root
        assert not root.is_leaf and root.level == 0
        kids = root.child_list()
        assert len(kids) == 2 and all(c.is_leaf for c in kids)
        assert tree.dump().splitlines()[1].startswith("1 ")

    def test_order_independent(self):
        pts = random_points(50, 2, 0)
        t1 = build(pts, 2)
        order = np.random.default_rng(1).permutation(50)
        t2 = build({int(i): pts[int(i)] for i in order}, 2)
        assert structurally_equal(t1, t2)

    def test_rejects_out_of_range(self):
        with pytest.raises(PointOutOfRange):
            build({0: [0.5], 1: [1.0]}, 1)

    def test_rejects_coincident(self):
        with pytest.raises(DuplicatePoint):
            build({0: [0.5, 0.5], 1: [0.5, 0.5]}, 2)

    def test_counts_match_subtree_sizes(self):
        tree = build(random_points(40, 3, 2), 3)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.count == 1
            else:
                assert node.count == sum(c.count for c in node.children.values())
                assert len(node.children) >= 2
                stack.extend(node.children.values())


class TestLocate:
    def test_existing_point_found(self):
        pts = random_points(25, 2, 3)
        tree = build(pts, 2)
        for pid, vec in pts.items():
            res = tree.locate(vec)
            assert res.is_leaf and res.node.pid == pid

    def test_locate_is_pure(self):
        tree = build(random_points(10, 2, 4), 2)
        probe = [0.123, 0.456]
        r1 = tree.locate(probe)
        r2 = tree.locate(probe)
        assert r1.kind == r2.kind and r1.node is r2.node

    def test_empty_region_matches_fresh_build(self):
        pts = {0: np.array([0.1, 0.1]), 1: np.array([0.9, 0.9])}
        tree = build(dict(pts), 2)
        probe = np.array([0.6, 0.2])
        res = tree.locate(probe)
        assert res.kind == "under"
        tree.insert(2, probe)
        fresh = build({**pts, 2: probe}, 2)
        assert structurally_equal(tree, fresh)


class TestInsertDelete:
    def test_insert_into_empty_quadrant_is_child_case(self):
        tree = build({0: [0.1, 0.1], 1: [0.9, 0.9]}, 2)
        root = tree.root
        before = dict(root.children)
        rep = tree.insert(2, [0.9, 0.1])
        assert rep.case == "ChildOfExisting"
        assert rep.edited == {root.tok: before} and rep.reparented == []
        assert tree.point_index[2].parent is root

    def test_insert_near_cluster_splits_compressed_edge(self):
        # a tight 2-point cluster hangs off the root on a compressed edge;
        # a point near (but outside) the cluster cell must split that edge
        # with exactly one new internal node
        tree = build({0: [0.9, 0.9], 1: [0.30, 0.30],
                      2: [0.3000001, 0.3000001]}, 2)
        cluster = tree.point_index[1].parent
        assert cluster.parent is tree.root and cluster.level > 1
        n_nodes = len(tree.by_tok)
        rep = tree.insert(3, [0.34, 0.34])
        assert rep.case == "SplitCompressedEdge"
        assert len(tree.by_tok) == n_nodes + 2  # the leaf and one cell
        w = tree.point_index[3].parent
        assert w.parent is tree.root and cluster.parent is w
        assert rep.reparented == [cluster]

    def test_insert_equals_fresh_build(self):
        pts = random_points(30, 2, 5)
        tree = build(dict(pts), 2)
        rng = np.random.default_rng(6)
        for new_id in range(30, 45):
            vec = rng.random(2)
            tree.insert(new_id, vec)
            pts[new_id] = vec
            assert structurally_equal(tree, build(pts, 2))

    def test_insert_duplicate_rejected(self):
        tree = build({0: [0.25, 0.25], 1: [0.75, 0.75]}, 2)
        with pytest.raises(DuplicatePoint):
            tree.insert(2, [0.25, 0.25])
        with pytest.raises(DuplicatePoint):
            tree.insert(0, [0.4, 0.4])

    def test_delete_only_point_leaves_empty_tree(self):
        tree = build({0: [0.5]}, 1)
        tree.delete(0)
        assert tree.root is None and tree.n == 0

    def test_delete_unknown_raises(self):
        tree = build({0: [0.1], 1: [0.9]}, 1)
        with pytest.raises(UnknownPoint):
            tree.delete(5)

    def test_insert_then_delete_roundtrip(self):
        pts = random_points(20, 3, 7)
        tree = build(pts, 3)
        before = tree.dump()
        tree.insert(99, [0.111, 0.222, 0.333])
        tree.delete(99)
        assert tree.dump() == before

    def test_locate_after_insert_is_leaf(self):
        tree = build(random_points(15, 2, 8), 2)
        vec = np.array([0.42, 0.137])
        tree.insert(77, vec)
        res = tree.locate(vec)
        assert res.is_leaf and res.node.pid == 77

    def test_random_mutation_sequence_matches_rebuild(self):
        pts = random_points(100, 2, 9)
        tree = build(dict(pts), 2)
        rng = np.random.default_rng(10)
        next_id = 100
        for _ in range(200):
            if rng.random() < 0.5 and len(pts) > 1:
                pid = int(rng.choice(sorted(pts)))
                tree.delete(pid)
                del pts[pid]
            else:
                vec = rng.random(2)
                tree.insert(next_id, vec)
                pts[next_id] = vec
                next_id += 1
        assert structurally_equal(tree, build(pts, 2))


def snapshot(tree):
    """token -> (node, copy of its children or None, parent)."""
    return {t: (node, None if node.is_leaf else dict(node.children),
                node.parent)
            for t, node in tree.by_tok.items()}


def assert_report_matches(tree, before, rep, pid=None):
    """`edited` maps exactly the earlier internal nodes whose children
    changed (a removed one included) to their prior children, and
    `reparented` lists exactly the live nodes that got a new parent.  After
    an insert of `pid`, every node new to the tree is on its root path."""
    edited = {t: kids for t, (node, kids, _) in before.items()
              if kids is not None and node.children != kids}
    assert rep.edited == edited
    moved = [node for t, (node, _, parent) in before.items()
             if tree.by_tok.get(t) is node and node.parent is not parent]
    assert rep.reparented == moved
    if pid is not None:
        path = {node.tok for node in tree.path_to_root(tree.point_index[pid])}
        assert tree.by_tok.keys() - before.keys() <= path


class TestMutationReport:
    @pytest.mark.parametrize("pts,op,case", [
        # one more child of the root cell
        ({0: [0.1, 0.1], 1: [0.9, 0.9]}, ("insert", [0.9, 0.1]),
         "ChildOfExisting"),
        # a cell between the root and the 2-point cluster
        ({0: [0.9, 0.9], 1: [0.3, 0.3], 2: [0.3000001, 0.3000001]},
         ("insert", [0.34, 0.34]), "SplitCompressedEdge"),
        # the root sits below level 0; a far point needs a new top
        ({0: [0.1, 0.1], 1: [0.11, 0.11]}, ("insert", [0.9, 0.9]),
         "SplitCompressedEdge"),
        # the root keeps two children
        ({0: [0.1, 0.1], 1: [0.9, 0.9], 2: [0.9, 0.1]}, ("delete", 2),
         "RemoveLeaf"),
        # the cluster cell is spliced out of the root
        ({0: [0.9, 0.9], 1: [0.3, 0.3], 2: [0.3000001, 0.3000001]},
         ("delete", 1), "RemoveAndSplice"),
        # the root is spliced out; the survivor becomes the root
        ({0: [0.1, 0.1], 1: [0.9, 0.9]}, ("delete", 0), "RemoveAndSplice"),
    ], ids=["child", "inner-split", "new-top", "remove-leaf", "splice",
            "splice-root"])
    def test_report_names_edited_and_reparented_nodes(self, pts, op, case):
        tree = build(pts, 2)
        before = snapshot(tree)
        if op[0] == "insert":
            rep = tree.insert(99, op[1])
            assert_report_matches(tree, before, rep, 99)
        else:
            rep = tree.delete(op[1])
            assert_report_matches(tree, before, rep)
        assert rep.case == case
        # each case edits or re-parents something
        assert rep.edited or rep.reparented

    def test_report_matches_on_random_moves(self):
        pts = random_points(60, 2, 11)
        tree = build(dict(pts), 2)
        rng = np.random.default_rng(12)
        cases = set()
        for _ in range(150):
            pid = int(rng.integers(0, 60))
            before = snapshot(tree)
            rep = tree.delete(pid)
            assert_report_matches(tree, before, rep)
            cases.add(rep.case)
            before = snapshot(tree)
            rep = tree.insert(pid, rng.random(2))
            assert_report_matches(tree, before, rep, pid)
            cases.add(rep.case)
        assert cases >= {"RemoveLeaf", "RemoveAndSplice", "ChildOfExisting",
                         "SplitCompressedEdge"}, cases


class TestDepthBound:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_depth_at_most_log_alpha_plus_two(self, seed, k):
        pts = random_points(60, k, seed)
        tree = build(pts, k)
        alpha = aspect_ratio(np.array([pts[i] for i in sorted(pts)]))
        depth = 0
        stack = [(tree.root, 1)]
        while stack:
            node, d = stack.pop()
            if node.is_leaf:
                depth = max(depth, d)
            else:
                stack.extend((c, d + 1) for c in node.children.values())
        assert depth <= math.ceil(math.log2(alpha)) + 2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.booleans(),
                          st.floats(min_value=0.0, max_value=0.999),
                          st.floats(min_value=0.0, max_value=0.999)),
                min_size=1, max_size=40))
def test_canonicity_under_arbitrary_op_sequences(ops):
    pts = {0: np.array([0.25, 0.25]), 1: np.array([0.7, 0.7])}
    tree = build(dict(pts), 2)
    next_id = 2
    for is_insert, x, y in ops:
        if is_insert or len(pts) <= 1:
            vec = np.array([x, y])
            try:
                tree.insert(next_id, vec)
            except DuplicatePoint:
                continue
            pts[next_id] = vec
            next_id += 1
        else:
            pid = sorted(pts)[int(x * len(pts)) % len(pts)]
            tree.delete(pid)
            del pts[pid]
    assert structurally_equal(tree, build(pts, 2))
    assert sorted(tree.point_index) == sorted(pts)
