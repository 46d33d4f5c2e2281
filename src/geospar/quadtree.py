"""Compressed quad tree over points in [0,1)^k.

Cells are dyadic: a cell at level l has side 2^-l and its origin on the
2^-l grid.  Coordinates are converted once to exact 64-bit integer grid
keys, so cell identity is pure integer arithmetic and structural equality
is well defined.  Internal nodes always have >= 2 children (the root may
be a lone leaf, or sit below level 0 when all points share a smaller
cell).  The construction is canonical: any mutation sequence leaves the
tree structurally identical to a fresh build on the same points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    AspectRatioTooLarge,
    DuplicatePoint,
    PointOutOfRange,
    UnknownPoint,
)

MAX_LEVEL = 64
_GRID = 1 << MAX_LEVEL


def to_grid(x: float) -> int:
    """Exact floor(x * 2^64) for x in [0, 1)."""
    m, e = math.frexp(x)  # x = m * 2^e with m in [0.5, 1)
    im = int(m * 9007199254740992)  # m * 2^53, exact for float64
    shift = e + 11
    return im << shift if shift >= 0 else im >> -shift


def grid_key(vec) -> tuple:
    key = []
    for x in vec:
        if not 0.0 <= float(x) < 1.0:
            raise PointOutOfRange(f"coordinate {x} outside [0,1)")
        key.append(to_grid(float(x)))
    return tuple(key)


class Node:
    """One tree node.  Leaf iff children is None."""

    __slots__ = ("level", "org", "children", "parent", "count", "pid",
                 "ikey", "center", "radius", "lmax", "wsid", "q_in_parent",
                 "tok")

    def __init__(self):
        self.level = 0
        self.org = None          # tuple of ints, grid coords at self.level
        self.children = None     # dict quadrant-> Node for internal nodes
        self.parent = None
        self.count = 1
        self.pid = None          # point id for leaves
        self.ikey = None         # grid key for leaves
        self.center = None       # tuple of floats (ball center)
        self.radius = 0.0
        self.lmax = 0.0
        self.wsid = None         # canonical identity: (level, org) / (-1, pid)
        self.q_in_parent = None
        self.tok = 0             # per-tree creation-order token (int)

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def child_list(self):
        return [self.children[q] for q in sorted(self.children)]

    def __repr__(self):  # pragma: no cover - debug aid
        if self.is_leaf:
            return f"Leaf(pid={self.pid})"
        return f"Cell(level={self.level}, org={self.org}, count={self.count})"


def _make_leaf(pid: int, ikey: tuple, fvec) -> Node:
    node = Node()
    node.pid = pid
    node.ikey = ikey
    node.center = tuple(float(v) for v in fvec)
    node.radius = 0.0
    node.lmax = 0.0
    node.wsid = (-1, pid)
    return node


def _make_cell(level: int, org: tuple, k: int) -> Node:
    node = Node()
    node.level = level
    node.org = org
    node.children = {}
    side = math.ldexp(1.0, -level)
    node.center = tuple((o + 0.5) * side for o in org)
    node.radius = side * math.sqrt(k) / 2.0
    node.lmax = side
    node.wsid = (level, org)
    return node


def _cell_of(ikey: tuple, level: int) -> tuple:
    shift = MAX_LEVEL - level
    return tuple(c >> shift for c in ikey)


def _in_cell(ikey: tuple, level: int, org: tuple) -> bool:
    shift = MAX_LEVEL - level
    return all((c >> shift) == o for c, o in zip(ikey, org))


def _quadrant(ikey: tuple, level: int) -> int:
    """Quadrant index of a point inside a level-`level` cell (child level + 1)."""
    shift = MAX_LEVEL - level - 1
    q = 0
    for c in ikey:
        q = (q << 1) | ((c >> shift) & 1)
    return q


def _common_level(keys) -> int:
    """Level of the smallest dyadic cell containing all keys."""
    level = MAX_LEVEL
    dims = len(keys[0])
    for j in range(dims):
        mn = mx = keys[0][j]
        for key in keys:
            v = key[j]
            if v < mn:
                mn = v
            elif v > mx:
                mx = v
        level = min(level, MAX_LEVEL - (mn ^ mx).bit_length())
    return level


@dataclass
class MutationReport:
    """What a single insert/delete did to the tree structure.

    `edited` maps the token of every node that was in the tree before the
    mutation and whose children it edited to a copy of the children it had
    (a spliced-out node included).  `reparented` holds the nodes that now
    hang under a different parent.  Every node an insert creates (the new
    leaf and any new internal node) lies on the new leaf's root path.
    """

    case: str
    edited: dict = field(default_factory=dict)      # token -> prior children
    reparented: list = field(default_factory=list)  # nodes with a new parent


class CompressedQuadTree:
    __slots__ = ("k", "root", "point_index", "by_tok", "_next_tok",
                 "_leaf_tok")

    def __init__(self, k: int):
        self.k = k
        self.root: Optional[Node] = None
        self.point_index: dict = {}   # pid -> leaf node
        self.by_tok: dict = {}        # token -> node
        self._next_tok = 0
        self._leaf_tok: dict = {}     # pid -> token, stable across moves

    @property
    def n(self) -> int:
        return len(self.point_index)

    # -- registry helpers -------------------------------------------------

    def _register(self, node: Node):
        if node.pid is not None and node.pid in self._leaf_tok:
            node.tok = self._leaf_tok[node.pid]
        else:
            node.tok = self._next_tok
            self._next_tok += 1
            if node.pid is not None:
                self._leaf_tok[node.pid] = node.tok
        self.by_tok[node.tok] = node

    def _unregister(self, node: Node):
        del self.by_tok[node.tok]

    def _attach(self, parent: Node, child: Node):
        q = _quadrant(child.ikey if child.is_leaf else _cell_corner(child),
                      parent.level)
        child.parent = parent
        child.q_in_parent = q
        parent.children[q] = child

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(points: dict, k: int) -> "CompressedQuadTree":
        """Canonical tree over {pid: float vector in [0,1)^k}."""
        tree = CompressedQuadTree(k)
        if not points:
            return tree
        entries = []
        seen = {}
        for pid, vec in points.items():
            ikey = grid_key(vec)
            if ikey in seen:
                raise DuplicatePoint(
                    f"points {seen[ikey]} and {pid} share a level-{MAX_LEVEL} cell")
            seen[ikey] = pid
            entries.append((pid, ikey, vec))
        tree.root = tree._build_rec(entries)
        return tree

    def _build_rec(self, entries) -> Node:
        if len(entries) == 1:
            pid, ikey, vec = entries[0]
            leaf = _make_leaf(pid, ikey, vec)
            self.point_index[pid] = leaf
            self._register(leaf)
            return leaf
        keys = [e[1] for e in entries]
        level = _common_level(keys)
        if level >= MAX_LEVEL:
            raise AspectRatioTooLarge(
                "distinct points not separable within 64 refinement levels")
        cell = _make_cell(level, _cell_of(keys[0], level), self.k)
        self._register(cell)
        buckets: dict = {}
        for entry in entries:
            buckets.setdefault(_quadrant(entry[1], level), []).append(entry)
        for q in sorted(buckets):
            child = self._build_rec(buckets[q])
            child.parent = cell
            child.q_in_parent = q
            cell.children[q] = child
        cell.count = sum(c.count for c in cell.children.values())
        return cell

    # -- queries -----------------------------------------------------------

    def locate_key(self, ikey: tuple) -> Optional[Node]:
        """The leaf holding the key, else the deepest internal node whose
        cell contains it, else None.  A leaf is returned only on an exact
        hit, so `is_leaf` on the result tells the two cases apart."""
        node = self.root
        if node is None:
            return None
        if node.is_leaf:
            return node if node.ikey == ikey else None
        if not _in_cell(ikey, node.level, node.org):
            return None
        while True:
            q = _quadrant(ikey, node.level)
            child = node.children.get(q)
            if child is None:
                return node
            if child.is_leaf:
                return child if child.ikey == ikey else node
            if _in_cell(ikey, child.level, child.org):
                node = child
            else:
                return node

    # -- mutations ---------------------------------------------------------

    def insert(self, pid: int, vec) -> MutationReport:
        if pid in self.point_index:
            raise DuplicatePoint(f"point id {pid} already present")
        ikey = grid_key(vec)
        u = self.locate_key(ikey)
        if u is not None and u.is_leaf:
            raise DuplicatePoint(
                f"point {pid} shares a level-{MAX_LEVEL} cell with {u.pid}")
        leaf = _make_leaf(pid, ikey, vec)

        if self.root is None:
            self.root = leaf
            report = MutationReport("NewRoot")
        elif u is None:
            # joins the old root (leaf or out-of-cell subtree) under a new top
            report = self._insert_new_top(leaf)
        else:
            q = _quadrant(ikey, u.level)
            child = u.children.get(q)
            if child is None:
                report = MutationReport("ChildOfExisting",
                                        {u.tok: dict(u.children)})
                self._attach(u, leaf)
                self._bump_counts(u, +1)
            else:
                report = self._split_edge(u, child, leaf)
        self.point_index[pid] = leaf
        self._register(leaf)
        return report

    def _insert_new_top(self, leaf: Node) -> MutationReport:
        old = self.root
        old_rep = old.ikey if old.is_leaf else _cell_corner(old)
        level = min(_common_level([old_rep, leaf.ikey]),
                    old.level if not old.is_leaf else MAX_LEVEL)
        if level >= MAX_LEVEL:
            raise AspectRatioTooLarge(
                "distinct points not separable within 64 refinement levels")
        top = _make_cell(level, _cell_of(leaf.ikey, level), self.k)
        self._register(top)
        self.root = top
        self._attach(top, old)
        self._attach(top, leaf)
        top.count = old.count + 1
        return MutationReport("SplitCompressedEdge", reparented=[old])

    def _split_edge(self, u: Node, child: Node, leaf: Node) -> MutationReport:
        """New internal node w between u and child; w = smallest cell holding
        both the incoming point and the existing child."""
        child_rep = child.ikey if child.is_leaf else _cell_corner(child)
        level = _common_level([child_rep, leaf.ikey])
        if not child.is_leaf:
            level = min(level, child.level)
        if level >= MAX_LEVEL:
            raise AspectRatioTooLarge(
                "distinct points not separable within 64 refinement levels")
        w = _make_cell(level, _cell_of(leaf.ikey, level), self.k)
        self._register(w)
        edited = {u.tok: dict(u.children)}
        del u.children[child.q_in_parent]
        self._attach(u, w)
        self._attach(w, child)
        self._attach(w, leaf)
        w.count = child.count + 1
        self._bump_counts(u, +1)
        return MutationReport("SplitCompressedEdge", edited, [child])

    def delete(self, pid: int) -> MutationReport:
        leaf = self.point_index.get(pid)
        if leaf is None:
            raise UnknownPoint(f"point id {pid} not present")
        del self.point_index[pid]
        self._unregister(leaf)
        g = leaf.parent
        if g is None:
            self.root = None
            return MutationReport("RemoveRoot")
        edited = {g.tok: dict(g.children)}
        del g.children[leaf.q_in_parent]
        self._bump_counts(g, -1)
        if len(g.children) >= 2:
            return MutationReport("RemoveLeaf", edited)
        # degree-1 chain: splice g out, lift the surviving child
        (survivor,) = g.children.values()
        self._unregister(g)
        gp = g.parent
        if gp is None:
            self.root = survivor
            survivor.parent = None
            survivor.q_in_parent = None
        else:
            edited[gp.tok] = dict(gp.children)
            del gp.children[g.q_in_parent]
            self._attach(gp, survivor)
        return MutationReport("RemoveAndSplice", edited, [survivor])

    def _bump_counts(self, node: Node, delta: int):
        while node is not None:
            node.count += delta
            node = node.parent

    # -- subtree utilities ---------------------------------------------------

    def iter_leaves(self, node: Node):
        if node.is_leaf:
            yield node
            return
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur.is_leaf:
                yield cur
            else:
                for q in sorted(cur.children, reverse=True):
                    stack.append(cur.children[q])

    def subtree_ids(self, node: Node) -> list:
        if node.is_leaf:
            return [node.pid]
        return [leaf.pid for leaf in self.iter_leaves(node)]

    def path_to_root(self, node: Node) -> list:
        out = []
        while node is not None:
            out.append(node)
            node = node.parent
        return out

    # -- debug dump / structural equality -------------------------------------

    def dump(self) -> str:
        """Deterministic preorder serialization: one node per line."""
        lines = []

        def display_cell(node):
            if not node.is_leaf:
                return node.level, node.org
            parent = node.parent
            if parent is None:
                return 0, (0,) * self.k
            lvl = parent.level + 1
            return lvl, _cell_of(node.ikey, lvl)

        def rec(node):
            lvl, org = display_cell(node)
            lines.append(f"{lvl} {org} {node.count}")
            if not node.is_leaf:
                for q in sorted(node.children):
                    rec(node.children[q])

        if self.root is not None:
            rec(self.root)
        return "\n".join(lines)


def _cell_corner(node: Node) -> tuple:
    shift = MAX_LEVEL - node.level
    return tuple(o << shift for o in node.org)

