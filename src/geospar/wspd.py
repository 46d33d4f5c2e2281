"""2-WSPD over the compressed quad tree, with exact local maintenance.

The greedy recursion from (root, root) — emit a pair when well separated,
otherwise split the node with larger cell side — decomposes exactly into
independent runs over unordered pairs of sibling children (generators),
one set of runs per internal node: a run's output depends only on the two
subtrees below its sibling pair.  The pair list is therefore stored grouped
by generator.

The recursion can stop early (`min_side`, t, carried by the pair list):
a call with a side of fewer than t points emits its own key, a *stop
key*, and is not entered.  A stop key need not be well separated; its
cells are those of every pair the full recursion would emit below it,
so the pairs and stop keys together still cover every pair of points
exactly once.  A caller that can tell that no pair with a side below t
needs its own key (the sparsifier: none can be sampled) walks a small
fraction of the recursion.  Sides only shrink along a call chain, so a
pair with both sides of t points or more is emitted under the same key
as in the full WSPD.  t = 1 stops nowhere: the full WSPD, the oracle of
the tests.  The stop test comes first, before the separation test, in
every walk.

A point move is a tree delete and insert, and each reports what it did:
the nodes it re-parented and, for each node whose children it edited, the
children it had.  The move marks dirty the nodes on the moved point's old
and new root paths (the nodes whose subtree changed; every node the
insert creates lies on the new path) plus every re-parented node.  A call
with no dirty side has the same two subtrees before and after, and it is
entered with its sides in the same order, which the sides' parents fix;
the order matters because the separation test rounds differently on
exact ties.  Its sides also have the same point counts before and after,
so it stops in both trees or in neither.  The tree edits `count` in
place, so a walk of the old tree reads a node's old count from a map:
a node on the moved point's old root path only held one point more, a
node on its new path only one point fewer, and a node on both paths, or
on neither, as many.  Without it, a call whose side crosses t on this
move would be walked on the old tree as if it had crossed already.
Dissolved generators are dropped and new ones are run in full.  A
surviving generator with a dirty side is re-walked only through its dirty
calls (calls with a dirty side).  A node object in both trees keeps its
cell, so a call the old and new trees share takes the same steps in both
and is walked once, unless its stop test reads differently in the two
trees, where a side's count crosses t: it is then walked on each tree
apart.  Otherwise only a node whose children the move changed can lead
the two trees apart.  At a split of such a node, each child that is not
in both trees starts a call of one tree only, and those calls are walked
on their own tree (a generator with the moved leaf as a side shares no
call).  The first clean calls below them form the frontier: a frontier
call emits what it emitted before, so only the frontier calls that one
tree reaches and the other does not are run.  The maintained list stays
*set-equal* to a from-scratch recomputation on the mutated tree; that
equality is the master oracle in the test suite.

A move edits the generators' key sets, then commits its net change to the
pair set and node index in one `WspdPairList.apply`: a key that moves
between two generators stays.  It hands back the keys it may have
changed and, among them, the keys new to the pair set.  The caller reads
each side's node, point count and whether it holds the moved point from
the tree.

Hot-path keys are per-tree node tokens packed as `sampling.edge` packs
two point ids (the smaller token in the high bits); canonical
(level, origin) identities are used for split tie-breaking and for
comparing pair lists across different tree instances.
"""

from __future__ import annotations

import math

from .errors import DuplicatePoint, EmptyInput, UnknownPoint
from .quadtree import CompressedQuadTree, Node, grid_key
from .sampling import MASK, SHIFT, edge

SEPARATION = 2.0


def unpack(key: int):
    return key >> SHIFT, key & MASK


def well_separated(u: Node, v: Node, s: float = SEPARATION) -> bool:
    """True iff the nodes' enclosing balls are at distance >= s * max radius.

    Internal nodes use the circumscribed ball of their dyadic cell
    (radius = side * sqrt(k) / 2); leaves are zero-radius balls at the point.
    """
    if u is v:
        return False
    gap = math.dist(u.center, v.center) - u.radius - v.radius
    return gap >= s * max(u.radius, v.radius)


def _walk(a: Node, b: Node, s: float, t: int, out: set, dirty=None,
          kids=None, frontier=None, counts=None):
    """Run the greedy recursion below the sibling call (a, b) into `out`.

    A call with a side of fewer than `t` points emits its key as a stop
    key and is not entered.  Without `dirty` this is a full run: `out`
    gets every key the call emits, a function of the two subtrees and of
    their order.  With `dirty` (a set of node tokens) it is a dirty walk:
    only calls with a side in `dirty` are entered, and each first clean
    call is a frontier call, recorded as frontier[key] = (u, v) without
    being entered.  `kids` maps the token of each node whose children a
    move changed to the children it had before, and `counts` the token of
    each node whose point count it changed to the count it had before, so
    that the walk can follow the old tree.

    The recursion is a tree, so the output of a call is the disjoint union
    of its own emission and the outputs of its sub-calls.
    """
    stack = [(a, b)]
    pop = stack.pop
    push = stack.append
    emit = out.add
    dist = math.dist
    while stack:
        call = pop()
        u, v = call
        tu = u.tok
        tv = v.tok
        key = (tu << SHIFT) | tv if tu < tv else (tv << SHIFT) | tu
        if dirty is not None and tu not in dirty and tv not in dirty:
            frontier[key] = call
            continue
        cu = u.count
        cv = v.count
        if counts is not None:
            cu = counts.get(tu, cu)
            cv = counts.get(tv, cv)
        if cu < t or cv < t:
            emit(key)  # a stop key: no cell below it can be sampled
            continue
        ru = u.radius
        rv = v.radius
        if ru == 0.0 and rv == 0.0:
            emit(key)  # two distinct points are always well separated
            continue
        mx = ru if ru >= rv else rv
        if dist(u.center, v.center) - ru - rv >= s * mx:
            emit(key)
            continue
        # no call is reached twice: disjoint sibling sides, deterministic split
        # split the node with larger cell side; tie -> canonically first
        lu = u.lmax
        lv = v.lmax
        if lu > lv or (lu == lv and u.wsid <= v.wsid):
            spl, keep = u, v
        else:
            spl, keep = v, u
        children = spl.children
        if children is None:  # leaf-leaf calls are always separated
            continue
        if kids is not None:
            children = kids.get(spl.tok, children)
        for child in children.values():
            push((child, keep))


def _run_generator(a: Node, b: Node, s: float, t: int) -> set:
    """All keys the greedy recursion emits below the sibling call (a, b)."""
    out = set()
    _walk(a, b, s, t, out)
    return out


class WspdPairList:
    """The pair set plus the inverted indexes the maintenance needs.  `t`
    is the side count below which a call stops (1: the full WSPD)."""

    __slots__ = ("s", "t", "pairs", "by_gen", "gens_by_node", "node_index")

    def __init__(self, s: float = SEPARATION, t: int = 1):
        self.s = s
        self.t = t
        self.pairs: set = set()       # packed pair keys, stop keys included
        self.by_gen: dict = {}        # packed genkey -> set of pair keys
        self.gens_by_node: dict = {}  # side token -> set of genkeys
        self.node_index: dict = {}    # node token -> set of pair keys

    def __len__(self):
        return len(self.pairs)

    def add_gen(self, gen: int, keys: set):
        """Register a generator and its output; `apply` commits the keys."""
        if gen in self.by_gen:
            raise AssertionError(f"generator {gen} already present")
        for side in unpack(gen):
            self.gens_by_node.setdefault(side, set()).add(gen)
        self.by_gen[gen] = keys

    def pop_gen(self, gen: int) -> set:
        """Unregister a generator; `apply` drops its keys."""
        keys = self.by_gen.pop(gen)
        for side in unpack(gen):
            bucket = self.gens_by_node.get(side)
            bucket.discard(gen)
            if not bucket:
                del self.gens_by_node[side]
        return keys

    def apply(self, removed: set, added: set):
        """Commit the net change to `pairs` and `node_index`.  A key in
        both sets moved between two generators and stays."""
        pairs = self.pairs
        index = self.node_index
        for key in removed - added:
            pairs.discard(key)
            for side in (key >> SHIFT, key & MASK):
                bucket = index.get(side)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del index[side]
        for key in added - removed:
            pairs.add(key)
            index.setdefault(key >> SHIFT, set()).add(key)
            index.setdefault(key & MASK, set()).add(key)

    def canonical_pairs(self, tree: CompressedQuadTree) -> set:
        """Pairs as unordered (level, origin)/(-1, pid) identity pairs,
        comparable across tree instances."""
        out = set()
        by_tok = tree.by_tok
        for key in self.pairs:
            wa = by_tok[key >> SHIFT].wsid
            wb = by_tok[key & MASK].wsid
            out.add((wa, wb) if wa <= wb else (wb, wa))
        return out


def compute_wspd(tree: CompressedQuadTree, s: float = SEPARATION,
                 min_side: int = 1) -> WspdPairList:
    """Fresh WSPD of the whole tree (greedy recursion, canonical result),
    stopped at every call with a side of fewer than `min_side` points.
    The default, 1, stops nowhere: the full WSPD."""
    if tree.root is None:
        raise EmptyInput("tree is empty")
    pl = WspdPairList(s, min_side)
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        kids = node.child_list()
        for i in range(len(kids)):
            stack.append(kids[i])
            for j in range(i + 1, len(kids)):
                keys = _run_generator(kids[i], kids[j], s, min_side)
                pl.add_gen(edge(kids[i].tok, kids[j].tok), keys)
                pl.apply(set(), keys)
    return pl


def _fork(a: Node, b: Node, s: float, t: int, dirty: set, old_kids: dict,
          old_counts: dict):
    """The calls below the sibling call (a, b) that only one tree reaches.

    (a, b) is a call of both trees.  A node object in both trees keeps its
    cell, radius, lmax and wsid, so a call shared by the two trees takes
    the same separation test and split choice in each, and emits the same
    key: walking it once covers both walks.  Its stop test reads each
    tree's own counts (`old_counts` maps the token of each node whose
    count the move changed to its count before), and where it stops in
    one tree only, the call goes to both (old_calls, new_calls), to be
    walked on each tree apart.  Only the children of a node
    whose children the move changed (a token in `old_kids`, which maps it
    to the children it had, as the tree's mutation reports copied them)
    can differ; a node the move created is on the new path, so it is
    dirty and never shared.  At a split of such a node, a child
    that is the same object in both trees stays shared; the others start
    (old_calls, new_calls), the calls of one tree only.  A shared emission
    and a clean shared call are the same in both trees, so they are
    dropped: only the shared calls with a dirty side are entered.
    """
    old_calls = []
    new_calls = []
    stack = [(a, b)]
    pop = stack.pop
    push = stack.append
    dist = math.dist
    while stack:
        call = pop()
        u, v = call
        # the tests and the split must stay exactly _walk's, bit for bit
        cu = u.count
        cv = v.count
        stop = cu < t or cv < t
        if stop != (old_counts.get(u.tok, cu) < t
                    or old_counts.get(v.tok, cv) < t):
            old_calls.append(call)
            new_calls.append(call)
            continue
        if stop:
            continue
        ru = u.radius
        rv = v.radius
        if ru == 0.0 and rv == 0.0:
            continue
        mx = ru if ru >= rv else rv
        if dist(u.center, v.center) - ru - rv >= s * mx:
            continue
        lu = u.lmax
        lv = v.lmax
        if lu > lv or (lu == lv and u.wsid <= v.wsid):
            spl, keep = u, v
        else:
            spl, keep = v, u
        children = spl.children
        if children is None:
            continue
        keep_dirty = keep.tok in dirty
        old = old_kids.get(spl.tok)
        if old is None:
            for child in children.values():
                if keep_dirty or child.tok in dirty:
                    push((child, keep))
            continue
        for q, child in children.items():
            if old.get(q) is not child:
                new_calls.append((child, keep))
            elif keep_dirty or child.tok in dirty:
                push((child, keep))
        for q, child in old.items():
            if children.get(q) is not child:
                old_calls.append((child, keep))
    return old_calls, new_calls


def _rewalk(a_old: Node, b_old: Node, a: Node, b: Node, s: float, t: int,
            dirty: set, old_kids: dict, old_counts: dict):
    """(dropped, gained) of a surviving generator across a point move.

    The calls the old and new trees share are walked once (`_fork`); a
    generator with the moved leaf as a side shares none, since the old
    side `a_old` or `b_old` is the moved point's old leaf and every other
    side is the same node object in both trees.  The calls of one tree
    only are dirty-walked on that tree (the old one through `old_kids`,
    which maps each node whose children the move changed to the children
    it had, and `old_counts`, which maps each node whose count it changed
    to the count it had; a created node, on the new path, has no entry
    and is only reached on the new side).  A frontier call is clean, so
    it emits the same pairs before and after the move; only the frontier
    calls that one side reaches and the other does not are run.  Keys
    emitted at dirty calls have a dirty side and frontier output has none,
    so the two never mix.
    """
    if a_old is a and b_old is b:
        old_calls, new_calls = _fork(a, b, s, t, dirty, old_kids, old_counts)
    else:
        old_calls, new_calls = [(a_old, b_old)], [(a, b)]
    e_old = set()
    f_old = {}
    for u, v in old_calls:
        _walk(u, v, s, t, e_old, dirty, old_kids, f_old, old_counts)
    e_new = set()
    f_new = {}
    for u, v in new_calls:
        _walk(u, v, s, t, e_new, dirty, None, f_new)
    lost = set()
    for call in f_old.keys() - f_new.keys():
        u, v = f_old[call]
        _walk(u, v, s, t, lost)
    won = set()
    for call in f_new.keys() - f_old.keys():
        u, v = f_new[call]
        _walk(u, v, s, t, won)
    return (e_old - e_new) | (lost - won), (e_new - e_old) | (won - lost)


def find_modified_pairs(tree: CompressedQuadTree, pl: WspdPairList,
                        pid: int, new_vec) -> tuple:
    """Move point `pid` to `new_vec`; update tree and pair list in place.

    Returns (keys, fresh).  `keys` holds the keys of the pairs the move
    may have changed: every pair removed or added (a key can be both, when
    it moves between two generators, and then it stays), plus every
    surviving pair with a side on the moved point's old or new root path.
    Pairs re-emitted verbatim with untouched content are not reported.
    `fresh` is the subset of `keys` new to the pair set.

    The dirty set is the two root paths plus the nodes the delete and the
    insert re-parented; the nodes the insert created lie on the new path.
    The old children of the nodes whose children changed come from the
    two mutation reports, the delete's copy winning where both edited a
    node, since it was taken first.  The old counts are rebuilt from the
    two root paths, as the module docstring says.  The generators of dirty
    nodes are the only ones the move can dissolve, and the sibling pairs
    of live dirty nodes the only ones it can create or change.
    """
    leaf = tree.point_index.get(pid)
    if leaf is None:
        raise UnknownPoint(f"point id {pid} not present")
    hit = tree.locate_key(grid_key(new_vec))
    if hit is not None and hit.is_leaf and hit is not leaf:
        raise DuplicatePoint(
            f"target location collides with point {hit.pid}")

    old_path = tree.path_to_root(leaf)
    rep_d = tree.delete(pid)
    rep_i = tree.insert(pid, new_vec)
    new_path = tree.path_to_root(tree.point_index[pid])
    old_toks = {n.tok for n in old_path}
    new_toks = {n.tok for n in new_path}
    old_counts = {n.tok: n.count + 1 for n in old_path
                  if n.tok not in new_toks}
    old_counts.update((n.tok, n.count - 1) for n in new_path
                      if n.tok not in old_toks)
    moved = old_toks | new_toks
    # every node whose subtree or parent the move changed; below any other
    # node the recursion runs the same before and after
    dirty = moved.union(n.tok for n in rep_d.reparented + rep_i.reparented)
    # the old children of every node whose children the move changed or
    # that it removed; everywhere else the two trees have the same children
    changed = rep_i.edited
    changed.update(rep_d.edited)

    old_affected = set()
    new_needed = set()
    gens_by_node = pl.gens_by_node
    by_tok = tree.by_tok
    for t in dirty:
        old_affected.update(gens_by_node.get(t, ()))
        node = by_tok.get(t)
        if node is None or node.parent is None:
            continue
        for sib in node.parent.children.values():
            if sib is not node:
                new_needed.add(edge(t, sib.tok))

    removed = set()
    added = set()
    s = pl.s
    t = pl.t
    by_gen = pl.by_gen
    for gen in old_affected - new_needed:  # dissolved sibling pairs
        removed |= pl.pop_gen(gen)
    for gen in new_needed:
        ta = gen >> SHIFT
        tb = gen & MASK
        a = by_tok[ta]
        b = by_tok[tb]
        if gen not in by_gen:
            keys = _run_generator(a, b, s, t)
            pl.add_gen(gen, keys)
            added |= keys
            continue
        # only the moved leaf is a new object under an old token
        dropped, gained = _rewalk(leaf if ta == leaf.tok else a,
                                  leaf if tb == leaf.tok else b,
                                  a, b, s, t, dirty, changed, old_counts)
        keys = by_gen[gen]
        keys -= dropped
        keys |= gained
        removed |= dropped
        added |= gained
    pl.apply(removed, added)

    # survivors whose point content changed (pair kept, p left or p_new joined)
    reported = removed | added
    node_index = pl.node_index
    for t in moved:
        reported.update(node_index.get(t, ()))
    return reported, added - removed
