"""Rooted binary trees and reduced tree pair diagrams.

A tree is either a leaf or a caret carrying a left and a right subtree.
Exposed leaves are numbered 0..L-1 from left to right, and a tree with C
carets has exactly C+1 leaves. A pair of trees with equal leaf counts
represents a group element; the pair is *reduced* when there is no index
m such that both trees contain a caret whose two leaves are exposed and
numbered m and m+1. Every element has a unique reduced pair, which is the
canonical representative used throughout the package.

All values here are immutable and hashable, so reduced pairs can serve
directly as dictionary keys (the word-metric oracle depends on this).
Every operation is a pure function; nothing needs synchronization.

Trees share untouched subtrees, and no walk here recurses more than 64
levels deep, so Python's recursion limit bounds no element's size.
Internal construction uses ``_node``, which skips ``Tree``'s check. The
comb table (``combs``, up to 64 carets) has three users: ``group`` builds
every x_i^k on a comb pair, each embedding Z level hangs one, and the
sampler shares the one- and two-caret combs, as all trees share ``LEAF``.
A product of reduced pairs (leaf_growths, one walk for both factors;
expand_leaves; reduce_product) costs time in the size of the smaller factor
plus the root paths it rebuilds, not the larger; reduce_pair is linear.

Text format (bit-exact): ``tree ::= "L" | "(" tree " " tree ")"`` and a
pair serializes as ``"negtree | postree"``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence


class ParseError(ValueError):
    """Malformed text input; ``position`` is the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class Tree:
    """Immutable rooted binary tree node.

    ``Tree()`` is a leaf; ``Tree(left, right)`` is a caret. The leaf count
    and a structural hash are cached at construction, so both are O(1)
    and trees are cheap dict keys. Equal subtrees may be one shared object.
    """

    __slots__ = ("left", "right", "leaves", "_hash")

    def __init__(self, left: Tree | None = None, right: Tree | None = None):
        if (left is None) != (right is None):
            raise ValueError("a caret needs exactly two children")
        _set_left(self, left)
        _set_right(self, right)
        _set_leaves(self, 1 if left is None else left.leaves + right.leaves)
        _set_hash(self, _LEAF_HASH if left is None else hash((left._hash, right._hash)))

    def __setattr__(self, name, value):
        raise AttributeError("Tree values are immutable")

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a._hash != b._hash or a.leaves != b.leaves:
                return False
            if a.left is not None:  # equal leaf counts: b is a caret too
                todo.append((a.left, b.left))
                todo.append((a.right, b.right))
        return True

    def __repr__(self) -> str:
        return f"Tree[{format_tree(self)}]"


# slot setters that bypass the immutability guard, for construction only
_set_left, _set_right = Tree.left.__set__, Tree.right.__set__
_set_leaves, _set_hash = Tree.leaves.__set__, Tree._hash.__set__
_new = object.__new__
_LEAF_HASH = hash(("tree-leaf",))
LEAF = Tree()


def _node(left: Tree, right: Tree) -> Tree:
    """The caret over two trees, without ``Tree``'s argument check: every
    internal construction site passes two trees. As immutable as any Tree."""
    t = _new(Tree)
    _set_left(t, left)
    _set_right(t, right)
    _set_leaves(t, left.leaves + right.leaves)
    _set_hash(t, hash((left._hash, right._hash)))
    return t


# combs (R_t, L_t) of t <= 64 carets, each sharing the one before, from R_1 = L_1
_CHERRY = _node(LEAF, LEAF)
_COMBS = ((LEAF, LEAF), (_CHERRY, _CHERRY))
for _ in range(63):
    _COMBS += ((_node(LEAF, _COMBS[-1][0]), _node(_COMBS[-1][1], LEAF)),)
_CHERRY_RIGHT, _CHERRY_LEFT = _COMBS[2]


def combs(t: int) -> tuple[Tree, Tree]:
    """(R_t, L_t) for t >= 0: shared up to 64 carets, grown on past that."""
    right, left = _COMBS[min(t, 64)]
    for _ in range(t - 64):
        right, left = _node(LEAF, right), _node(left, LEAF)
    return right, left


def caret(left: Tree, right: Tree) -> Tree:
    """Build the caret with the given subtrees."""
    return Tree(left, right)


def caret_count(t: Tree) -> int:
    """Number of internal nodes."""
    return t.leaves - 1


def leaf_addresses(t: Tree) -> tuple[str, ...]:
    """Addresses of the exposed leaves in leaf order (0 = left, 1 = right)."""
    out: list[str] = []
    todo = [(t, "")]
    while todo:
        node, addr = todo.pop()
        if node.left is None:
            out.append(addr)
        else:
            todo.append((node.right, addr + "1"))
            todo.append((node.left, addr + "0"))
    return tuple(out)


def leaf_exponents(t: Tree) -> tuple[int, ...]:
    """Exponent E(n) of every leaf, in leaf order.

    E(n) is the length of the maximal ascending path of left edges
    starting at leaf n that does not reach the right side of the tree,
    where the right side is the maximal path of right edges from the root
    and includes the root itself. Right leaves always get 0, and the
    all-right comb has all exponents 0.

    In preorder the carets whose leftmost leaf is n come right before
    leaf n, so E(n) counts the carets off the right side met since leaf n-1.
    """
    out: list[int] = []
    run = 0
    todo = [(t, True)]  # (node, whether it lies on the right side)
    while todo:
        node, on_side = todo.pop()
        if node.left is None:
            out.append(run)
            run = 0
        else:
            run += not on_side
            todo.append((node.right, on_side))
            todo.append((node.left, False))
    return tuple(out)


def tree_from_exponents(vec: Sequence[int]) -> Tree:
    """Inverse of leaf_exponents for a full exponent vector.

    The vector must list one entry per leaf; the last entry is always 0
    because the rightmost leaf sits on the right side. The other entries
    split into blocks, one per subtree off the right side, where the sum
    of (e - 1) first reaches -1. In preorder leaf n follows E(n) carets,
    one more if it opens a block; the tree is built from that read backwards.
    """
    vec = list(vec)
    if not vec:
        raise ValueError("exponent vector must have at least one entry")
    if vec[-1] != 0:
        raise ValueError("rightmost leaf always has exponent 0")
    carets: list[int] = []
    f = -1  # running sum of (e - 1) over the open block; -1 when none is open
    for e in vec[:-1]:
        if e < 0:
            raise ValueError("exponents must be nonnegative")
        carets.append(e + (f == -1))
        f = max(f, 0) + e - 1
    if f != -1:
        raise ValueError("exponent vector does not close into subtrees")
    stack = [LEAF]
    for count in reversed(carets):
        stack.append(LEAF)
        for _ in range(count):
            left = stack.pop()
            stack[-1] = _node(left, stack[-1])
    return stack[0]


@dataclass(frozen=True)
class TreePair:
    """Ordered pair (negative tree, positive tree) with equal leaf counts."""

    neg: Tree
    pos: Tree

    def __post_init__(self):
        if self.neg.leaves != self.pos.leaves:
            raise ValueError("tree pair sides must have equal leaf counts")

    def __repr__(self) -> str:
        return f"TreePair[{format_pair(self)}]"


IDENTITY_PAIR = TreePair(LEAF, LEAF)


def _exposed_carets(t: Tree) -> set[int]:
    """Leaf numbers m such that some caret has exposed leaves m and m+1."""
    out: set[int] = set()
    todo = [(t, 0)] if t.left is not None else []  # carets only
    while todo:
        node, first = todo.pop()
        left, right = node.left, node.right
        if left.left is None:
            if right.left is None:
                out.add(first)
            else:
                todo.append((right, first + 1))
        else:
            todo.append((left, first))
            if right.left is not None:
                todo.append((right, first + left.leaves))
    return out


# A tree of at most this many leaves is less deep, so _rebuild recurses on
# it: on the small trees of most products that beats keeping its own stack.
_SHALLOW = 64


def _rebuild(t: Tree, spans: list[tuple[int, int, Tree]]) -> Tree:
    """``t`` with its node over ``size`` leaves from leaf ``first`` replaced by
    ``sub``, for each (first, size, sub) of the sorted, disjoint ``spans``.
    Only the paths down to the spans are rebuilt; the rest is shared."""
    if t.leaves <= _SHALLOW:
        return _rebuild_shallow(t, 0, spans, 0, len(spans)) if spans else t
    done: list[Tree] = []
    todo = [(t, 0, 0, len(spans))]
    while todo:
        node, first, lo, hi = todo.pop()
        if hi < 0:  # both children of node are rebuilt
            right = done.pop()
            done[-1] = _node(done[-1], right)
        elif lo == hi:
            done.append(node)
        elif spans[lo][0] == first and spans[lo][1] == node.leaves:
            done.append(spans[lo][2])
        else:
            mid = first + node.left.leaves
            split = bisect_left(spans, (mid,), lo, hi)
            todo.append((node, first, lo, -1))
            todo.append((node.right, mid, split, hi))
            todo.append((node.left, first, lo, split))
    return done[0]


def _rebuild_shallow(node: Tree, first: int, spans: list, lo: int, hi: int) -> Tree:
    if spans[lo][0] == first and spans[lo][1] == node.leaves:
        return spans[lo][2]
    left, right = node.left, node.right
    mid = first + left.leaves
    split = bisect_left(spans, (mid,), lo, hi)
    if lo < split:
        left = _rebuild_shallow(left, first, spans, lo, split)
    if split < hi:
        right = _rebuild_shallow(right, mid, spans, split, hi)
    return _node(left, right)


def is_reduced(pair: TreePair) -> bool:
    """True when no caret with exposed leaves (m, m+1) occurs in both trees."""
    return not (_exposed_carets(pair.neg) & _exposed_carets(pair.pos))


def reduce_pair(pair: TreePair) -> TreePair:
    """Canonical form: cancel common exposed carets until none is left.

    Cancellation is confluent; the carets that cancel are found by one
    scan and one walk per tree (see _cancel). A reduced pair comes back as is.
    """
    hits = sorted(_exposed_carets(pair.neg) & _exposed_carets(pair.pos))
    if not hits:
        return pair
    return TreePair(*_cancel(pair.neg, pair.pos, hits, _probe(pair.pos, hits)[1]))


def _probe(t: Tree, positions: list[int]) -> tuple[list[int], dict]:
    """One walk over the union of the root paths of ``t`` to the sorted
    ``positions``. Returns the positions m where ``t`` has a caret with
    exposed leaves m and m+1, and the parent of every node the walk
    visits, each node named by its leaf range (first, size)."""
    hits: list[int] = []
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    todo = [(t, 0, 0, len(positions))] if positions else []
    while todo:
        node, first, lo, hi = todo.pop()
        if node.leaves == 2:  # the only position left here is first
            hits.append(first)
            continue
        mid = first + node.left.leaves
        split = bisect_left(positions, mid - 1, lo, hi)  # m + 1 < mid: left
        rest = bisect_left(positions, mid, split, hi)  # m == mid - 1 straddles
        up = (first, node.leaves)
        if rest < hi:
            parent[mid, node.right.leaves] = up
            todo.append((node.right, mid, rest, hi))
        if lo < split:
            parent[first, node.left.leaves] = up
            todo.append((node.left, first, lo, split))
    return hits, parent


def _cancel(a: Tree, b: Tree, hits: list[int], up_b: dict) -> tuple[Tree, Tree]:
    """Cancel the common exposed carets ``hits`` of ``a`` and ``b`` and all
    that they uncover; ``up_b`` maps nodes of ``b`` on the hits' root paths
    to their parents. A cancelled caret can only expose its parent, which
    cancels when its other child is a leaf or cancelled, in both trees;
    then each tree is rebuilt once."""
    up_a = _probe(a, hits)[1]
    cancelled: dict[int, int] = {}  # first leaf -> size of each topmost cancelled node
    for first in hits:
        size = 2
        while (p := up_a.get((first, size))) is not None and p == up_b.get((first, size)):
            sib = first + size if p[0] == first else p[0]
            if p[1] - size > 1 and cancelled.get(sib) != p[1] - size:
                break
            cancelled.pop(sib, None)
            first, size = p
        cancelled[first] = size
    cut = sorted((first, size, LEAF) for first, size in cancelled.items())
    return _rebuild(a, cut), _rebuild(b, cut)


def validate_address(address: str) -> str:
    """Check a node address: a finite string over {0, 1}; empty = root."""
    if any(ch not in "01" for ch in address):
        raise ValueError(f"address must consist of 0s and 1s, got {address!r}")
    return address


def subtree_at(t: Tree, address: str) -> Tree:
    """Subtree rooted at the addressed node; errors if the path leaves the tree."""
    validate_address(address)
    node = t
    for depth, bit in enumerate(address):
        if node.is_leaf:
            raise ValueError(f"address {address!r} walks off a leaf at depth {depth}")
        node = node.left if bit == "0" else node.right
    return node


def graft_at(inner: Tree, address: str) -> Tree:
    """Hang ``inner`` at ``address`` below a fresh spine of |address| carets.

    Off-path positions get bare leaves, so the caret count grows by
    exactly len(address).
    """
    validate_address(address)
    t = inner
    for bit in reversed(address):
        t = _node(t, LEAF) if bit == "0" else _node(LEAF, t)
    return t


def right_subtree_of_root_empty(t: Tree) -> bool:
    """True iff the right child of the root caret is a bare leaf."""
    if t.is_leaf:
        raise ValueError("tree has no root caret")
    return t.right.is_leaf


# --- common refinement and local cancellation (used by group multiplication) ---

def leaf_growths(a: Tree, b: Tree) -> tuple[list, list]:
    """Sorted spans (n, 1, sub) that grow ``a`` and ``b`` into their union,
    from one walk of both trees: leaf n of ``a`` grows into the subtree
    ``sub`` of ``b`` in the first list, and the other way round in the
    second. Ungrown leaves are left out and shared subtrees skipped."""
    a_spans: list[tuple[int, int, Tree]] = []
    b_spans: list[tuple[int, int, Tree]] = []
    todo = [(a, b, 0, 0)]
    while todo:
        x, y, fa, fb = todo.pop()
        if x is y:
            continue
        if x.left is None:
            if y.left is not None:
                a_spans.append((fa, 1, y))
        elif y.left is None:
            b_spans.append((fb, 1, x))
        else:
            todo.append((x.right, y.right, fa + x.left.leaves, fb + y.left.leaves))
            todo.append((x.left, y.left, fa, fb))
    return a_spans, b_spans


def union_tree(a: Tree, b: Tree) -> Tree:
    """Smallest tree containing both arguments as prefixes; it is ``a``
    itself when ``a`` contains ``b``, and shares subtrees with both."""
    return expand_leaves(a, leaf_growths(a, b)[0])


def expand_leaves(t: Tree, spans: list[tuple[int, int, Tree]]) -> Tree:
    """Grow leaf n of ``t`` into ``sub`` for each span (n, 1, sub) of the
    sorted ``spans``, sharing the unchanged subtrees."""
    if spans and not 0 <= spans[0][0] <= spans[-1][0] < t.leaves:
        raise ValueError(f"spans from leaf {spans[0][0]} to {spans[-1][0]} "
                         f"outside a tree of {t.leaves} leaves")
    return _rebuild(t, spans)


def _candidates(base: Tree, spans: list[tuple[int, int, Tree]]) -> list[int]:
    """Sorted exposed carets of ``base`` over two leaves no span grows,
    numbered as in ``base`` grown by ``spans``."""
    out: list[int] = []
    shift = j = 0
    for m in sorted(_exposed_carets(base)):
        while j < len(spans) and spans[j][0] < m:
            shift += spans[j][2].leaves - 1
            j += 1
        if j == len(spans) or spans[j][0] > m + 1:
            out.append(m + shift)
    return out


def reduce_product(base: Tree, spans: list[tuple[int, int, Tree]],
                   grown: Tree, other: Tree) -> tuple[Tree, Tree]:
    """Reduce the pair of outer trees of a product of two reduced pairs.

    ``grown`` is ``base``, an outer tree of one factor, expanded by
    ``spans``; ``other`` is the other factor's expanded outer tree. A
    growth caret never cancels (its factor would not be reduced), so the
    common exposed carets are the exposed carets of ``base`` over ungrown
    leaves that ``other`` has too. Both trees come back in argument order.
    Cost: O(|base|) plus the root paths walked to its candidates and
    rebuilt above the cancelled carets.
    """
    hits, up_other = _probe(other, _candidates(base, spans))
    return _cancel(grown, other, hits, up_other) if hits else (grown, other)


# --- text and DOT serialization ---

def format_tree(t: Tree) -> str:
    out: list[str] = []
    todo: list = [t]  # trees still to write, and the literal ")" and " "
    while todo:
        node = todo.pop()
        if type(node) is str:
            out.append(node)
        elif node.left is None:
            out.append("L")
        else:
            out.append("(")
            todo += (")", node.right, " ", node.left)
    return "".join(out)


def format_pair(pair: TreePair) -> str:
    return f"{format_tree(pair.neg)} | {format_tree(pair.pos)}"


def parse_tree(text: str) -> Tree:
    pending: list[Tree | None] = []  # per open caret: its left subtree once read
    pos = 0
    while True:
        if pos >= len(text):
            raise ParseError("unexpected end of input", pos)
        if text[pos] == "(":
            pending.append(None)
            pos += 1
            continue
        if text[pos] != "L":
            raise ParseError("expected 'L' or '('", pos)
        tree, pos = LEAF, pos + 1
        while pending and pending[-1] is not None:  # tree is a right subtree
            if pos >= len(text) or text[pos] != ")":
                raise ParseError("expected ')'", pos)
            tree, pos = _node(pending.pop(), tree), pos + 1
        if not pending:
            break
        if pos >= len(text) or text[pos] != " ":
            raise ParseError("expected ' ' between subtrees", pos)
        pending[-1], pos = tree, pos + 1
    if pos != len(text):
        raise ParseError("trailing input after tree", pos)
    return tree


def parse_pair(text: str) -> TreePair:
    sep = text.find(" | ")
    if sep < 0:
        raise ParseError("expected ' | ' between the two trees", len(text))
    return TreePair(parse_tree(text[:sep]), parse_tree(text[sep + 3:]))


def tree_to_dot(t: Tree, name: str) -> str:
    """DOT digraph with nodes labeled by address; leaves also carry leaf numbers."""
    lines = [f"digraph {name} {{"]
    leaf_no = 0
    todo: list[tuple[Tree | None, str]] = [(t, "")]  # None: the caret's edges
    while todo:
        node, addr = todo.pop()
        disp = addr or "root"
        if node is None:
            lines.append(f'  "n{addr}" -> "n{addr}0";')
            lines.append(f'  "n{addr}" -> "n{addr}1";')
        elif node.left is None:
            lines.append(f'  "n{addr}" [label="{disp} #{leaf_no}"];')
            leaf_no += 1
        else:
            lines.append(f'  "n{addr}" [label="{disp}"];')
            todo += ((None, addr), (node.right, addr + "1"), (node.left, addr + "0"))
    lines.append("}")
    return "\n".join(lines)


def pair_to_dot(pair: TreePair) -> str:
    """Two digraphs named neg and pos, one per side of the pair."""
    return tree_to_dot(pair.neg, "neg") + "\n" + tree_to_dot(pair.pos, "pos")
