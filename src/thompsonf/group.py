"""Group structure on canonical reduced tree pair diagrams.

Multiplication goes through the common refinement of the two pairs and
always returns a reduced pair, cancelled locally by ``trees._cancel``, so
structural equality of elements is group equality. The composition order
is pinned by the defining relation of the infinite presentation:

    multiply(multiply(inverse(x0), x1), x0) == x2

which makes ``multiply(a, b)`` agree with concatenating words a then b.

A word becomes an element with no product at all: each letter rotates one
caret of a pair diagram held in flat index arrays (element_of_word), so a
word of n letters in runs of indices i_1, i_2, ... costs O(n + i_1 + i_2 +
...). ``generator``, ``power``, ``from_normal_form``, the embeddings' shift
and Z generators, clone maps, F x Z images and product embeddings, and the
random sampler refuse, before building anything, elements that could need
more than ``_MAX_CARETS`` carets. The shift builds no address string, so it
refuses a deep shift before allocating one, and it returns the identity at
any depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Iterable

# union_tree is unused here; perfbench's traced run rebinds it by name
from .trees import (
    IDENTITY_PAIR,
    LEAF,
    TreePair,
    _cancel,
    _candidates,
    _node,
    caret_count,
    combs,
    expand_leaves,
    is_reduced,
    leaf_growths,
    reduce_pair,
    union_tree,
)
from .words import (
    Letter,
    NormalForm,
    normal_form_to_tree_pair,
    tree_pair_to_normal_form,
)


_MAX_CARETS = 1_000_000  # most carets an element built from a few ints may need


class CaretLimitError(ValueError):
    """An element that would need more than ``_MAX_CARETS`` carets."""


def _check_carets(carets: int, what: str) -> None:
    """Raise CaretLimitError, before anything is built, over the cap."""
    if carets > _MAX_CARETS:
        raise CaretLimitError(f"{what} could need {carets} carets, "
                              f"more than _MAX_CARETS = {_MAX_CARETS}")


@dataclass(frozen=True)
class GroupElement:
    """Group element held as its unique reduced tree pair."""

    pair: TreePair

    def __post_init__(self):
        if not is_reduced(self.pair):
            raise ValueError("group elements must hold a reduced pair")

    @classmethod
    def from_pair(cls, pair: TreePair) -> GroupElement:
        return _element(reduce_pair(pair))

    @classmethod
    def from_normal_form(cls, nf: NormalForm) -> GroupElement:
        """The element of a normal form. NormalForm enforces the uniqueness
        condition, so the pair it builds is reduced and is not checked. A
        part's last index + 1 + its sum of exponents bounds the carets."""
        _check_carets(max((part[-1][0] + 1 + sum(e for _, e in part)
                           for part in (nf.positive, nf.negative) if part), default=0),
                      "normal form")
        return _element(normal_form_to_tree_pair(nf))

    @property
    def is_identity(self) -> bool:
        return self.pair.pos.is_leaf

    @property
    def caret_count(self) -> int:
        """N(g): carets of either tree of the reduced pair (they agree)."""
        return caret_count(self.pair.pos)

    def normal_form(self) -> NormalForm:
        return tree_pair_to_normal_form(self.pair, check=False)

    def __str__(self) -> str:
        return str(self.normal_form())

    def __repr__(self) -> str:
        nf = str(self)
        return f"GroupElement({nf!r})" if nf else "GroupElement(identity)"


def _element(pair: TreePair) -> GroupElement:
    """Wrap a pair the caller has reduced, skipping the constructor's check."""
    g = object.__new__(GroupElement)
    object.__setattr__(g, "pair", pair)
    return g


def identity() -> GroupElement:
    return _element(IDENTITY_PAIR)


def generator(index: int) -> GroupElement:
    """The generator x_index: the comb pair (R_2, L_2) under a right spine of
    index carets, in O(index) new nodes."""
    if index < 0:
        raise ValueError("generator index must be nonnegative")
    _check_carets(index + 2, f"generator x{index}")
    neg, pos = combs(2)
    for _ in range(index):
        neg, pos = _node(LEAF, neg), _node(LEAF, pos)
    return _element(TreePair(neg, pos))


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Product of a then b via common refinement of the two pairs.

    The pairs are unreduced to representatives sharing a middle tree,
    the union of a's negative and b's positive tree, which is never built:
    one walk of those two trees gives both lists of leaf growths. The
    outer trees, expanded by the same growths, form the product pair,
    which _cancel reduces locally at the smaller factor's _candidates. Cost: O(size of the smaller factor)
    plus the root paths rebuilt to the growths and cancelled carets,
    so multiplying a large element by a generator does not walk it.
    """
    an, ap = a.pair.neg, a.pair.pos
    bn, bp = b.pair.neg, b.pair.pos
    a_spans, b_spans = leaf_growths(an, bp)
    ap2, bn2 = expand_leaves(ap, a_spans), expand_leaves(bn, b_spans)
    if ap.leaves <= bn.leaves:
        ap2, bn2 = _cancel(ap2, bn2, _candidates(ap, a_spans))
    else:
        bn2, ap2 = _cancel(bn2, ap2, _candidates(bn, b_spans))
    return _element(TreePair(bn2, ap2))


def inverse(a: GroupElement) -> GroupElement:
    """Swap the two trees; an involution with the same caret count."""
    return _element(TreePair(a.pair.pos, a.pair.neg))


def power(a: GroupElement, k: int) -> GroupElement:
    """a^k by repeated squaring; |k| N(a) bounds every product it makes."""
    _check_carets(abs(k) * a.caret_count, f"power {k}")
    if k < 0:
        a, k = inverse(a), -k
    result = identity()
    base = a
    while k:
        if k & 1:
            result = multiply(result, base)
        k >>= 1
        if k:
            base = multiply(base, base)
    return result


def commutator(a: GroupElement, b: GroupElement) -> GroupElement:
    return multiply(multiply(multiply(a, b), inverse(a)), inverse(b))


def commutator_is_trivial(a: GroupElement, b: GroupElement) -> bool:
    return multiply(a, b) == multiply(b, a)


def element_of_word(word: Iterable[Letter]) -> GroupElement:
    """The element of a word, built letter by letter on one pair diagram.

    Right multiplication by x_i rotates the caret v at depth i of the
    negative tree's right spine, ((A B) C) -> (A (B C)), and x_i^-1 rotates
    it back (J. Belk and K. Brown, IJAC 15, 2005), so a run x_i^{+-k} is k
    rotations at v. Where the walk or a rotation needs a caret the diagram
    lacks, the leaf and its partner grow one comb each for the rest of the
    run, so at most twice per run. As in a product's trees._cancel, a
    growth caret never cancels: only the run's first new caret can lie over
    two leaves, and cancelling a caret can expose only its parent. The
    diagram lives in flat index arrays, private to the call, and both trees
    are frozen into Trees once, at the end. Cost: O(i + k) per run plus the
    carets cancelled, and O(N) to freeze; nothing recurses.
    """
    # node 0 is the negative root and node 1 the positive; a leaf has left -1,
    # and its partner is the leaf with the same number in the other tree
    left, right, up, partner = [-1, -1], [-1, -1], [-1, -1], [1, 0]

    def grow(leaf, g, down, side):
        """Grow the negative ``leaf`` and its partner into combs of g carets
        along ``down``: each level hangs a side leaf and a down child."""
        twin = partner[leaf]
        for s in range(len(left), len(left) + 4 * g, 4):
            d, s2, d2 = s + 1, s + 2, s + 3  # one int per node, shared by the arrays
            down[leaf], side[leaf], down[twin], side[twin] = d, s, d2, s2
            down += -1, -1, -1, -1
            side += -1, -1, -1, -1
            up.extend((leaf, leaf, twin, twin))
            partner.extend((s2, d2, s, d))
            leaf, twin = d, d2

    for (index, sign), run in groupby(word, attrgetter("index", "sign")):
        v = 0  # walk down the right spine to depth index
        if left[v] < 0:
            grow(v, index + 1, right, left)
        for g in range(index, 0, -1):
            v = right[v]
            if left[v] < 0:
                grow(v, g, right, left)
        down, side = (left, right) if sign > 0 else (right, left)
        first = p = down[v]
        c = side[v]
        # each letter: v = ((a b) c) -> (a (b c)), mirrored for x_i^-1
        for g in range(len(list(run)), 0, -1):
            if left[p] < 0:
                grow(p, g, down, side)
            a = down[p]
            down[p], side[p], up[c] = side[p], c, p
            p, c = a, p  # v's children now, written back after the run
        down[v], side[v], up[p], up[c] = p, c, v, v
        c = first
        while c >= 0:  # cancel c while its leaves' partners are siblings too
            a, b = left[c], right[c]
            if left[a] >= 0 or left[b] >= 0 or up[partner[a]] != up[partner[b]]:
                break
            q = up[partner[a]]
            left[c] = right[c] = left[q] = right[q] = -1
            partner[c], partner[q] = q, c
            c = up[c]
    shape, todo = bytearray(), [1, 0]
    while todo:  # both trees in preorder, the negative first: 1 a caret, 0 a leaf
        v = todo.pop()
        shape.append(left[v] >= 0)
        if left[v] >= 0:
            todo += right[v], left[v]
    del left, right, up, partner  # the collector need not walk them during the build
    stack = []
    for caret in reversed(shape):  # a caret's left then right subtree lie on top
        stack.append(_node(stack.pop(), stack.pop()) if caret else LEAF)
    return _element(TreePair(stack[1], stack[0]))


@dataclass(frozen=True)
class RelatorReport:
    """Outcome of evaluating the presentation relators."""

    entries: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.entries)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.entries if not ok)


_RELATOR_INDEX = 8  # the largest j of the sampled infinite-presentation relations


def verify_relators() -> RelatorReport:
    """Check both finite-presentation relators and the sampled infinite
    presentation relations x_i^-1 x_j x_i = x_{j+1} for i < j <= 8: 38 in all."""
    gens = [generator(i) for i in range(_RELATOR_INDEX + 2)]  # each built once
    x0, x1 = gens[0], gens[1]
    z = multiply(x0, inverse(x1))
    conj1 = multiply(multiply(inverse(x0), x1), x0)
    conj2 = multiply(multiply(power(x0, -2), x1), power(x0, 2))
    entries = [("[x0 x1^-1, x0^-1 x1 x0]", commutator(z, conj1).is_identity),
               ("[x0 x1^-1, x0^-2 x1 x0^2]", commutator(z, conj2).is_identity)]
    for i in range(_RELATOR_INDEX):
        for j in range(i + 1, _RELATOR_INDEX + 1):
            lhs = multiply(multiply(inverse(gens[i]), gens[j]), gens[i])
            entries.append((f"x{i}^-1 x{j} x{i} = x{j + 1}", lhs == gens[j + 1]))
    return RelatorReport(tuple(entries))
