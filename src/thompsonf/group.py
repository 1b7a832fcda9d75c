"""Group structure on canonical reduced tree pair diagrams.

Multiplication goes through the common refinement of the two pairs and
always returns a reduced pair, so structural equality of elements is
group equality. The composition order is pinned by the defining relation
of the infinite presentation:

    multiply(multiply(inverse(x0), x1), x0) == x2

which makes ``multiply(a, b)`` agree with concatenating words a then b.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable

# union_tree is unused here; perfbench's traced run rebinds it by name
from .trees import (
    IDENTITY_PAIR,
    LEAF,
    TreePair,
    _node,
    caret_count,
    combs,
    expand_leaves,
    is_reduced,
    leaf_growths,
    reduce_pair,
    reduce_product,
    union_tree,
)
from .words import (
    Letter,
    NormalForm,
    normal_form_to_tree_pair,
    tree_pair_to_normal_form,
)


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
        condition, so the pair it builds is reduced and is not checked."""
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
    index carets, built as every run is (_run_power), in O(index) new nodes."""
    return _run_power(Letter(index, 1), 1)


def _run_power(letter: Letter, k: int) -> GroupElement:
    """x_i^{+-k} for the letter x_i^{+-1}, the i-fold shift of x0^{+-k}: the
    comb pair (R_{k+1}, L_{k+1}), swapped for x_i^-1, under a right spine of
    i carets. O(i) new nodes; trees.combs shares combs up to 64 carets."""
    right, left = combs(k + 1)
    neg, pos = (right, left) if letter.sign > 0 else (left, right)
    for _ in range(letter.index):
        neg, pos = _node(LEAF, neg), _node(LEAF, pos)
    return _element(TreePair(neg, pos))


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Product of a then b via common refinement of the two pairs.

    The pairs are unreduced to representatives sharing a middle tree,
    the union of a's negative and b's positive tree, which is never built:
    one walk of those two trees gives both lists of leaf growths. The
    outer trees, expanded by the same growths, form the product pair,
    which reduce_product cancels locally. Cost: O(size of the smaller factor)
    plus the root paths rebuilt to the growths and cancelled carets,
    so multiplying a large element by a generator does not walk it.
    """
    an, ap = a.pair.neg, a.pair.pos
    bn, bp = b.pair.neg, b.pair.pos
    a_spans, b_spans = leaf_growths(an, bp)
    ap2, bn2 = expand_leaves(ap, a_spans), expand_leaves(bn, b_spans)
    if ap.leaves <= bn.leaves:
        ap2, bn2 = reduce_product(ap, a_spans, ap2, bn2)
    else:
        bn2, ap2 = reduce_product(bn, b_spans, bn2, ap2)
    return _element(TreePair(bn2, ap2))


def inverse(a: GroupElement) -> GroupElement:
    """Swap the two trees; an involution with the same caret count."""
    return _element(TreePair(a.pair.pos, a.pair.neg))


def power(a: GroupElement, k: int) -> GroupElement:
    if k < 0:
        return power(inverse(a), -k)
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
    """Product of the generator diagrams named by the word: one product per
    run of k letters x_i^{+-1}, by x_i^{+-k} (_run_power: O(i) new nodes)."""
    acc = identity()
    for letter, run in groupby(word):
        acc = multiply(acc, _run_power(letter, sum(1 for _ in run)))
    return acc


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


def verify_relators(max_index: int = 8) -> RelatorReport:
    """Check both finite-presentation relators and the sampled infinite
    presentation relations x_i^-1 x_j x_i = x_{j+1} for i < j <= max_index."""
    gens = [generator(i) for i in range(max_index + 2)]  # each built once
    x0, x1 = gens[0], gens[1]
    z = multiply(x0, inverse(x1))
    conj1 = multiply(multiply(inverse(x0), x1), x0)
    conj2 = multiply(multiply(power(x0, -2), x1), power(x0, 2))
    entries = [("[x0 x1^-1, x0^-1 x1 x0]", commutator(z, conj1).is_identity),
               ("[x0 x1^-1, x0^-2 x1 x0^2]", commutator(z, conj2).is_identity)]
    for i in range(max_index):
        for j in range(i + 1, max_index + 1):
            lhs = multiply(multiply(inverse(gens[i]), gens[j]), gens[i])
            entries.append((f"x{i}^-1 x{j} x{i} = x{j + 1}", lhs == gens[j + 1]))
    return RelatorReport(tuple(entries))
