"""Shift and clone maps, embedded product subgroups, and support intervals.

A binary address s names a node of a tree and, reading the bits as a
binary fraction, the dyadic interval the subtree below it occupies. The
clone map along s grafts both trees of an element at s, giving an
injective homomorphism onto the copy of the whole group supported on
that interval (the clone subgroup at s). The shift map is the clone map
along "1": on normal forms it raises every generator index by one.

Two constructions build undistorted (quasi-isometrically embedded)
copies of product groups inside the group, each as one tree pair in
time linear in its size, with no group products:

  * ``embed_f_z(w, t)``: the image of (w, t) in F x Z, the clone of w at
    "11" times (x0 x1^-1)^t. That power fixes its last leaf "11": for
    t >= 0 its trees are (L (R_t X)) and (L_t (L Y)), with R_t and L_t
    the right and left combs of t carets, and for t < 0 the two trees
    swap. The image hangs w's trees at X and Y. The combs come from
    ``trees.combs``, shared up to 64 carets.
  * ``embed_product(addresses, f_factors, z_factors)``: the image of
    F^m x Z^n, the minimal skeleton tree over a prefix-free family of
    addresses with each F factor's trees at its own address, a Z block
    at the final one and bare leaves elsewhere. The i-th Z generator is
    the clone of x0 x1^-1 at "1"^2i, so the block nests one level per t,
    each inner one (innermost X = Y = L) at the outer one's leaf "11".

Prefix-free addresses give subtrees with disjoint dyadic supports, which
is why the factor images commute. A skeleton caret over two leaves (bare
or trivial parts) is exposed in both trees and is cancelled as it is
built, and a Z level with t = 0 leaves the trivial pair trivial; every
other caret has a non-leaf child or lies inside a reduced part, so the
pair is reduced as built. When every part is nontrivial (no identity F
factor, n >= 1, every t != 0) nothing cancels and
N(image) = skeleton carets + sum N(w_i) + sum (|t_i| + 2).

``_product_builder`` plans a family's skeleton once, then builds both trees
of each image in one pass: the sweep plans once per (validated) spec.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

# power is unused here but stays importable: perfbench's traced run
# rebinds embeddings.power by name
from .group import (GroupElement, _check_carets, _element, generator, inverse,
                    multiply, power)
from .trees import LEAF, Tree, TreePair, _node, combs, graft_at, validate_address
from .words import NormalForm, _spine_slots


def shift(g: GroupElement, k: int = 1) -> GroupElement:
    """k-fold shift: every normal form index rises by k; N grows by k."""
    if k < 0:
        raise ValueError("shift amount must be nonnegative")
    return clone_map("1" * k, g)


def clone_map(address: str, g: GroupElement) -> GroupElement:
    """Graft both trees of g at the address.

    An injective homomorphism onto the clone subgroup at the address;
    for non-identity g the caret count grows by exactly len(address),
    and the identity maps to the identity.

    The grafted pair needs no reduce_pair scan: unless g is the identity,
    each spine caret has a non-leaf child, so the pair stays reduced.
    """
    validate_address(address)
    if g.is_identity:
        return g
    return _element(
        TreePair(graft_at(g.pair.neg, address), graft_at(g.pair.pos, address))
    )


def z_generator(i: int) -> GroupElement:
    """The element x_{2i} x_{2i+1}^-1; distinct i give commuting copies of Z."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    return multiply(generator(2 * i), inverse(generator(2 * i + 1)))


def _z_level(t: int, x: Tree, y: Tree) -> tuple[Tree, Tree]:
    """Trees of (x0 x1^-1)^t with x and y hung at its fixed leaf "11";
    the identity pair stays the identity under t = 0."""
    if t < 0:
        pos, neg = _z_level(-t, y, x)
        return neg, pos
    if t == 0 and x.is_leaf:
        return x, y
    right, left = combs(t)
    return _node(LEAF, _node(right, x)), _node(left, _node(LEAF, y))


def embed_f_z(w: GroupElement, t: int) -> GroupElement:
    """Image of (w, t) under the F x Z embedding.

    The clone of w at "11" times (x0 x1^-1)^t, built as one Z level with
    w's trees at its leaf "11". The two commute, the map is a
    homomorphism, and N(image) = N(w) + |t| + 2 when w != 1 and t != 0.
    """
    _check_carets(abs(t), f"Z height {t}")
    return _element(TreePair(*_z_level(t, w.pair.neg, w.pair.pos)))


def is_prefix_free(addresses: Sequence[str]) -> bool:
    """True when no address is a prefix of another (pairwise)."""
    for a in addresses:
        validate_address(a)
    ordered = sorted(addresses)  # a prefix sorts right before its extensions
    return not any(b.startswith(a) for a, b in zip(ordered, ordered[1:]))


def _join(left: Tree, right: Tree) -> Tree:
    """A skeleton caret, cancelled over two leaves: the skeleton and its
    trivial parts agree in both trees, so such a caret is exposed in both."""
    return LEAF if left.is_leaf and right.is_leaf else _node(left, right)


def _product_builder(addresses: tuple[str, ...]):
    """The product embedding over a validated, prefix-free family, as a
    function of (f_factors, z_factors). Left to right, each part climbs its
    address to where the next address branches off, taking as left sibling
    the subtree an earlier part left waiting at that depth. The plan holds,
    in address order, each part's index and its climb: per caret, 0 when
    the part is the left child, 1 when a bare leaf is, 2 when a waiting
    subtree is."""
    order = sorted(range(len(addresses)), key=addresses.__getitem__)
    plan: list[tuple[int, tuple[int, ...]]] = []
    waiting: list[int] = []  # depths of the subtrees left waiting, rising
    for k, i in enumerate(order):
        a = addresses[i]
        b = addresses[order[k + 1]] if k + 1 < len(order) else a
        stop = next((d + 1 for d, (p, q) in enumerate(zip(a, b)) if p != q), 0)
        climb = []
        for depth in range(len(a), stop, -1):
            if a[depth - 1] == "0":
                climb.append(0)
            elif waiting and waiting[-1] == depth:
                climb.append(2)
                waiting.pop()
            else:
                climb.append(1)
        plan.append((i, tuple(climb)))
        waiting.append(stop)

    def build(f_factors: Sequence[GroupElement], z_factors: Sequence[int]) -> GroupElement:
        _check_carets(sum(map(abs, z_factors)), "the Z heights")
        x = y = LEAF
        for t in reversed(z_factors):
            x, y = _z_level(t, x, y)
        parts = [(w.pair.neg, w.pair.pos) for w in f_factors] + [(x, y)]
        left: list[tuple[Tree, Tree]] = []  # the subtrees left waiting
        for i, climb in plan:
            neg, pos = parts[i]
            for step in climb:
                if step == 0:
                    neg, pos = _join(neg, LEAF), _join(pos, LEAF)
                else:
                    left_neg, left_pos = left.pop() if step == 2 else (LEAF, LEAF)
                    neg, pos = _join(left_neg, neg), _join(left_pos, pos)
            left.append((neg, pos))
        return _element(TreePair(neg, pos))

    return build


def embed_product(
    addresses: Sequence[str],
    f_factors: Sequence[GroupElement],
    z_factors: Sequence[int],
) -> GroupElement:
    """Image of an F^m x Z^n element under the product embedding.

    ``addresses`` holds m+1 pairwise prefix-free addresses: one per F
    factor and a final one shared by every Z factor, whose i-th generator
    is the clone of x_{2i} x_{2i+1}^-1. All factor images have pairwise
    disjoint supports except inside the final clone, so they commute and
    the map is a homomorphism. Built as the skeleton pair of the module
    docstring; each address is validated once, by is_prefix_free.
    """
    addresses = tuple(addresses)
    if not is_prefix_free(addresses):
        raise ValueError("addresses must be pairwise prefix-free")
    if len(addresses) != len(f_factors) + 1:
        raise ValueError(
            f"need {len(f_factors) + 1} addresses for {len(f_factors)} "
            f"group factors, got {len(addresses)}"
        )
    return _product_builder(addresses)(f_factors, z_factors)


def address_interval(address: str) -> tuple[Fraction, Fraction]:
    """Dyadic support interval [0.bits, 0.bits + 2^-len) of an address."""
    validate_address(address)
    width = Fraction(1, 2 ** len(address))
    start = Fraction(int(address, 2) if address else 0, 2 ** len(address))
    return start, start + width


def right_subtree_claims(nf: NormalForm) -> tuple[bool | None, bool | None]:
    """Root-caret right-subtree emptiness claims read off a normal form.

    Write the form with explicit leading and trailing x0 exponents
    r0, s0 >= 0. The positive-part hypothesis asks that every index i_a
    beyond 0 satisfies i_a <= r0 + r1 + ... + r_{a-1} (the sum of all
    earlier exponents) and that the positive exponent vector closes no
    earlier than the negative one; when it holds, the right subtree of
    the positive tree's root caret is empty. The mirror statement holds
    for the negative part and tree. Each slot returns True where its
    hypothesis holds and None where it is vacuous (no index beyond 0) or
    fails, claiming nothing.

    The per-index inequality alone does not suffice: the other side of
    the diagram can force padding carets onto the right side of the
    tree, which is what the closing comparison rules out. As implemented
    the hypothesis is exact, not just sufficient.
    """
    pos_slots = _spine_slots(dict(nf.positive))
    neg_slots = _spine_slots(dict(nf.negative))

    def claim(part: tuple[tuple[int, int], ...], own_slots: int,
              other_slots: int) -> bool | None:
        tail = [(i, e) for i, e in part if i > 0]
        if not tail:
            return None
        earlier = dict(part).get(0, 0)
        for index, exponent in tail:
            if index > earlier:
                return None
            earlier += exponent
        return True if own_slots >= other_slots else None

    return (
        claim(nf.positive, pos_slots, neg_slots),
        claim(nf.negative, neg_slots, pos_slots),
    )
