"""Shift and clone maps, embedded product subgroups, and support intervals.

A binary address s names a node of a tree and, reading the bits as a
binary fraction, the dyadic interval the subtree below it occupies. The
clone map along s grafts both trees of an element at s, giving an
injective homomorphism onto the copy of the whole group supported on
that interval (the clone subgroup at s). The shift map is the clone map
along "1": on normal forms it raises every generator index by one.

Two constructions build undistorted (quasi-isometrically embedded)
copies of product groups inside the group:

  * ``embed_f_z(w, t)``: the image of (w, t) in F x Z, realized as the
    clone of w at "11" times the t-th power of x0 x1^-1;
  * ``embed_product(addresses, f_factors, z_factors)``: the image of
    F^m x Z^n, with each F factor cloned along its own address from a
    prefix-free family and all Z factors cloned along the final address.

Prefix-free addresses give subtrees with disjoint dyadic supports, which
is why the factor images commute.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .group import GroupElement, _element, generator, identity, inverse, multiply, power
from .trees import TreePair, graft_at, validate_address
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


def embed_f_z(w: GroupElement, t: int) -> GroupElement:
    """Image of (w, t) under the F x Z embedding.

    The w part is cloned into the subtree at "11" and the Z part is a
    power of x0 x1^-1; the two commute, the map is a homomorphism, and
    N(image) = N(w) + |t| + 2 whenever t != 0.
    """
    return multiply(clone_map("11", w), power(z_generator(0), t))


def is_prefix_free(addresses: Sequence[str]) -> bool:
    """True when no address is a prefix of another (pairwise)."""
    for a in addresses:
        validate_address(a)
    for i, a in enumerate(addresses):
        for b in addresses[i + 1:]:
            if a.startswith(b) or b.startswith(a):
                return False
    return True


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
    the map is a homomorphism.
    """
    addresses = tuple(addresses)
    if not is_prefix_free(addresses):
        raise ValueError("addresses must be pairwise prefix-free")
    if len(addresses) != len(f_factors) + 1:
        raise ValueError(
            f"need {len(f_factors) + 1} addresses for {len(f_factors)} "
            f"group factors, got {len(addresses)}"
        )
    acc = identity()
    for address, w in zip(addresses, f_factors):
        acc = multiply(acc, clone_map(address, w))
    final = addresses[-1]
    for i, t in enumerate(z_factors):
        acc = multiply(acc, power(clone_map(final, z_generator(i)), t))
    return acc


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
