"""Exact word lengths and sphere sizes on x0, x1 from caret weights.

``word_length`` reads |g| off the reduced pair with B. Fordham's caret
weights, "Minimal length elements of Thompson's group F", Geom. Dedicata 99
(2003). Sphere sizes are counted from the same table without building an
element, in the manner of M. Elder, É. Fusy and A. Rechnitzer, "Counting
elements and geodesics in Thompson's group F", J. Algebra 324 (2010):
``_reading_automaton`` alone knows what a state reading a tree means, and
``_count_spheres`` is a packed fold over its rows of integers, keyed by
unordered pairs of states, as g and its inverse have the same length.

It imports only ``trees``, so the breadth-first search in ``metric`` is an
independent check; ``word_length`` reads only ``g.pair``.
"""

from __future__ import annotations

from collections import defaultdict

from .trees import Tree


# Caret types. Number a tree's carets 0..N-1 in infix order. L0 is caret 0
# and LL any other caret on the left arm: the root and its chain of left
# children. The right arm is the root's right child and its chain of right
# children; on it R0 is the caret whose right child is a leaf, RI one whose
# next caret is interior (on neither arm), and RNI any other. An interior
# caret is I0 when its right child is a leaf and IR when it is a caret.
_L0, _LL, _R0, _RNI, _RI, _I0, _IR = range(7)

# |g| is the sum over k of the weight of caret k of the negative tree paired
# with caret k of the positive tree. None marks the 8 pairs no reduced pair
# has: the last caret is R0 or the root, and R0 is always the last.
_WEIGHTS = (
    # L0   LL    R0    RNI   RI    I0    IR
    (0,    None, None, None, None, None, None),  # L0
    (None, 2,    1,    1,    1,    2,    2),     # LL
    (None, 1,    0,    None, None, None, None),  # R0
    (None, 1,    None, 2,    2,    1,    3),     # RNI
    (None, 1,    None, 2,    2,    3,    3),     # RI
    (None, 2,    None, 1,    3,    2,    4),     # I0
    (None, 2,    None, 3,    3,    4,    4),     # IR
)

_LEFT_ARM, _RIGHT_ARM, _INTERIOR = range(3)


def _caret_types(t: Tree) -> list[int]:
    """The type of each caret of t in infix order, found by position: trees
    share subtrees, so one object may stand at two positions."""
    types: list[int] = []
    above: list[tuple[Tree, int]] = []  # carets whose left subtree is being read
    node, region = t, _LEFT_ARM
    while True:
        while node.left is not None:
            above.append((node, region))
            node = node.left
            if region != _LEFT_ARM:
                region = _INTERIOR
        if not above:
            return types
        node, region = above.pop()
        right = node.right
        if region == _LEFT_ARM:
            types.append(_LL if types else _L0)
            region = _INTERIOR if above else _RIGHT_ARM  # the root is read last of the arm
        elif region == _RIGHT_ARM:
            types.append(_R0 if right.left is None else
                         _RNI if right.left.left is None else _RI)
        else:
            types.append(_I0 if right.left is None else _IR)
        node = right


def word_length(g: GroupElement) -> int:
    """|g| on the generators x0, x1: Fordham's caret weights summed over the
    reduced pair, in time linear in the caret count."""
    return sum(_WEIGHTS[a][b] for a, b in
               zip(_caret_types(g.pair.neg), _caret_types(g.pair.pos)))


def _heavy_to_read(where: str, waiting: int) -> int:
    """h of a reading state: the heavy carets (types LL, I0, IR) its tree has
    still to read, the current caret included: waiting + 1 before the root
    (the current interior caret, waiting - 1 interior carets and the left-arm
    caret on top), waiting after it (the caret on top is on the right arm),
    1 on the left arm past caret 0, and 0 otherwise."""
    return waiting + (where in ("LL", "before"))


def _reading_automaton(radius: int) -> tuple[tuple[tuple, int, int], ...]:
    """One immutable row (moves, h, waiting) per state that reads a tree.

    A tree is read in infix order. After a caret whose right child is a
    caret, the reading descends the left chain of that child and visits its
    bottom caret, while the carets above it wait; after a caret whose right
    child is a leaf, the next caret is the last one waiting. A state is
    (where its current caret lies: caret 0, the rest of the left arm, the
    right arm, or interior before or after the root; the carets waiting, at
    most radius + 1; whether the current caret's left child is a leaf). Row
    0 starts and the last, with no moves, is the end. A move is (the current
    caret's type, whether it sits over two leaves, the next state's number);
    h is ``_heavy_to_read``, and waiting is -1 unless the state may descend
    one caret deeper, to the state two on.
    """
    # No caret waits on the left arm: each caret there chooses if it is the root.
    def moves(where, waiting):
        """(type, right child is a leaf, next state or None at the end)."""
        if where in ("L0", "LL"):
            kind = _L0 if where == "L0" else _LL
            return ((kind, True, ("LL", 0, False)),          # not the root
                    (kind, False, ("before", 1, True)),
                    (kind, True, None),                      # the root
                    (kind, False, ("right", 0, True)),
                    (kind, False, ("after", 1, True)))
        if where == "right":
            return ((_R0, True, None),
                    (_RNI, False, ("right", 0, True)),
                    (_RI, False, ("after", 1, True)))
        up = ((where, waiting - 1, False) if waiting > 1 else
              ("LL" if where == "before" else "right", 0, False))
        return ((_I0, True, up), (_IR, False, (where, waiting, True)))

    states = [("L0", 0, True), ("LL", 0, False), ("right", 0, True), ("right", 0, False)]
    states += [(where, waiting, leaf) for where in ("before", "after")
               for waiting in range(1, radius + 2) for leaf in (True, False)]
    index = {state: i for i, state in enumerate([*states, None])}  # None: the end
    return tuple((tuple((kind, leaf and right_leaf, index[to])
                        for kind, right_leaf, to in moves(where, waiting)),
                  _heavy_to_read(where, waiting),
                  waiting if leaf and where in ("before", "after") and waiting <= radius else -1)
                 for where, waiting, leaf in states) + (((), 0, -1),)


def _count_spheres(radius: int) -> list[int]:
    """Element counts at each word length 0..radius on x0, x1, counted over
    reduced tree pairs by caret weight without building any element: a
    packed fold over the rows of ``_reading_automaton``, one caret of each
    tree per step. A step whose two carets each sit over two leaves is
    dropped, so every pair counted is reduced.

    Each (neg state, pos state) pair packs its counts in one int, S bits a
    weight, so a move of weight w is a shift by w S and a mask. The mask
    drops only counts that must pass the radius (proved, not just checked).
    Each weight W[x][y] is at least [x heavy] + [y heavy] and a step reads
    one caret of each tree, so the weight still to come is at least h(neg) +
    h(pos), h as in ``_heavy_to_read``.

    Only pairs a <= b are kept: swapping the trees gives g^-1, of length
    |g|, and W (None cells too), the cherry rule, the mask of (a, b) (it
    reads h(a) + h(b)) and the automaton reading each tree are symmetric,
    so by induction (a, b) and (b, a) hold equal counts after each step and
    descent. From (a, a) a move pair is kept if it lands on x <= y, as its
    mirror lands on (y, x); from a < b it lands at (min, max), doubled by
    one more bit of shift on x = y, where (b, a) adds the same. A descent
    moves one tree, so it runs on the pairs mirrored. At radius 9 this keeps
    674 pair-steps and builds 222 move lists (1,295 and 430 unfolded).

    At radius r, S is the bit length of (25 (r + 1)^2)^(r + 2), and no slot
    carries (proved, not just checked): a count after k steps, doubled or
    not, is one ordered pair's, at most (25 (r + 1)^2)^k, as a step takes
    one of at most 25 move pairs and at most r + 1 descent depths in each
    tree; k <= r + 1, as every step but the first and last weighs at least
    1; and a sphere size is at most 4^r.
    """
    rows = _reading_automaton(radius)
    n = len(rows)
    width = ((25 * (radius + 1) ** 2) ** (radius + 2)).bit_length()
    fits = [(1 << (top + 1) * width) - 1 for top in range(radius + 1)]
    # Pair (a, b) is a n + b. The end's h, past the radius, cuts every pair
    # read half; the end pair, the last, keeps the whole radius.
    heavy = [h for _, h, _ in rows[:-1]] + [radius + 1]
    cut = fits[::-1] + [0] * 2 * max(heavy)  # cut[h] keeps weights <= radius - h
    masks = [cut[x + y] for x in heavy for y in heavy]
    masks[-1] = fits[radius]
    descends = [waiting for _, _, waiting in rows]
    sides = ((2 * n, [a for a in descends for _ in rows]), (2, descends * n))

    read = 1  # the packed counts of the pairs read to the end: the identity
    built: list[list[tuple[int, int, int]] | None] = [None] * (n * n)
    counts = {0: 1}  # pair -> packed counts
    while counts:
        nxt: defaultdict[int, int] = defaultdict(int)
        for pair, packed in counts.items():
            found = built[pair]
            if found is None:  # (shift, next pair, mask) of each move pair that can finish
                neg, pos = divmod(pair, n)
                found = built[pair] = [
                    (w * width + (neg < pos and x == y), to, masks[to])
                    for neg_type, neg_cherry, x in rows[neg][0]
                    for pos_type, pos_cherry, y in rows[pos][0]
                    if (w := _WEIGHTS[neg_type][pos_type]) is not None
                    and not (neg_cherry and pos_cherry)
                    and (neg < pos or x <= y)
                    and masks[to := min(x, y) * n + max(x, y)] >> w * width]
            for shift, to, mask in found:
                if moved := (packed << shift) & mask:
                    nxt[to] += moved
        read += nxt.pop(n * n - 1, 0)
        nxt.update({pair % n * n + pair // n: packed for pair, packed in nxt.items()})
        # A descent may go one caret deeper, any number of times: its bottom
        # caret then waits too. One tree at a time, fewest waiting first, so
        # each count is complete before it is carried deeper.
        for step, depth in sides:
            by_waiting: list[list[int]] = [[] for _ in range(radius + 1)]
            for pair in nxt:
                if depth[pair] >= 0:
                    by_waiting[depth[pair]].append(pair)
            for pairs in by_waiting:
                for pair in pairs:
                    if moved := nxt[pair] & masks[pair + step]:
                        if pair + step not in nxt:
                            by_waiting[depth[pair + step]].append(pair + step)
                        nxt[pair + step] += moved
        counts = {pair: packed for pair, packed in nxt.items() if pair // n <= pair % n}
    return [read >> w * width & fits[0] for w in range(radius + 1)]
