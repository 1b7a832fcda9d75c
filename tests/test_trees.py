import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thompsonf import (
    LEAF,
    GroupElement,
    ParseError,
    Tree,
    TreePair,
    caret,
    caret_count,
    format_pair,
    format_tree,
    generator,
    graft_at,
    inverse,
    is_reduced,
    leaf_exponents,
    multiply,
    pair_to_dot,
    parse_pair,
    parse_tree,
    power,
    reduce_pair,
    right_subtree_of_root_empty,
    subtree_at,
    tree_from_exponents,
    tree_to_dot,
)
from thompsonf.metric import random_tree
from thompsonf.trees import (
    _CHERRY,
    _CHERRY_LEFT,
    _CHERRY_RIGHT,
    _candidates,
    _node,
    _probe,
    combs,
    expand_leaves,
    leaf_growths,
    union_tree,
)

from conftest import el, elements, tree_pairs, trees, within

LL = caret(LEAF, LEAF)
RIGHT_COMB_2 = caret(LEAF, LL)
LEFT_COMB_2 = caret(LL, LEAF)


# --- reference reduction: recursive, one cancellation per pass, lowest m first ---

def exposed_caret_positions(t):
    """Leaf numbers m such that some caret has exposed leaves m and m+1."""
    out = set()

    def walk(node, offset):
        if node.is_leaf:
            return 1
        nl = walk(node.left, offset)
        nr = walk(node.right, offset + nl)
        if node.left.is_leaf and node.right.is_leaf:
            out.add(offset)
        return nl + nr

    walk(t, 0)
    return out


def _remove_exposed_caret(node, m, offset=0):
    # caller guarantees m is an exposed caret position of the tree
    if node.left.is_leaf and node.right.is_leaf and offset == m:
        return LEAF
    nl = node.left.leaves
    if m + 1 <= offset + nl - 1:
        return caret(_remove_exposed_caret(node.left, m, offset), node.right)
    return caret(node.left, _remove_exposed_caret(node.right, m, offset + nl))


def reference_reduce(pair):
    neg, pos = pair.neg, pair.pos
    while True:
        common = exposed_caret_positions(neg) & exposed_caret_positions(pos)
        if not common:
            return TreePair(neg, pos)
        m = min(common)
        neg = _remove_exposed_caret(neg, m)
        pos = _remove_exposed_caret(pos, m)


# --- reference product: the dense common refinement, reduced by reference_reduce ---

def dense_growths(base, other):
    """Per leaf of ``base``, the subtree of ``other`` below it; LEAF where
    ``other`` stops above it."""
    out, todo = [], [(base, other)]
    while todo:
        x, r = todo.pop()
        if x.is_leaf:
            out.append(r)
        elif r.is_leaf:
            out.extend([LEAF] * x.leaves)
        else:
            todo += [(x.right, r.right), (x.left, r.left)]
    return out


def grow_dense(t, growths):
    """``t`` with leaf n replaced by growths[n], every caret built anew."""
    leaves, done, todo = iter(growths), [], [t]
    while todo:
        node = todo.pop()
        if node is None:
            right = done.pop()
            done[-1] = caret(done[-1], right)
        elif node.is_leaf:
            done.append(next(leaves))
        else:
            todo += [None, node.right, node.left]
    return done[0]


def reference_unreduced_product(a, b):
    """The pair of a b over the middle tree union(a.neg, b.pos), unreduced."""
    an, ap, bn, bp = a.pair.neg, a.pair.pos, b.pair.neg, b.pair.pos
    middle = grow_dense(an, dense_growths(an, bp))
    return TreePair(grow_dense(bn, dense_growths(bp, middle)),
                    grow_dense(ap, dense_growths(an, middle)))


def detected_hits(a, b):
    """The common exposed carets of the unreduced a b found from the
    candidates of a.pos and from those of b.neg (multiply takes the factor
    with fewer leaves)."""
    an, ap, bn, bp = a.pair.neg, a.pair.pos, b.pair.neg, b.pair.pos
    a_spans, b_spans = leaf_growths(an, bp)
    ap2, bn2 = expand_leaves(ap, a_spans), expand_leaves(bn, b_spans)
    return _probe(bn2, _candidates(ap, a_spans))[0], _probe(ap2, _candidates(bn, b_spans))[0]


def reference_growths(a, b):
    """The spans of both trees read off their dense union."""
    union = grow_dense(a, dense_growths(a, b))
    return tuple([(n, 1, sub) for n, sub in enumerate(dense_growths(t, union)) if not sub.is_leaf]
                 for t in (a, b))


def assert_growths_agree(a, b):
    ga, gb = leaf_growths(a, b)
    assert (ga, gb) == reference_growths(a, b)
    assert expand_leaves(a, ga) == expand_leaves(b, gb) == union_tree(a, b)
    for base, spans in ((a, ga), (b, gb)):  # sorted spans of grown leaves only
        assert [n for n, _, _ in spans] == sorted({n for n, _, _ in spans})
        assert all(0 <= n < base.leaves and size == 1 and not sub.is_leaf
                   for n, size, sub in spans)
    return ga, gb


def assert_product_agrees(a, b):
    unreduced = reference_unreduced_product(a, b)
    assert multiply(a, b).pair == reference_reduce(unreduced)
    common = sorted(exposed_caret_positions(unreduced.neg) & exposed_caret_positions(unreduced.pos))
    assert detected_hits(a, b) == (common, common)


@st.composite
def factor_pairs(draw, max_carets=40):
    """Random reduced factors, with b often cancelling part or all of a."""
    a, c = draw(elements(max_carets)), draw(elements(max_carets))
    b = draw(st.sampled_from([c, inverse(a), multiply(inverse(a), c), multiply(c, inverse(a))]))
    return a, b


class TestCounts:
    def test_leaf_count(self):
        assert LEAF.leaves == 1
        assert LL.leaves == 2
        assert RIGHT_COMB_2.leaves == 3

    def test_caret_count(self):
        assert caret_count(LEAF) == 0
        assert caret_count(caret(LL, LEAF)) == 2

    def test_neg_tree_of_z_powers(self):
        # N((x0 x1^-1)^k) = k + 2, visible on the negative tree alone
        z = el("x0 x1^-1")
        g = el("")
        for k in range(1, 9):
            g = multiply(g, z)
            assert caret_count(g.pair.neg) == k + 2
            assert caret_count(g.pair.pos) == k + 2

    @given(trees())
    def test_leaf_count_is_caret_count_plus_one(self, t):
        assert t.leaves == caret_count(t) + 1


class TestNodeFactory:
    @given(trees(), trees())
    def test_node_equals_checked_caret(self, left, right):
        t, checked = _node(left, right), Tree(left, right)
        assert t == checked and checked == t
        assert hash(t) == hash(checked)
        assert t.leaves == checked.leaves
        assert (t.left, t.right) == (left, right)

    def test_node_is_immutable(self):
        t = _node(LEAF, LL)
        assert Tree.__slots__ == ("left", "right", "leaves")
        for name in ("left", "right", "leaves"):
            with pytest.raises(AttributeError):
                setattr(t, name, LEAF)
        assert format_tree(t) == "(L (L L))"

    def test_public_constructors_keep_their_check(self):
        for build in (Tree, caret):
            with pytest.raises(ValueError):
                build(LEAF, None)
            with pytest.raises(ValueError):
                build(None, LEAF)

    def test_shared_subtrees(self):
        assert _CHERRY == LL
        assert _CHERRY_LEFT == parse_tree("((L L) L)")
        assert _CHERRY_RIGHT == parse_tree("(L (L L))")
        assert _CHERRY_LEFT.left is _CHERRY_RIGHT.right is _CHERRY


class TestLeafExponents:
    def test_single_caret(self):
        assert leaf_exponents(LL)[0] == 0  # the climb reaches the root, on the right side
        assert leaf_exponents(LL)[1] == 0  # right leaves always read 0

    def test_left_caret(self):
        assert leaf_exponents(LEFT_COMB_2)[0] == 1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            leaf_exponents(LL)[2]

    def test_all_right_comb_is_all_zero(self):
        t = LEAF
        for _ in range(5):
            t = caret(LEAF, t)
        assert leaf_exponents(t) == (0,) * 6

    @given(trees())
    def test_right_leaves_read_zero(self, t):
        exps = leaf_exponents(t)
        is_right, todo = [], [(t, False)]  # per leaf in leaf order: a right child?
        while todo:
            node, right = todo.pop()
            if node.left is None:
                is_right.append(right)
            else:
                todo += ((node.right, True), (node.left, False))
        assert len(is_right) == len(exps)
        for n, right in enumerate(is_right):
            if right:
                assert exps[n] == 0

    @given(trees())
    def test_exponent_vector_determines_tree(self, t):
        # a tree rebuilt from its exponents or its text is equal and hashes equal
        for rebuilt in (tree_from_exponents(leaf_exponents(t)), parse_tree(format_tree(t))):
            assert rebuilt == t and hash(rebuilt) == hash(t)

    def test_deep_combs_hash_at_the_default_recursion_limit(self, default_recursion_limit):
        right, left = combs(200_000)
        assert hash(right) == hash(tree_from_exponents((0,) * 200_001))
        assert hash(left) == hash(tree_from_exponents(leaf_exponents(left)))

    def test_six_leaf_vector_from_figure(self):
        # some tree realizes the exponent vector (1, 0, 1, 1, 0, 0)
        t = tree_from_exponents((1, 0, 1, 1, 0, 0))
        assert t.leaves == 6
        assert leaf_exponents(t) == (1, 0, 1, 1, 0, 0)

    def test_bad_vectors_rejected(self):
        with pytest.raises(ValueError):
            tree_from_exponents((1,))  # last entry must be 0
        with pytest.raises(ValueError):
            tree_from_exponents((3, 0, 0))  # does not close
        with pytest.raises(ValueError):
            tree_from_exponents(())
        with pytest.raises(ValueError, match="^exponents must be nonnegative$"):
            tree_from_exponents([-1, 0])


class TestReduce:
    def test_equal_pair_reduces_to_identity(self):
        for t in (LL, RIGHT_COMB_2, caret(LL, LL)):
            assert reduce_pair(TreePair(t, t)) == TreePair(LEAF, LEAF)

    def test_already_reduced_unchanged(self):
        pair = TreePair(RIGHT_COMB_2, LEFT_COMB_2)  # the x0 diagram
        assert reduce_pair(pair) == pair

    def test_three_caret_example(self):
        # split leaf 1 of the x0 diagram in both trees: common exposed caret at (1, 2)
        neg = caret(LEAF, caret(LL, LEAF))
        pos = caret(caret(LEAF, LL), LEAF)
        assert exposed_caret_positions(neg) & exposed_caret_positions(pos) == {1}
        reduced = reduce_pair(TreePair(neg, pos))
        assert reduced == TreePair(RIGHT_COMB_2, LEFT_COMB_2)
        assert caret_count(reduced.neg) == 2

    @given(tree_pairs(max_carets=10))
    def test_agrees_with_reference(self, pair):
        assert reduce_pair(pair) == reference_reduce(pair)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 300), st.randoms(use_true_random=False))
    def test_full_cancellation_agrees_with_reference(self, carets, rng):
        # the unreduced product a * a^-1 has the same tree on both sides
        t = random_tree(rng, carets)
        pair = TreePair(t, t)
        assert reduce_pair(pair) == reference_reduce(pair) == TreePair(LEAF, LEAF)

    @settings(deadline=None)
    @given(tree_pairs(max_carets=8), st.randoms(use_true_random=False))
    def test_shared_growths_agree_with_reference(self, pair, rng):
        # growing the same leaves of both sides by the same (shared) subtrees
        # gives another representative of the same element
        spans = [(n, 1, random_tree(rng, rng.randint(1, 4)))
                 for n in range(pair.neg.leaves) if rng.random() < 0.5]
        grown = TreePair(expand_leaves(pair.neg, spans), expand_leaves(pair.pos, spans))
        assert reduce_pair(grown) == reference_reduce(grown) == reduce_pair(pair)

    def test_reduced_pair_comes_back_as_is(self):
        pair = el("x0 x1^-1 x3").pair
        assert reduce_pair(pair) is pair

    def test_deep_identical_combs_cancel(self):
        # far deeper than the default recursion limit
        comb = LEAF
        for _ in range(5000):
            comb = caret(comb, LEAF)
        assert reduce_pair(TreePair(comb, comb)) == TreePair(LEAF, LEAF)

    def test_mismatched_leaf_counts_rejected(self):
        with pytest.raises(ValueError):
            TreePair(LL, LEAF)

    @given(tree_pairs())
    def test_idempotent(self, pair):
        once = reduce_pair(pair)
        assert reduce_pair(once) == once
        assert is_reduced(once)

    def test_confluence_by_order_enumeration(self):
        # all removal orders of common exposed carets reach the same pair
        def terminals(neg, pos, seen):
            key = (neg, pos)
            if key in seen:
                return seen[key]
            common = exposed_caret_positions(neg) & exposed_caret_positions(pos)
            if not common:
                result = {key}
            else:
                result = set()
                for m in common:
                    result |= terminals(
                        _remove_exposed_caret(neg, m),
                        _remove_exposed_caret(pos, m),
                        seen,
                    )
            seen[key] = result
            return result

        rng = random.Random(7)

        def rand_tree(carets):
            if carets == 0:
                return LEAF
            left = rng.randrange(carets)
            return caret(rand_tree(left), rand_tree(carets - 1 - left))

        def split_leaf(t, n, sub):
            return expand_leaves(t, [(n, 1, sub)])

        for _ in range(120):
            base = reduce_pair(TreePair(rand_tree(3), rand_tree(3)))
            neg, pos = base.neg, base.pos
            while caret_count(neg) < 6:
                n = rng.randrange(neg.leaves)
                sub = rand_tree(rng.randint(1, 2))
                neg, pos = split_leaf(neg, n, sub), split_leaf(pos, n, sub)
            outcomes = terminals(neg, pos, {})
            assert len(outcomes) == 1
            only = outcomes.pop()
            assert TreePair(*only) == reduce_pair(TreePair(neg, pos))


class TestAddresses:
    def test_subtree_at(self):
        assert subtree_at(LL, "") == LL
        a, b = LL, RIGHT_COMB_2
        assert subtree_at(caret(a, b), "1") == b
        assert subtree_at(caret(LEFT_COMB_2, LEAF), "00") == LL

    def test_subtree_at_errors(self):
        with pytest.raises(ValueError):
            subtree_at(LL, "00")
        with pytest.raises(ValueError):
            subtree_at(LL, "2")

    def test_graft_at(self):
        assert graft_at(LL, "") == LL
        assert graft_at(LEAF, "1") == LL
        assert caret_count(graft_at(LEFT_COMB_2, "11")) == 2 + 2

    @given(trees(max_leaves=6), st.text(alphabet="01", max_size=5))
    def test_graft_then_subtree_roundtrip(self, t, address):
        grafted = graft_at(t, address)
        assert subtree_at(grafted, address) == t
        assert caret_count(grafted) == caret_count(t) + len(address)


class TestRightSubtree:
    def test_examples(self):
        assert right_subtree_of_root_empty(LL) is True
        assert right_subtree_of_root_empty(RIGHT_COMB_2) is False

    def test_leaf_rejected(self):
        with pytest.raises(ValueError):
            right_subtree_of_root_empty(LEAF)

    def test_pos_tree_of_z_cubed(self):
        g = power(el("x0 x1^-1"), 3)
        assert right_subtree_of_root_empty(g.pair.pos) is False
        # the right child of the root has an empty right subtree instead,
        # which is what makes the element commute with the clone at "11"
        assert g.pair.pos.right.right == LEAF
        assert g.pair.neg.right.right == LEAF


class TestRefinementHelpers:
    @given(trees(), trees())
    def test_union_contains_both(self, a, b):
        assert_growths_agree(a, b)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(64, 400), st.integers(0, 400), st.randoms(use_true_random=False))
    def test_large_trees_agree_with_dense_reference(self, n, m, rng):
        # over 64 leaves, expand_leaves rebuilds on its own stack
        a, b = random_tree(rng, n), random_tree(rng, m)
        assert_growths_agree(a, b)
        assert_growths_agree(b, a)

    @settings(deadline=None)
    @given(trees(), st.randoms(use_true_random=False))
    def test_refinement_shares_unchanged_subtrees(self, a, rng):
        assert leaf_growths(a, a) == ([], [])
        spans = [(n, 1, random_tree(rng, rng.randint(1, 4)))
                 for n in range(a.leaves) if rng.random() < 0.5]
        u = expand_leaves(a, spans)
        for ga, gb in (assert_growths_agree(a, u), assert_growths_agree(u, a)[::-1]):
            assert gb == [] and len(ga) == len(spans)
            assert all(got[0] == n and got[2] is sub for got, (n, _, sub) in zip(ga, spans))
        assert union_tree(u, a) is u
        assert expand_leaves(a, []) is a

    def test_shared_subtrees_are_not_entered(self):
        class Sealed(Tree):  # a caret whose children no walk may read
            __slots__ = ()
            left = property(lambda self: pytest.fail("walked into a shared subtree"))

        shared = Sealed(LL, LL)
        a, b = caret(shared, LEAF), caret(shared, LL)
        assert leaf_growths(a, b) == ([(4, 1, LL)], [])
        assert leaf_growths(b, a) == ([], [(4, 1, LL)])

    def test_deep_trees_compare_without_recursion(self):
        # far deeper than the default recursion limit
        left, right, other = LEFT_COMB_2, LEFT_COMB_2, RIGHT_COMB_2
        for _ in range(5000):
            left, right, other = caret(left, LEAF), caret(right, LEAF), caret(other, LEAF)
        assert left == right and left is not right
        assert left != other  # same size; they differ only at the bottom

    def test_expand_range_errors(self):
        with pytest.raises(ValueError):
            expand_leaves(LL, [(2, 1, LL)])  # LL has leaves 0 and 1
        with pytest.raises(ValueError):
            expand_leaves(LL, [(0, 1, LL), (5, 1, LL)])
        with pytest.raises(ValueError):
            expand_leaves(LL, [(-1, 1, LL)])
        assert expand_leaves(LL, [(1, 1, LL)]) == RIGHT_COMB_2


class TestLocalCancellation:
    @settings(max_examples=100, deadline=None)
    @given(factor_pairs())
    def test_random_products_agree_with_dense_reference(self, factors):
        assert_product_agrees(*factors)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["x0", "x1", "x0 x1^-1"]), st.integers(0, 150),
           st.sampled_from(["x0", "x1", "x0 x1^-1"]), st.integers(-150, 150))
    def test_deep_combs_agree_with_dense_reference(self, u, j, v, k):
        assert_product_agrees(power(el(u), j), power(el(v), k))

    def test_generator_products_over_the_ball_agree(self, ball9):
        gens = [generator(0), inverse(generator(0)), generator(1), inverse(generator(1))]
        for g in within(ball9, 5):
            for h in gens:
                assert_product_agrees(g, h)

    def test_long_cascade_takes_linear_time(self, default_recursion_limit):
        # one hit, then each of the 4096 carets above it cancels in turn
        a, b = power(generator(0), 4096), power(generator(0), -4096)
        assert detected_hits(a, b) == ([0], [0])
        start = time.perf_counter()
        assert multiply(a, b).is_identity
        assert time.perf_counter() - start < 1.0

    def test_deep_combs_multiply_at_the_default_recursion_limit(self, default_recursion_limit):
        left = right = LEAF
        for _ in range(5000):
            left, right = caret(left, LEAF), caret(LEAF, right)
        a = GroupElement(TreePair(left, right))
        b = GroupElement.from_pair(TreePair(right, random_tree(random.Random(3), 5000)))
        for u, v in ((a, b), (b, a), (a, a), (a, inverse(a))):
            assert multiply(multiply(u, v), inverse(v)) == u
        assert multiply(a, inverse(a)).is_identity
        assert multiply(b, inverse(b)).is_identity

    def test_many_hits_take_linear_time(self, default_recursion_limit):
        # a.pos is (LL, (LL, ...)) over a right comb: 2,000 hits in a a^-1
        pos, neg = LEAF, LEAF
        for _ in range(2000):
            pos = caret(LL, pos)
        for _ in range(4000):
            neg = caret(LEAF, neg)
        a = GroupElement(TreePair(neg, pos))
        assert detected_hits(a, inverse(a)) == (list(range(0, 4000, 2)),) * 2
        start = time.perf_counter()
        assert multiply(a, inverse(a)).is_identity
        assert time.perf_counter() - start < 1.0


class TestSerialization:
    def test_format_examples(self):
        assert format_tree(LEFT_COMB_2) == "((L L) L)"
        assert format_pair(TreePair(LEAF, LEAF)) == "L | L"
        assert format_pair(el("x0").pair) == "(L (L L)) | ((L L) L)"

    def test_reprs(self):
        assert repr(el("x0").pair) == "TreePair[(L (L L)) | ((L L) L)]"
        assert repr(LEFT_COMB_2) == "Tree[((L L) L)]"

    def test_tree_equality_defers_to_other_types(self):
        assert LEAF.__eq__("L") is NotImplemented
        assert LEAF != "L"

    @given(trees())
    def test_roundtrip(self, t):
        assert parse_tree(format_tree(t)) == t

    @given(tree_pairs())
    def test_pair_roundtrip(self, pair):
        assert parse_pair(format_pair(pair)) == pair

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_tree("(L L")
        assert err.value.position == 4
        with pytest.raises(ParseError) as err:
            parse_tree("(LL)")
        assert err.value.position == 2
        with pytest.raises(ParseError) as err:
            parse_tree("X")
        assert err.value.position == 0

    def test_parse_rejects_short_and_trailing_text(self):
        for text, message in [("", "unexpected end of input (position 0)"),
                              ("(L ", "unexpected end of input (position 3)"),
                              ("L L", "trailing input after tree (position 1)")]:
            with pytest.raises(ParseError) as err:
                parse_tree(text)
            assert str(err.value) == message
        with pytest.raises(ParseError) as err:
            parse_pair("L")
        assert str(err.value) == "expected ' | ' between the two trees (position 1)"

    def test_deep_pairs_serialize(self, default_recursion_limit):
        pair = power(generator(0), 1500).pair  # 1501 carets, leaf 0 of pos at depth 1501
        text = format_pair(pair)
        assert text.count("(") == 2 * 1501
        assert parse_pair(text) == pair
        assert pair_to_dot(pair).count(" -> ") == 2 * 2 * 1501
        assert format_tree(pair.pos).startswith("(" * 1501 + "L")

    def test_dot_export(self):
        dot = tree_to_dot(LEFT_COMB_2, "pos")
        assert dot.startswith("digraph pos {")
        assert '"n" [label="root"];' in dot
        assert '"n00" [label="00 #0"];' in dot
        assert '"n" -> "n0";' in dot
        both = pair_to_dot(el("x0").pair)
        assert "digraph neg {" in both and "digraph pos {" in both
