import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thompsonf import (
    GroupElement,
    TreePair,
    address_interval,
    clone_map,
    commutator_is_trivial,
    embed_f_z,
    embed_product,
    generator,
    graft_at,
    identity,
    inverse,
    is_prefix_free,
    is_reduced,
    multiply,
    power,
    right_subtree_claims,
    right_subtree_of_root_empty,
    shift,
    z_generator,
)
from thompsonf import embeddings as embeddings_module
from thompsonf import group as group_module
from thompsonf import trees as trees_module
from thompsonf.metric import random_element

from conftest import el, elements


def intervals_disjoint(a, b):
    return a[1] <= b[0] or b[1] <= a[0]


addresses = st.text(alphabet="01", max_size=5)


def reference_embed_f_z(w, t):
    """The F x Z image the algebraic way: a clone times a power."""
    return multiply(clone_map("11", w), power(z_generator(0), t))


def reference_embed_product(addrs, f_factors, z_factors):
    """The F^m x Z^n image the algebraic way: a product of clones and powers."""
    acc = identity()
    for address, w in zip(addrs, f_factors):
        acc = multiply(acc, clone_map(address, w))
    for i, t in enumerate(z_factors):
        acc = multiply(acc, power(clone_map(addrs[-1], z_generator(i)), t))
    return acc


@st.composite
def prefix_free_addresses(draw):
    """1-4 pairwise prefix-free addresses in random order."""
    kept = []
    for a in draw(st.lists(addresses, min_size=1, max_size=4)):
        if not any(a.startswith(b) or b.startswith(a) for b in kept):
            kept.append(a)
    return tuple(kept)


def skeleton_carets(addrs):
    """Carets of the minimal tree with a node at every address."""
    return len({a[:k] for a in addrs for k in range(len(a))})


# the address sets of the four specs perfbench's sweep workload runs
PERFBENCH_ADDRESSES = [("11",), ("0", "11"), ("0", "10", "11"), ("00", "01", "1")]
EDGE_ADDRESSES = PERFBENCH_ADDRESSES + [("",), ("1", "00", "011", "010")]
factors = st.one_of(st.just(identity()), elements(max_carets=5))
heights = st.integers(-4, 4)


def incomparable_pair(rng, max_len=4):
    while True:
        a = "".join(rng.choice("01") for _ in range(rng.randint(1, max_len)))
        b = "".join(rng.choice("01") for _ in range(rng.randint(1, max_len)))
        if not (a.startswith(b) or b.startswith(a)):
            return a, b


class TestShift:
    def test_examples(self):
        assert shift(generator(0), 1) == generator(1)
        assert shift(generator(0), 2) == generator(2)
        assert shift(generator(1), 2) == generator(3)

    def test_caret_growth(self):
        rng = random.Random(2)
        for _ in range(100):
            w = random_element(rng, 9, nontrivial=True)
            assert shift(w, 2).caret_count == w.caret_count + 2

    @given(elements(max_carets=6))
    def test_matches_normal_form_shift(self, g):
        assert clone_map("1", g).normal_form() == g.normal_form().shift(1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            shift(generator(0), -1)


class TestCloneMap:
    def test_root_address_is_identity_map(self):
        g = el("x0 x1^-1")
        assert clone_map("", g) == g

    def test_clone_11_sends_x0_to_x2(self):
        assert clone_map("11", generator(0)) == generator(2)

    def test_identity_maps_to_identity(self):
        assert clone_map("0110", identity()) == identity()

    def test_left_clone_supported_on_left_half(self):
        g = clone_map("0", generator(0))
        assert right_subtree_of_root_empty(g.pair.neg)
        assert right_subtree_of_root_empty(g.pair.pos)
        assert address_interval("0") == (Fraction(0), Fraction(1, 2))

    def test_homomorphism_on_samples(self):
        rng = random.Random(23)
        for _ in range(1000):
            s = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
            a, b = random_element(rng, 6), random_element(rng, 6)
            assert clone_map(s, multiply(a, b)) == multiply(
                clone_map(s, a), clone_map(s, b)
            )

    def test_injective_on_samples(self):
        rng = random.Random(29)
        seen = {}
        for _ in range(300):
            g = random_element(rng, 7)
            image = clone_map("10", g)
            if image in seen:
                assert seen[image] == g
            seen[image] = g

    def test_caret_additivity(self):
        rng = random.Random(31)
        for _ in range(200):
            s = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
            g = random_element(rng, 8, nontrivial=True)
            assert clone_map(s, g).caret_count == g.caret_count + len(s)

    def test_bad_address_rejected(self):
        with pytest.raises(ValueError):
            clone_map("012", generator(0))
        with pytest.raises(ValueError):
            clone_map("2", identity())

    @given(addresses, elements(max_carets=10))
    def test_clone_is_reduced_without_reduction(self, s, g):
        image = clone_map(s, g)
        assert is_reduced(image.pair)
        grafted = TreePair(graft_at(g.pair.neg, s), graft_at(g.pair.pos, s))
        assert image == GroupElement.from_pair(grafted)

    def test_clone_skips_reduce_pair(self, monkeypatch):
        calls, real = [], group_module.reduce_pair

        def counting(pair):
            calls.append(1)
            return real(pair)

        monkeypatch.setattr(group_module, "reduce_pair", counting)
        g = el("x0^2 x3 x1^-1")
        image = clone_map("0110", g)
        assert calls == []
        assert image.caret_count == g.caret_count + 4
        assert clone_map("0110", identity()) == identity()
        assert calls == []


class TestPrefixSets:
    def test_examples(self):
        assert is_prefix_free(("0", "10", "11"))
        assert not is_prefix_free(("1", "11"))
        assert not is_prefix_free(("", "0"))
        assert is_prefix_free(())
        assert is_prefix_free(("",))

    @given(st.lists(addresses, max_size=5))
    def test_matches_pairwise_definition(self, addrs):
        pairwise = all(not (a.startswith(b) or b.startswith(a))
                       for i, a in enumerate(addrs) for b in addrs[i + 1:])
        assert is_prefix_free(addrs) == pairwise

    def test_interval_examples(self):
        assert address_interval("") == (Fraction(0), Fraction(1))
        assert address_interval("11") == (Fraction(3, 4), Fraction(1))
        assert intervals_disjoint(address_interval("0"), address_interval("11"))

    @given(addresses, addresses)
    def test_disjoint_iff_prefix_incomparable(self, a, b):
        incomparable = not (a.startswith(b) or b.startswith(a))
        assert intervals_disjoint(address_interval(a), address_interval(b)) == incomparable

    def test_disjoint_supports_commute(self):
        rng = random.Random(37)
        for _ in range(300):
            a_addr, b_addr = incomparable_pair(rng)
            a = clone_map(a_addr, random_element(rng, 5))
            b = clone_map(b_addr, random_element(rng, 5))
            assert commutator_is_trivial(a, b)


class TestZGenerators:
    def test_first_two(self):
        assert z_generator(0) == el("x0 x1^-1")
        assert z_generator(1) == el("x2 x3^-1")

    def test_are_shifted_copies(self):
        for i in range(4):
            assert z_generator(i) == clone_map("1" * (2 * i), z_generator(0))

    def test_pairwise_commute(self):
        for i in range(5):
            for j in range(i + 1, 5):
                assert commutator_is_trivial(z_generator(i), z_generator(j))

    def test_power_caret_counts_measured(self):
        # measured: N(z_i^t) = t + 2 + 2i for t >= 1, so consecutive powers
        # differ by exactly one caret; the naive N(z_i) + t overshoots by one
        for i in range(3):
            for t in range(1, 7):
                n = power(z_generator(i), t).caret_count
                assert n == t + 2 + 2 * i
            assert z_generator(i).caret_count + 1 != power(z_generator(i), 1).caret_count


class TestFxZEmbedding:
    def test_identity_cases(self):
        assert embed_f_z(identity(), 0) == identity()
        for k in (1, 4, 9):
            img = embed_f_z(identity(), k)
            assert img == power(el("x0 x1^-1"), k)
            assert img.caret_count == k + 2

    def test_caret_arithmetic(self):
        rng = random.Random(41)
        for _ in range(300):
            w = random_element(rng, 10, nontrivial=True)
            t = rng.randint(1, 9)
            assert embed_f_z(w, t).caret_count == w.caret_count + t + 2

    def test_negative_heights(self):
        rng = random.Random(43)
        for _ in range(100):
            w = random_element(rng, 8, nontrivial=True)
            t = rng.randint(1, 6)
            assert embed_f_z(w, -t).caret_count == w.caret_count + t + 2

    def test_homomorphism_on_samples(self):
        rng = random.Random(47)
        for _ in range(300):
            w1, w2 = random_element(rng, 6), random_element(rng, 6)
            t1, t2 = rng.randint(-5, 5), rng.randint(-5, 5)
            assert embed_f_z(multiply(w1, w2), t1 + t2) == multiply(
                embed_f_z(w1, t1), embed_f_z(w2, t2)
            )


class TestProductEmbedding:
    def test_trivial_input(self):
        assert embed_product(("0", "11"), (identity(),), (0,)) == identity()

    def test_pure_z_at_root(self):
        for t in (-3, 1, 5):
            assert embed_product(("",), (), (t,)) == power(el("x0 x1^-1"), t)

    def test_small_mixed_example(self):
        img = embed_product(("0", "11"), (generator(0),), (1,))
        # one caret of the two clone spines is shared at the root
        assert img.caret_count == 7

    def test_factor_order_independence(self):
        rng = random.Random(53)
        addrs = ("00", "01", "1")
        for _ in range(100):
            ws = [random_element(rng, 5) for _ in range(2)]
            ts = [rng.randint(-4, 4), rng.randint(-4, 4)]
            img = embed_product(addrs, ws, ts)
            pieces = [
                clone_map(addrs[0], ws[0]),
                clone_map(addrs[1], ws[1]),
                power(clone_map(addrs[2], z_generator(0)), ts[0]),
                power(clone_map(addrs[2], z_generator(1)), ts[1]),
            ]
            order = list(range(4))
            rng.shuffle(order)
            prod = identity()
            for k in order:
                prod = multiply(prod, pieces[k])
            assert prod == img

    def test_homomorphism_on_samples(self):
        rng = random.Random(59)
        addrs = ("0", "11")
        for _ in range(200):
            w1, w2 = random_element(rng, 5), random_element(rng, 5)
            t1, t2 = rng.randint(-4, 4), rng.randint(-4, 4)
            lhs = embed_product(addrs, (multiply(w1, w2),), (t1 + t2,))
            rhs = multiply(
                embed_product(addrs, (w1,), (t1,)),
                embed_product(addrs, (w2,), (t2,)),
            )
            assert lhs == rhs

    def test_prefix_violation_rejected(self):
        with pytest.raises(ValueError):
            embed_product(("1", "11"), (generator(0),), (1,))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            embed_product(("0", "11"), (generator(0), generator(1)), ())


class TestDirectConstruction:
    """The grafted image pair against the clone/power/multiply route."""

    @given(factors, heights)
    def test_f_z_matches_reference(self, w, t):
        image = embed_f_z(w, t)
        assert is_reduced(image.pair)
        assert image == reference_embed_f_z(w, t)

    @given(st.one_of(st.sampled_from(EDGE_ADDRESSES), prefix_free_addresses()),
           st.data())
    def test_product_matches_reference(self, addrs, data):
        m = len(addrs) - 1
        fs = data.draw(st.lists(factors, min_size=m, max_size=m))
        zs = data.draw(st.lists(heights, max_size=3))
        image = embed_product(addrs, fs, zs)
        assert is_reduced(image.pair)
        assert image == reference_embed_product(addrs, fs, zs)

    def test_edge_cases_match_reference(self):
        # identity factors, t = 0 inside and outside, negative t, n = 0..3
        rng = random.Random(67)
        for addrs in EDGE_ADDRESSES:
            for zs in [(), (0,), (-2,), (3, 0), (0, -1), (2, -3, 1)]:
                for trivial in (False, True):
                    fs = [random_element(rng, 6, nontrivial=True) for _ in addrs[1:]]
                    if trivial and fs:
                        fs[-1] = identity()
                    image = embed_product(addrs, fs, zs)
                    assert is_reduced(image.pair)
                    assert image == reference_embed_product(addrs, fs, zs)
        for t in (-3, 0, 2):
            assert embed_f_z(identity(), t) == reference_embed_f_z(identity(), t)

    def test_caret_count_closed_form(self):
        # every part nontrivial: skeleton + sum N(w_i) + sum (|t_i| + 2)
        rng = random.Random(71)
        for addrs in EDGE_ADDRESSES:
            for _ in range(30):
                fs = [random_element(rng, 8, nontrivial=True) for _ in addrs[1:]]
                zs = [rng.choice((-1, 1)) * rng.randint(1, 6)
                      for _ in range(rng.randint(1, 3))]
                expected = (skeleton_carets(addrs)
                            + sum(w.caret_count for w in fs)
                            + sum(abs(t) + 2 for t in zs))
                assert embed_product(addrs, fs, zs).caret_count == expected
        assert skeleton_carets(("0", "11")) + generator(0).caret_count + 3 == 7

    def test_embedding_makes_no_products_and_no_reduction(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("product or reduction on the embedding path")

        for name in ("multiply", "power", "clone_map"):
            monkeypatch.setattr(embeddings_module, name, forbidden)
        monkeypatch.setattr(group_module, "reduce_pair", forbidden)
        w = el("x0^2 x3 x1^-1")
        cases = [(("00", "01", "1"), (w, identity()), (2, 0, -1)),
                 (("0", "11"), (identity(),), (0,)),
                 (("0", "10", "11"), (w, w), ())]
        images = [embed_product(*case) for case in cases]
        fz = [embed_f_z(w, -3), embed_f_z(identity(), 0), embed_f_z(w, 0)]
        monkeypatch.undo()
        assert images == [reference_embed_product(*case) for case in cases]
        assert fz == [reference_embed_f_z(w, -3), identity(),
                      reference_embed_f_z(w, 0)]

    def test_each_address_validated_once(self, monkeypatch):
        calls, real = [], trees_module.validate_address

        def counting(address):
            calls.append(address)
            return real(address)

        monkeypatch.setattr(embeddings_module, "validate_address", counting)
        monkeypatch.setattr(trees_module, "validate_address", counting)
        embed_product(("0", "10", "11"), (generator(0), generator(1)), (1,))
        assert sorted(calls) == ["0", "10", "11"]

    def test_3000_bit_address(self, default_recursion_limit):
        addrs = ("00", "01" * 1500, "1")
        w = el("x1 x0^-1")
        image = embed_product(addrs, (generator(0), w), (2,))
        assert is_reduced(image.pair)
        # the skeleton is the 3,000 carets on the path to the deep address
        assert image.caret_count == 3000 + 2 + w.caret_count + 4
        assert image == reference_embed_product(addrs, (generator(0), w), (2,))
        trivial = embed_product(addrs, (generator(0), identity()), (2,))
        assert trivial == reference_embed_product(
            addrs, (generator(0), identity()), (2,))


class TestRightSubtreeClaims:
    def test_positive_hypothesis_holds(self):
        # x0^2 x1: largest non-leading index 1 < r0 = 2
        g = el("x0^2 x1")
        claims = right_subtree_claims(g.normal_form())
        assert claims == (True, None)
        assert right_subtree_of_root_empty(g.pair.pos)

    def test_vacuous_for_x0(self):
        assert right_subtree_claims(el("x0").normal_form()) == (None, None)

    def test_z_powers_fail_the_formal_hypothesis(self):
        # x0^k x_k^-1 ... x1^-1: the sum of earlier negative exponents is
        # k - 1, so the hypothesis k < k - 1 fails and nothing is claimed;
        # consistently, the negative tree's root has a nonempty right subtree
        for k in (3, 5):
            g = power(el("x0 x1^-1"), k)
            assert right_subtree_claims(g.normal_form()) == (None, None)
            assert not right_subtree_of_root_empty(g.pair.neg)

    def test_negative_hypothesis_mirror(self):
        g = inverse(el("x0^2 x1"))
        claims = right_subtree_claims(g.normal_form())
        assert claims == (None, True)
        assert right_subtree_of_root_empty(g.pair.neg)

    def test_claims_agree_with_trees_on_samples(self):
        rng = random.Random(61)
        met = 0
        for _ in range(2000):
            g = random_element(rng, 9)
            if g.is_identity:
                continue
            pos_claim, neg_claim = right_subtree_claims(g.normal_form())
            if pos_claim:
                met += 1
                assert right_subtree_of_root_empty(g.pair.pos)
            if neg_claim:
                met += 1
                assert right_subtree_of_root_empty(g.pair.neg)
        assert met > 50  # the sample really exercises the hypothesis
