import gc
import random
from itertools import groupby

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thompsonf import (
    GroupElement,
    Letter,
    NormalForm,
    Tree,
    TreePair,
    caret,
    LEAF,
    commutator,
    commutator_is_trivial,
    element_of_word,
    generator,
    identity,
    inverse,
    is_reduced,
    multiply,
    parse_word,
    power,
    rewrite_to_normal_form,
    verify_relators,
    x,
    xinv,
)
from thompsonf import group as group_module
from thompsonf.metric import random_element

from conftest import el, elements, large_elements


def fold_of_runs(word):
    """The reference route: one product per run of k letters x_i^{+-1}, each
    run x_i^{+-k} built by products as power(generator(i), +-k)."""
    acc = identity()
    for letter, run in groupby(word):
        acc = multiply(acc, power(generator(letter.index), letter.sign * sum(1 for _ in run)))
    return acc


class TestBasicLaws:
    def test_identity_laws(self):
        g = el("x0 x1^-1 x0^2")
        assert multiply(g, identity()) == g
        assert multiply(identity(), g) == g

    def test_inverse_law(self):
        g = el("x1 x0^-1 x1")
        assert multiply(g, inverse(g)) == identity()
        assert multiply(inverse(g), g) == identity()

    def test_repr_names_the_normal_form(self):
        assert repr(generator(0)) == "GroupElement('x0')"
        assert repr(identity()) == "GroupElement(identity)"

    def test_inverse_examples(self):
        assert inverse(identity()) == identity()
        assert inverse(generator(0)).normal_form() == NormalForm((), ((0, 1),))

    @given(elements(max_carets=6))
    def test_inverse_involution_and_caret_symmetry(self, g):
        assert inverse(inverse(g)) == g
        assert inverse(g).caret_count == g.caret_count

    def test_inverse_of_z_power(self):
        z, k = el("x0 x1^-1"), 5
        assert inverse(power(z, k)) == power(el("x1 x0^-1"), k)
        assert power(z, k).caret_count == power(el("x1 x0^-1"), k).caret_count

    @given(elements(max_carets=5), elements(max_carets=5))
    def test_product_is_reduced(self, a, b):
        assert is_reduced(multiply(a, b).pair)

    def test_unreduced_pair_rejected(self):
        t = caret(LEAF, LEAF)
        with pytest.raises(ValueError):
            GroupElement(TreePair(t, t))


class TestPinnedRelation:
    def test_conjugation_relation(self):
        x0, x1 = generator(0), generator(1)
        assert multiply(multiply(inverse(x0), x1), x0) == generator(2)

    def test_relation_x3_x5(self):
        lhs = multiply(multiply(inverse(generator(3)), generator(5)), generator(3))
        assert lhs == generator(6)

    def test_verify_relators(self):
        report = verify_relators()
        assert report.passed
        assert report.failures == ()
        # two finite relators plus the sampled relations for 0 <= i < j <= 8
        assert len(report.entries) == 2 + 9 * 8 // 2


class TestPowers:
    def test_power_zero_and_negative(self):
        g = el("x0 x1")
        assert power(g, 0) == identity()
        assert power(g, -3) == inverse(power(g, 3))

    def test_z_power_normal_form(self):
        z = el("x0 x1^-1")
        for k in range(1, 13):
            nf = power(z, k).normal_form()
            assert nf == NormalForm(
                ((0, k),), tuple((i, 1) for i in range(1, k + 1))
            )
            assert power(z, k).caret_count == k + 2

    @pytest.mark.parametrize("k", [1, 2, 3, 12, 200, 255, 256])
    def test_power_squares_only_while_bits_remain(self, k, monkeypatch):
        z, calls = el("x0 x1^-1"), []
        real = group_module.multiply

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(group_module, "multiply", counting)
        assert power(z, k).caret_count == k + 2
        assert len(calls) == k.bit_length() + bin(k).count("1") - 1


class TestCaretLimit:
    def test_power_just_over_the_cap_raises_before_building(self, monkeypatch):
        cap = group_module._MAX_CARETS
        calls = []
        monkeypatch.setattr(group_module, "multiply", lambda a, b: calls.append(1))
        z = el("x0 x1^-1")  # N = 3
        for g, k in [(generator(0), cap // 2 + 1), (z, -(cap // 3 + 1))]:
            with pytest.raises(group_module.CaretLimitError, match="_MAX_CARETS = 1000000"):
                power(g, k)
        assert calls == []

    def test_power_at_a_small_cap(self, monkeypatch):
        # |k| N(a) may reach the cap; one more carets' worth is refused
        monkeypatch.setattr(group_module, "_MAX_CARETS", 12)
        assert power(generator(0), 6).caret_count == 7
        assert power(el("x0 x1^-1"), -4).caret_count == 6
        with pytest.raises(group_module.CaretLimitError, match="power 7 could need 14 carets"):
            power(generator(0), 7)
        assert power(identity(), 10 ** 9) == identity()

    def test_generator_and_normal_form_just_over_the_cap_raise(self, monkeypatch):
        cap = group_module._MAX_CARETS
        monkeypatch.setattr(group_module, "combs", None)  # nothing may be built
        monkeypatch.setattr(group_module, "normal_form_to_tree_pair", None)
        with pytest.raises(group_module.CaretLimitError,
                           match=f"^generator x{cap - 1} could need {cap + 1} carets"):
            generator(cap - 1)
        for nf in [NormalForm(((0, cap),)), NormalForm((), ((0, cap),)),
                   NormalForm(((cap - 1, 1),)), NormalForm(((0, 1),), ((3, cap - 3),))]:
            with pytest.raises(group_module.CaretLimitError,
                               match=f"^normal form could need {cap + 1} carets"):
                GroupElement.from_normal_form(nf)

    def test_generator_and_normal_form_at_a_small_cap(self, monkeypatch):
        # both bounds are met: x_i has i + 2 carets and x0^k has k + 1
        monkeypatch.setattr(group_module, "_MAX_CARETS", 12)
        assert generator(10).caret_count == 12
        assert GroupElement.from_normal_form(NormalForm(((0, 11),))).caret_count == 12
        assert GroupElement.from_normal_form(NormalForm((), ((10, 1),))).caret_count == 12
        assert GroupElement.from_normal_form(NormalForm()) == identity()
        with pytest.raises(group_module.CaretLimitError):
            generator(11)
        with pytest.raises(group_module.CaretLimitError):
            GroupElement.from_normal_form(NormalForm(((0, 12),)))


class TestDeepElements:
    def test_power_of_x0_4096(self, default_recursion_limit):
        g = power(generator(0), 4096)
        assert g.caret_count == 4097
        assert g.normal_form() == NormalForm(((0, 4096),), ())

    def test_1100_repeated_products(self, default_recursion_limit):
        x0, acc = generator(0), identity()
        for _ in range(1100):
            acc = multiply(acc, x0)
        assert acc == power(x0, 1100)
        assert multiply(acc, inverse(acc)) == identity()


class TestCommutators:
    def test_identity_commutes(self):
        assert commutator_is_trivial(el("x0 x1"), identity())

    def test_clone_commutes_with_z_powers(self):
        z5 = power(el("x0 x1^-1"), 5)
        assert commutator_is_trivial(generator(2), z5)
        assert commutator_is_trivial(generator(3), z5)

    def test_group_is_not_abelian(self):
        assert not commutator_is_trivial(generator(0), generator(1))
        assert not commutator(generator(0), generator(1)).is_identity


class TestBulkAlgebra:
    def test_associativity_on_random_triples(self):
        rng = random.Random(17)
        for _ in range(10_000):
            a = random_element(rng, 10)
            b = random_element(rng, 10)
            c = random_element(rng, 10)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_normal_form_compatibility_up_to_length_six(self):
        # tree-route products of all split points agree with the rewriting
        # oracle on every word over x0, x1 and inverses of length <= 6
        letters = (x(0), xinv(0), x(1), xinv(1))
        table = {(): identity()}
        frontier = [()]
        for _ in range(6):
            nxt = []
            for word in frontier:
                base = table[word]
                for letter in letters:
                    new = word + (letter,)
                    g = generator(letter.index)
                    table[new] = multiply(base, g if letter.sign > 0 else inverse(g))
                    nxt.append(new)
            frontier = nxt
        assert len(table) == (4 ** 7 - 1) // 3
        for word, g in table.items():
            assert g.normal_form() == rewrite_to_normal_form(word)
            for cut in range(1, len(word)):
                assert multiply(table[word[:cut]], table[word[cut:]]) == g


class TestWordRoute:
    def test_element_of_word_examples(self):
        assert element_of_word((x(1), x(0))).normal_form() == NormalForm(((0, 1), (2, 1)), ())
        assert element_of_word((x(0), xinv(0))) == identity()

    TEXTS = ["x0^3000", "x0 x1", "x1^-2 x1^-1 x0^2 x0^-1 x3", "x2^5 x2^-5"]

    @pytest.mark.parametrize("text", TEXTS)
    def test_element_of_word_makes_no_products(self, text, monkeypatch):
        def forbidden(a, b):
            raise AssertionError("element_of_word multiplied")

        monkeypatch.setattr(group_module, "multiply", forbidden)
        g = element_of_word(parse_word(text))
        assert g.normal_form() == rewrite_to_normal_form(parse_word(text))

    @pytest.mark.parametrize("text", TEXTS)
    def test_element_of_word_equals_the_fold_of_run_products(self, text):
        assert element_of_word(parse_word(text)) == fold_of_runs(parse_word(text))

    @settings(max_examples=200, deadline=None)
    @given(runs=st.lists(st.tuples(st.integers(0, 5), st.sampled_from((1, -1, -1)),
                                   st.integers(1, 3) | st.integers(1, 40)), max_size=16))
    def test_element_of_word_equals_letter_products_and_rewriting(self, runs):
        word = tuple(Letter(i, sign) for i, sign, k in runs for _ in range(k))
        g = element_of_word(word)
        acc = identity()
        for letter in word:
            acc = multiply(acc, generator(letter.index) if letter.sign > 0
                           else inverse(generator(letter.index)))
        assert g == acc
        assert g.normal_form() == rewrite_to_normal_form(word)

    @pytest.mark.parametrize("text, nf", [
        ("x0^100000", NormalForm(((0, 100_000),))),
        ("x10000^90000", NormalForm(((10_000, 90_000),))),
        # x_n ... x_1 = x_1 x_3 ... x_{2n-1}, by x_j x_i = x_i x_{j+1} for i < j
        (" ".join(f"x{i}" for i in range(1000, 0, -1)),
         NormalForm(tuple((2 * i + 1, 1) for i in range(1000)))),
        ("x0^50000 x0^-50000", NormalForm()),
    ], ids=["x0^100000", "x10000^90000", "x1000...x1", "x0^50000 x0^-50000"])
    def test_deep_words(self, default_recursion_limit, text, nf):
        assert element_of_word(parse_word(text)).normal_form() == nf

    def test_str_shows_normal_form(self):
        assert str(el("x1 x0")) == "x0 x2"
        assert str(identity()) == ""


class TestOneConstruction:
    """Every x_i^k is the comb pair of |k| + 1 carets under i right carets."""

    @pytest.mark.parametrize("i", [0, 1, 2, 7, 70])
    def test_runs_equal_their_normal_form_elements(self, i):
        # 62..66 straddle the comb table's 64 carets; 100 grows on past it
        for k in (1, 2, 3, 62, 63, 64, 65, 66, 100):
            expected = GroupElement.from_normal_form(NormalForm(((i, k),), ()))
            assert element_of_word((x(i),) * k) == expected
            assert element_of_word((xinv(i),) * k) == inverse(expected)
        assert generator(i) == element_of_word((x(i),))

    def test_negative_generator_index_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            generator(-1)

    def test_long_word_keeps_no_generators_alive(self):
        def live_trees():
            gc.collect()
            return sum(1 for obj in gc.get_objects() if type(obj) is Tree)

        word = tuple(x(i) for i in range(300, 0, -1))
        before = live_trees()
        g = element_of_word(word)
        # the 601-caret result and transients; a cache of x_1..x_300 held 92,399
        assert live_trees() - before < 2000
        assert g.normal_form() == rewrite_to_normal_form(word)


LARGE = settings(max_examples=5, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture,
                                        HealthCheck.too_slow,
                                        HealthCheck.data_too_large])


class TestLargeElements:
    """Words of up to 2,000 letters and caterpillar pairs of up to 5,000
    carets, at Python's default recursion limit."""

    @LARGE
    @given(large_elements(), large_elements(), large_elements())
    def test_associativity(self, default_recursion_limit, a, b, c):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    @LARGE
    @given(large_elements())
    def test_inverses(self, default_recursion_limit, g):
        assert multiply(g, inverse(g)) == identity() == multiply(inverse(g), g)

    @LARGE
    @given(large_elements())
    def test_normal_form_round_trip(self, default_recursion_limit, g):
        assert GroupElement.from_normal_form(g.normal_form()) == g
