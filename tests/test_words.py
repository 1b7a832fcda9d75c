import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from thompsonf import (
    LEAF,
    GroupElement,
    element_of_word,
    is_reduced,
    NormalForm,
    ParseError,
    TreePair,
    caret,
    format_word,
    graft_at,
    leaf_exponents,
    normal_form_to_tree_pair,
    parse_word,
    power,
    reduce_pair,
    rewrite_to_normal_form,
    tree_pair_to_normal_form,
    word_inverse,
    x,
    xinv,
)
from thompsonf import group as group_module
from thompsonf import words as words_module
from thompsonf.metric import random_element

from conftest import el, elements, tree_pairs


@st.composite
def normal_forms(draw):
    part = st.dictionaries(st.integers(0, 12), st.integers(1, 4), max_size=6)
    pos, neg = draw(part), draw(part)
    assume(all(i + 1 in pos or i + 1 in neg for i in pos.keys() & neg.keys()))
    return NormalForm(tuple(sorted(pos.items())), tuple(sorted(neg.items())))


class TestParsing:
    def test_examples(self):
        assert parse_word("x0 x1^-1") == (x(0), xinv(1))
        assert parse_word("") == ()
        assert parse_word("x2^3") == (x(2), x(2), x(2))

    def test_zero_exponent_drops_term(self):
        assert parse_word("x3^0") == ()

    def test_negative_exponent_expands(self):
        assert parse_word("x1^-2") == (xinv(1), xinv(1))

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_word("x1 y0")
        assert err.value.position == 3
        with pytest.raises(ParseError) as err:
            parse_word("x")
        assert err.value.position == 0
        with pytest.raises(ParseError) as err:
            parse_word("x1^")
        assert err.value.position == 0

    def test_limits_are_named_and_checked_before_expansion(self, monkeypatch):
        assert len(parse_word(f"x0^{words_module._MAX_LETTERS}")) == words_module._MAX_LETTERS
        assert parse_word(f"x{words_module._MAX_INDEX}") == (x(words_module._MAX_INDEX),)
        built, letter = [], words_module.Letter
        monkeypatch.setattr(words_module, "Letter",
                            lambda index, sign: built.append(index) or letter(index, sign))
        digits = "1" * 4301  # past the length Python's int() converts
        cases = [(f"x{words_module._MAX_INDEX + 1}", "_MAX_INDEX", 0),
                 (f"x1 x0^{words_module._MAX_LETTERS}", "_MAX_LETTERS", 3),
                 (f"x0^-{words_module._MAX_LETTERS + 1}", "_MAX_LETTERS", 0),
                 (f"x1 x{digits}", "_MAX_INDEX", 3),
                 (f"x{'0' * 4300}{digits}", "_MAX_INDEX", 0),
                 (f"x0^{digits}", "_MAX_LETTERS", 0),
                 (f"x1 x0^-{digits}", "_MAX_LETTERS", 3)]
        for text, limit, position in cases:
            built.clear()
            with pytest.raises(words_module.WordLimitError, match=limit) as err:
                parse_word(text)
            assert isinstance(err.value, ParseError)
            assert err.value.position == position
            assert built == ([1] if position else [])

    def test_leading_zeros_do_not_count(self):
        zeros = "0" * 5000
        assert parse_word(f"x{zeros}3^-{zeros}2") == (xinv(3), xinv(3))
        assert parse_word(f"x{zeros}^{zeros}") == ()

    def test_format_groups_runs(self):
        word = (x(0), x(0), x(0), xinv(3), xinv(2))
        assert format_word(word) == "x0^3 x3^-1 x2^-1"
        assert parse_word(format_word(word)) == word

    def test_format_keeps_unreduced_words(self):
        assert format_word((x(0), xinv(0))) == "x0 x0^-1"


class TestNormalFormType:
    def test_validation(self):
        with pytest.raises(ValueError):
            NormalForm(((1, 1), (1, 1)), ())  # repeated index
        with pytest.raises(ValueError):
            NormalForm(((2, 1), (1, 1)), ())  # decreasing indices
        with pytest.raises(ValueError):
            NormalForm(((0, 0),), ())  # zero exponent
        with pytest.raises(ValueError):
            # x1 in both parts but no x2 anywhere
            NormalForm(((1, 1),), ((1, 1),))

    def test_uniqueness_condition_satisfiable(self):
        NormalForm(((1, 1), (2, 1)), ((1, 1),))  # x2 present, fine

    def test_str(self):
        nf = NormalForm(((0, 3),), ((1, 1), (2, 1), (3, 1)))
        assert str(nf) == "x0^3 x3^-1 x2^-1 x1^-1"
        assert str(NormalForm()) == ""

    def test_word_emission_order(self):
        nf = NormalForm(((0, 1), (2, 2)), ((1, 1), (3, 1)))
        assert nf.word() == (x(0), x(2), x(2), xinv(3), xinv(1))

    def test_shift(self):
        nf = NormalForm(((0, 2),), ((1, 1),))
        assert nf.shift(2) == NormalForm(((2, 2),), ((3, 1),))


class TestRewritingOracle:
    def test_defining_relation(self):
        assert rewrite_to_normal_form((xinv(0), x(1), x(0))) == NormalForm(((2, 1),), ())

    def test_positive_swap(self):
        # x2 x1 = x1 x3, one relation application
        assert rewrite_to_normal_form((x(2), x(1))) == NormalForm(((1, 1), (3, 1)), ())

    def test_identity_word(self):
        assert rewrite_to_normal_form(()) == NormalForm()
        assert rewrite_to_normal_form((x(0), xinv(0))) == NormalForm()

    def test_uniqueness_enforcement(self):
        # x1 x3 x1^-1 conjugates down to x2
        assert rewrite_to_normal_form((x(1), x(3), xinv(1))) == NormalForm(((2, 1),), ())

    def test_enforcement_shifts_both_parts(self):
        # x0 x2 x5 x3^-1 x0^-1 -> x1 x4 x2^-1
        word = (x(0), x(2), x(5), xinv(3), xinv(0))
        assert rewrite_to_normal_form(word) == NormalForm(
            ((1, 1), (4, 1)), ((2, 1),)
        )


    def test_step_cap_raises_a_typed_error_naming_it(self, monkeypatch):
        word = (xinv(0), x(1), x(0), x(3), x(2))
        expected = rewrite_to_normal_form(word)
        monkeypatch.setattr(words_module, "_REWRITE_STEP_CAP", 2)
        with pytest.raises(ValueError, match="_REWRITE_STEP_CAP = 2") as info:
            rewrite_to_normal_form(word)
        assert isinstance(info.value, words_module.RewriteLimitError)
        monkeypatch.undo()
        assert rewrite_to_normal_form(word) == expected

    def test_unsorted_block_input_raises_value_error(self):
        assert words_module._blocks([1, 1, 2]) == [[1, 2], [2, 1]]
        with pytest.raises(ValueError, match="not sorted"):
            words_module._blocks([2, 1])


class TestBijection:
    def test_identity(self):
        assert normal_form_to_tree_pair(NormalForm()) == TreePair(LEAF, LEAF)
        assert tree_pair_to_normal_form(TreePair(LEAF, LEAF)) == NormalForm()

    def test_x0_pair(self):
        pair = normal_form_to_tree_pair(NormalForm(((0, 1),), ()))
        assert pair.neg == caret(LEAF, caret(LEAF, LEAF))
        assert pair.pos == caret(caret(LEAF, LEAF), LEAF)
        assert tree_pair_to_normal_form(pair) == NormalForm(((0, 1),), ())

    def test_x1_is_grafted_x0(self):
        x0_pair = normal_form_to_tree_pair(NormalForm(((0, 1),), ()))
        x1_pair = normal_form_to_tree_pair(NormalForm(((1, 1),), ()))
        assert x1_pair == TreePair(
            graft_at(x0_pair.neg, "1"), graft_at(x0_pair.pos, "1")
        )

    def test_z_cubed_pair_reads_back(self):
        g = power(el("x0 x1^-1"), 3)
        assert tree_pair_to_normal_form(g.pair) == NormalForm(
            ((0, 3),), ((1, 1), (2, 1), (3, 1))
        )

    def test_unreduced_pair_rejected(self):
        t = caret(LEAF, LEAF)
        with pytest.raises(ValueError):
            tree_pair_to_normal_form(TreePair(t, t))

    @given(tree_pairs(max_carets=8))
    def test_roundtrip(self, pair):
        reduced = reduce_pair(pair)
        nf = tree_pair_to_normal_form(reduced)
        assert normal_form_to_tree_pair(nf) == reduced

    @given(normal_forms())
    def test_build_then_read_roundtrip(self, nf):
        # tree_pair_to_normal_form also rejects a pair that is not reduced
        assert tree_pair_to_normal_form(normal_form_to_tree_pair(nf)) == nf

    @given(normal_forms())
    def test_element_of_normal_form_roundtrip(self, nf):
        g = GroupElement.from_normal_form(nf)
        assert is_reduced(g.pair)
        assert g.normal_form() == nf

    def test_element_of_normal_form_skips_reducedness_check(self, monkeypatch):
        calls, real = [], group_module.is_reduced

        def counting(pair):
            calls.append(1)
            return real(pair)

        monkeypatch.setattr(group_module, "is_reduced", counting)
        nf = NormalForm(((0, 2), (3, 1)), ((1, 1), (4, 2)))
        g = GroupElement.from_normal_form(nf)
        assert calls == []
        assert g.normal_form() == nf

    @given(tree_pairs(max_carets=8))
    def test_exponent_mass_is_total(self, pair):
        reduced = reduce_pair(pair)
        nf = tree_pair_to_normal_form(reduced)
        assert sum(r for _, r in nf.positive) == sum(leaf_exponents(reduced.pos))
        assert sum(s for _, s in nf.negative) == sum(leaf_exponents(reduced.neg))


class TestOracleAgreement:
    def test_random_infinite_alphabet_words(self):
        rng = random.Random(11)
        for _ in range(1500):
            word = tuple(
                (x if rng.random() < 0.5 else xinv)(rng.randint(0, 6))
                for _ in range(rng.randint(0, 10))
            )
            assert element_of_word(word).normal_form() == rewrite_to_normal_form(word)

    def test_tree_route_examples(self):
        assert element_of_word((x(1), x(0))).normal_form() == NormalForm(((0, 1), (2, 1)), ())
        assert element_of_word((x(0), xinv(0))).normal_form() == NormalForm()

    def test_inverse_word_gives_inverse_form(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_element(rng, 8)
            nf = g.normal_form()
            back = rewrite_to_normal_form(word_inverse(nf.word()))
            assert back == NormalForm(nf.negative, nf.positive)

    @given(elements(max_carets=7))
    def test_emitted_word_respells_the_element(self, g):
        assert element_of_word(g.normal_form().word()) == g

    def test_every_emitted_form_passes_uniqueness(self):
        # NormalForm validates on construction; surviving construction is the check
        rng = random.Random(5)
        for _ in range(500):
            word = tuple(
                (x if rng.random() < 0.5 else xinv)(rng.randint(0, 5))
                for _ in range(rng.randint(0, 9))
            )
            nf = rewrite_to_normal_form(word)
            NormalForm(nf.positive, nf.negative)
