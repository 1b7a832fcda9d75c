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

from conftest import el, elements, long_words, tree_pairs


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

    def test_repeated_terms_are_read_once_and_keep_their_positions(self, monkeypatch):
        # a bad term fails where it first occurs; the term that takes the word
        # over _MAX_LETTERS fails at its own start, a repeat or not
        built, letter = [], words_module.Letter
        monkeypatch.setattr(words_module, "Letter",
                            lambda index, sign: built.append(index) or letter(index, sign))
        word = parse_word("x1 x0^-2 x1 x1 x0^-2 x0^0 x0^0")
        assert built == [1, 0, 0]  # x1, x0^-2 and x0^0, once each
        assert word == (x(1), xinv(0), xinv(0), x(1), x(1), xinv(0), xinv(0))
        top = words_module._MAX_LETTERS
        head = f"x0^{top - 1} x1 "
        cases = [("x1 x0y x1 x0y", ParseError, 3),
                 ("x2 x10001 x2 x10001", words_module.WordLimitError, 3),
                 (head + "x1", words_module.WordLimitError, len(head)),
                 (head + "x2 x1", words_module.WordLimitError, len(head)),
                 (f"x0^{top // 2} x1 x0^{top // 2} x1", words_module.WordLimitError,
                  len(f"x0^{top // 2} x1 "))]
        for text, error, position in cases:
            with pytest.raises(error) as err:
                parse_word(text)
            assert type(err.value) is error
            assert err.value.position == position, text

    def test_non_ascii_digits_are_parse_errors(self):
        # the grammar's digits are ASCII: Arabic-Indic one, two and zero
        # fail where the term starts, not as x1 or as a limit past six zeros
        for text, position in [("x\u0661", 0), ("x0 x1^\u0662", 3),
                               ("x2 x" + "\u0660" * 7 + "1", 3)]:
            with pytest.raises(ParseError) as err:
                parse_word(text)
            assert not isinstance(err.value, words_module.WordLimitError)
            assert err.value.position == position

    def test_leading_zeros_do_not_count(self):
        zeros = "0" * 5000
        assert parse_word(f"x{zeros}3^-{zeros}2") == (xinv(3), xinv(3))
        assert parse_word(f"x{zeros}^{zeros}") == ()

    def test_spaces_around_and_between_terms_are_skipped(self):
        assert parse_word("  x0  x1^-1   x2 ") == (x(0), xinv(1), x(2))
        assert parse_word(" ") == parse_word("   ") == ()

    def test_only_spaces_separate_terms(self):
        # a tab or a newline is part of a term, which is then a bad term
        for text, message in [("x0\tx1", "bad term 'x0\\tx1' (position 0)"),
                              ("x0 x1\nx2", "bad term 'x1\\nx2' (position 3)"),
                              ("x0 \n", "bad term '\\n' (position 3)")]:
            with pytest.raises(ParseError) as err:
                parse_word(text)
            assert type(err.value) is ParseError
            assert str(err.value) == message

    def test_signed_count_with_leading_zeros(self):
        assert parse_word("x0^-00003") == (xinv(0),) * 3

    def test_limit_errors_name_the_term_that_crosses_them(self):
        most = words_module._MAX_LETTERS
        cases = [(f"x{words_module._MAX_INDEX + 1}",
                  "index above _MAX_INDEX = 10000 (position 0)"),
                 (f"x3 x{words_module._MAX_INDEX + 1}^2",
                  "index above _MAX_INDEX = 10000 (position 3)"),
                 (f"x0^{most - 1} x1^2", "word over _MAX_LETTERS = 100000 (position 9)"),
                 (f"x0^{most - 1}  x1^-1  x2",
                  "word over _MAX_LETTERS = 100000 (position 17)")]
        for text, message in cases:
            with pytest.raises(words_module.WordLimitError) as err:
                parse_word(text)
            assert str(err.value) == message
        assert len(parse_word(f"x0^{most - 1} x1^-1")) == most

    def test_a_power_repeats_one_letter(self):
        word = parse_word("x2^5")
        assert word == (x(2),) * 5
        assert len(set(map(id, word))) == 1

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


def reference_semi_normalize(word):
    """Leftmost-first rewriting one rule at a time, on Letter values: the
    semi-normal word and the number of rules applied to reach it."""
    letters = list(word)
    steps = 0
    i = 0
    while i < len(letters) - 1:
        a, b = letters[i], letters[i + 1]
        if a.index == b.index and a.sign == -b.sign:
            del letters[i:i + 2]
        elif a.sign == -1 and b.sign == 1:
            if a.index < b.index:
                letters[i:i + 2] = [x(b.index + 1), a]
            else:
                letters[i:i + 2] = [x(b.index), xinv(a.index + 1)]
        elif a.sign == 1 and b.sign == 1 and a.index > b.index:
            letters[i:i + 2] = [b, x(a.index + 1)]
        elif a.sign == -1 and b.sign == -1 and a.index < b.index:
            letters[i:i + 2] = [xinv(b.index + 1), a]
        else:
            i += 1
            continue
        i = max(i - 1, 0)
        steps += 1
    return tuple(letters), steps


def semi_normalize(word):
    """The library's semi-normal form, spelled as a word, and its step count."""
    pos, neg, steps = words_module._semi_normalize(word)
    return tuple(map(x, pos)) + tuple(map(xinv, reversed(neg))), steps


def assert_rewriters_agree(word):
    expected, steps = reference_semi_normalize(word)
    if steps > words_module._REWRITE_STEP_CAP:
        with pytest.raises(words_module.RewriteLimitError):
            words_module._semi_normalize(word)
    else:
        assert semi_normalize(word) == (expected, steps)


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
        # removing the pair at index 1 exposes a violation at index 0
        word = (x(0), x(1), x(3), xinv(1), xinv(0))
        assert rewrite_to_normal_form(word) == NormalForm(((1, 1),), ())
        # a repeated index loses only one pair: x1^2 x3 x1^-2 -> x1 x2 x1^-1
        word = (x(1), x(1), x(3), xinv(1), xinv(1))
        assert rewrite_to_normal_form(word) == NormalForm(((1, 1), (2, 1)), ((1, 1),))

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

    def test_semi_normal_form_and_steps_match_the_reference(self):
        rng = random.Random(17)
        for _ in range(1000):
            assert_rewriters_agree(tuple(
                (x if rng.random() < 0.5 else xinv)(rng.randint(0, 40))
                for _ in range(rng.randint(0, 80))))

    @given(long_words(max_letters=300))
    def test_long_words_match_the_reference(self, word):
        assert_rewriters_agree(word)

    def test_step_cap_bounds_the_rules_applied(self):
        # x0^-k x1^k takes k^2 steps: each x1 passes all k of the x0^-1
        cap = words_module._REWRITE_STEP_CAP
        word = (xinv(0),) * 447 + (x(1),) * 447
        assert 447 ** 2 <= cap < 448 ** 2
        assert semi_normalize(word)[1] == 447 ** 2
        assert rewrite_to_normal_form(word) == element_of_word(word).normal_form()
        with pytest.raises(words_module.RewriteLimitError, match="_REWRITE_STEP_CAP"):
            rewrite_to_normal_form((xinv(0),) * 448 + (x(1),) * 448)


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
