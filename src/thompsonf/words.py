"""Words over the generators, unique normal forms, and the bijection with
reduced tree pair diagrams.

The group carries an infinite presentation with generators x_k (k >= 0)
and relations x_i^-1 x_j x_i = x_{j+1} for i < j. Every element has a
unique normal form

    x_{i1}^{r1} ... x_{ik}^{rk} x_{jl}^{-sl} ... x_{j1}^{-s1}

with all exponents positive, indices strictly increasing within each
part, and the uniqueness condition: whenever some index i occurs in both
parts, index i+1 occurs in at least one part.

Normal forms correspond bijectively to reduced tree pairs through leaf
exponents: leaf n of the positive tree carries the exponent of x_n in
the positive part, leaf n of the negative tree the exponent in the
negative part.

Word grammar (bit-exact): ``word ::= "" | term (" " term)*`` with
``term ::= "x" digits ("^" signed-integer)?``. Exponent 0 drops the
term; negative exponents expand to repeated inverse letters.

``rewrite_to_normal_form`` computes normal forms purely by string
rewriting and serves as an oracle independent of the tree route used by
the group module. It applies four rules leftmost-first: free
cancellation, x_a^-1 x_b -> x_{b+1} x_a^-1 (a < b) or x_b x_{a+1}^-1
(a > b), x_a x_b -> x_b x_{a+1} (a > b), and x_a^-1 x_b^-1 ->
x_{b+1}^-1 x_a^-1 (a < b). The rewritten prefix stays sorted, so it is
kept as two sorted index lists and each next letter moves into place in
one pass, its moves done as list operations. The step count, which
``_REWRITE_STEP_CAP`` bounds, is the number of rule applications. The
uniqueness condition is then enforced on the same two sorted lists.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

from .trees import (
    ParseError,
    TreePair,
    is_reduced,
    leaf_exponents,
    tree_from_exponents,
)


@dataclass(frozen=True)
class Letter:
    """One generator letter x_index^sign with sign +1 or -1."""

    index: int
    sign: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("generator index must be nonnegative")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def inverse(self) -> Letter:
        return Letter(self.index, -self.sign)

    def __str__(self) -> str:
        return f"x{self.index}" if self.sign == 1 else f"x{self.index}^-1"


Word = tuple[Letter, ...]


def x(index: int) -> Letter:
    return Letter(index, 1)


def xinv(index: int) -> Letter:
    return Letter(index, -1)


def word_inverse(word: Sequence[Letter]) -> Word:
    return tuple(l.inverse for l in reversed(word))


_TERMS = re.compile(r"[^ ]+")  # only spaces separate terms
_TERM_RE = re.compile(r"x([0-9]+)(?:\^(-?)([0-9]+))?")  # ASCII digits only
_MAX_LETTERS, _MAX_INDEX = 100_000, 10_000  # longest word, largest index parsed
# a number with more digits, leading zeros aside, is over both limits; int()
# never reads one, so it never meets Python's own cap on the digits it converts
_DIGITS = len(str(max(_MAX_LETTERS, _MAX_INDEX)))


class WordLimitError(ParseError):
    """A word over ``_MAX_LETTERS`` letters or with an index over ``_MAX_INDEX``."""


def parse_word(text: str) -> Word:
    """Parse the word grammar; raises ParseError with the bad position, or
    WordLimitError for a term over a limit, before the term is expanded.
    Each distinct term is read once; a repeat reuses its letter and count."""
    letters: list[Letter] = []
    terms: dict[str, tuple[Letter, int]] = {}  # term text -> (letter, count)
    over = f"word over _MAX_LETTERS = {_MAX_LETTERS}"
    for term in _TERMS.finditer(text):
        start = term.start()
        known = terms.get(term.group())
        if known is None:
            m = _TERM_RE.fullmatch(text, start, term.end())
            if m is None:
                raise ParseError(f"bad term {term.group()!r}", start)
            index_digits = m.group(1).lstrip("0") or "0"
            count_digits = (m.group(3) or "1").lstrip("0") or "0"
            if len(index_digits) > _DIGITS or (index := int(index_digits)) > _MAX_INDEX:
                raise WordLimitError(f"index above _MAX_INDEX = {_MAX_INDEX}", start)
            if (len(count_digits) > _DIGITS
                    or len(letters) + (count := int(count_digits)) > _MAX_LETTERS):
                raise WordLimitError(over, start)
            known = terms[term.group()] = (Letter(index, -1 if m.group(2) else 1), count)
        elif len(letters) + known[1] > _MAX_LETTERS:
            raise WordLimitError(over, start)
        letters += [known[0]] * known[1]
    return tuple(letters)


def format_word(word: Sequence[Letter]) -> str:
    """Emit the word grammar, grouping adjacent runs of the same letter."""
    parts: list[str] = []
    for letter, run in groupby(word):
        e = sum(1 for _ in run) * letter.sign
        parts.append(f"x{letter.index}" if e == 1 else f"x{letter.index}^{e}")
    return " ".join(parts)


@dataclass(frozen=True)
class NormalForm:
    """Unique normal form, stored as (index, exponent) runs.

    Both parts keep strictly increasing indices and positive exponents;
    the negative part is emitted in decreasing index order, matching the
    written form x_{jl}^{-sl} ... x_{j1}^{-s1}.
    """

    positive: tuple[tuple[int, int], ...] = ()
    negative: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for part in (self.positive, self.negative):
            prev = -1
            for index, exponent in part:
                if index < 0:
                    raise ValueError("negative generator index")
                if exponent <= 0:
                    raise ValueError("normal form exponents must be positive")
                if index <= prev:
                    raise ValueError("indices must be strictly increasing")
                prev = index
        pos_idx = {i for i, _ in self.positive}
        neg_idx = {j for j, _ in self.negative}
        for i in pos_idx & neg_idx:
            if i + 1 not in pos_idx and i + 1 not in neg_idx:
                raise ValueError(
                    f"uniqueness condition violated at index {i}: "
                    f"x{i} occurs in both parts but x{i + 1} in neither"
                )

    def word(self) -> Word:
        letters = [Letter(i, 1) for i, r in self.positive for _ in range(r)]
        letters += [Letter(j, -1) for j, s in reversed(self.negative) for _ in range(s)]
        return tuple(letters)

    def shift(self, k: int) -> NormalForm:
        """Raise every index by k; the image of the k-fold shift map."""
        if k < 0:
            raise ValueError("shift amount must be nonnegative")
        return NormalForm(
            tuple((i + k, r) for i, r in self.positive),
            tuple((j + k, s) for j, s in self.negative),
        )

    def __str__(self) -> str:
        parts = [f"x{i}" if r == 1 else f"x{i}^{r}" for i, r in self.positive]
        parts += [f"x{j}^{-s}" for j, s in reversed(self.negative)]
        return " ".join(parts)


def _compress(vec: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple((i, e) for i, e in enumerate(vec) if e)


def tree_pair_to_normal_form(pair: TreePair, check: bool = True) -> NormalForm:
    """Read the normal form off a reduced pair via leaf exponents.

    ``check=False`` skips the reducedness test, for a pair already known
    to be reduced, such as a group element's own.
    """
    if check and not is_reduced(pair):
        raise ValueError("tree pair must be reduced")
    return NormalForm(
        _compress(leaf_exponents(pair.pos)),
        _compress(leaf_exponents(pair.neg)),
    )


def _spine_slots(exps: dict[int, int]) -> int:
    """Minimal number of non-final leaves closing the exponent vector."""
    if not exps:
        return 0
    last = max(exps)
    i = 0
    f = 0
    while True:
        f += exps.get(i, 0) - 1
        if f == -1:
            if i >= last:
                return i + 1
            f = 0
        i += 1


def normal_form_to_tree_pair(nf: NormalForm) -> TreePair:
    """Build the unique reduced pair realizing the normal form.

    Each side is decoded from its exponent vector; the shorter side is
    padded with bottom-right carets (exponent 0 slots) until the leaf
    counts agree.
    """
    pos_exps, neg_exps = dict(nf.positive), dict(nf.negative)
    slots = max(_spine_slots(pos_exps), _spine_slots(neg_exps))
    pos_vec = [pos_exps.get(i, 0) for i in range(slots)] + [0]
    neg_vec = [neg_exps.get(i, 0) for i in range(slots)] + [0]
    return TreePair(tree_from_exponents(neg_vec), tree_from_exponents(pos_vec))


# --- rewriting oracle -------------------------------------------------

_REWRITE_STEP_CAP = 200_000


class RewriteLimitError(ValueError):
    """A word needs more rewriting steps than ``_REWRITE_STEP_CAP``."""


def _semi_normalize(word: Sequence[Letter]) -> tuple[list[int], list[int], int]:
    """Semi-normal form of a word and the number of rule steps to reach it.

    Rules, applied leftmost-first until none fires:
      * free cancellation of adjacent x_k^e x_k^-e;
      * x_a^-1 x_b -> x_{b+1} x_a^-1 (a < b) or x_b x_{a+1}^-1 (a > b);
      * x_a x_b -> x_b x_{a+1} for positive letters with a > b;
      * x_a^-1 x_b^-1 -> x_{b+1}^-1 x_a^-1 for a < b.

    Leftmost-first keeps the prefix before the next letter semi-normal, so
    the prefix is kept sorted as two index lists: ``pos`` (positive letters,
    in word order) and ``neg`` (negative letters, in reverse word order).
    A new letter x_b^e walks left past the negatives below it, rising by
    one at each. A negative letter then stops; a positive one cancels the
    negative of its index if there is one, or else raises every negative
    left of it and every larger positive by one and settles among the
    positives. Last, x_a x_a^-1 pairs cancel where the two parts meet.

    Each letter costs one pass, with the moves done as list operations;
    the step count is the number of rule applications the moves stand
    for, and ``_REWRITE_STEP_CAP`` is checked after each letter.
    """
    pos: list[int] = []
    neg: list[int] = []
    steps = 0
    for letter in word:
        b, k, n = letter.index, 0, len(neg)
        while k < n and neg[k] < b:
            k += 1
            b += 1
        if letter.sign < 0:
            neg.insert(k, b)
            steps += k
        elif k < n and neg[k] == b:
            del neg[k]
            steps += k + 1
        else:
            neg[k:] = [j + 1 for j in neg[k:]]
            i = bisect_right(pos, b)
            steps += n + len(pos) - i
            pos[i:] = [b] + [j + 1 for j in pos[i:]]
        while pos and neg and pos[-1] == neg[-1]:
            pos.pop()
            neg.pop()
            steps += 1
        if steps > _REWRITE_STEP_CAP:
            raise RewriteLimitError(f"rewriting needs more than "
                                    f"_REWRITE_STEP_CAP = {_REWRITE_STEP_CAP} steps")
    return pos, neg, steps


def _runs(indices: list[int]) -> tuple[tuple[int, int], ...]:
    """Group an index list into (index, count) runs, keeping its order."""
    return tuple((i, sum(1 for _ in run)) for i, run in groupby(indices))


def rewrite_to_normal_form(word: Sequence[Letter]) -> NormalForm:
    """Normal form computed purely by string rewriting.

    After semi-normalization the uniqueness condition is enforced on the
    same two sorted index lists by the reverse substitution: while index
    i occurs in both lists and i+1 in neither, one x_i ... x_i^-1 pair is
    removed for the smallest such i and every index above i drops by one.
    Each such move shortens the word, so the loop terminates.
    """
    pos, neg, _ = _semi_normalize(word)
    while True:
        both, either = set(pos) & set(neg), set(pos) | set(neg)
        bad = [i for i in both if i + 1 not in either]
        if not bad:
            return NormalForm(_runs(pos), _runs(neg))
        i = min(bad)
        for part in (pos, neg):
            part.remove(i)
            part[:] = [j - 1 if j > i else j for j in part]
