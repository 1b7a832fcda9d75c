import sys
from types import MappingProxyType

import pytest
from hypothesis import strategies as st

from thompsonf import (
    LEAF,
    GroupElement,
    Letter,
    TreePair,
    caret,
    element_of_word,
    parse_word,
)
from thompsonf import metric


@pytest.fixture(scope="session")
def ball10():
    """The radius-10 ball on x0, x1 and their inverses, 88,253 elements mapped
    to their lengths in search order: one search shared by the session,
    read-only."""
    return MappingProxyType(metric.WordMetricOracle(cap=10).ball(10))


@pytest.fixture(scope="session")
def ball9(ball10):
    """The radius-9 ball, 31,589 elements: the radius-10 ball's entries of
    length <= 9, which keeps the search order; read-only."""
    return MappingProxyType(within(ball10, 9))


def within(ball, radius):
    """The smaller ball of the given radius, in the same search order."""
    return {g: length for g, length in ball.items() if length <= radius}


@pytest.fixture
def searches(monkeypatch):
    """The radius of each breadth-first search run during the test, in order."""
    radii, real = [], metric._search

    def counting(radius):
        radii.append(radius)
        return real(radius)

    monkeypatch.setattr(metric, "_search", counting)
    return radii


@pytest.fixture
def default_recursion_limit():
    """Python's default recursion limit, so deep inputs show any recursion."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


def el(text):
    """Group element of a word given in the word grammar."""
    return element_of_word(parse_word(text))


def trees(max_leaves=9):
    return st.recursive(
        st.just(LEAF),
        lambda children: st.builds(caret, children, children),
        max_leaves=max_leaves,
    )


@st.composite
def trees_with_carets(draw, carets):
    if carets == 0:
        return LEAF
    left = draw(st.integers(0, carets - 1))
    return caret(
        draw(trees_with_carets(left)),
        draw(trees_with_carets(carets - 1 - left)),
    )


@st.composite
def tree_pairs(draw, max_carets=8):
    carets = draw(st.integers(0, max_carets))
    return TreePair(
        draw(trees_with_carets(carets)), draw(trees_with_carets(carets))
    )


@st.composite
def elements(draw, max_carets=8):
    return GroupElement.from_pair(draw(tree_pairs(max_carets)))


# --- large elements: long words, and pairs of combs and caterpillars ---

def _up_to(n):
    """Sizes 0..n, with n itself drawn about half the time: hypothesis
    favours small integers, and these strategies exist for the large."""
    return st.integers(0, n) | st.just(n)


@st.composite
def long_words(draw, max_letters=2000, max_index=20):
    """Words of up to ``max_letters`` letters over x0..x_max_index and
    inverses; the letters come from a Random that hypothesis seeds."""
    rng = draw(st.randoms(use_true_random=False))
    return tuple(Letter(rng.randrange(max_index + 1), rng.choice((1, -1)))
                 for _ in range(draw(_up_to(max_letters))))


@st.composite
def caterpillars(draw, carets):
    """Trees of ``carets`` carets that each have a leaf child: the right
    and left combs, or a drawn side per caret."""
    kind = draw(st.sampled_from(("right", "left", "mixed")))
    rng = draw(st.randoms(use_true_random=False))
    t = LEAF
    for _ in range(carets):
        if kind == "left" or (kind == "mixed" and rng.getrandbits(1)):
            t = caret(t, LEAF)
        else:
            t = caret(LEAF, t)
    return t


@st.composite
def large_elements(draw, max_carets=5000, max_letters=2000):
    """A reduced pair of two caterpillars of up to ``max_carets`` carets, or
    the element of a word of up to ``max_letters`` letters."""
    if draw(st.booleans()):
        return element_of_word(draw(long_words(max_letters)))
    carets = draw(_up_to(max_carets))
    return GroupElement.from_pair(
        TreePair(draw(caterpillars(carets)), draw(caterpillars(carets))))
