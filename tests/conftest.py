import sys

import pytest
from hypothesis import strategies as st

from thompsonf import (
    LEAF,
    GroupElement,
    TreePair,
    caret,
    element_of_word,
    parse_word,
)
from thompsonf.metric import WordMetricOracle


@pytest.fixture(scope="session")
def oracle():
    """One shared breadth-first oracle; levels grow on demand and are cached."""
    return WordMetricOracle()


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
