"""Tree pair diagrams: building, reducing, and rendering.

Group elements are pairs of rooted binary trees with the same number of
leaves. This script builds a few trees by hand, shows how a pair reduces
to its canonical form, and prints the text and DOT serializations.
"""

from thompsonf import (
    LEAF,
    TreePair,
    caret,
    caret_count,
    format_pair,
    format_tree,
    leaf_exponents,
    pair_to_dot,
    parse_tree,
    reduce_pair,
)

# a single caret, and two three-leaf trees that differ only in shape
single = caret(LEAF, LEAF)
left_comb = caret(caret(LEAF, LEAF), LEAF)
right_comb = caret(LEAF, caret(LEAF, LEAF))

print("single caret      :", format_tree(single))
print("left comb         :", format_tree(left_comb))
print("right comb        :", format_tree(right_comb))
print("leaves / carets   :", left_comb.leaves, "/", caret_count(left_comb))

# leaf exponents drive the bijection with normal forms (see demo 02);
# the right comb reads all zeros, the left comb starts with a 1
print("exponents (left)  :", leaf_exponents(left_comb))
print("exponents (right) :", leaf_exponents(right_comb))

# the pair (right comb, left comb) is the canonical diagram of the
# first group generator; a pair of equal trees collapses to the identity
x0_pair = TreePair(right_comb, left_comb)
print("\nx0 diagram        :", format_pair(x0_pair))
print("same-tree pair    :", format_pair(reduce_pair(TreePair(left_comb, left_comb))))

# an unreduced pair: both trees carry a caret with exposed leaves 1 and 2
neg = caret(LEAF, caret(caret(LEAF, LEAF), LEAF))
pos = caret(caret(LEAF, caret(LEAF, LEAF)), LEAF)
pair = TreePair(neg, pos)
print("\nunreduced         :", format_pair(pair))
print("reduced           :", format_pair(reduce_pair(pair)))

# round-trips through the text grammar
text = "((L L) (L (L L)))"
print("\nparse + format    :", format_tree(parse_tree(text)) == text)

print("\nDOT rendering of the x0 diagram:\n")
print(pair_to_dot(x0_pair))
