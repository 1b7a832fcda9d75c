"""Normal forms: parsing words, two independent computations, and the
bijection with reduced tree pairs.

Every element has a unique normal form over the infinite generating set
x0, x1, x2, ... The library computes it two ways: by multiplying tree
pair diagrams and reading leaf exponents, and by pure string rewriting
with the relations x_i^-1 x_j x_i = x_{j+1} (i < j). The two always
agree, and each normal form pins down one reduced tree pair.
"""

import sys

from thompsonf import (
    element_of_word,
    format_pair,
    leaf_exponents,
    normal_form_to_tree_pair,
    parse_word,
    rewrite_to_normal_form,
    tree_pair_to_normal_form,
)

for text in ("x1 x0", "x0^-1 x1 x0", "x0 x0^-1", "x2 x1", "x1 x3 x1^-1"):
    word = parse_word(text)
    via_trees = element_of_word(word).normal_form()
    via_rewriting = rewrite_to_normal_form(word)
    if via_trees != via_rewriting:
        sys.exit(f"the two routes disagree on {text}: {via_trees} != {via_rewriting}")
    print(f"{text:>14}  ->  {str(via_trees) or '(identity)'}")

# the bijection: normal form -> reduced pair -> normal form
nf = element_of_word(parse_word("x0^2 x3 x2^-1")).normal_form()
pair = normal_form_to_tree_pair(nf)
print("\nnormal form :", nf)
print("tree pair   :", format_pair(pair))
print("read back   :", tree_pair_to_normal_form(pair))

# leaf exponents in action: leaf n of the positive tree carries the
# exponent of x_n, leaf n of the negative tree the inverse exponent
g = element_of_word(parse_word("x0 x1^-1"))
print("\nx0 x1^-1    :", format_pair(g.pair))
print("pos exponents:", leaf_exponents(g.pair.pos))
print("neg exponents:", leaf_exponents(g.pair.neg))
