"""The word metric: sphere sizes and exact lengths by caret weights,
checked by search, and caret-count bounds.

The caret count N(g) of the reduced pair brackets the word length of a
non-identity element: N - 2 <= |g| <= 4N - 4. Fordham's caret weights
give |g| exactly at any size (``thompsonf.lengths.word_length``), and the
oracle counts sphere sizes from the same weights without building an
element. Breadth-first search over the Cayley graph on x0, x1 and their
inverses checks them, and is feasible out to radius 9 at desk scale. The
time printed under the table is that of the oracle's constructor, which
counts; each ``ball`` call runs a fresh search, so the lookups share one.
"""

import time

from thompsonf import (
    WordMetricOracle,
    check_bounds_on_ball,
    element_of_word,
    generator,
    length_bounds,
    parse_word,
)
from thompsonf.lengths import word_length

print("radius | sphere | ball")
start = time.time()
oracle = WordMetricOracle()
spheres = oracle.sphere_sizes(7)
total = 0
for radius, count in enumerate(spheres):
    total += count
    print(f"{radius:>6} | {count:>6} | {total}")
print(f"(counted in {time.time() - start:.2f}s)")

ball = oracle.ball(9)  # one search; every lookup below reads it

# exact length versus the caret-count bracket
print("\nelement          N   bracket     search  weights")
for text in ("x0", "x1", "x0^-1 x1 x0", "x0 x1^-1 x0 x1", "x1 x1 x0^-1"):
    g = element_of_word(parse_word(text))
    lower, upper = length_bounds(g)
    exact = ball.get(g)
    print(f"{text:<15} {g.caret_count:>2}   ({lower:>2}, {upper:>2})   "
          f"{exact!s:>6}  {word_length(g):>7}")

# x2 needs three letters even though it is a generator of the
# infinite presentation: the search confirms no shorter spelling
print("\n|x2| =", ball.get(generator(2)))

# far outside the searched ball the weights still read the length:
# |x_k| = 2k - 1, and the search to radius 9 finds nothing
print("|x50| =", word_length(generator(50)), "by the weights;",
      "by search:", ball.get(generator(50)))

# every element of the radius-6 ball respects the bounds
report = check_bounds_on_ball(6)
print(f"\nbounds on the radius-6 ball: checked {report.checked}, "
      f"violations {len(report.violations)}")
