"""Caret-count metric estimates, a breadth-first word-metric oracle, and
the distortion measurement harness.

The caret count N(g) of the reduced pair pins the word length of any
non-identity element between N(g) - 2 and 4 N(g) - 4; exact lengths and
sphere sizes come from ``lengths``.

Balls come from breadth-first search on x0, x1 and their inverses only,
keyed by canonical reduced pairs, to a capped radius (default 9); the
tests check the weights against it. The search never multiplies an element
back along the edge it was reached by: one product per edge between
spheres (33,228 to radius 9, 31,589 elements).

The random sampler draws exactly what the plain recursive definition
draws from the seed. One routine draws each tree without recursion,
sharing its subtrees of one and two carets, and reduces a pair as it
draws it: the positive tree's cancelling carets are cut to leaves as
drawn, then the negative tree is rebuilt once, in time linear in the
caret count.

The distortion sweep samples random product-group elements, embeds them,
and records the image's caret-count bounds, and its length by the weights
when that is within a given radius, next to the input's product norm: each
group factor's caret-count lower bound plus |t| for each integer factor,
which reproduces the embedding's inequality chain in exact integers. Affine
fits of the recorded bounds are exact rationals, so the slope assertions
carry no floating point tolerance.

CSV output (bit-exact header)::

    m,n,addresses,input_norm,caret_count,lower,upper,exact

with ``exact`` empty unless the image's length is within the asked radius.
Rows follow the sample index and are reproducible from the seed.
"""

from __future__ import annotations

import csv
import random
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import IO, Iterable, NamedTuple, Sequence

# embed_product is unused here but stays importable: perfbench's traced run
# rebinds metric.embed_product by name
from .embeddings import _product_builder, embed_f_z, embed_product, is_prefix_free
from .group import GroupElement, _element, generator, identity, inverse, multiply
from .lengths import _count_spheres, word_length
from .trees import (_CHERRY, _CHERRY_LEFT, _CHERRY_RIGHT, LEAF, Tree, TreePair,
                    _node, _rebuild)

DEFAULT_RADIUS_CAP = 9


def _check_radius(radius: int, cap: int = DEFAULT_RADIUS_CAP) -> None:
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius > cap:
        raise ValueError(f"radius {radius} exceeds the oracle cap {cap}")


def length_bounds(g: GroupElement) -> tuple[int, int]:
    """(N - 2, 4N - 4) word-length bounds; (0, 0) for the identity.

    The bounds only carry meaning for non-identity elements; the identity
    answer is a flagged placeholder, not an estimate.
    """
    if g.is_identity:
        return (0, 0)
    n = g.caret_count
    return (n - 2, 4 * n - 4)


@dataclass(frozen=True)
class MetricEstimate:
    """Caret count with its word-length bracket and optional exact length."""

    caret_count: int
    lower: int
    upper: int
    exact: int | None = None


class LevelStats(NamedTuple):
    """Work done growing one sphere: products made, new elements found and
    products that hit an element already on the new sphere or an older one."""

    products: int
    new: int
    duplicates: int


class WordMetricOracle:
    """Breadth-first exact word metric on the generators x0, x1 and their
    inverses.

    Levels are grown on demand and cached, so repeated queries share one
    search; the cap bounds memory and runtime.

    The search is forward-only. When p = g h is reached from sphere d - 1
    and p is new or already on sphere d, then p h^-1 = g is known, so p is
    never multiplied by h^-1. The frontier maps each element of the newest
    sphere to a bitmask of the generator indices it skips. Only products
    whose result is already known are skipped, so the ball and its order
    are those of the plain search. The generating set is closed under
    inverses and its Cayley graph is bipartite, so growing sphere d costs
    one product per edge from sphere d - 1 to sphere d.

    Sphere sizes are not searched for: they are counted from Fordham's
    caret weights, once up to the cap on the first call (see
    ``_count_spheres``). Balls, lengths and level stats come from the search.

    A lock serialises growth and the count, so one oracle may be shared
    across threads; a lookup of an element already found takes no lock.
    """

    def __init__(self, cap: int = DEFAULT_RADIUS_CAP):
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        self.cap = cap
        x0, x1 = generator(0), generator(1)
        self._counts: list[int] | None = None  # sphere sizes to the cap, once counted
        # (bit of h, h, bit of h^-1) per index: step j ^ 1 is the inverse of step j
        self._steps = tuple((1 << j, h, 1 << (j ^ 1)) for j, h in
                            enumerate((x0, inverse(x0), x1, inverse(x1))))
        self._lengths: dict[GroupElement, int] = {identity(): 0}
        self._frontier: dict[GroupElement, int] = {identity(): 0}
        self._stats: list[LevelStats] = []
        self._lock = threading.Lock()

    def _grow_to(self, radius: int) -> None:
        _check_radius(radius, self.cap)
        lengths, steps = self._lengths, self._steps
        with self._lock:
            while len(self._stats) < radius:
                depth = len(self._stats) + 1
                frontier = self._frontier
                nxt: dict[GroupElement, int] = {}
                for g, skip in frontier.items():
                    for bit, h, back in steps:
                        if skip & bit:
                            continue
                        p = multiply(g, h)
                        known = lengths.get(p)
                        if known is None:
                            lengths[p] = depth
                            nxt[p] = back
                        elif known == depth:
                            nxt[p] |= back
                products = (len(steps) * len(frontier)
                            - sum(skip.bit_count() for skip in frontier.values()))
                self._stats.append(LevelStats(products, len(nxt), products - len(nxt)))
                self._frontier = nxt

    def ball(self, radius: int) -> dict[GroupElement, int]:
        """Every element with word length <= radius, mapped to its length,
        in the order the search found them."""
        self._grow_to(radius)
        with self._lock:
            size = 1 + sum(s.new for s in self._stats[:radius])
            return dict(islice(self._lengths.items(), size))

    def sphere_sizes(self, radius: int) -> list[int]:
        """Element counts at each exact length 0..radius."""
        _check_radius(radius, self.cap)
        with self._lock:
            if self._counts is None:
                self._counts = _count_spheres(self.cap)
            return self._counts[:radius + 1]

    def level_stats(self, radius: int) -> list[LevelStats]:
        """The work of growing spheres 1..radius, one entry per sphere."""
        self._grow_to(radius)
        with self._lock:
            return self._stats[:radius]

    def exact_length(self, g: GroupElement, max_radius: int | None = None) -> int | None:
        """|g| if it is at most max_radius (default: the cap), else None."""
        radius = self.cap if max_radius is None else max_radius
        _check_radius(radius, self.cap)
        known = self._lengths.get(g)
        if known is None:
            self._grow_to(radius)
            known = self._lengths.get(g)
        return known if known is not None and known <= radius else None


@dataclass(frozen=True)
class BoundsReport:
    """Result of checking N - 2 <= |g| <= 4N - 4 over a whole ball."""

    radius: int
    checked: int
    violations: tuple[tuple[str, int, int], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_bounds_on_ball(radius: int,
                         oracle: WordMetricOracle | None = None) -> BoundsReport:
    """Assert the two-sided caret bounds for every non-identity ball element."""
    oracle = oracle or WordMetricOracle()
    violations: list[tuple[str, int, int]] = []
    checked = 0
    for g, length in oracle.ball(radius).items():
        if length == 0:
            continue
        checked += 1
        lower, upper = length_bounds(g)
        if not lower <= length <= upper:
            violations.append((str(g.normal_form()), g.caret_count, length))
    return BoundsReport(radius, checked, tuple(violations))


def metric_estimate(g: GroupElement, oracle: WordMetricOracle | None = None,
                    search_radius: int | None = None) -> MetricEstimate:
    """Bundle N(g), its bracket and, if at most ``search_radius``, |g|. The
    radius may not pass ``oracle.cap`` (the oracle's only use) or the default."""
    if search_radius is not None:
        _check_radius(search_radius, DEFAULT_RADIUS_CAP if oracle is None else oracle.cap)
    lower, upper = length_bounds(g)
    exact: int | None = 0 if g.is_identity else None
    if (exact is None and search_radius is not None and lower <= search_radius
            and (length := word_length(g)) <= search_radius):
        exact = length
    return MetricEstimate(g.caret_count, lower, upper, exact)


# --- random element sampler -------------------------------------------

def _randbelow(getrandbits, n: int) -> int:
    """``rng.randrange(n)`` from ``rng.getrandbits``, bit for bit: CPython
    3.10-3.13 draw n.bit_length() bits until they are below n. randint(a, b)
    is a + randrange(b - a + 1) and choice(seq) is seq[randrange(len(seq))]."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw(getrandbits, carets: int, keys: set[int], cut: bool) -> tuple[Tree, list]:
    """random_tree's tree, drawn in the same preorder without recursion and
    sharing its subtrees of one and two carets. A caret's key packs its first
    leaf and carets. Without ``cut`` each key goes into ``keys``; with it, a
    caret over two leaves (or cut carets) whose key is in ``keys`` is cut to
    a leaf. Returns the tree and the sorted spans (first, leaves, LEAF) of
    the topmost cut carets."""
    n = carets + 1
    done: list[Tree] = []
    cuts: list[tuple[int, int, Tree]] = []
    todo = [carets]  # caret counts of the subtrees still to draw; ~key joins two
    leaf = 0  # first leaf of the next subtree
    while todo:
        c = todo.pop()
        if c > 2:
            left = _randbelow(getrandbits, c)
            key = leaf * n + c
            todo += (~key, c - 1 - left, left)
            if not cut:
                keys.add(key)
        elif c < 0:
            right = done.pop()
            if cut and right is LEAF and done[-1] is LEAF and ~c in keys:
                first, size = divmod(~c, n)
                while cuts and cuts[-1][0] >= first:  # the cuts below this one
                    cuts.pop()
                cuts.append((first, size + 1, LEAF))
            else:
                done[-1] = _node(done[-1], right)
        elif c == 0:
            done.append(LEAF)
            leaf += 1
        else:  # a shared subtree: the cherry, or two carets with it left or right
            left = c == 2 and _randbelow(getrandbits, 2)
            while getrandbits(1):  # randrange(1) of the cherry
                pass
            at = leaf + (c == 2 and not left)  # the cherry's first leaf
            cherry, outer = at * n + 1, leaf * n + c
            if not cut:
                keys.add(cherry)
                keys.add(outer)
            if not cut or cherry not in keys:
                done.append(_CHERRY if c == 1 else
                            _CHERRY_LEFT if left else _CHERRY_RIGHT)
            elif c == 1 or outer not in keys:
                done.append(_CHERRY if c == 2 else LEAF)
                cuts.append((at, 2, LEAF))
            else:
                done.append(LEAF)
                cuts.append((leaf, 3, LEAF))
            leaf += c + 1
    return done[0], cuts


def random_tree(rng: random.Random, carets: int) -> Tree:
    """Random tree shape with the given caret count (not uniform, just varied):
    a subtree of c carets puts randrange(c) of them on its left, in preorder."""
    if carets < 0:
        raise ValueError("caret count must be nonnegative")
    return _draw(rng.getrandbits, carets, set(), True)[0]  # no keys: nothing cut


def random_element(rng: random.Random, max_carets: int,
                   nontrivial: bool = False) -> GroupElement:
    """Random element from a random same-size tree pair, reduced.

    The draws are randint(1, max_carets) carets, then random_tree twice.
    With ``nontrivial`` the identity is resampled away, which the
    distortion sweep uses to keep every factor active. The pair is reduced
    as it is drawn: a positive caret whose children are leaves or cancelled
    cancels exactly when the negative tree has a caret over the same leaves.
    Its children's leaves are those of negative carets or single leaves, so
    that caret splits at the same leaf.
    """
    least = 2 if nontrivial else 1  # every 1-caret pair reduces to the identity
    if max_carets < least:
        raise ValueError(f"max_carets must be at least {least}")
    getrandbits = rng.getrandbits
    while True:
        carets = 1 + _randbelow(getrandbits, max_carets)
        keys: set[int] = set()
        neg = _draw(getrandbits, carets, keys, False)[0]
        pos, cuts = _draw(getrandbits, carets, keys, True)
        if not nontrivial or not pos.is_leaf:
            return _element(TreePair(_rebuild(neg, cuts), pos))


# --- distortion sweep ---------------------------------------------------

@dataclass(frozen=True)
class EmbeddingSpec:
    """Which embedding to sweep: the F x Z map or a product embedding."""

    kind: str                     # "phi" (F x Z) or "psi" (F^m x Z^n)
    addresses: tuple[str, ...]
    m: int
    n: int

    def __post_init__(self):
        if self.kind not in ("phi", "psi"):
            raise ValueError("embedding kind must be 'phi' or 'psi'")
        if self.kind == "phi" and (self.addresses, self.m, self.n) != (("11",), 1, 1):
            raise ValueError("the F x Z embedding has address 11 and m = n = 1")
        if self.kind == "psi" and len(self.addresses) != self.m + 1:
            raise ValueError("product embedding needs m+1 addresses")
        if self.m < 0 or self.n < 0:
            raise ValueError("m and n must be nonnegative")
        if self.kind == "psi" and not is_prefix_free(self.addresses):
            raise ValueError("addresses must be pairwise prefix-free")


def f_z_spec() -> EmbeddingSpec:
    return EmbeddingSpec("phi", ("11",), 1, 1)


def product_spec(addresses: Sequence[str], n: int) -> EmbeddingSpec:
    addresses = tuple(addresses)
    return EmbeddingSpec("psi", addresses, len(addresses) - 1, n)


@dataclass(frozen=True)
class DistortionSample:
    """One sampled input with the metric estimate of its embedded image.

    ``input_norm`` is the product norm: the sum over group factors of the
    caret-count lower bound max(N - 2, 0) plus the sum of |t| over the
    integer factors.
    """

    m: int
    n: int
    addresses: tuple[str, ...]
    input_norm: int
    image: MetricEstimate


def distortion_sweep(spec: EmbeddingSpec, samples: int, seed: int = 0,
                     max_carets: int = 12, max_z: int = 12,
                     oracle: WordMetricOracle | None = None,
                     search_radius: int | None = None) -> list[DistortionSample]:
    """Sample random product elements, embed them, and record both norms;
    ``oracle`` (only its cap) and ``search_radius`` go to ``metric_estimate``."""
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    if spec.n >= 1 and max_z < 1:
        raise ValueError("max_z must be at least 1 when the spec has integer factors")
    if search_radius is not None:
        _check_radius(search_radius, DEFAULT_RADIUS_CAP if oracle is None else oracle.cap)
    rng = random.Random(seed)
    out: list[DistortionSample] = []
    if spec.kind == "psi":  # the spec validated its addresses
        embed = _product_builder(spec.addresses)
    for _ in range(samples):
        ws = [random_element(rng, max_carets, nontrivial=True)
              for _ in range(spec.m)]
        ts = [rng.choice((-1, 1)) * rng.randint(1, max_z) for _ in range(spec.n)]
        if spec.kind == "phi":
            image = embed_f_z(ws[0], ts[0])
        else:
            image = embed(ws, ts)
        norm = sum(max(w.caret_count - 2, 0) for w in ws) + sum(abs(t) for t in ts)
        estimate = metric_estimate(image, oracle=oracle, search_radius=search_radius)
        out.append(DistortionSample(spec.m, spec.n, spec.addresses, norm, estimate))
    return out


CSV_HEADER = ("m", "n", "addresses", "input_norm",
              "caret_count", "lower", "upper", "exact")


def sweep_to_csv(samples: Iterable[DistortionSample], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for s in samples:
        writer.writerow([
            s.m,
            s.n,
            ",".join(s.addresses),
            s.input_norm,
            s.image.caret_count,
            s.image.lower,
            s.image.upper,
            "" if s.image.exact is None else s.image.exact,
        ])


# --- exact affine fits ---------------------------------------------------

def affine_fit(points: Sequence[tuple[int, int]]) -> tuple[Fraction, Fraction]:
    """Least-squares line through integer points, in exact rationals."""
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points to fit a line")
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denominator = n * sxx - sx * sx
    if denominator == 0:
        raise ValueError("degenerate fit: all x values coincide")
    slope = Fraction(n * sxy - sx * sy, denominator)
    intercept = Fraction(sy, n) - slope * Fraction(sx, n)
    return slope, intercept


@dataclass(frozen=True)
class EnvelopeFit:
    """Least-squares slope with the intercept shifted to bound all points."""

    slope: Fraction
    ls_intercept: Fraction
    envelope_intercept: Fraction


def envelope_fit(points: Sequence[tuple[int, int]], side: str) -> EnvelopeFit:
    """Fit a line and shift it to an upper or lower envelope of the points."""
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    slope, intercept = affine_fit(points)
    # y - slope x = (y q - p x) / q with slope = p / q, q > 0: integer residuals
    p, q = slope.numerator, slope.denominator
    residuals = [y * q - p * x for x, y in points]
    best = max(residuals) if side == "upper" else min(residuals)
    return EnvelopeFit(slope, intercept, Fraction(best, q))


def distortion_envelopes(
    samples: Sequence[DistortionSample],
) -> tuple[EnvelopeFit, EnvelopeFit]:
    """(upper, lower) envelopes of the image bounds against the input norm."""
    upper_points = [(s.input_norm, s.image.upper) for s in samples]
    lower_points = [(s.input_norm, s.image.lower) for s in samples]
    return (envelope_fit(upper_points, "upper"),
            envelope_fit(lower_points, "lower"))
