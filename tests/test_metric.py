import io
import random
import sys
import threading
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thompsonf import (
    LEAF,
    EmbeddingSpec,
    GroupElement,
    MetricEstimate,
    TreePair,
    caret,
    caret_count,
    WordMetricOracle,
    affine_fit,
    check_bounds_on_ball,
    distortion_envelopes,
    distortion_sweep,
    embed_f_z,
    envelope_fit,
    f_z_spec,
    format_pair,
    generator,
    identity,
    inverse,
    is_reduced,
    length_bounds,
    metric_estimate,
    multiply,
    parse_pair,
    power,
    product_spec,
    shift,
    sweep_to_csv,
)
from thompsonf import embeddings as embeddings_module
from thompsonf import group as group_module
from thompsonf import metric as metric_module
from thompsonf import trees as trees_module
from thompsonf.lengths import (_I0, _IR, _L0, _LL, _R0, _RI, _RNI, _WEIGHTS, _caret_types,
                               _count_spheres, word_length)
from thompsonf.metric import _randbelow, random_element, random_tree

from conftest import el, large_elements

# frozen oracle regression: ball sizes at radius 0..5
BALL_SIZES = [1, 5, 17, 53, 161, 475]
SPHERES_TO_8 = [1, 4, 12, 36, 108, 314, 906, 2576, 7280]
SPHERES_TO_11 = SPHERES_TO_8 + [20352, 56664, 156570]
# radius 12 by breadth-first search (20 s and 577 MB, so not searched here)
SPHERES_TO_12 = SPHERES_TO_11 + [431238]


def reference_ball(generators, radius):
    """Plain breadth-first search that multiplies every frontier element by
    every generator: the ball, in the order it finds the elements."""
    lengths, frontier = {identity(): 0}, [identity()]
    for depth in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for h in generators:
                p = multiply(g, h)
                if p not in lengths:
                    lengths[p] = depth
                    nxt.append(p)
        frontier = nxt
    return lengths


# The sphere counter as it was before its counts were packed per state
# pair: a dict keyed by (neg state, pos state, weight), kept as the reference.
def reference_count_spheres(radius: int) -> list[int]:
    """Element counts at each word length 0..radius on x0, x1, counted over
    reduced tree pairs by caret weight without building any element.

    Both trees are read in infix order, one caret of each per step. After a
    caret whose right child is a caret, the reading descends the left chain
    of that child and visits its bottom caret, while the carets above it
    wait; after a caret whose right child is a leaf, the next caret is the
    last one waiting. A tree's state is (where its current caret lies, the
    carets waiting, whether the current caret's left child is a leaf), and a
    move fixes the current caret's type. A step whose two carets each sit
    over two leaves is dropped, so every pair counted is reduced. A state
    whose waiting carets alone would pass the radius is pruned: every caret
    but the last weighs at least 1.
    """
    # where the current caret lies: caret 0, the rest of the left arm, the
    # right arm, or interior before or after the root. On the left arm no
    # caret waits: each one there chooses whether it is the root.
    def moves(where, waiting, leaf):
        """(type, right child is a leaf, next state or None at the end)."""
        if where in ("L0", "LL"):
            kind = _L0 if where == "L0" else _LL
            return ((kind, True, ("LL", 0, False)),          # not the root
                    (kind, False, ("before", 1, True)),
                    (kind, True, None),                      # the root
                    (kind, False, ("right", 0, True)),
                    (kind, False, ("after", 1, True)))
        if where == "right":
            return ((_R0, True, None),
                    (_RNI, False, ("right", 0, True)),
                    (_RI, False, ("after", 1, True)))
        up = ((where, waiting - 1, False) if waiting > 1 else
              ("LL" if where == "before" else "right", 0, False))
        return ((_I0, True, up), (_IR, False, (where, waiting, True)))

    states = [("L0", 0, True), ("LL", 0, False), ("right", 0, True), ("right", 0, False)]
    states += [(where, waiting, leaf) for where in ("before", "after")
               for waiting in range(1, radius + 1) for leaf in (True, False)]
    table = {state: moves(*state) for state in states}

    sizes = [1] + [0] * radius  # the identity: the pair of empty trees
    start = states[0]
    counts = {(start, start, 0): 1}  # (neg state, pos state, weight) -> pairs
    while counts:
        nxt: defaultdict[tuple, int] = defaultdict(int)
        for (neg, pos, weight), count in counts.items():
            pos_moves = table[pos]
            for neg_type, neg_right_leaf, neg_next in table[neg]:
                row = _WEIGHTS[neg_type]
                neg_cherry = neg[2] and neg_right_leaf
                for pos_type, pos_right_leaf, pos_next in pos_moves:
                    w = row[pos_type]
                    if w is None or (neg_cherry and pos[2] and pos_right_leaf):
                        continue
                    w += weight
                    if neg_next is None or pos_next is None:
                        if neg_next is pos_next and w <= radius:
                            sizes[w] += count
                    elif w + max(neg_next[1], pos_next[1]) <= radius:
                        nxt[neg_next, pos_next, w] += count
        # A descent may go one caret deeper, any number of times: its bottom
        # caret then waits too. One tree at a time, fewest waiting first, so
        # each count is complete before it is carried deeper.
        for side in (0, 1):
            by_waiting: list[list[tuple]] = [[] for _ in range(radius + 1)]
            for key in nxt:
                where, waiting, leaf = key[side]
                if leaf and where in ("before", "after"):
                    by_waiting[waiting].append(key)
            for keys in by_waiting:
                for key in keys:
                    where, waiting, _ = key[side]
                    deeper = (where, waiting + 1, True)
                    pushed = (deeper, key[1], key[2]) if side == 0 else (key[0], deeper, key[2])
                    if key[2] + max(pushed[0][1], pushed[1][1]) > radius:
                        continue
                    if pushed not in nxt:
                        by_waiting[waiting + 1].append(pushed)
                    nxt[pushed] += nxt[key]
        counts = nxt
    return sizes


class TestCaretCounts:
    def test_examples(self):
        assert identity().caret_count == 0
        assert generator(0).caret_count == 2
        assert generator(1).caret_count == 3

    def test_f_z_image(self):
        w = el("x1 x0^-1")
        assert embed_f_z(w, 4).caret_count == w.caret_count + 4 + 2


class TestLengthBounds:
    def test_x1(self, oracle):
        assert length_bounds(generator(1)) == (1, 8)
        assert oracle.exact_length(generator(1), 1) == 1  # lower bound attained

    def test_x0(self):
        assert length_bounds(generator(0)) == (0, 4)

    def test_identity_flagged(self):
        assert length_bounds(identity()) == (0, 0)

    def test_z_powers(self):
        z = el("x0 x1^-1")
        for k in (1, 4, 9):
            assert length_bounds(power(z, k)) == (k, 4 * k + 4)


class TestExactLength:
    def test_examples(self, oracle):
        assert oracle.exact_length(identity(), 0) == 0
        assert oracle.exact_length(inverse(generator(0)), 1) == 1
        assert oracle.exact_length(generator(2), 3) == 3

    def test_absent_outside_radius(self, oracle):
        assert oracle.exact_length(generator(2), 2) is None

    def test_cap_enforced(self, oracle):
        with pytest.raises(ValueError):
            oracle.exact_length(generator(0), 10)
        with pytest.raises(ValueError):
            oracle.ball(10)
        small = WordMetricOracle(cap=2)
        with pytest.raises(ValueError):
            small.ball(3)
        assert len(small.ball(2)) == 17

    def test_cap_at_its_edges(self):
        with pytest.raises(ValueError, match="^cap must be nonnegative$"):
            WordMetricOracle(cap=-1)
        zero = WordMetricOracle(cap=0)
        assert zero.sphere_sizes(0) == [1]
        assert zero.ball(0) == {identity(): 0}
        assert zero.level_stats(0) == []
        with pytest.raises(ValueError, match="^radius 1 exceeds the oracle cap 0$"):
            zero.ball(1)


class TestBalls:
    def test_radius_zero_and_one(self, oracle):
        assert list(oracle.ball(0)) == [identity()]
        ball1 = oracle.ball(1)
        assert len(ball1) == 5
        x0, x1 = generator(0), generator(1)
        assert set(ball1) == {identity(), x0, inverse(x0), x1, inverse(x1)}

    def test_frozen_sizes(self, oracle):
        for radius, size in enumerate(BALL_SIZES):
            assert len(oracle.ball(radius)) == size

    def test_strictly_increasing(self, oracle):
        sizes = [len(oracle.ball(r)) for r in range(7)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_lengths_symmetric_under_inverse(self, oracle):
        for g, length in oracle.ball(5).items():
            assert oracle.ball(5)[inverse(g)] == length

    def test_triangle_inequality(self, oracle):
        rng = random.Random(13)
        ball3 = list(oracle.ball(3).items())
        for _ in range(300):
            (a, la), (b, lb) = rng.choice(ball3), rng.choice(ball3)
            lab = oracle.exact_length(multiply(a, b), 6)
            assert lab is not None and lab <= la + lb


class TestForwardOnlySearch:
    def test_matches_reference_search_in_order(self):
        x0, x1 = generator(0), generator(1)
        reference = reference_ball((x0, inverse(x0), x1, inverse(x1)), 7)
        assert list(WordMetricOracle().ball(7).items()) == list(reference.items())

    def test_one_product_per_edge_between_spheres(self, monkeypatch):
        calls, real = [], metric_module.multiply

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(metric_module, "multiply", counting)
        oracle = WordMetricOracle()
        stats = oracle.level_stats(8)
        assert len(calls) == 11_720
        assert sum(s.products for s in stats) == 11_720
        assert [s.new for s in stats] == SPHERES_TO_8[1:]
        assert all(s.products == s.new + s.duplicates for s in stats)
        assert oracle.sphere_sizes(8) == SPHERES_TO_8

    @pytest.mark.parametrize("query", ["ball", "sphere_sizes"])
    def test_shared_across_threads(self, query):
        # the ball grows under the search's lock, the sizes are counted under it
        oracle, results = WordMetricOracle(), []
        start = threading.Barrier(8)

        def grow():
            start.wait(timeout=60)
            if query == "ball":
                lengths = list(oracle.ball(8).values())
                results.append([lengths.count(r) for r in range(9)])
            else:
                results.append(oracle.sphere_sizes(8))

        threads = [threading.Thread(target=grow) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [SPHERES_TO_8] * 8
        assert len(oracle._lengths) == (11_237 if query == "ball" else 1)


@pytest.fixture(scope="module")
def oracle10():
    """A radius-10 oracle, its ball grown: 88,253 elements."""
    oracle = WordMetricOracle(cap=10)
    oracle.ball(10)
    return oracle


LARGE = settings(max_examples=5, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture,
                                        HealthCheck.too_slow,
                                        HealthCheck.data_too_large])


class TestWordLength:
    def test_equals_the_search_on_the_radius_10_ball(self, oracle10):
        ball = oracle10.ball(10)
        assert len(ball) == 88_253
        assert [g for g, length in ball.items() if word_length(g) != length] == []
        # the ball pairs caret types in every cell the table gives a weight
        used = {cell for g in ball
                for cell in zip(_caret_types(g.pair.neg), _caret_types(g.pair.pos))}
        weighted = {(a, b) for a, row in enumerate(_WEIGHTS)
                    for b, w in enumerate(row) if w is not None}
        assert used == weighted and len(weighted) == 29

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 99, 1000])
    def test_closed_forms(self, k):
        x0, x1 = generator(0), generator(1)
        assert word_length(generator(k)) == 2 * k - 1
        for g in (x0, x1, inverse(x0), inverse(x1)):
            assert word_length(power(g, k)) == k
        assert word_length(power(multiply(x0, inverse(x1)), k)) == 2 * k

    @LARGE
    @given(large_elements())
    def test_large_elements(self, default_recursion_limit, g):
        length = word_length(g)
        assert word_length(inverse(g)) == length
        x0, x1 = generator(0), generator(1)
        for s in (x0, inverse(x0), x1, inverse(x1)):
            assert abs(word_length(multiply(g, s)) - length) == 1
        if not g.is_identity:
            lower, upper = length_bounds(g)
            assert lower <= length <= upper

    def test_census_of_small_pairs(self):
        # every reduced pair of N-caret trees, N = 2..6: the lengths' extremes
        # lie inside the caret bracket, whose top 4N - 4 is not reached
        trees = [[LEAF]]
        for n in range(1, 7):
            trees.append([caret(left, right) for k in range(n)
                          for left in trees[k] for right in trees[n - 1 - k]])
        for n, count in zip(range(2, 7), (2, 14, 108, 930, 8700)):
            pairs = [TreePair(neg, pos) for neg in trees[n] for pos in trees[n]]
            lengths = [word_length(GroupElement.from_pair(pair))
                       for pair in pairs if is_reduced(pair)]
            assert len(lengths) == count, n
            expected = (1, 1) if n == 2 else (n - 2, 4 * n - 8)
            assert (min(lengths), max(lengths)) == expected, n

    def test_sampler_trees_are_read_by_position(self):
        # the sampler's trees share the cherry and the two-caret combs between
        # positions; the parsed copy shares nothing but leaves
        rng = random.Random(5)
        for _ in range(300):
            g = random_element(rng, 40)
            rebuilt = GroupElement.from_pair(parse_pair(format_pair(g.pair)))
            assert rebuilt == g
            assert word_length(g) == word_length(rebuilt)


class TestSphereCount:
    def test_equals_the_search_to_radius_10(self, oracle10):
        balls = [len(oracle10.ball(r)) for r in range(11)]
        spheres = [balls[0]] + [b - a for a, b in zip(balls, balls[1:])]
        assert oracle10.sphere_sizes(10) == spheres == SPHERES_TO_11[:11]

    def test_radius_11(self):
        assert _count_spheres(11) == SPHERES_TO_11

    def test_radius_12_equals_the_searched_sphere(self):
        assert _count_spheres(12) == SPHERES_TO_12

    @pytest.mark.parametrize("radius", [*range(17), 20])
    def test_packed_counts_equal_the_reference(self, radius):
        assert _count_spheres(radius) == reference_count_spheres(radius)

    def test_radius_0(self):
        assert _count_spheres(0) == [1]

    def test_counts_past_2_to_the_32(self):
        # the radius-22 sphere needs 34 bits, the largest at radius 20 only 31
        counts = _count_spheres(22)
        assert counts == reference_count_spheres(22)
        assert counts[20] < 2 ** 32 < counts[22]

    def test_standard_generators_make_no_products(self, monkeypatch):
        def refuse(a, b):
            raise RuntimeError("sphere sizes were searched for")

        monkeypatch.setattr(metric_module, "multiply", refuse)
        oracle = WordMetricOracle()
        assert oracle.sphere_sizes(9) == SPHERES_TO_11[:10]
        assert oracle.sphere_sizes(4) == SPHERES_TO_8[:5]
        with pytest.raises(ValueError, match="radius 10 exceeds the oracle cap 9"):
            oracle.sphere_sizes(10)


class TestBoundsOnBall:
    def test_radius_five_clean(self, oracle):
        report = check_bounds_on_ball(5, oracle)
        assert report.passed
        assert report.checked == BALL_SIZES[5] - 1
        assert report.violations == ()


class TestMetricEstimate:
    def test_estimate_with_lookup(self, oracle):
        est = metric_estimate(generator(2), oracle=oracle, search_radius=4)
        assert est == MetricEstimate(4, 2, 12, 3)
        est = metric_estimate(identity(), oracle=oracle)
        assert est.exact == 0

    def test_exact_equals_the_search_on_the_radius_7_ball(self, oracle):
        for g, length in oracle.ball(7).items():
            for r in range(8):
                expected = length if length <= r else None
                assert metric_estimate(g, search_radius=r).exact == expected, (g, r)

    def test_radius_checked_against_the_given_cap(self):
        g = generator(2)
        with pytest.raises(ValueError, match="^radius 4 exceeds the oracle cap 3$"):
            metric_estimate(g, oracle=WordMetricOracle(cap=3), search_radius=4)
        with pytest.raises(ValueError, match="^radius 10 exceeds the oracle cap 9$"):
            metric_estimate(g, search_radius=10)
        with pytest.raises(ValueError, match="^radius must be nonnegative$"):
            metric_estimate(g, search_radius=-1)
        assert metric_estimate(g, oracle=WordMetricOracle(cap=10), search_radius=10).exact == 3
        # the identity's radius is checked too, though its length needs none
        with pytest.raises(ValueError, match="^radius must be nonnegative$"):
            metric_estimate(identity(), search_radius=-1)
        with pytest.raises(ValueError, match="^radius 10 exceeds the oracle cap 9$"):
            metric_estimate(identity(), search_radius=10)

    @pytest.mark.parametrize("spec", [
        f_z_spec(), product_spec(("0", "11"), 1), product_spec(("0", "10", "11"), 0),
        product_spec(("00", "01", "1"), 2),
    ], ids=["phi", "psi 0,11", "psi 0,10,11", "psi 00,01,1"])
    def test_sweep_images_agree_with_the_search(self, oracle, monkeypatch, spec):
        # the benchmark's four specs: each image's exact length at radius 8
        # is the search's. Small factors put phi images on both sides of the
        # radius. The psi images all lie outside it; those of 00,01,1 do so
        # by their lower bound alone, so word_length is not read for them
        images, lengths_read = [], []

        def record(real, seen):
            def recording(*args):
                seen.append(real(*args))
                return seen[-1]
            return recording

        for name, seen in (("embed_f_z", images), ("word_length", lengths_read)):
            monkeypatch.setattr(metric_module, name, record(getattr(metric_module, name), seen))
        # a psi sweep embeds through the builder it makes for its spec
        real_builder = metric_module._product_builder
        monkeypatch.setattr(metric_module, "_product_builder",
                            lambda addresses: record(real_builder(addresses), images))
        samples = distortion_sweep(spec, 150, seed=5, max_carets=3, max_z=2,
                                   search_radius=8)
        assert len(images) == len(samples)
        assert [s.image.exact for s in samples] == [oracle.exact_length(image, 8)
                                                    for image in images]
        assert len(lengths_read) == sum(s.image.lower <= 8 for s in samples)

    def test_sweep_grows_no_ball(self):
        oracle = WordMetricOracle(cap=8)
        samples = distortion_sweep(f_z_spec(), 200, seed=1, max_carets=5, max_z=3,
                                   oracle=oracle, search_radius=8)
        assert any(s.image.exact is not None for s in samples)
        assert len(oracle._lengths) == 1  # the identity alone


def reference_random_tree(rng, carets):
    """The recursive sampler: randrange(carets) carets go left, in preorder."""
    if carets == 0:
        return LEAF
    left = rng.randrange(carets)
    return caret(reference_random_tree(rng, left),
                 reference_random_tree(rng, carets - 1 - left))


def reference_random_element(rng, max_carets, nontrivial=False):
    """The sampler through randint, the recursive trees and reduce_pair."""
    while True:
        carets = rng.randint(1, max_carets)
        g = GroupElement.from_pair(TreePair(reference_random_tree(rng, carets),
                                            reference_random_tree(rng, carets)))
        if not nontrivial or not g.is_identity:
            return g


class TestDrawIdentity:
    def test_elements_and_states_match_the_recursive_sampler(self):
        for seed in range(200):
            for max_carets in range(1, 41):
                nontrivial = max_carets > 1 and seed % 2 == 0  # x0^0 only below 2
                ours, ref = random.Random(seed), random.Random(seed)
                for _ in range(2):
                    g = random_element(ours, max_carets, nontrivial)
                    h = reference_random_element(ref, max_carets, nontrivial)
                    assert g == h
                    assert (g.pair.neg, g.pair.pos) == (h.pair.neg, h.pair.pos)
                assert ours.getstate() == ref.getstate(), (seed, max_carets)

    def test_trees_and_states_match_the_recursive_sampler(self):
        for seed in range(50):
            ours, ref = random.Random(seed), random.Random(seed)
            for carets in range(41):
                assert random_tree(ours, carets) == reference_random_tree(ref, carets)
            assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("max_carets", [120, 300])
    def test_large_elements_and_states_match_the_recursive_sampler(self, max_carets):
        for seed in range(100):
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                g = random_element(ours, max_carets, seed % 2 == 0)
                h = reference_random_element(ref, max_carets, seed % 2 == 0)
                assert (g.pair.neg, g.pair.pos) == (h.pair.neg, h.pair.pos)
            assert ours.getstate() == ref.getstate(), seed

    @pytest.mark.parametrize("carets", [1, 2, 3, 50, 300])
    def test_a_tree_drawn_twice_cuts_to_a_leaf(self, carets):
        # every caret of the second draw cancels, up to the root caret
        rng = random.Random(carets)
        state, keys = rng.getstate(), set()
        neg = metric_module._draw(rng.getrandbits, carets, keys, False)[0]
        rng.setstate(state)
        pos, cuts = metric_module._draw(rng.getrandbits, carets, keys, True)
        assert caret_count(neg) == carets
        assert pos is LEAF and cuts == [(0, carets + 1, LEAF)]

    def test_randbelow_is_randrange(self):
        ours, ref = random.Random(5), random.Random(5)
        for n in [*range(1, 301), 2 ** 32]:
            for _ in range(3):
                assert _randbelow(ours.getrandbits, n) == ref.randrange(n)
        assert ours.getstate() == ref.getstate()

    def test_randbelow_is_randint_and_choice(self):
        ours, ref = random.Random(6), random.Random(6)
        for _ in range(500):
            assert 1 + _randbelow(ours.getrandbits, 12) == ref.randint(1, 12)
            assert (-1, 1)[_randbelow(ours.getrandbits, 2)] == ref.choice((-1, 1))
        assert ours.getstate() == ref.getstate()

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError):
            random_element(random.Random(0), 0)
        rng = random.Random(0)
        state = rng.getstate()
        for max_carets in (0, 1):  # every 1-caret pair reduces to the identity
            with pytest.raises(ValueError):
                random_element(rng, max_carets, nontrivial=True)
        assert rng.getstate() == state
        with pytest.raises(ValueError):
            distortion_sweep(f_z_spec(), 5, max_carets=1)
        with pytest.raises(ValueError):
            random_tree(random.Random(0), -1)

    def test_sampler_skips_reduce_pair(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the sampler reduces from its own cherries")
        monkeypatch.setattr(group_module, "reduce_pair", forbidden)
        rng = random.Random(4)
        assert all(random_element(rng, 12).pair for _ in range(100))


class TestSampler:
    def test_seeded_reproducibility(self):
        a = [random_element(random.Random(99), 10) for _ in range(20)]
        b = [random_element(random.Random(99), 10) for _ in range(20)]
        assert a == b

    def test_tree_caret_counts(self):
        rng = random.Random(1)
        for carets in range(8):
            assert caret_count(random_tree(rng, carets)) == carets

    def test_nontrivial_flag(self):
        rng = random.Random(2)
        assert all(
            not random_element(rng, 3, nontrivial=True).is_identity
            for _ in range(200)
        )


class TestSweep:
    def test_pure_height_images(self):
        # the embedded (identity, k) is the k-th power of x0 x1^-1
        z = el("x0 x1^-1")
        for k in (1, 3, 7):
            image = embed_f_z(identity(), k)
            assert image == power(z, k)
            assert image.caret_count == k + 2

    def test_height_zero_is_double_shift(self):
        rng = random.Random(8)
        for _ in range(50):
            w = random_element(rng, 9, nontrivial=True)
            assert embed_f_z(w, 0) == shift(w, 2)
            assert embed_f_z(w, 0).caret_count == w.caret_count + 2

    def test_csv_format_and_determinism(self):
        samples = distortion_sweep(f_z_spec(), 25, seed=0)
        buf1 = io.StringIO()
        sweep_to_csv(samples, buf1)
        lines = buf1.getvalue().splitlines()
        assert lines[0] == "m,n,addresses,input_norm,caret_count,lower,upper,exact"
        assert len(lines) == 26
        assert all(line.endswith(",") for line in lines[1:])  # exact empty

        buf2 = io.StringIO()
        sweep_to_csv(distortion_sweep(f_z_spec(), 25, seed=0), buf2)
        assert buf1.getvalue() == buf2.getvalue()

        buf3 = io.StringIO()
        sweep_to_csv(distortion_sweep(f_z_spec(), 25, seed=1), buf3)
        assert buf1.getvalue() != buf3.getvalue()

    def test_negative_sample_count_rejected(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("a sample was drawn")

        monkeypatch.setattr(metric_module, "random_element", refuse)
        with pytest.raises(ValueError, match="^samples must be nonnegative$"):
            distortion_sweep(f_z_spec(), -3)
        assert distortion_sweep(f_z_spec(), 0) == []

    @pytest.mark.parametrize("max_z", [0, -2])
    def test_empty_integer_range_rejected_before_any_draw(self, monkeypatch, max_z):
        monkeypatch.setattr(metric_module, "random_element", None)  # a draw fails
        with pytest.raises(ValueError, match="^max_z must be at least 1"):
            distortion_sweep(f_z_spec(), 3, max_z=max_z)
        # with no integer factor max_z is never read
        assert len(distortion_sweep(product_spec(("",), 0), 2, max_z=max_z)) == 2

    def test_radius_checked_before_any_draw(self, monkeypatch):
        # also when no image needs it: none is drawn, or each is the identity
        def refuse(*args, **kwargs):
            raise RuntimeError("a sample was drawn")

        identities = product_spec(("",), 0)
        with pytest.raises(ValueError, match="^radius must be nonnegative$"):
            distortion_sweep(identities, 2, search_radius=-1)
        with pytest.raises(ValueError, match="^radius 4 exceeds the oracle cap 3$"):
            distortion_sweep(identities, 2, oracle=WordMetricOracle(cap=3), search_radius=4)
        monkeypatch.setattr(metric_module, "random_element", refuse)
        with pytest.raises(ValueError, match="^radius 99 exceeds the oracle cap 9$"):
            distortion_sweep(f_z_spec(), 0, search_radius=99)
        with pytest.raises(ValueError, match="^samples must be nonnegative$"):
            distortion_sweep(f_z_spec(), -3, search_radius=99)

    def test_sweep_plans_its_skeleton_once_and_validates_nothing(self, monkeypatch):
        # the spec checked its addresses when it was made: the sweep plans the
        # skeleton of this unsorted family once and checks no address again
        spec = product_spec(("11", "0", "10"), 1)
        calls, plans = [], []
        monkeypatch.setattr(embeddings_module, "validate_address", calls.append)
        monkeypatch.setattr(trees_module, "validate_address", calls.append)
        real = metric_module._product_builder
        monkeypatch.setattr(metric_module, "_product_builder",
                            lambda addresses: plans.append(addresses) or real(addresses))
        samples = distortion_sweep(spec, 60, seed=2)
        assert len(samples) == 60
        assert (calls, plans) == ([], [("11", "0", "10")])

    def test_phi_spec_names_the_address_its_image_uses(self):
        # embed_f_z always grafts at "11", so a phi spec may name no other
        assert f_z_spec() == EmbeddingSpec("phi", ("11",), 1, 1)
        for addresses in [("0",), ("1",), ("11", "0"), ()]:
            with pytest.raises(ValueError, match="address 11"):
                EmbeddingSpec("phi", addresses, 1, 1)

    def test_psi_spec_rejects_addresses_that_are_not_prefix_free(self):
        # checked when the spec is made, so a sweep of no samples rejects it too
        for addresses in [("0", "01"), ("", "1"), ("1", "10", "11")]:
            with pytest.raises(ValueError, match="pairwise prefix-free"):
                product_spec(addresses, 1)
        assert product_spec(("0", "10", "11"), 1).addresses == ("0", "10", "11")

    def test_psi_addresses_quoted_in_csv(self):
        spec = product_spec(("0", "10", "11"), 0)
        buf = io.StringIO()
        sweep_to_csv(distortion_sweep(spec, 3, seed=0), buf)
        assert '"0,10,11"' in buf.getvalue()

    def test_phi_envelope_matches_chain(self):
        # upper estimates sit exactly on 4 * norm + 12 for active factors
        samples = distortion_sweep(f_z_spec(), 400, seed=0)
        upper, lower = distortion_envelopes(samples)
        assert upper.slope == Fraction(4)
        assert upper.envelope_intercept == Fraction(12)
        assert lower.slope >= Fraction(1, 4)
        for s in samples:
            assert s.image.upper == 4 * s.input_norm + 12


class TestFits:
    def test_affine_fit_exact(self):
        assert affine_fit([(0, 1), (1, 3), (2, 5)]) == (Fraction(2), Fraction(1))

    def test_envelope_sides(self):
        points = [(0, 0), (1, 3), (2, 4)]
        up = envelope_fit(points, "upper")
        lo = envelope_fit(points, "lower")
        for xv, yv in points:
            assert yv <= up.slope * xv + up.envelope_intercept
            assert yv >= lo.slope * xv + lo.envelope_intercept

    def test_envelope_examples_with_negative_slope_and_ties(self):
        # slope -1/2; the upper residual 11/2 is reached at x = 1 and x = 3
        points = [(0, -2), (1, 5), (2, 3), (3, 4), (5, -3)]
        up, lo = envelope_fit(points, "upper"), envelope_fit(points, "lower")
        assert up.slope == lo.slope == Fraction(-1, 2)
        assert up.envelope_intercept == Fraction(11, 2)
        assert lo.envelope_intercept == Fraction(-2)

    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-40, 40)),
                    min_size=2, max_size=12).filter(lambda ps: len({x for x, _ in ps}) > 1),
           st.sampled_from(("upper", "lower")))
    def test_envelope_matches_fraction_residuals(self, points, side):
        fit = envelope_fit(points, side)
        residuals = [Fraction(y) - fit.slope * x for x, y in points]
        assert fit.envelope_intercept == (max if side == "upper" else min)(residuals)
        assert (fit.slope, fit.ls_intercept) == affine_fit(points)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            affine_fit([(1, 1), (1, 2)])
        with pytest.raises(ValueError):
            affine_fit([(1, 1)])
        with pytest.raises(ValueError):
            envelope_fit([(0, 0), (1, 1)], "sideways")
