import io
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thompsonf import (
    LEAF,
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
    generator,
    identity,
    inverse,
    length_bounds,
    metric_estimate,
    multiply,
    power,
    product_spec,
    shift,
    sweep_to_csv,
)
from thompsonf import group as group_module
from thompsonf import metric as metric_module
from thompsonf.metric import _randbelow, random_element, random_tree

from conftest import el

# frozen oracle regression: ball sizes at radius 0..5
BALL_SIZES = [1, 5, 17, 53, 161, 475]
SPHERES_TO_8 = [1, 4, 12, 36, 108, 314, 906, 2576, 7280]


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

    def test_generator_order_does_not_matter(self, oracle):
        x0, x1 = generator(0), generator(1)
        reordered = WordMetricOracle(
            generators=(inverse(x1), x1, inverse(x0), x0)
        )
        assert reordered.ball(4) == oracle.ball(4)

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
    @pytest.mark.parametrize("name, radius", [
        ("default", 7), ("reordered", 7), ("no inverses", 7), ("non-bipartite", 5),
    ])
    def test_matches_reference_search_in_order(self, name, radius):
        x0, x1 = generator(0), generator(1)
        x01 = multiply(x0, x1)
        generators = {
            "default": (x0, inverse(x0), x1, inverse(x1)),
            "reordered": (inverse(x1), x1, inverse(x0), x0),
            "no inverses": (x0, x1),
            "non-bipartite": (x0, inverse(x0), x1, inverse(x1), x01, inverse(x01)),
        }[name]
        ball = WordMetricOracle(generators=generators).ball(radius)
        assert list(ball.items()) == list(reference_ball(generators, radius).items())

    def test_one_product_per_edge_between_spheres(self, monkeypatch):
        calls, real = [], metric_module.multiply

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(metric_module, "multiply", counting)
        oracle = WordMetricOracle()
        assert oracle.sphere_sizes(8) == SPHERES_TO_8
        assert len(calls) == 11_720
        stats = oracle.level_stats(8)
        assert sum(s.products for s in stats) == 11_720
        assert [s.new for s in stats] == SPHERES_TO_8[1:]
        assert all(s.products == s.new + s.duplicates for s in stats)

    def test_shared_across_threads(self):
        oracle, results = WordMetricOracle(), []
        start = threading.Barrier(8)

        def grow():
            start.wait(timeout=60)
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
        assert len(oracle._lengths) == 11_237


class TestBoundsOnBall:
    def test_radius_five_clean(self, oracle):
        report = check_bounds_on_ball(5, oracle)
        assert report.passed
        assert report.checked == BALL_SIZES[5] - 1
        assert report.violations == ()


class TestMetricEstimate:
    def test_exact_within_bracket_enforced(self):
        with pytest.raises(ValueError):
            MetricEstimate(caret_count=3, lower=1, upper=8, exact=20)

    def test_estimate_with_lookup(self, oracle):
        est = metric_estimate(generator(2), oracle=oracle, search_radius=4)
        assert est == MetricEstimate(4, 2, 12, 3)
        est = metric_estimate(identity(), oracle=oracle)
        assert est.exact == 0


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
