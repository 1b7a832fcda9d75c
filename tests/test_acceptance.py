"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
and prints a single pass/fail line (run pytest with -s to see them
against a green suite; on failure pytest shows the assertion itself).
All checks are exact integer or rational comparisons; the only stated
tolerances are the runtime budgets, asserted as given.
"""

import random
import time
from fractions import Fraction

from thompsonf import (
    NormalForm,
    check_bounds_on_ball,
    clone_map,
    commutator_is_trivial,
    distortion_envelopes,
    distortion_sweep,
    embed_f_z,
    embed_product,
    generator,
    identity,
    inverse,
    multiply,
    normal_form_to_tree_pair,
    product_spec,
    reduce_pair,
    rewrite_to_normal_form,
    right_subtree_claims,
    right_subtree_of_root_empty,
    tree_pair_to_normal_form,
    verify_relators,
    x,
    xinv,
    z_generator,
)
from thompsonf.metric import random_element, random_tree
from thompsonf.trees import TreePair

from conftest import within


def report(number, label, elapsed, budget):
    print(f"ACCEPTANCE {number}: PASS {label} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_1_relator_suite():
    start = time.perf_counter()
    result = verify_relators(max_index=8)
    assert result.passed, result.failures
    assert len(result.entries) == 2 + 36  # both relators, all 0 <= i < j <= 8
    report(1, "relator suite exact", time.perf_counter() - start, 1.0)


def test_criterion_2_normal_form_bijection():
    start = time.perf_counter()

    rng = random.Random(2024)
    for _ in range(10_000):
        carets = rng.randint(0, 10)
        pair = reduce_pair(
            TreePair(random_tree(rng, carets), random_tree(rng, carets))
        )
        nf = tree_pair_to_normal_form(pair)
        assert normal_form_to_tree_pair(nf) == pair

    letters = (x(0), xinv(0), x(1), xinv(1))
    gens = {
        letter: generator(letter.index) if letter.sign > 0
        else inverse(generator(letter.index))
        for letter in letters
    }
    checked = 0

    def walk(word, element, depth_left):
        nonlocal checked
        assert element.normal_form() == rewrite_to_normal_form(word)
        checked += 1
        if depth_left:
            for letter in letters:
                walk(word + (letter,), multiply(element, gens[letter]), depth_left - 1)

    walk((), identity(), 8)
    assert checked == (4 ** 9 - 1) // 3  # every word of length <= 8
    report(2, "bijection roundtrip and oracle agreement", time.perf_counter() - start, 60.0)


def test_criterion_3_z_power_formula():
    start = time.perf_counter()
    z = multiply(generator(0), inverse(generator(1)))
    g = identity()
    for k in range(1, 51):
        g = multiply(g, z)
        expected = NormalForm(((0, k),), tuple((i, 1) for i in range(1, k + 1)))
        assert g.normal_form() == expected
        assert g.caret_count == k + 2
    report(3, "power formula and caret count, k = 1..50", time.perf_counter() - start, 1.0)


def test_criterion_4_metric_bounds_on_ball():
    start = time.perf_counter()
    bounds = check_bounds_on_ball(8)
    assert bounds.checked == 11236
    assert bounds.passed
    report(4, f"metric bounds over {bounds.checked} ball elements",
           time.perf_counter() - start, 300.0)


def test_criterion_5_f_z_caret_arithmetic():
    start = time.perf_counter()
    rng = random.Random(55)
    for _ in range(1000):
        w = random_element(rng, 12)
        t = rng.randint(1, 12)
        image = embed_f_z(w, t)
        assert image.caret_count == w.caret_count + t + 2
        input_norm = max(w.caret_count - 2, 0) + t
        assert 4 * image.caret_count - 4 <= 4 * input_norm + 12
    report(5, "F x Z caret arithmetic and upper chain", time.perf_counter() - start, 60.0)


def test_criterion_6_commutation_and_homomorphisms():
    start = time.perf_counter()

    for i in range(5):
        for j in range(i + 1, 5):
            assert commutator_is_trivial(z_generator(i), z_generator(j))

    rng = random.Random(66)
    for _ in range(1000):
        while True:
            a_addr = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
            b_addr = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
            if not (a_addr.startswith(b_addr) or b_addr.startswith(a_addr)):
                break
        a = clone_map(a_addr, random_element(rng, 6))
        b = clone_map(b_addr, random_element(rng, 6))
        assert multiply(a, b) == multiply(b, a)

    for _ in range(1000):
        w1, w2 = random_element(rng, 5), random_element(rng, 5)
        t1, t2 = rng.randint(-4, 4), rng.randint(-4, 4)
        assert embed_f_z(multiply(w1, w2), t1 + t2) == multiply(
            embed_f_z(w1, t1), embed_f_z(w2, t2)
        )

    addrs = ("0", "11")
    for _ in range(1000):
        w1, w2 = random_element(rng, 4), random_element(rng, 4)
        t1, t2 = rng.randint(-3, 3), rng.randint(-3, 3)
        lhs = embed_product(addrs, (multiply(w1, w2),), (t1 + t2,))
        rhs = multiply(
            embed_product(addrs, (w1,), (t1,)),
            embed_product(addrs, (w2,), (t2,)),
        )
        assert lhs == rhs

    report(6, "commutation and homomorphism laws, exact", time.perf_counter() - start, 120.0)


def test_criterion_7_right_subtree_lemma(ball9):
    start = time.perf_counter()
    met = 0
    counterexamples = 0
    for g in within(ball9, 7):
        if g.is_identity:
            continue
        pos_claim, neg_claim = right_subtree_claims(g.normal_form())
        if pos_claim:
            met += 1
            if not right_subtree_of_root_empty(g.pair.pos):
                counterexamples += 1
        if neg_claim:
            met += 1
            if not right_subtree_of_root_empty(g.pair.neg):
                counterexamples += 1
    assert counterexamples == 0
    assert met > 500  # the hypothesis is exercised, not vacuous
    report(
        7,
        f"right-subtree claims on the radius-7 ball ({met} hypotheses met)",
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_8_distortion_envelopes():
    start = time.perf_counter()
    configs = [
        ("(m=1, n=1)", product_spec(("0", "11"), 1)),
        ("(m=2, n=0)", product_spec(("0", "10", "11"), 0)),
        ("(m=2, n=2)", product_spec(("00", "01", "1"), 2)),
    ]
    for label, spec in configs:
        samples = distortion_sweep(spec, 1000, seed=8)
        upper, lower = distortion_envelopes(samples)
        assert upper.slope <= Fraction(4), (label, upper.slope)
        assert lower.slope >= Fraction(1, 4), (label, lower.slope)
        print(
            f"  {label}: upper slope {upper.slope} intercept {upper.envelope_intercept}, "
            f"lower slope {lower.slope} intercept {lower.envelope_intercept}"
        )
    report(8, "distortion envelope slopes within (1/4, 4)", time.perf_counter() - start, 300.0)
