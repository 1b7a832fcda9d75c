"""The three workloads: their inputs, their ops and the checks on each op.

Every input is drawn here from the workload seed; the library only ever
receives the generated values. Each op is a closure over its inputs whose
``run`` is timed and whose ``checks`` compare the result with an answer
found by another route (a closed form, the rewriting oracle, the inverse
operation or a known table). Checks run outside the timed region.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

WORKLOADS = ("ball", "arith", "sweep")

# ball: the sphere sizes of the radius-9 ball on {x0, x1} (the oracle's cap)
BALL_RADIUS = 9
SPHERES = [1, 4, 12, 36, 108, 314, 906, 2576, 7280, 20352]

# arith: one op is a round of six kinds of single operation, whose
# latencies differ twentyfold, so that every op measures the same mix.
# Sizes stay below the limits the probe reports (power of x0 up to 511,
# comb depth up to 990), so no op hits the recursion limit.
ARITH_ROUNDS = 240          # ops, each with its own random element; more than one run completes
MAX_CARETS = 300            # carets of each random same-size pair before reduction
MAX_POWER = 200
WORD_LETTERS = (100, 300)

# sweep: the four specs of the paper's distortion measurement; one op is
# one batch on each spec, so every op measures the same mix of specs
SWEEP_SAMPLES = 100         # samples per distortion_sweep batch
SWEEP_ROUNDS = 128          # ops; more than one run usually completes
ORACLE_RADIUS = 8


@dataclass(frozen=True)
class Check:
    """One comparison of a computed value with its expected value."""

    label: str
    actual: object
    relation: str           # "eq", "le" or "ge": actual <relation> expected
    expected: object

    def holds(self, expected) -> bool:
        if self.relation == "eq":
            return self.actual == expected
        if self.relation == "le":
            return self.actual <= expected
        return self.actual >= expected


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    checks: Callable[[object], list[Check]]


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    lib: SimpleNamespace


def build(name: str, seed: int, lib: SimpleNamespace) -> Workload:
    rng = random.Random(seed)
    if name == "ball":
        return _ball(lib)
    if name == "arith":
        return _arith(lib, rng)
    if name == "sweep":
        return _sweep(lib, rng)
    raise ValueError(f"unknown workload {name!r}")


def perturb(expected, relation: str, lib: SimpleNamespace):
    """A wrong expected answer of the same type, for the self-test."""
    if relation == "le":
        return expected - 1
    if relation == "ge":
        return expected + 1
    if isinstance(expected, list):
        return expected[:-1] + [perturb(expected[-1], relation, lib)]
    if isinstance(expected, str):
        return expected + " x0"
    if isinstance(expected, int):
        return expected + 1
    if isinstance(expected, lib.group.GroupElement):
        return lib.group.multiply(expected, lib.group.generator(0))
    raise TypeError(f"no perturbation for {type(expected).__name__}")


# --- ball ------------------------------------------------------------------

def _ball(lib) -> Workload:
    metric = lib.metric

    def run():
        oracle = metric.WordMetricOracle()
        return [oracle.sphere_sizes(r) for r in range(1, BALL_RADIUS + 1)]

    def checks(levels):
        expected = [SPHERES[:r + 1] for r in range(1, BALL_RADIUS + 1)]
        return [Check("ball.spheres", levels, "eq", expected)]

    return Workload([Op("ball", run, checks)], lib)


# --- arith -----------------------------------------------------------------

def _van_der_corput(i: int) -> float:
    """The i-th point of the base-2 van der Corput sequence in [0, 1)."""
    x, scale = 0.0, 0.5
    while i:
        x += scale * (i & 1)
        i >>= 1
        scale /= 2
    return x


def _stratified(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` integers in [lo, hi] from the van der Corput sequence shifted
    by a random offset: every prefix of the list spreads evenly over the
    range, so runs that stop after any number of ops see the same sizes."""
    shift = rng.random()
    return [lo + int(((_van_der_corput(i) + shift) % 1.0) * (hi - lo + 1))
            for i in range(count)]


def _random_tree(trees, rng: random.Random, carets: int):
    if carets == 0:
        return trees.LEAF
    left = rng.randrange(carets)
    return trees.caret(_random_tree(trees, rng, left),
                       _random_tree(trees, rng, carets - 1 - left))


def _random_word(rng: random.Random, letters: int) -> str:
    return " ".join(rng.choice(("x0", "x0^-1", "x1", "x1^-1")) for _ in range(letters))


def _power_text(k: int) -> str:
    """Closed form of (x0 x1^-1)^k for k >= 1: x0^k x_k^-1 ... x1^-1."""
    head = "x0" if k == 1 else f"x0^{k}"
    return head + "".join(f" x{j}^-1" for j in range(k, 0, -1))


def _arith(lib, rng: random.Random) -> Workload:
    trees, words, group, cli = lib.trees, lib.words, lib.group, lib.cli
    pool = [
        group.GroupElement.from_pair(trees.TreePair(
            _random_tree(trees, rng, n), _random_tree(trees, rng, n)))
        for n in _stratified(rng, ARITH_ROUNDS, 1, MAX_CARETS)
    ]
    z = group.multiply(group.generator(0), group.inverse(group.generator(1)))
    powers = _stratified(rng, ARITH_ROUNDS, 1, MAX_POWER)
    word_sizes = _stratified(rng, ARITH_ROUNDS, *WORD_LETTERS)
    cli_sizes = _stratified(rng, ARITH_ROUNDS, *WORD_LETTERS)
    cli_powers = _stratified(rng, ARITH_ROUNDS, 1, MAX_POWER)
    partners = rng.sample(pool, ARITH_ROUNDS)  # every element is a left and a right factor once

    def rewrite_text(text):
        return str(words.rewrite_to_normal_form(words.parse_word(text)))

    ops: list[Op] = []
    for j in range(ARITH_ROUNDS):
        kinds = [_undo_op(group, pool[j], partners[j]),
                 _cancel_op(group, pool[j]),
                 _power_op(group, z, powers[j]),
                 _nf_op(group, pool[j]),
                 _word_op(group, words, _random_word(rng, word_sizes[j]))]
        size = cli_sizes[j]
        if j % 3 == 0:
            text = _random_word(rng, size)
            kinds.append(_cli_op(cli, ["nf", text], lambda t=text: rewrite_text(t)))
        elif j % 3 == 1:
            left, right = _random_word(rng, size // 2), _random_word(rng, size - size // 2)
            kinds.append(_cli_op(cli, ["mul", left, right],
                                 lambda t=f"{left} {right}": rewrite_text(t)))
        else:
            k = cli_powers[j]
            kinds.append(_cli_op(cli, ["pow", "x0 x1^-1", "--pow", str(k)],
                                 lambda k=k: _power_text(k)))
        ops.append(_round_op(kinds))
    return Workload(ops, lib)


def _round_op(kinds: list[Op]) -> Op:
    def run():
        return [op.run() for op in kinds]

    def checks(results):
        return [check for op, r in zip(kinds, results) for check in op.checks(r)]
    return Op("round", run, checks)


def _undo_op(group, a, b) -> Op:
    def run():
        return group.multiply(group.multiply(a, b), group.inverse(b))
    return Op("undo", run, lambda r: [Check("arith.undo", r, "eq", a)])


def _cancel_op(group, a) -> Op:
    def run():
        return group.multiply(a, group.inverse(a))
    return Op("cancel", run, lambda r: [Check("arith.cancel", r, "eq", group.identity())])


def _power_op(group, z, k) -> Op:
    def run():
        return group.power(z, k)

    def checks(r):
        return [Check("arith.power_nf", str(r.normal_form()), "eq", _power_text(k)),
                Check("arith.power_carets", r.caret_count, "eq", k + 2)]
    return Op("power", run, checks)


def _nf_op(group, a) -> Op:
    def run():
        return group.GroupElement.from_normal_form(a.normal_form())
    return Op("nf", run, lambda r: [Check("arith.nf_round_trip", r, "eq", a)])


def _word_op(group, words, text) -> Op:
    def run():
        letters = words.parse_word(text)
        return (group.element_of_word(letters).normal_form(),
                words.rewrite_to_normal_form(letters))
    return Op("word", run, lambda r: [Check("arith.word_routes", str(r[0]), "eq", str(r[1]))])


def _cli_op(cli, argv, expected_text) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def checks(r):
        return [Check("arith.cli_exit", r[0], "eq", 0),
                Check("arith.cli_output", r[1].rstrip("\n"), "eq", expected_text())]
    return Op("cli", run, checks)


# --- sweep -----------------------------------------------------------------

def _sweep(lib, rng: random.Random) -> Workload:
    metric = lib.metric
    specs = (
        metric.f_z_spec(),
        metric.product_spec(("0", "11"), 1),
        metric.product_spec(("0", "10", "11"), 0),
        metric.product_spec(("00", "01", "1"), 2),
    )
    oracle = metric.WordMetricOracle(cap=ORACLE_RADIUS)
    oracle.sphere_sizes(ORACLE_RADIUS)
    ops = [_sweep_op(metric, specs, oracle, [rng.randrange(2 ** 32) for _ in specs])
           for _ in range(SWEEP_ROUNDS)]
    return Workload(ops, lib)


def _sweep_op(metric, specs, oracle, seeds) -> Op:
    def batch(spec, seed):
        samples = metric.distortion_sweep(spec, SWEEP_SAMPLES, seed=seed, oracle=oracle,
                                          search_radius=ORACLE_RADIUS)
        upper, lower = metric.distortion_envelopes(samples)
        stream = io.StringIO()
        metric.sweep_to_csv(samples, stream)
        return samples, upper, lower, stream.getvalue()

    def run():
        return [batch(spec, seed) for spec, seed in zip(specs, seeds)]

    def batch_checks(r):
        samples, upper, lower, text = r
        escapes = sum(
            1 for s in samples
            if s.image.exact is not None and s.image.caret_count > 0
            and not s.image.caret_count - 2 <= s.image.exact <= 4 * s.image.caret_count - 4
        )
        return [Check("sweep.upper_slope", upper.slope, "le", 4),
                Check("sweep.lower_slope", lower.slope, "ge", Fraction(1, 4)),
                Check("sweep.bracket_escapes", escapes, "eq", 0),
                Check("sweep.csv_rows", len(text.splitlines()) - 1, "eq", len(samples)),
                Check("sweep.samples", len(samples), "eq", SWEEP_SAMPLES)]

    return Op("sweep", run, lambda results: [c for r in results for c in batch_checks(r)])
