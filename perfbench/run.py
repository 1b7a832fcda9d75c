"""Benchmark of thompsonf: the ball, arith and sweep workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload arith --seed 1 --seconds 20 --trace 0

One process, one thread, one closed-loop client: each op starts after the
previous one has returned, and its result is checked outside the timed
region. A run stops at the first op that ends after ``--seconds`` of
measured op time. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same ops untraced for half of
``--seconds``, then traced at the library's module boundaries for the
other half, then probes the recursion limits, and reports the per-layer
metrics. Op and set-up times are corrected for the host's speed drift by
a reference loop sampled during the run (hostclock.py); the raw wall
times are printed beside them. The last line of stdout is one JSON
object; the exit code is 1 when any check failed or the library is
missing. Workload choices are recorded in perfbench/design.json.
"""

from __future__ import annotations

import sys

# Importing the library must not leave __pycache__ files in the checkout.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import hostclock  # noqa: E402
import limits  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("trees", "words", "group", "metric", "embeddings", "cli")
SETUP_MIN_REPEATS = 3      # and repeat until SETUP_MIN_SECONDS have passed,
SETUP_MIN_SECONDS = 1.0    # so that a set-up of a few milliseconds gets a steady median

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def load_library() -> SimpleNamespace:
    """Import thompsonf afresh from the checkout's src directory."""
    if not (SRC / "thompsonf" / "__init__.py").is_file():
        raise SystemExit(f"error: no thompsonf package under {SRC}")
    for name in [n for n in sys.modules if n == "thompsonf" or n.startswith("thompsonf.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = SimpleNamespace(**{m: importlib.import_module(f"thompsonf.{m}") for m in MODULES})
    if SRC not in Path(lib.trees.__file__).resolve().parents:
        raise SystemExit(f"error: thompsonf was imported from outside {SRC}")
    return lib


def setup(name: str, seed: int):
    """Import and build the workload several times; keep the last build.
    Returns it with the (start, end) perf_counter times of each set-up."""
    spans, work, total = [], None, 0.0
    while len(spans) < SETUP_MIN_REPEATS or total < SETUP_MIN_SECONDS:
        work = None  # free the previous build first, so peak_rss_mb counts one
        t0 = time.perf_counter()
        work = workloads.build(name, seed, load_library())
        spans.append((t0, time.perf_counter()))
        total += spans[-1][1] - t0
    return work, spans


def failed_checks(op, result, lib, perturb_label=None) -> list[str]:
    """Labels of the checks the result fails; perturb_label gets a wrong expectation."""
    bad = []
    for check in op.checks(result):
        expected = check.expected
        if check.label == perturb_label:
            expected = workloads.perturb(expected, check.relation, lib)
        if not check.holds(expected):
            bad.append(check.label)
    return bad


def measure(work, seconds: float, tracer=None, perturb_label=None):
    """Closed loop over the op list; returns ((start, end) of each op, failed op count)."""
    spans, failed, elapsed, i = [], 0, 0.0, 0
    while True:
        op = work.ops[i % len(work.ops)]
        error = None
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # an op that raises is a failed op, not a crashed run
            error = traceback.format_exc(limit=-2)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        if error is None:
            try:
                bad = failed_checks(op, result, work.lib, perturb_label)
            except Exception:
                bad = [traceback.format_exc(limit=-2)]
        else:
            bad = [error]
        if bad:
            failed += 1
            if failed <= 3:
                print(f"op {i} ({op.kind}) failed: {', '.join(dict.fromkeys(bad))}",
                      file=sys.stderr)
        spans.append((t0, t1))
        elapsed += t1 - t0
        i += 1
        if elapsed >= seconds:
            return spans, failed


def run(name: str, seed: int, seconds: float, trace: bool, perturb_label=None) -> dict:
    """One benchmark run; perturb_label (self-test only) makes one check's answer wrong."""
    clock = hostclock.HostClock()
    # a traced run splits --seconds between its untraced and traced phases,
    # so it costs about as much time as an untraced run
    phase = seconds / 2 if trace else seconds
    with clock:
        work, setup_spans = setup(name, seed)
        spans, failed = measure(work, phase, perturb_label=perturb_label)
        if trace:
            tracer = tracing.Tracer()
            with tracing.traced(work.lib, tracer):
                traced_spans, traced_failed = measure(work, phase, tracer, perturb_label)
    setup_times = [clock.normalised(*span) for span in setup_spans]
    latencies = [clock.normalised(*span) for span in spans]
    wall = [t1 - t0 for t0, t1 in spans]
    attempted = len(latencies)
    ops_per_s = attempted / sum(latencies)
    lines = [f"workload {name} seed {seed}: {attempted} ops in {sum(wall):.3f} s "
             f"measured, closed loop, 1 client, {failed} failed",
             f"  host speed {clock.speed():.4f} of nominal over {len(clock.took)} reference "
             f"samples; raw wall clock: {attempted / sum(wall)} ops/s, "
             f"op p50 {1e3 * statistics.median(wall)} ms, "
             f"setup {statistics.median(t1 - t0 for t0, t1 in setup_spans)} s"]
    if not trace:
        ms = sorted(1e3 * t for t in latencies)
        metrics = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(ms),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                            - hostclock.TABLE_MB),
            "setup_s": statistics.median(setup_times),
        }
        lines.append(f"  setup_s is the median of {len(setup_times)} set-ups; "
                     f"op_p50_ms is over {attempted} ops")
        # the highest percentile with at least ten samples beyond it
        for n, label in ((1000, "op_p99_ms"), (100, "op_p90_ms")):
            if attempted >= n:
                value = statistics.quantiles(ms, n=n // 10)[-1]
                lines.append(f"  {label} {value} ms over {attempted} ops (printed, not gated)")
                break
        lines.append(f"  fail_ratio {failed / attempted} ({failed} failed / {attempted} attempted)")
        units = dict(END_TO_END)
        nested = True
    else:
        traced_latencies = [clock.normalised(*span) for span in traced_spans]
        attempted += len(traced_latencies)
        failed += traced_failed
        metrics, share = tracer.layer_metrics(
            ops_per_s, len(traced_latencies) / sum(traced_latencies), clock)
        nested = share <= 1.0
        # after the clock has stopped: the probe runs up to the recursion limit
        metrics.update(limits.probe(work.lib.group))
        lines.append(f"  traced phase: {len(traced_latencies)} ops, {len(tracer.name)} spans, "
                     f"{traced_failed} failed; per-op values are over the traced ops")
        lines.append(f"  trace check {'passed' if nested else 'FAILED'}: layer self times "
                     f"sum to at most {share:.4f} of an op's wall time")
        units = dict(tracing.LAYER_METRICS)
    for key, value in metrics.items():
        lines.append(f"  {key} {value} {units[key]}")
    return {
        "correct": failed == 0 and nested,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(result.pop("lines")))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
