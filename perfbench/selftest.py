"""Self-test of the benchmark: every check it makes can fail.

Run from the root of a checkout (about half a minute):

    python3 perfbench/selftest.py

For each workload it runs the first op unchanged, which must pass, then
once per check label with that check's expected answer made wrong (a
perturbed sphere size, a wrong element or string, a broken slope bound),
which must count the op as failed.
Whole arith runs with a wrong answer, untraced and traced, must report
correct=false, which makes run.py exit 1. Last, BENCHMARK.json must name
exactly the workloads and metrics run.py reports.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def fail(message: str) -> None:
    raise SystemExit(f"self-test FAILED: {message}")


def check_workload(name: str) -> int:
    work = workloads.build(name, SEED, run.load_library())
    first = workloads.Workload(work.ops[:1], work.lib)
    op = first.ops[0]
    result = op.run()
    if run.failed_checks(op, result, work.lib):
        fail(f"{name}: op {op.kind} fails with the true answers")
    labels = list(dict.fromkeys(check.label for check in op.checks(result)))
    for label in labels:
        _, failed = run.measure(first, 0, perturb_label=label)
        if failed != 1:
            fail(f"{name}: a wrong {label} did not fail the op that checks it")
        print(f"  {name}: wrong {label} -> fail_ratio 1/1")
    return len(labels)


def check_failed_run(trace: bool) -> None:
    """A whole run with one wrong answer reports correct=false, so main() exits 1."""
    result = run.run("arith", SEED, 0, trace, perturb_label="arith.undo")
    if result["correct"] or not result["failed"]:
        fail(f"a run with a wrong answer reported success (trace={trace})")
    print(f"  arith run, trace={int(trace)}: wrong arith.undo -> "
          f"{result['failed']}/{result['attempted']} failed, correct=false")


def check_benchmark_json() -> None:
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["end_to_end"]] != [n for n, _ in run.END_TO_END]:
        fail("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [m["name"] for m in spec["per_layer"]] != [n for n, _ in tracing.LAYER_METRICS]:
        fail("BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", tracing.LAYER_METRICS)):
        if [m["unit"] for m in spec[section]] != [u for _, u in table]:
            fail(f"BENCHMARK.json {section} units differ from run.py")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def main() -> int:
    check_benchmark_json()
    for name in workloads.WORKLOADS:
        count = check_workload(name)
        print(f"{name}: {count} checks, each fails when its expected answer is wrong")
    check_failed_run(trace=False)
    check_failed_run(trace=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
