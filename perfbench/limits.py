"""Untimed probe of how far two element families get before the library fails.

Both counts are taken with the recursion limit set to the caller's depth
plus Python's default of 1000 frames, so they describe the library and
not the stack the benchmark happens to run on. The searches stop at a
cap, so a library without the limit reports the cap.
"""

from __future__ import annotations

import sys

FRAMES = 1000
POWER_CAP = 4096
COMB_CAP = 1024


def _depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def _power_x0_max_k(group) -> int:
    """Largest k <= POWER_CAP with power(x0, k) succeeding (doubling, then bisection)."""
    x0 = group.generator(0)

    def ok(k):
        try:
            group.power(x0, k)
        except RecursionError:
            return False
        return True

    good, k = 0, 1
    while k <= POWER_CAP and ok(k):
        good, k = k, 2 * k
    bad = min(k, POWER_CAP + 1)
    while bad - good > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if ok(mid) else (good, mid)
    return good


def _comb_depth_max(group) -> int:
    """Largest k <= COMB_CAP with x0^k reached by repeated multiply(acc, x0)."""
    x0, acc = group.generator(0), group.identity()
    for k in range(COMB_CAP):
        try:
            acc = group.multiply(acc, x0)
        except RecursionError:
            return k
    return COMB_CAP


def probe(group) -> dict[str, int]:
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + FRAMES)
    try:
        return {
            "limits.power_x0_max_k": _power_x0_max_k(group),
            "limits.comb_depth_max": _comb_depth_max(group),
        }
    finally:
        sys.setrecursionlimit(old)
