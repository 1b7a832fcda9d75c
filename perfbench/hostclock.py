"""Host-speed correction: a fixed reference loop timed while the benchmark runs.

On a shared virtual machine the speed of the same Python code drifts by
tens of percent over seconds, so raw wall-clock times of identical runs
spread more than any useful bound. ``HostClock`` keeps an interval timer
running: every ``INTERVAL_S`` of wall time SIGALRM interrupts whatever
Python code is running and the handler times one ``reference_unit``, a
fixed piece of interpreter and memory work that never calls the library.
``normalised(t0, t1)`` then turns the wall time of an interval into
host-independent time:

    (t1 - t0 - reference time spent inside it) * NOMINAL_UNIT_S / u

where ``u`` is the median reference time of the samples taken within
``WINDOW_S`` of the interval. A change to the library moves the result
one for one; a change of host speed moves ``u`` and the raw time alike
and cancels. The samples take a few percent of the wall time, and that
time is taken out again.

Stop the clock (``with HostClock():`` does) before code that runs close
to the recursion limit: the handler needs a few frames of its own.
"""

from __future__ import annotations

import resource
import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.01          # one reference sample per 10 ms of wall time
WINDOW_S = 0.1             # samples this close to an interval estimate its host speed
UNIT_STEPS = 500           # interpreter half of the unit
UNIT_PROBES = 300          # memory half: reads at pseudo-random places in TABLE
TABLE_ITEMS = 1 << 20      # about 50 MB of int objects, far past a core's L2, like ball's heap
NOMINAL_UNIT_S = 5.0e-4    # the unit's typical time on a 2.0 GHz Xeon, so results read close to wall time

# Built at import, before the library is loaded, and resident all run. The
# list is allocated at its final size, so building it leaves no garbage and
# the run's peak RSS less TABLE_MB is the peak of everything else.
_rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
TABLE = [0] * TABLE_ITEMS
for _k in range(TABLE_ITEMS):
    TABLE[_k] = _k * 1000003 + 1000      # distinct int objects, none of them cached
TABLE_MB = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - _rss_before) / 1024
_position = [12345]


def reference_unit() -> int:
    """A fixed amount of work that never calls the library: small tuples
    hashed into a dict, then reads of int objects scattered over TABLE,
    which miss the core's own caches. Both halves matter: interpreter-bound
    and memory-bound code slow down by different factors when the host is
    busy, and the library does both."""
    seen: dict = {}
    node = None
    for i in range(UNIT_STEPS):
        node = (node, i & 7) if i & 15 else None
        key = (i & 63, i >> 6)
        seen[key] = hash(key) ^ len(seen)
    i, total, table = _position[0], 0, TABLE
    for _ in range(UNIT_PROBES):
        i = (i * 1103515245 + 12345) & 0x7FFFFFFF
        total += table[i & (TABLE_ITEMS - 1)]
    _position[0] = i
    return len(seen) + total


class HostClock:
    """Samples the reference unit on SIGALRM between ``start`` and ``stop``."""

    def __init__(self):
        self.at = array("d")       # start of each sample, perf_counter seconds
        self.took = array("d")     # duration of each sample
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_unit()
        self.took.append(perf_counter() - t0)
        self.at.append(t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self) -> HostClock:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def reference_time(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] that the samples took."""
        return sum(self.took[bisect_left(self.at, t0):bisect_right(self.at, t1)])

    def factor(self, t0: float, t1: float) -> float:
        """Nominal over measured host speed near [t0, t1]."""
        near = self.took[bisect_left(self.at, t0 - WINDOW_S):bisect_right(self.at, t1 + WINDOW_S)]
        if not near:
            raise RuntimeError("no host-speed sample near a timed interval; was the clock started?")
        return NOMINAL_UNIT_S / statistics.median(near)

    def normalised(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would take at the nominal host speed."""
        return (t1 - t0 - self.reference_time(t0, t1)) * self.factor(t0, t1)

    def speed(self) -> float:
        """Median measured over nominal host speed: 1.0 at the nominal speed."""
        return NOMINAL_UNIT_S / statistics.median(self.took)
