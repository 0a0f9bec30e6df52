"""Host time rescaled by a reference loop that is timed alongside the work.

The CPU that runs the benchmark can change speed for seconds at a time: on
a shared 2-core x86-64 machine a fixed pure-Python loop took 1.2 ms in one
phase and 2.1 ms in the next, and 20 s runs of the same workload and seed
differed by 25-30%. Every INTERVAL_S seconds of work the clock times
``reference()`` and scales the host time since the previous calibration by
REFERENCE_S / measured, so a phase that slows the reference loop by some
factor is divided back out of the workload's time. The reference loop's own
time is left out of every reading. Raw host time is kept beside the scaled
time for the summary.
"""

from __future__ import annotations

import time

# Time of one reference() call on the machine the benchmark was tuned on, in
# its fast phase; scaled readings are host seconds at that speed.
REFERENCE_S = 0.0005
INTERVAL_S = 0.05   # work between calibrations
REPEATS = 3         # reference() calls per calibration; the fastest counts


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference() -> int:
    """Interpreter work of the kind ccsim does: small objects, attribute and
    dict access, list building and a keyed sort."""
    items = [_Item(str(i), i) for i in range(600)]
    table = {}
    for item in items:
        table[item.key] = item.value
    total = 0
    for i in range(600):
        total += table.get(str(i), 0)
    items.sort(key=lambda item: -item.value)
    return total + items[0].value


class HostClock:
    def __init__(self):
        self.scaled = 0.0     # reference-speed seconds so far
        self.raw = 0.0        # host seconds so far, reference loop excluded
        self._last = self._next = 0.0
        self.factor = self._calibrate()

    def _calibrate(self) -> float:
        best = None
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            reference()
            took = time.perf_counter() - t0
            best = took if best is None else min(best, took)
        self._last = time.perf_counter()
        self._next = self._last + INTERVAL_S
        return REFERENCE_S / best

    def now(self) -> float:
        """Reference-speed seconds elapsed so far.

        Time since the last calibration is scaled by the mean of the factors
        measured before and after it; readings in between use the earlier
        factor alone.
        """
        t = time.perf_counter()
        span = t - self._last
        self.raw += span
        if t >= self._next:
            factor = self._calibrate()
            self.scaled += span * (self.factor + factor) / 2
            self.factor = factor
        else:
            self.scaled += span * self.factor
            self._last = t
        return self.scaled
