"""Host-speed reference for the benchmark's timings.

On a shared host the speed of one busy core drifts: neighbours on the same
physical core slow every instruction by up to a half, in stretches that last
from under a second to longer than a whole run.  No statistic over the
program's own timings removes a stretch that covers the run, so the benchmark
also times a fixed reference operation, interleaved with the program's work,
and reports each timing scaled to a host on which that operation takes
``REF_S``:

    scaled = measured * REF_S / median(reference times around it)

The reference is exact rational arithmetic on growing integers (like the
library's, but without calling it), so a change to ``besicov`` cannot move it;
it and the program slow down together, and their ratio holds within a few
percent where either alone swings by a third.  Raw timings and the factor are
kept in every result beside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

#: Median time of ``_reference_work`` on the host the benchmark was calibrated
#: on (2 vCPUs of a 2.1 GHz Xeon, CPython 3): scaled timings are seconds on
#: that host at its typical speed.
REF_S = 4.0e-4


def _reference_work() -> Fraction:
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(i * i + 1, 7 * i + 3) ** 3
    return s


def sample(reps: int = 1) -> list[float]:
    """Time the reference operation ``reps`` times.

    The collector is off meanwhile, so the program's heap (which a change to
    it may grow) cannot make the reference slower through collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(reps):
            t0 = time.perf_counter()
            _reference_work()
            out.append(time.perf_counter() - t0)
        return out
    finally:
        if enabled:
            gc.enable()


def factor(samples: list[float]) -> float:
    """Scale factor from measured seconds to seconds at reference speed."""
    return REF_S / statistics.median(samples)
