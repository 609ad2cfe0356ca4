"""Host-speed reference: a fixed kernel timed between benchmark ops.

The benchmark was sized on a 2-vCPU VM that shares its physical
machine.  Its speed moves by up to 1.6x in states that last from
seconds to tens of minutes, so two sets of runs taken some minutes
apart disagree by more than any useful bound.  The kernel below is a small discrete-event loop (a heap
of timestamps plus a dict of per-key totals), the same kind of
pointer-chasing Python work as the simulator, so it slows down with the
host much as the simulator does; tight arithmetic loops do not.  It
imports nothing from ``repro``, so no change to the program moves it.

The kernel reacts to the host more strongly than the simulator does:
across one state change it slowed 1.73x where ``fine-epoch`` ops slowed
1.55x.  The program's walls follow the kernel's to about the power
``SENSITIVITY``; ``perfbench/README.md`` ("Host noise") gives the runs
it was chosen on and checked against.

``Reference.scale()`` is ``(median kernel wall / REFERENCE_S) **
SENSITIVITY`` over one run.  The benchmark divides its host times by it
and multiplies its rates by it, which states them at the reference host
speed.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import List

#: Kernel wall in the host's fast state (2-vCPU Xeon VM, 2.1 GHz).
REFERENCE_S = 0.07

#: Exponent by which the program's walls follow the kernel's.
SENSITIVITY = 0.75

_EVENTS = 60_000
_SOURCES = 2048


def _kernel() -> int:
    rng = random.Random(1)
    heap = [(rng.random(), i) for i in range(_SOURCES)]
    heapq.heapify(heap)
    totals = {}
    for _ in range(_EVENTS):
        t, i = heapq.heappop(heap)
        key = (i & 1023, i >> 10)
        totals[key] = totals.get(key, 0.0) + t
        heapq.heappush(heap, (t + rng.random(), (i * 7 + 3) % _SOURCES))
    return len(totals)


class Reference:
    """Kernel walls collected over one run."""

    def __init__(self) -> None:
        self.walls: List[float] = []

    def sample(self) -> None:
        began = time.perf_counter()
        _kernel()
        self.walls.append(time.perf_counter() - began)

    def slowdown(self) -> float:
        """Median kernel wall over its fast-state wall."""
        return statistics.median(self.walls) / REFERENCE_S

    def scale(self) -> float:
        """Factor by which the host slowed the program in this run."""
        return self.slowdown() ** SENSITIVITY
