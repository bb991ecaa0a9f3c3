"""Host-speed calibration for the benchmark's wall-clock metrics.

Shared hosts change speed by tens of percent over minutes: neighbours on
the same physical core or cache slow every instruction, so raw wall time
of the same run of the same seed wanders more than any bound a regression
check could use.  The probe is a fixed piece of pure-Python work in the
same style as the library (heap, dict and float operations).  Runs time it
about every :data:`INTERVAL` seconds, interleaved with the measured work, and
divide the work's wall time by the probe's mean time over the same stretch.
Host slowness then cancels, while a change to the library's own speed does
not, because the probe never calls the library.

Normalized times are expressed in *reference seconds*: wall seconds on a
host where one probe takes :data:`REFERENCE_SECONDS`.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from typing import List

_clock = time.perf_counter

#: Probe time on the reference host, which defines a reference second.
REFERENCE_SECONDS = 0.020

#: Wall seconds between probes that :meth:`SpeedProbe.maybe` aims for.
INTERVAL = 0.5


def probe_work() -> int:
    """The fixed calibration workload (about 20 ms of interpreter work)."""
    rng = random.Random(1)
    heap: List[tuple] = []
    table = {}
    for i in range(20_000):
        x = rng.random()
        heapq.heappush(heap, (x, i))
        table[i % 997] = math.sqrt(x * x + 1.0)
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(heap) + len(table)


class SpeedProbe:
    """Times :func:`probe_work` about every :data:`INTERVAL` seconds when asked."""

    def __init__(self):
        #: Duration of every probe run, in order.
        self.samples: List[float] = []
        #: Wall seconds spent probing, to subtract from measured work.
        self.spent = 0.0
        self._due = 0.0

    def run(self) -> None:
        start = _clock()
        probe_work()
        end = _clock()
        self.samples.append(end - start)
        self.spent += end - start
        self._due = end + INTERVAL

    def maybe(self) -> None:
        """Probe if :data:`INTERVAL` has passed since the last probe."""
        if _clock() >= self._due:
            self.run()

    def scale(self, first: int = 0) -> float:
        """Reference seconds per wall second over samples ``first:``."""
        window = self.samples[first:]
        return REFERENCE_SECONDS * len(window) / math.fsum(window)
