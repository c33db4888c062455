"""The host's speed of the moment, from a fixed loop timed between jobs.

The benchmark's sandbox shares its CPUs: a fixed pure-Python loop runs
6-35% slower for stretches longer than a run, with no steal time
reported and CPU time moving with wall time.  Raw job times inherit
that.  So the measured loops time :func:`calibration_loop` between jobs,
never inside one, and scale each job's time by ``CAL_REF_S`` over the
loop's recent time.  The result reads as the time the job would have
taken on the reference host when nothing else ran on it.

The loop is the benchmark's own code, so no change to the program moves
it.  It allocates no object the cyclic garbage collector tracks, so it
neither triggers nor absorbs the program's collections.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import Deque, List

#: :func:`calibration_loop` on the reference host (2-CPU x86_64
#: sandbox, Python 3.11.7): the 10th percentile of its times between
#: compile-cold jobs over two minutes
CAL_REF_S = 0.00147
#: seconds between samples, and samples in the running median
EVERY_S = 0.1
WINDOW = 5

_TABLE = list(range(256))
_MAP = {i: (i * 7 + 3) % 256 for i in range(256)}


def calibration_loop() -> int:
    acc = 0
    for i in range(16000):
        acc = (acc + _MAP[_TABLE[i & 255]] * i) & 0xFFFF
    return acc


class HostSpeed:
    """Running estimate of how fast the host runs the calibration loop."""

    def __init__(self) -> None:
        self._recent: Deque[float] = deque(maxlen=WINDOW)
        self._last = float("-inf")
        #: every sample taken, for the run's median speed
        self.samples: List[float] = []

    def sample(self) -> float:
        """Time the calibration loop once; returns the seconds it took."""
        start = time.perf_counter()
        calibration_loop()
        self._last = time.perf_counter()
        took = self._last - start
        self._recent.append(took)
        self.samples.append(took)
        return took

    def poll(self) -> float:
        """Take a sample if one is due; returns the seconds it took."""
        if time.perf_counter() - self._last < EVERY_S:
            return 0.0
        return self.sample()

    def factor(self) -> float:
        """Reference-host seconds per measured second, right now."""
        if not self._recent:
            self.sample()
        return CAL_REF_S / statistics.median(self._recent)

    def speed(self) -> float:
        """Median speed over every sample, relative to the reference
        host: the factor that scales a stretch they cover."""
        return CAL_REF_S / statistics.median(self.samples) if self.samples else 0.0
