"""Machine-speed calibration: a fixed probe sampled all through the run.

The 2-CPU machines this benchmark runs on switch between a fast and a
slow mode, on both CPUs at once, sometimes several times a second and
sometimes not for minutes; in the slow mode the system under test runs
1.5-3x slower.  A small in-cache kernel barely notices, so the probe here
does what the system does: it chases Python dict entries and gathers from
a numpy array far larger than the per-core caches.

While sampling, an interval timer runs one probe every ``PERIOD`` seconds
in the main thread and records its CPU time (CPU time, so waiting for the
interpreter lock behind a serve worker thread does not count).  The
system is more sensitive to the slow mode than the probe: over about 860
set-ups, write batches and request rounds of both datasets, the system's
time grew with the probe's time to the power 1.8-2.2 (correlation
0.72-0.87 per sample).  So the slowdown of a measured interval is
``(mean probe time inside it / REFERENCE_PROBE_SECONDS) ** SENSITIVITY``.

The probe's data comes from a fixed seed and does not depend on the
program under test, so an optimisation of the program moves the
reference figures exactly as much as the measured ones.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List

import numpy as np

#: Probe CPU seconds at the reference speed (the fast mode of a 2-CPU
#: Xeon VM).  A time in reference units is the measured time divided by
#: the slowdown.
REFERENCE_PROBE_SECONDS = 0.001

#: Exponent relating the system's slowdown to the probe's (see above).
SENSITIVITY = 2.0

#: Seconds between probes (each takes about 1-1.3 ms: 3 % of the run).
PERIOD = 0.04


class Calibrator:
    """The probe's data (about 35 MB), its sampler and the lookups."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20190610)
        entries = 100_000
        self._table = {k: (k, str(k)) for k in range(entries)}
        self._keys = [int(k) for k in rng.integers(0, entries, 1500)]
        self._array = rng.integers(0, 1 << 30, 2_000_000)
        self._index = rng.integers(0, len(self._array), 30_000)
        self.times: List[float] = []
        self.seconds: List[float] = []
        self._previous = None

    def probe(self) -> int:
        total = 0
        table = self._table
        for key in self._keys:
            total += table[key][0]
        return total + int(self._array[self._index].sum())

    def _sample(self, *_: object) -> None:
        start = time.thread_time()
        self.probe()
        self.seconds.append(time.thread_time() - start)
        self.times.append(time.perf_counter())

    def start(self) -> None:
        """Start sampling (main thread only: it uses SIGALRM)."""
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float:
        """Estimated slowdown of the system over ``[start, end]``
        (``perf_counter`` times).  An interval too short to hold a
        sample takes one probe now."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        window = self.seconds[low:high]
        if not window:
            self._sample()
            window = self.seconds[-1:]
        probe = sum(window) / len(window) / REFERENCE_PROBE_SECONDS
        return probe**SENSITIVITY
