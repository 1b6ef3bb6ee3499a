"""Machine-speed calibration for a shared, drifting machine.

The sandbox this benchmark was built on changes speed by up to 1.7x,
from one second to the next and from one minute to the next, because
other tenants share its cores; raw seconds of identical runs spread by
15-30%.  So while a run measures, an interval timer interrupts it every
INTERVAL_S and times a fixed probe kernel that never touches jacobisum.
A sample's wall seconds, less the probes that ran inside it, are scaled
by REF_S / (the median probe time around the sample): reference seconds
are seconds on a machine that runs the probe in REF_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

REF_S = 0.001
INTERVAL_S = 0.05
PAD_S = 0.5  # probes this close to a sample also describe its speed
START_PROBES = 5


class Calibration:
    def __init__(self):
        self.starts: list[float] = []  # probe start times, increasing
        self.times: list[float] = []  # probe durations
        self._busy = False
        self._x = np.arange(15 * 16, dtype=np.int64).reshape(15, 16) % 13 - 6
        self._y = np.arange(15 * 15 * 16, dtype=np.int64).reshape(15, 15, 16) % 11 - 5

    def probe(self, *_) -> None:
        """SIGALRM handler: time the kernel once, unless a probe is already
        running.  Python runs a handler again when the signal arrives while
        the handler itself runs, so on a starved machine, where one probe
        outlasts INTERVAL_S, unguarded probes would nest until the stack
        overflows inside the measured code."""
        if self._busy:
            return
        self._busy = True
        try:
            self._probe()
        finally:
            self._busy = False

    def _probe(self) -> None:
        """The kernel mixes the work the library spends its time on:
        interpreter loops over integers, tuples and dicts, and small int64
        numpy products."""
        start = perf_counter()
        table: dict = {}
        for i in range(700):
            a = (i * 7919) % 65521
            key = (a & 63, i & 7)
            table[key] = table.get(key, 0) + a * a
        for _ in range(2):
            np.einsum("gi,agj->aij", self._x, self._y)
        self.starts.append(start)
        self.times.append(perf_counter() - start)

    def start(self) -> None:
        # probes before the timer starts, so that the first samples, which
        # can end before the timer first fires, have a speed to be scaled by
        for _ in range(START_PROBES):
            self._probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe_seconds(self, start: float, end: float) -> float:
        """Time the probes that began within [start, end] took."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.times[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Multiplier from wall seconds to reference seconds for work done
        between start and end."""
        lo = bisect.bisect_left(self.starts, start - PAD_S)
        hi = bisect.bisect_right(self.starts, end + PAD_S)
        window = self.times[lo:hi] or self.times
        return REF_S / statistics.median(window)
