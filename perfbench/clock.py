"""A clock that reads in calibration units instead of seconds.

The host this benchmark was written on changes speed by up to 1.7x over tens
of seconds, longer than a run, so wall time alone does not repeat.  The
clock times a fixed calibration unit (reference.calibration_unit) every
quarter second: from a SIGALRM timer while in-process work runs, or when the
work calls sample() between child processes.  Time between two samples,
divided by the mean cost of the unit at those samples, is the work's cost in
units; time spent calibrating is left out of every interval.  UNIT_S turns
units back into seconds at a fixed host speed.
"""
from __future__ import annotations

import contextlib
import signal
import time

EVERY_S = 0.25
REPEATS = 4
UNIT_S = 3.0e-3  # the unit's cost on the 2-core Xeon VM this was tuned on, at its full speed


class CalibratedClock:
    def __init__(self, unit, timer: bool) -> None:
        self.unit = unit
        self.timer = timer
        self.marks: list[tuple[float, float, float]] = []  # (start, end, seconds per unit)
        self._busy = False
        self._armed = False

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            self.unit()
        t1 = time.perf_counter()
        self.marks.append((t0, t1, (t1 - t0) / REPEATS))
        self._busy = False

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.marks[-1][1] >= EVERY_S:
            self.sample()

    def __enter__(self) -> "CalibratedClock":
        self.sample()
        if self.timer:
            self._old = signal.signal(signal.SIGALRM, self.sample)
            self._arm(True)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            self._arm(False)
            signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def _arm(self, on: bool) -> None:
        self._armed = on
        signal.setitimer(signal.ITIMER_REAL, EVERY_S if on else 0.0, EVERY_S if on else 0.0)

    @contextlib.contextmanager
    def paused(self):
        """No timer samples inside, e.g. while a child process does timed work."""
        armed = self._armed
        if armed:
            self._arm(False)
        try:
            yield
        finally:
            if armed:
                self._arm(True)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """Seconds and calibration units of [start, end], calibrations left out."""
        secs = units = 0.0
        for (_, a_end, a_cost), (b_start, _, b_cost) in zip(self.marks, self.marks[1:]):
            lo, hi = max(a_end, start), min(b_start, end)
            if hi > lo:
                secs += hi - lo
                units += (hi - lo) / (0.5 * (a_cost + b_cost))
        return secs, units
