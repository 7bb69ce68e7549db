"""In-process speed probe that takes host contention out of the timings.

On a shared host the same work can take 1.5x longer for a minute at a time,
in wall and in CPU time alike, while the load comes from other tenants.  The
probe times a fixed pure-Python loop from a SIGALRM handler every
``PERIOD_S`` of wall time, so each sample stands for an equal slice of the
measured interval and sees the speed the program saw in that slice.  With
``f`` the mean over the interval's samples of ``REF_S / loop time``, a
normalised time is

    normalised = wall * f ** ALPHA

the time the interval would take on a host where the loop runs in ``REF_S``.
The program slows more than the small loop under the same contention; on a
2-core Xeon host, repeating one pass of each workload in one process, the
exponent that made the normalised pass times steadiest was 1.0 (certify) to
1.5-1.75 (the others); ``ALPHA`` sits between them.  The probe costs about
0.5% of the run.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.02
LOOP = 3000
REF_S = 100e-6  # the loop's time on that host when uncontended, Python 3.11
ALPHA = 1.25


class Probe:
    def __init__(self):
        self.t = []  # sample start times (perf_counter)
        self.speed = []  # REF_S / loop time
        self._prev = None

    def _sample(self, signum, frame):
        t = time.perf_counter()
        x = 0
        for i in range(LOOP):
            x += i
        self.t.append(t)
        self.speed.append(REF_S / (time.perf_counter() - t))

    def start(self):
        self._prev = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._prev or signal.SIG_DFL)

    def scale(self, a: float, b: float) -> float:
        """Factor from wall time in [a, b) to normalised time."""
        s = [v for t, v in zip(self.t, self.speed) if a <= t < b]
        return (sum(s) / len(s)) ** ALPHA if s else 1.0

    def normalise(self, a: float, b: float) -> float:
        """Normalised duration of the wall interval [a, b)."""
        return (b - a) * self.scale(a, b)
