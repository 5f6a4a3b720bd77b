"""A speed probe that turns wall time into probe-normalized seconds.

On a shared machine the CPU a run gets can be 1.6-1.8x slower for a second
or for a whole run, at random, and differently on each CPU: on the reference
2-vCPU VM the run-to-run spread of raw wall times was 20-55%. Every 5 ms of wall time a SIGALRM
handler times a fixed piece of `fractions.Fraction` arithmetic on the CPU
the benchmark is running on, so each timed operation carries samples of how
fast the machine was while it ran. An operation's normalized time is its
wall time, less the probe's own time inside it, scaled by REF_S over the
median probe time around it: the seconds it would have taken with the probe
at REF_S. Object-heavy Fraction code tracked the slowdown of lapeq's
operations best among the probes tried (a plain integer loop slows less than
they do); per-operation spread fell from about 0.3 to about 0.1.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from fractions import Fraction

PERIOD_S = 0.005
# Probe time in the fast state of the reference machine (2-vCPU Xeon VM,
# Python 3.11): there a normalized second is a wall second.
REF_S = 65e-6
MIN_SAMPLES = 4
MARGIN_S = 0.02


def _work() -> None:
    for i in range(1, 13):
        Fraction(i, 7) - Fraction(3, i + 2) / Fraction(i + 5, 11)


class SpeedProbe:
    def __init__(self):
        self.start = array("d")
        self.dur = array("d")
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a handler can be entered again between bytecodes
            return
        self._busy = True
        t = time.perf_counter()
        _work()
        self.dur.append(time.perf_counter() - t)
        self.start.append(t)
        self._busy = False

    def begin(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.dur)

    def normalize(self, i0: int, t0: float, t1: float) -> float:
        """Normalized seconds of the interval [t0, t1]; i0 = mark() before t0.

        The scale comes from the samples within MARGIN_S of the interval, or
        from the last MIN_SAMPLES up to its end when there are fewer.
        """
        i1 = len(self.dur)
        inside = sum(self.dur[i] for i in range(i0, i1) if t0 <= self.start[i] <= t1)
        lo = i0
        while lo > 0 and self.start[lo - 1] >= t0 - MARGIN_S:
            lo -= 1
        window = [self.dur[i] for i in range(lo, i1) if self.start[i] <= t1 + MARGIN_S]
        if len(window) < MIN_SAMPLES:
            window = self.dur[max(0, i1 - MIN_SAMPLES):i1]
        if not window:
            return t1 - t0
        return (t1 - t0 - inside) * REF_S / statistics.median(window)
