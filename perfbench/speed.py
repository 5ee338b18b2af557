"""Interpreter-speed probe, for steady timings on a shared CPU.

On a shared host the share of a core that a process gets changes from
second to second, so wall times of the same work spread by 20 % and more
between runs.  While work runs, a timer signal starts a probe, a fixed and
tiny loop of ``Fraction`` arithmetic (the program's staple), every few
milliseconds.  The mean probe time says how fast the interpreter ran over
that stretch, and ``rescale`` turns the work's wall time into the time it
takes at the speed where the probe takes ``REFERENCE_S``.  On an idle core
of the machine the baseline was recorded on (Intel Xeon, 2 vCPUs, CPython
3.11.7) the probe takes about ``REFERENCE_S``, so there the rescaled time is
close to the wall time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 140e-6


def _probe() -> Fraction:
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i % 97 + 1, i % 89 + 2)
    return total


class SpeedProbe:
    """Runs the probe on ``SIGALRM`` and keeps the probe times."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def start(self, interval_s: float) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        samples, self.samples = self.samples, []
        return samples

    def _tick(self, signum, frame) -> None:
        # a collection of the program's heap must not land in a probe
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - start)
        if enabled:
            gc.enable()


def rescale(wall_s: float, samples: list[float]) -> float:
    """Wall time of work that ran ``samples`` probes, at the reference speed.

    The probes' own time is taken out first.  Without samples the work was
    shorter than one probe interval and the wall time is returned.
    """
    if not samples:
        return wall_s
    return (wall_s - sum(samples)) * REFERENCE_S / statistics.fmean(samples)
