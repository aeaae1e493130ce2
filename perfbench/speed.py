"""Pass times converted to a fixed reference speed of the machine.

The 2-vCPU Xeon VM this benchmark was tuned on runs the same pure-Python code
at two speeds that alternate within fractions of a second: a fast one and one
about 1.6 to 2 times slower, in proportions that drift over minutes.  The
guest's steal time stays near zero and thread CPU time slows exactly as much
as wall time, so neither a CPU clock nor a steal count removes it; a raw
timing of a second or more averages the two speeds in whatever proportion
held during it.

``SpeedProbe`` samples the current speed while the program runs: a timer
signal every ``PERIOD_S`` seconds runs a small fixed computation
(``reference_unit``) and records how long it took, and one more sample is
taken at each item boundary.  An item's converted time is its measured time,
less the samples taken inside it, times the mean over those samples of
``REFERENCE_S / sample``: the seconds the item would have taken had the
machine run the reference unit in ``REFERENCE_S`` throughout.  The reference
unit uses only the standard library, so no change to the library moves it.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# A fixed scale, about the time of one reference unit at the fast speed of
# the 2-vCPU Xeon host (Python 3.11) the benchmark was tuned on.  Changing it
# rescales every reported time by the same factor.
REFERENCE_S = 7.5e-5
PERIOD_S = 0.005


def reference_unit() -> Fraction:
    """A fixed bit of exact-rational work, about REFERENCE_S seconds."""
    total = Fraction(0)
    for i in range(1, 25):
        total += Fraction(1, i)
    return total


class SpeedProbe:
    """Speed samples, as (start time, duration) of one reference unit each."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, *_signal_args) -> int:
        """Time one reference unit; return the sample's index."""
        start = perf_counter()
        reference_unit()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)
        return len(self.durations) - 1

    @contextmanager
    def running(self):
        """Sample on a timer signal for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args):
        """(result, converted seconds) of fn(*args), between two boundary samples."""
        first = self.sample()
        start = perf_counter()
        result = fn(*args)
        seconds = perf_counter() - start
        last = self.sample()
        return result, self.convert(first, last, seconds)

    def convert(self, first: int, last: int, seconds: float) -> float:
        """`seconds` measured between boundary samples `first` and `last`, converted.

        The samples strictly between the two were taken inside the interval;
        their own time is taken out before converting.
        """
        window = self.durations[first : last + 1]
        inside = sum(window[1:-1])
        speed = sum(REFERENCE_S / d for d in window) / len(window)
        return (seconds - inside) * speed


def timed_import(module: str) -> float:
    """Converted seconds to import `module` in this (fresh) process."""
    import importlib

    probe = SpeedProbe()
    with probe.running():
        _, seconds = probe.timed(importlib.import_module, module)
    return seconds
