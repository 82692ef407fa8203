"""Timing corrected for the host's current speed.

On a shared virtual machine the speed of a core can switch, every few
seconds, between levels up to 1.9x apart, so a raw time says as much about
the neighbours as about the code. ``Clock`` therefore runs a fixed
calibration routine between timed calls and scales each call's time by the
routine's reference time over the mean of the calibration times just before
and just after it. A scaled time reads as the time the call would take at
the speed where the routine takes its reference time, about the fastest
speed of a 2-vCPU Intel Xeon virtual machine running Python 3.11.

The routines use only the standard library, so a change to ``relbilliards``
cannot change them, and do the kinds of work the package does. Work on
floats and on large rationals speed up by different amounts when the host
does, so there are two: ``float`` builds and validates small frozen
dataclasses, sorts them, does small ``Fraction`` arithmetic and formats
floats as text; ``exact`` does ``Fraction`` arithmetic on rationals of
about a thousand bits. Each workload names the one that matches its work.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter


@dataclass(frozen=True)
class _Body:
    E: float
    P: float
    x: float

    def __post_init__(self) -> None:
        if not self.E > abs(self.P):
            raise ValueError("not timelike")


def _float_work() -> int:
    bodies = [_Body(1.5 + i * 1e-3, 0.3, float(i)) for i in range(64)]
    for _ in range(6):
        bodies = [_Body(b.E, -b.P, b.x + 0.5 * b.P / b.E) for b in bodies]
        bodies.sort(key=lambda b: b.x)
    f, g = Fraction(1, 3), Fraction(5, 4)
    for _ in range(60):
        f = (f * g + Fraction(1, 7)) / (g - f / 3)
    text = ",".join(repr(b.x) for b in bodies)
    return len(text) + f.numerator.bit_length()


_A = Fraction(3**500 + 1, 7**170 + 5)
_B = Fraction(5**420 + 3, 11**280 + 1)


def _exact_work() -> int:
    f = _A
    for _ in range(6):
        f = (f * _B + _A) / (_B - f)
    return f.numerator.bit_length()


#: Calibration routines by name, with the seconds each takes at the
#: reference speed.
ROUTINES = {"float": (_float_work, 0.0015), "exact": (_exact_work, 0.0013)}


def calibrate(routine: str, runs: int = 1) -> float:
    """Seconds taken by a calibration routine: the least of ``runs`` runs."""
    work = ROUTINES[routine][0]
    best = float("inf")
    for _ in range(runs):
        t0 = perf_counter()
        work()
        best = min(best, perf_counter() - t0)
    return best


def scale_factor(routine: str, before: float, after: float) -> float:
    """Factor that scales a time taken between two calibrations."""
    return ROUTINES[routine][1] / (0.5 * (before + after))


class Clock:
    """Times calls and scales each time to the reference speed. Each
    calibration is the mean of two runs: the host's speed flickers within
    a timed call, and the best of several runs would catch the fast
    moments and over-correct."""

    def __init__(self, routine: str) -> None:
        self.routine = routine
        self._last = self._calibrate()

    def _calibrate(self) -> float:
        return statistics.fmean(calibrate(self.routine) for _ in range(2))

    def time(self, fn):
        """(result of fn(), raw seconds, scaled seconds). The calibration
        made after the call also serves as the one before the next call."""
        t0 = perf_counter()
        result = fn()
        raw = perf_counter() - t0
        before, self._last = self._last, self._calibrate()
        return result, raw, raw * scale_factor(self.routine, before, self._last)
