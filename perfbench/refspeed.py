"""The reference kernel that every end-to-end time of the benchmark is scaled by.

The host's CPU speed drifts by up to 2x, within seconds as well as over
minutes. Both the program and this kernel are pure-Python exact arithmetic, so
they slow down together. A `Sampler` runs the kernel on a timer signal every
INTERVAL_S, in the middle of whatever the process is doing, so the kernel is
timed while a measured span runs, not only between spans. A span is reported
as

    (span_s - kernel time spent inside it) * REF_S / kernel_s

where kernel_s is the mean kernel time taken during the span: that is, in
seconds at the speed at which the kernel takes REF_S. The ticks are evenly
spaced in time, so their mean follows the span's mean speed, even when the
speed changes within the span (a median would follow only the longer state). The kernel is fixed
benchmark code, so a change to the program moves the scaled time by the same
share as the raw time.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# About the kernel's median time on a 2-vCPU x86_64 VM, Python 3.11.
REF_S = 0.008
INTERVAL_S = 0.1
# A span shorter than this many ticks is scaled by the ticks nearest to it.
NEAREST = 5


class _Gauss:
    """a + b*i over Q, the coefficient type of the kernel's polynomials."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __add__(self, o):
        return _Gauss(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _Gauss(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def inv(self):
        n = self.re * self.re + self.im * self.im
        return _Gauss(self.re / n, -self.im / n)

    def __bool__(self):
        return bool(self.re or self.im)


def _mul(a: list, b: list) -> list:
    """Product of dense polynomials, lowest degree first."""
    out = [_Gauss(Fraction(0), Fraction(0))] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _rem(a: list, b: list) -> list:
    """Remainder of a modulo b, with trailing zeros stripped."""
    a = list(a)
    inv = b[-1].inv()
    while len(a) >= len(b):
        f = a[-1] * inv
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] = a[shift + i] - f * y
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def _euclid() -> list:
    """Gcd of two Gaussian-rational polynomials with a common factor of
    degree 3: many small objects and method calls."""
    g = [_Gauss(Fraction(i + 1, 3), Fraction(2 - i)) for i in range(4)]
    a = [_Gauss(Fraction(3 - i), Fraction(i, 2)) for i in range(6)]
    b = [_Gauss(Fraction(1, i + 2), Fraction(i - 1)) for i in range(6)]
    x, y = _mul(g, a), _mul(g, b)
    while y:
        x, y = y, _rem(x, y)
    return x


def _long_sum() -> Fraction:
    """A Fraction sum whose denominator grows to about 1400 bits: big-integer
    gcds, as in the normalization of high-degree scalars."""
    s = Fraction(0)
    for i in range(1, 500):
        s += Fraction(i * i + 1, i * (i + 1) * (2 * i + 3))
    return s


def _table() -> int:
    """A dict of Fractions under tuple keys, read back in sorted key order."""
    d = {(i, i * 7 % 13): Fraction(i, 7) for i in range(1500)}
    return sum(d[k].numerator for k in sorted(d, key=lambda t: (t[1], t[0])))


def kernel() -> None:
    _euclid()
    _long_sum()
    _table()


class Sampler:
    """Times the kernel on SIGALRM every INTERVAL_S while started.

    `ticks` holds (start, kernel seconds); `spent_s` is the total time spent
    in the handler, which measured spans subtract from themselves.
    """

    def __init__(self):
        self.ticks: list = []
        self.spent_s = 0.0

    def start(self) -> None:
        t = time.perf_counter()
        kernel()  # first call outside any span: imports and caches
        self.spent_s += time.perf_counter() - t
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        # The cyclic collector is off meanwhile: its cost depends on the
        # program's heap, not on the CPU speed.
        enabled = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t
        if enabled:
            gc.enable()
        self.ticks.append((t, dt))
        self.spent_s += time.perf_counter() - t

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time of the ticks that started in [start, end], or of
        the NEAREST ticks to its middle when fewer did."""
        starts = [t for t, _ in self.ticks]
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
        if hi - lo < NEAREST:
            mid = (start + end) / 2
            near = sorted(range(len(starts)), key=lambda k: abs(starts[k] - mid))[:NEAREST]
            return statistics.fmean(self.ticks[k][1] for k in near)
        return statistics.fmean(dt for _, dt in self.ticks[lo:hi])


def scale(span_s: float, kernel_s: float) -> float:
    return span_s * REF_S / kernel_s
