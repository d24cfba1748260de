"""Host speed probe: a fixed pure-Python kernel timed every 50 ms.

The benchmark's host is a shared 2-vCPU virtual machine whose speed drifts
by up to 1.6x over tens of seconds, as other tenants load the physical
machine.  Statistics inside one run cannot remove a drift that outlasts the
run, so the probe measures the host's speed while the library runs: an
interval timer interrupts the run every ``PERIOD_S`` seconds and times one
call of a fixed kernel (sparse products with ``Fraction`` coefficients and
tuple keys, and a loop of method calls on small objects: the kinds of work
the library does).  The benchmark subtracts the probe's own time from every
latency and scales each round's latencies by ``NOMINAL_S`` over the mean
probe time of the round, which reports them at a fixed host speed: that of
a host on which the kernel takes 1 ms.

On the tuning host, over 27 rounds of ``basis`` in three minutes, the
round's wall time and the mean time of the ``Fraction`` part correlated at
0.988 with a log-log slope of 1.06; the quartile spread of the round time
was 0.262 of its median raw and 0.030 scaled.  Over 59 degree-2 constraint
extractions, the extraction time correlated at 0.928 with the ``Fraction``
part, 0.938 with the method-call part and 0.961 with both.
"""

import gc
import random
import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
NOMINAL_S = 1e-3

_rng = random.Random(5)
_TERMS = tuple((tuple(_rng.randrange(4) for _ in range(5)),
                Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)))
               for _ in range(10))


class _Cell:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def step(self, z):
        return (self.x * z + self.y) % 1009


def kernel():
    """About 1 ms of dict, tuple and ``Fraction`` work, then of objects,
    method calls and small strings; never raises."""
    out = {}
    for ka, va in _TERMS:
        for kb, vb in _TERMS:
            key = tuple(sorted(ka + kb))
            out[key] = out.get(key, 0) + va * vb
    total = 0
    for cell in [_Cell(i, 7 * i) for i in range(300)] * 3:
        total = cell.step(total) + len(str(total))
    return out, total


class SpeedProbe:
    """Times ``kernel`` every ``PERIOD_S`` seconds of wall time between
    ``start`` and ``stop``, and on each call of ``sample``.

    ``samples`` holds every kernel time; ``spent`` is their sum plus the
    cost of entering the handler, which callers subtract from their own
    timings."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_):
        clock = time.perf_counter
        t0 = clock()
        collecting = gc.isenabled()
        gc.disable()  # a collection of the library's garbage is not probe time
        k0 = clock()
        kernel()
        k1 = clock()
        if collecting:
            gc.enable()
        self.samples.append(k1 - k0)
        self.spent += clock() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, first: int) -> float:
        """The factor that brings times taken since sample ``first`` to the
        nominal host speed."""
        recent = self.samples[first:]
        return NOMINAL_S * len(recent) / sum(recent)
