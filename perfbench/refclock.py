"""Operation times in reference seconds, steady on a host whose speed drifts.

On a shared 2-core x86 machine the speed of all code drifted by up to
1.7x over tens of seconds: CPU time tracked wall time, so the cause is
clock speed or a busy neighbour core, not descheduling.  Raw wall times of
one pass then spread by half their median between runs.  So a small fixed kernel is timed once before an operation,
every PERIOD_S seconds during it by an interval timer, and once after it.
The operation's wall time, less the time the kernel took, is scaled by
KERNEL_REF_S / (mean kernel time over those samples): the seconds the
operation would take on a machine where the kernel takes KERNEL_REF_S.
The program under test cannot change the kernel, so the scale moves only
with the machine.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

KERNEL_REF_S = 0.0005
PERIOD_S = 0.05


def kernel() -> None:
    """Dictionary, tuple and Fraction work, the mix the program does."""
    table = {}
    acc = Fraction(0)
    for i in range(1200):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + 1
        if i % 40 == 0:
            acc += Fraction(i, 7) * Fraction(3, i + 1)


class ReferenceClock:
    def __init__(self):
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self.sample)

    def sample(self, *_) -> None:
        # a collection of the operation's garbage is not the kernel's time
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def run(self, fn):
        """Call fn; return (result, exception, wall seconds, reference
        seconds).  Exactly one of result and exception is meaningful."""
        self.sample()
        first, spent = len(self.samples) - 1, self.spent
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        result = error = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - the caller judges it
            error = exc
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = dt - (self.spent - spent)
        self.sample()
        scale = KERNEL_REF_S / statistics.mean(self.samples[first:])
        return result, error, wall, wall * scale

    def scale(self, samples: int) -> float:
        """Reference seconds per wall second, from the median of the last
        `samples` samples."""
        return KERNEL_REF_S / statistics.median(self.samples[-samples:])
