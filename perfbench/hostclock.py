"""A clock that counts time at the host's reference speed.

The reference box is shared, and the speed it gives one thread swings by
up to half in phases that last from seconds to minutes.  Process CPU time
swings with wall time, so the thread is not descheduled; it runs slower.
Medians within a run do not remove phases that long.

So the clock times a fixed pure-Python kernel every TICK_S seconds, from a
SIGALRM handler in the main thread, and advances by the wall time since the
last tick times REF_KERNEL_S / (the median of the last three kernel
times).  The kernel's own time is left out.  On a calm host the clock runs
at the speed of wall time; when the host runs the kernel twice as slowly,
it runs at half speed.  The kernel is the benchmark's own code, the same on
every commit, so the ratio between two commits' times is kept, and the
host's swings largely cancel.  The raw wall times are kept in the result
file beside the normalised ones.
"""

from __future__ import annotations

import signal
import statistics
import time

TICK_S = 0.1
KERNEL_LOOPS = 20000
REF_KERNEL_S = 2.0e-3   # the kernel's median on the reference box, calm phase


def kernel() -> int:
    d, s = {}, 0
    for i in range(KERNEL_LOOPS):
        s += (i * i) % 97
        d[i & 255] = s
    return s


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class HostClock:
    """Normalised seconds since start(); now() may be called at any time."""

    def __init__(self):
        self.samples = []        # every kernel time, seconds
        self.overhead = 0.0      # wall seconds spent in the handler
        self._norm = 0.0
        self._last = None
        self._ticks = 0
        self._running = False

    def _factor(self) -> float:
        return REF_KERNEL_S / statistics.median(self.samples[-3:])

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append(time_kernel())
        self._norm += (t0 - self._last) * self._factor()
        self._last = time.perf_counter()
        self.overhead += self._last - t0
        self._ticks += 1

    def start(self) -> "HostClock":
        self.samples += [time_kernel() for _ in range(3)]
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._running = True
        return self

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def now(self) -> float:
        # a tick may run between any two bytecodes; read again if one did
        while True:
            ticks = self._ticks
            value = self._norm + (time.perf_counter() - self._last) * self._factor()
            if ticks == self._ticks:
                return value

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
