"""The host clock ticks, counts at about wall speed, and leaves no timer set."""

import signal
import time

import hostclock


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_clock_ticks_and_tracks_wall_time():
    with hostclock.HostClock() as clock:
        n0, t0 = clock.now(), time.perf_counter()
        _spin(0.5)
        elapsed, raw = clock.now() - n0, time.perf_counter() - t0
    assert len(clock.samples) >= 3 + 3          # the start samples and ticks
    assert 0 < clock.overhead < raw
    # the host's speed may swing, but not by a factor of five in half a second
    assert raw / 5 < elapsed < 5 * raw


def test_stop_clears_the_timer():
    clock = hostclock.HostClock().start()
    clock.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    clock.stop()                                  # a second stop is harmless


def test_a_slower_kernel_slows_the_clock():
    clock = hostclock.HostClock()
    clock.samples = [hostclock.REF_KERNEL_S * 2] * 3
    clock._last = time.perf_counter()
    _spin(0.2)
    assert 0.05 < clock.now() < 0.15              # ~0.1: half of 0.2 s
