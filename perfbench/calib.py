"""CPU timing and the calibration loop that rescales it.

Every time metric is the CPU time of the timed call, rescaled to a
reference host speed:

    calibrated_s = cpu_s * REFERENCE_CALIBRATION_S / measured_calibration_s

The calibration loop calls nothing in fleetplan.  It mixes the kinds of
interpreter work the workloads do: small dicts built, sorted and merged,
Decimal products and half-up quantising, tuple hashing into a cache,
element access plus tiny vector products on NumPy arrays, and a plain
integer loop.  A slower or busier host stretches it by about as much as
it stretches the workloads, so the ratio cancels the host's speed of the
moment.  The shares are weighted so that, on this host under other
tenants' load, the pass slowed about 5% more than repair_and_simulate and
about 5% less than astrom_predict (README.md has the measurement).

On a shared host that speed changes from one second to the next, so a
calibration taken only before and after a call of several seconds misses
most of it.  The Sampler therefore runs one pass of the loop (about
0.7 ms) every 20 ms of the process's CPU time, from a SIGPROF handler in
the same thread, for the whole run.  A timed call's measured calibration
is the median pass time during the call, and the passes' own CPU time is
taken out of the call's CPU time.  The passes before and after each
round are printed too.

CPU time is read from the thread clock.  The workload is one thread, so
it equals the process's CPU time; but while a process-wide interval
timer is armed, Linux serves the process clock in scheduler ticks (4 ms
here), while the thread clock stays exact to the nanosecond.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from decimal import ROUND_HALF_UP, Decimal, localcontext

import numpy as np

# Median CPU seconds of one calibration pass on the host the reference
# figures in README.md were taken on (2 vCPU x86-64 VM, CPython 3.11,
# NumPy 2.4), in a quiet stretch.  Calibrated times read as seconds on
# that host.
REFERENCE_CALIBRATION_S = 0.00067

SAMPLE_INTERVAL_S = 0.020
_POOL_ROUNDS = 40
_VECTOR_ROUNDS = 60
_INTEGER_ROUNDS = 6000
_SERIES = np.linspace(0.0, 1.0, 64)
_COV = np.eye(7)


def _calibration_pass() -> float:
    rate = Decimal("0.10")
    price = Decimal("15")
    one = Decimal(1)
    spent = Decimal(0)
    seen: dict[tuple, Decimal] = {}
    for i in range(_POOL_ROUNDS):
        pool = {w: (i * 7 + w * 3) % 11 + 1 for w in range(9)}
        extra = {w: (i + w) % 5 for w in range(4, 12)}
        merged = dict(pool)
        for w, n in extra.items():
            merged[w] = merged.get(w, 0) + n
        left = int((rate * sum(merged.values())).quantize(one, rounding=ROUND_HALF_UP))
        rest = {}
        for w in sorted(merged):
            grab = min(left, merged[w])
            left -= grab
            if merged[w] - grab:
                rest[w] = merged[w] - grab
        spent += sum(rest.values()) * price
        seen[tuple(rest.items())] = spent
    theta = np.zeros(7)
    acc = 0.0
    for i in range(_VECTOR_ROUNDS):
        phi = np.empty(7)
        for j in range(7):
            phi[j] = _SERIES[(i + j) % 64]
        gain = _COV @ phi
        acc += float(phi @ theta) + float(gain[0])
        theta = theta + 1e-6 * gain
    total = 0
    for k in range(_INTEGER_ROUNDS):
        total += k * k % 7
    return float(spent) + acc + len(seen) + total


def _timed_pass() -> int:
    # A private Decimal context leaves the program's context flags alone,
    # and the collector stays off so that a pass never pays for scanning
    # the program's heap; the allocations it skipped count towards the
    # program's next collection, as they would without the pass.
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        with localcontext():
            t0 = time.thread_time_ns()
            _calibration_pass()
            return time.thread_time_ns() - t0
    finally:
        if gc_was_on:
            gc.enable()


def calibrate(passes: int = 150) -> float:
    """Median CPU seconds of one pass, over back-to-back passes."""
    return statistics.median(_timed_pass() for _ in range(passes)) / 1e9


def rescale(cpu_s: float, calibration_s: float) -> float:
    return cpu_s * REFERENCE_CALIBRATION_S / calibration_s


class Sampler:
    """Runs a calibration pass every SAMPLE_INTERVAL_S of process CPU time."""

    def __init__(self):
        # thread CPU clock at the start of each pass, and the pass's CPU
        # nanoseconds, in order; the starts let the traced run take the
        # passes out of the spans they fell in
        self.starts: list[int] = []
        self.passes: list[int] = []

    def _tick(self, signum, frame) -> None:
        self.starts.append(time.thread_time_ns())
        self.passes.append(_timed_pass())

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # a tick already pending must not reach the default action, which
        # ends the process
        signal.signal(signal.SIGPROF, signal.SIG_IGN)


class Clock:
    """Times one call: CPU seconds net of calibration passes, wall seconds,
    and the median calibration pass during the call."""

    __slots__ = ("sampler", "cpu_s", "wall_s", "calibration_s", "samples", "_cpu0", "_wall0",
                 "_first")

    def __init__(self, sampler: Sampler | None = None):
        self.sampler = sampler
        self.calibration_s = None
        self.samples = 0

    def __enter__(self) -> "Clock":
        self._first = len(self.sampler.passes) if self.sampler else 0
        self._wall0 = time.perf_counter_ns()
        self._cpu0 = time.thread_time_ns()
        return self

    def __exit__(self, *exc) -> None:
        cpu_ns = time.thread_time_ns() - self._cpu0
        self.wall_s = (time.perf_counter_ns() - self._wall0) / 1e9
        passes = self.sampler.passes[self._first:] if self.sampler else []
        self.samples = len(passes)
        if passes:
            cpu_ns -= sum(passes)
            self.calibration_s = statistics.median(passes) / 1e9
        self.cpu_s = cpu_ns / 1e9
