"""Speed probes: wall time counted at the core's uncontended speed.

The benchmark runs on a few cores of a shared host.  For seconds at a time
a core runs the same code up to twice as slowly, because of contention the
guest cannot see: CPU time grows with wall time, so neither clock filters
it out, and one slow stretch inside a long operation moves its time by tens
of percent.

So a repeat process runs a fixed probe, half a millisecond of pure-Python
work that does not touch prismradio, from a SIGALRM timer every ``PERIOD``
seconds, and records when each probe started and how long it took.
``scaled_seconds`` counts each stretch of program time between two probes
at the speed the probe that ended it saw, relative to a reference core on
which the probe takes ``REF_PROBE_S``: a stretch that ran at half that
speed counts half, so the times are in seconds of the reference core.  An
operation that does more work still takes proportionally longer; a stretch
in which the core ran slowly counts as if it had not.  Time spent inside
probes is not program time.  The probes cost about 1% of a repeat.

Python runs a signal handler only between bytecodes, so a stretch much
longer than ``PERIOD`` was spent in native code, such as a NumPy kernel
over a large matrix.  Such code slows less than interpreter code when the
core is contended: with full scaling, audit's verify repeats read about
12% lower on a contended core than on a quiet one.  A native stretch is
therefore scaled by the probe's speed ratio to the power
``NATIVE_EXPONENT``, the value that made audit repeats on quiet and
contended cores agree (per-repeat spread 5% with full scaling, 2% with it).
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD = 0.05  # seconds between probes
PROBE_LOOPS = 5000
# The probe's time on the reference core: about its time on an uncontended
# core of a 2.1 GHz Xeon host with Python 3.11.  It sets the unit only.
REF_PROBE_S = 0.00046
NATIVE_STRETCH = 2 * PERIOD  # a stretch at least this long ran in native code
NATIVE_EXPONENT = 0.65


def _probe_work() -> int:
    # small-object allocation and dict updates: an integer-arithmetic loop
    # tracked the slowdowns of the selftest's Python code less well
    table = {}
    for k in range(PROBE_LOOPS):
        table[k % 97] = (k, k + 1)
    return len(table)


class Probe:
    """Runs the probe from a SIGALRM timer between ``start`` and ``stop``.

    ``samples`` holds [start, seconds] of each probe, on ``time.monotonic``.
    """

    def __init__(self):
        self.samples: list[list[float]] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.monotonic()
        _probe_work()
        self.samples.append([t0, time.monotonic() - t0])

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def scaled_seconds(a: float, b: float, samples: list[list[float]],
                   ref: float = REF_PROBE_S) -> float:
    """Program time in [a, b] counted at the speed whose probe takes ``ref``.

    ``samples`` are the [start, seconds] of a process's probes, in start
    order.  Without samples the wall time is returned unscaled.
    """
    if not samples:
        return b - a

    def stretch(seconds: float, took: float) -> float:
        speed = ref / took
        return seconds * (speed if seconds < NATIVE_STRETCH else speed ** NATIVE_EXPONENT)

    i = bisect.bisect_left(samples, a, key=lambda sample: sample[0])
    total, t = 0.0, a
    while i < len(samples) and samples[i][0] < b:
        start, took = samples[i]
        total += stretch(start - t, took)
        t = start + took
        i += 1
    # the tail runs until the next probe, or else after the last one
    return total + stretch(b - t, samples[min(i, len(samples) - 1)][1])
