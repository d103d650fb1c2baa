"""Host speed probes, and item times rescaled to a reference host speed.

The host this benchmark was written on (a 2-vCPU Intel Xeon VM) switches
between discrete speeds: the same pure-Python work takes 1.0, 1.35 or 1.6
times as long, for a fraction of a second or for minutes at a time.  Such a
shift moves every time the benchmark reports, and a later run cannot be
told from a slower program.  So the benchmark measures the host's speed
while it runs and rescales each time to a fixed reference speed.

A probe is a fixed pure-Python loop (``_kernel``).  A real-time interval
timer runs one probe every ``PROBE_GAP_S`` seconds, also in the middle of
a long library call (the signal handler runs between two bytecodes).  The
probe's own time is taken out of the time of whatever it interrupted.  An
item that ran for ``net`` seconds is worth

    normalized = net * REFERENCE_PROBE_S * mean(1 / probe)

seconds at the reference speed, the mean taken over the probes that ran
during the item, or the nearest ``MIN_PROBES`` if fewer ran.  Probes that
were themselves interrupted (more than ``OUTLIER`` times their window's
median) are left out.

The probe uses only the standard library, so no change to holodyn moves
it.  Its mix (complex arithmetic, tuple-keyed dicts, small function calls,
Fraction arithmetic) is the mix of holodyn's exact and orbit layers.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# one probe on the host named above, in its fastest state (Python 3.11.7)
REFERENCE_PROBE_S = 0.4e-3
PROBE_GAP_S = 0.02
MIN_PROBES = 4
OUTLIER = 1.5


def _step(z: complex, c: complex) -> complex:
    return z * z * 0.5 + c


def _kernel() -> complex:
    table = {}
    z = 0.1 + 0.2j
    q = Fraction(0)
    for k in range(60):
        c = complex(k % 7, -(k % 5)) * 1e-3
        for j in range(12):
            z = _step(z, c)
            key = (k % 9, j % 4)
            table[key] = table.get(key, 0j) + z
        q += Fraction(k % 11 + 1, k % 6 + 2)
    return z + sum(table.values()) + float(q)


class SpeedTrack:
    """Timer-driven probes of one process.

    ``now()`` is a clock that stops while a probe runs, so the difference
    of two readings is the time of the measured code alone.
    """

    def __init__(self):
        self.stamps = []  # perf_counter at the start of each probe
        self.probes = []  # seconds of each probe
        self.stolen = 0.0  # seconds spent in probes so far
        self._running = False

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.stamps.append(t0)
        self.probes.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def start(self):
        if not self._running:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_GAP_S, PROBE_GAP_S)
            self._running = True

    def stop(self):
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def now(self) -> float:
        return time.perf_counter() - self.stolen

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds measured in [start, end] (perf_counter
        readings) to seconds at the reference speed."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.probes)):
            # widen towards the nearer neighbour first
            before = start - self.stamps[lo - 1] if lo > 0 else float("inf")
            after = self.stamps[hi] - end if hi < len(self.probes) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        window = self.probes[lo:hi]
        if not window:
            raise RuntimeError("no host speed probe was taken")
        cap = OUTLIER * statistics.median(window)
        kept = [p for p in window if p <= cap]
        return REFERENCE_PROBE_S * sum(1.0 / p for p in kept) / len(kept)
