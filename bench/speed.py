"""Speed-normalised timing.

The single-thread speed of the machine this benchmark was tuned on
drifts by up to a third over seconds to minutes (a fixed loop pinned to
one CPU took 8.2 to 12.6 ms per 2 s window), which no length of run
averages away.  So each compile is timed twice: by the wall clock, and
against a probe, a fixed computation owned by the benchmark and timed
every PERIOD_S from a SIGALRM handler while a round runs.  The probe is
the checker's own work (Z[phi] quaternion products of a fixed 41-tau
word and a PU(2) distance at 300 bits), the same kinds of Python
big-integer and mpmath arithmetic icogate does, and no change to icogate
can make it faster.  Of the probes tried, this mix tracked all three
workloads: a probe of the distance alone tracked deep-headline but
not exact-words, the word product alone the reverse.

normalised(t0, t1) is the interval's wall time, less the probe time
spent inside it, times NOMINAL_S over the median probe time around it:
seconds at the speed where one probe takes NOMINAL_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

from check import diagonal_target, pu2_distance, quat_matrix, word_product

LONG_WORD = "t".join(["(rs)", "(srr)", "(rsr)", "(s)", "(rrs)", "(sr)"] * 7)
SHORT_WORD = "(rs)t(srr)t(rsr)t(s)t(rrs)t(sr)t(rs)t(srs)t(r)t(sr)t(rss)t(s)t(rsr)"
PROBE_BITS = 300
PROBE_TARGET = diagonal_target(1, PROBE_BITS)
PERIOD_S = 0.2
NOMINAL_S = 0.0025
MIN_SAMPLES = 5


def probe() -> float:
    """Seconds one probe computation takes now."""
    t = perf_counter()
    word_product(LONG_WORD)
    q = word_product(SHORT_WORD)
    pu2_distance(PROBE_TARGET, quat_matrix(q, PROBE_BITS), PROBE_BITS)
    return perf_counter() - t


class SpeedProbe:
    """Context manager that samples probe() every PERIOD_S of wall time.
    The handler runs between bytecodes of the main thread; mpmath's
    precision is saved and restored around the probe's own work."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        self.durations.append(probe())
        self.starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalised(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent outside the probe, at nominal speed;
        the probes inside the interval, widened to at least MIN_SAMPLES
        nearest ones, give the speed."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.starts, t1)
        inside = sum(self.durations[i:j])
        while j - i < MIN_SAMPLES and (i > 0 or j < len(self.starts)):
            if i > 0:
                i -= 1
            if j - i < MIN_SAMPLES and j < len(self.starts):
                j += 1
        if i == j:
            return t1 - t0
        return (t1 - t0 - inside) * NOMINAL_S / statistics.median(
            self.durations[i:j])
