"""Host-speed probe: a fixed piece of pure-Python work timed around and inside verdicts.

On a shared virtual machine the same CPU-bound code can run up to twice as
slow for stretches of seconds: on a 2-core VM a fixed loop measured 45-69 ms
within one minute, and process CPU time grew with wall time, so the process
cannot see the slowdown in its own accounting. Latencies are therefore scaled
by the probe time measured with them: a verdict is reported in seconds on a
host where the probe takes ``REFERENCE_S``. The unscaled figures go to the run
record as well.

Between verdicts the probe runs at most every ``INTERVAL_S``. A verdict longer
than ``INSIDE_INTERVAL_S`` is also probed while it runs, from an interval
timer's signal handler, so that its scale reflects the host speed during the
verdict; the probe time is subtracted from the verdict's latency. A set-up
process probes itself right after it starts and when it is ready (run.py).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_S = 0.010
PROBE_STEPS = 14000
INTERVAL_S = 0.25
WINDOW_S = 1.0
INSIDE_INTERVAL_S = 0.02
INSIDE_STEPS = PROBE_STEPS // 20


def probe(steps: int = PROBE_STEPS) -> float:
    """Seconds taken by a fixed mix of the interpreter work the program does:
    integer bit operations, frozenset construction, set and dict updates."""
    start = time.perf_counter()
    seen: dict[frozenset, int] = {}
    acc = 0
    for i in range(steps):
        m = (i * 2654435761) & 0xFFFF
        acc += bin(m).count("1")
        key = frozenset((m & 7, m >> 13, acc & 3))
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


class SpeedLog:
    """Probe samples of one run in time order: when each ended, how long it
    took, and that time scaled to a full ``PROBE_STEPS`` probe."""

    def __init__(self):
        self.ends: list[float] = []
        self.took: list[float] = []
        self.durations: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self._record(INSIDE_STEPS))

    def _record(self, steps: int) -> None:
        took = probe(steps)
        self.ends.append(time.perf_counter())
        self.took.append(took)
        self.durations.append(took * PROBE_STEPS / steps)

    def sample(self, force: bool = False) -> None:
        """Probe if forced or if the last probe is ``INTERVAL_S`` old."""
        if force or not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self._record(PROBE_STEPS)

    def start_inside(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INSIDE_INTERVAL_S, INSIDE_INTERVAL_S)

    def stop_inside(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _inside(self, start: float, end: float) -> range:
        return range(bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end))

    def paused(self, start: float, end: float) -> float:
        """Probe time spent inside the interval."""
        return sum(self.took[i] for i in self._inside(start, end))

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the host's probe time for the interval: the mean
        of the probes taken inside it or, if none was, the median of those
        within ``WINDOW_S`` of it, which discards a probe that was preempted."""
        inside = [self.durations[i] for i in self._inside(start, end)]
        if inside:
            return REFERENCE_S / statistics.fmean(inside)
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        near = self.durations[lo:hi] or [self.durations[min(lo, len(self.durations) - 1)]]
        return REFERENCE_S / statistics.median(near)
