"""Times in reference-speed CPU seconds, for shared machines whose speed drifts.

On a shared 2-core virtual machine the same pure-Python work can take
several times as long from one minute to the next.  Two kinds of slowdown
mix in wall-clock time:

- the virtual CPU is not running at all (the host runs other guests, or
  another process of this guest runs): wall time passes, this process's CPU
  time does not;
- the CPU runs, but slower (an SMT sibling is busy, the clock frequency
  drops, caches are shared): both wall and CPU time stretch.

Operations are therefore timed in CPU time, which leaves out the first
kind.  The benchmark runs in one thread, so the clock is the thread's
(`time.thread_time`): the process clock advances only at the kernel's tick
while a process-wide interval timer is armed, as the one below is.  For the
second kind, while operations run a profiling timer (SIGPROF, every 10 ms
of this process's CPU time) runs a fixed piece of reference work and
records how much CPU time it took.  An operation's CPU time is then divided by the
slowdown the nearby samples show:

    normalised = (CPU time - CPU time in samples) * REFERENCE_S / typical(sample CPU times)

where typical() is the mean of the fastest three quarters of the samples.

REFERENCE_S is the sample time when the development machine (2-core x86,
Python 3.11) was quiet, so the results read as seconds on that machine.
The reference work uses no knotcol code, so a change to the library moves
the normalised times as it moves raw ones.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import thread_time as clock

INTERVAL_S = 0.01
REFERENCE_S = 2.1e-4   # mean sample time inside operations when the machine is quiet
NEAREST = 8            # samples used for an operation shorter than that many intervals


def typical(took) -> float:
    """Mean of the fastest three quarters of the sample times.

    A sample that lands just after an operation evicted the caches takes far
    longer than the rest; the plain mean lets a few of them swing a short
    operation's scale, the median ignores the slowdown that large operations
    really suffer.  See perfbench/README.md for the measurements.
    """
    kept = sorted(took)[:max(1, 3 * len(took) // 4)]
    return sum(kept) / len(kept)


def reference_work() -> int:
    """Fixed integer, list and sort work, in the style of the library's loops."""
    acc = 0
    for s in range(1, 61):
        acc += sorted((s * x + acc) % 61 for x in range(24))[2]
    return acc


class SpeedSampler:
    """Samples machine speed during timed work; see the module docstring."""

    def __init__(self):
        self.at = []         # sample start times (CPU time)
        self.took = []       # sample CPU times
        self.stolen = 0.0    # total CPU time spent in samples
        self._previous = None

    def _sample(self, signum, frame):
        start = clock()
        try:
            reference_work()
        finally:
            took = clock() - start
            self.at.append(start)
            self.took.append(took)
            self.stolen += took

    def start(self):
        # Start once for a whole measurement, not per pass: the kernel
        # checks the timer only at its tick (every 4 ms at 250 Hz), so a timer armed
        # afresh for every short pass would never fire.
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def recent_slowdown(self) -> float:
        """Slowdown shown by the latest samples (1.0 before the first)."""
        recent = self.took[-NEAREST:]
        return typical(recent) / REFERENCE_S if recent else 1.0

    def slowdown(self, start: float, end: float) -> float:
        """Typical sample time around [start, end] relative to the reference.

        Uses the samples taken inside the interval, widened to the nearest
        NEAREST samples when the interval holds fewer.
        """
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at) or start - self.at[lo - 1] <= self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            return 1.0
        return typical(self.took[lo:hi]) / REFERENCE_S

    def normalise(self, start: float, end: float, stolen: float) -> float:
        """Reference-speed duration of the CPU-time interval [start, end],
        less `stolen` sample time."""
        return (end - start - stolen) / self.slowdown(start, end)
