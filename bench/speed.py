"""Machine-speed normalization for timings on a shared, throttled host.

On the reference machine (a 2-vCPU VM on a shared host) the speed of
the same pure-Python loop drifts between about 0.65x and 1.1x of its usual
value, in states that last from a few seconds to half a minute.  Raw
timings of a 15 s run therefore differ by 20-30% between runs of
identical code, far more than the regressions the benchmark must catch.

The probe runs a fixed calibration kernel (~1 ms of interpreter work)
from a SIGALRM handler every 50 ms of wall time, in the benchmark's own
thread, so it samples the speed the program is getting at that moment.
The handler's own time is subtracted from every operation's latency.  An
operation's latency is then multiplied by (REFERENCE_KERNEL_S / mean
kernel time in a window around it) ** SENSITIVITY.  The window is at
least one second wide, so it averages about twenty samples.  The result
is the operation's duration in seconds at the reference speed.  Both raw
and normalized figures are reported; the end-to-end metrics use the
normalized ones.
"""

from __future__ import annotations

import signal
import time

#: Kernel time of the reference state (median on the reference machine).
REFERENCE_KERNEL_S = 1.0e-3
#: How strongly the package's run time follows the kernel's: regressing
#: log(run time) on log(kernel time) over one-second windows gave slopes
#: of 0.68 (rho_info), 0.86 (build_gamma_ball) and 0.89 (Hecke mul) on the
#: reference machine; interpreter-bound kernels speed up more than code
#: that allocates and misses cache.
SENSITIVITY = 0.8
INTERVAL_S = 0.05
HALF_WINDOW_S = 0.5


def kernel() -> int:
    """A fixed mix of the interpreter work the package does: small-int
    arithmetic, dictionary updates, tuple slicing and method calls."""
    table: dict[int, int] = {}
    acc = 0
    word = tuple(range(24))
    for i in range(2400):
        key = (i * 7) & 127
        table[key] = table.get(key, 0) + i
        acc += (i ^ (i >> 3)) % 11
        if i % 8 == 0:
            acc += len(word[1:] + (i,))
    return acc + len(table)


def measure_kernel(repeats: int) -> float:
    """Mean kernel time over ``repeats`` back-to-back runs, after two
    unmeasured runs that let the interpreter specialize its bytecode."""
    kernel()
    kernel()
    clock = time.perf_counter
    begin = clock()
    for _ in range(repeats):
        kernel()
    return (clock() - begin) / repeats


def scale(kernel_s: float) -> float:
    """Factor turning a duration measured while the kernel took
    ``kernel_s`` into one at the reference speed."""
    return (REFERENCE_KERNEL_S / kernel_s) ** SENSITIVITY


class SpeedProbe:
    """Samples the kernel from a timer signal while active, then turns
    measured intervals into durations at the reference speed.

    numpy is imported only once sampling is over: the set-up probes import
    this module before the timed import of the package, and numpy is part
    of what they time."""

    def __init__(self):
        self.times: list[float] = []       # sample start times
        self.kernel_s: list[float] = []    # sample durations
        self._clock = time.perf_counter

    def _sample(self, signum, frame):
        begin = self._clock()
        kernel()
        self.kernel_s.append(self._clock() - begin)
        self.times.append(begin)

    def __enter__(self):
        measure_kernel(1)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _in_windows(self, lo, hi):
        """(total kernel time, sample count) of samples starting in each
        [lo, hi)."""
        import numpy as np
        times = np.asarray(self.times)
        prefix = np.concatenate(([0.0], np.cumsum(self.kernel_s)))
        a = np.searchsorted(times, lo)
        b = np.searchsorted(times, hi)
        return prefix[b] - prefix[a], b - a

    def spent(self, begin, end):
        """Handler time inside each interval [begin, end)."""
        return self._in_windows(begin, end)[0]

    def factors(self, begin, end):
        """``scale`` of the mean kernel time of the samples in a window
        around each interval [begin, end), widened to at least a second."""
        import numpy as np
        begin = np.asarray(begin, dtype=float)
        end = np.asarray(end, dtype=float)
        mid = (begin + end) / 2
        total, count = self._in_windows(np.minimum(begin, mid - HALF_WINDOW_S),
                                        np.maximum(end, mid + HALF_WINDOW_S))
        return scale(np.where(count > 0, total / np.maximum(count, 1),
                              REFERENCE_KERNEL_S))

    def normalize(self, begin, end):
        """Durations of the intervals [begin, end) (arrays of perf_counter
        seconds) with the handler's time removed, in seconds at the
        reference speed."""
        import numpy as np
        begin = np.asarray(begin, dtype=float)
        end = np.asarray(end, dtype=float)
        return (end - begin - self.spent(begin, end)) * self.factors(begin, end)
