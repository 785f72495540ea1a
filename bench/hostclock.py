"""Host-speed-adjusted timing.

On a shared host the speed of this process drifts by half or more within
minutes (other tenants, frequency changes), and the drift moves every
timing of a run alike.  HostClock measures it while the program runs: a
fixed dict-and-tuple kernel runs every SAMPLE_S seconds from a SIGALRM
handler, on this same thread.  An interval's elapsed time, less the time
spent in the kernel, is scaled by KERNEL_REF_S over the mean kernel time
measured during the interval (and just before it), giving seconds on a
host where the kernel takes KERNEL_REF_S.

Without start() no samples exist and adjusted times equal raw times.
"""

import signal
import statistics
import time

SAMPLE_S = 0.01
KERNEL_REF_S = 0.00025
PRIOR = 5   # samples before an interval that also count for it

_TABLE = {i: (i, str(i)) for i in range(64)}


def _kernel():
    acc = 0
    for i in range(1500):
        t = _TABLE[i & 63]
        acc += len(t[1]) + (t[0] == i)
    return acc


def spin():
    """The time of 1000 kernel runs in a row: a fixed reading of host
    speed, shown beside every run."""
    t0 = time.perf_counter()
    for _ in range(1000):
        _kernel()
    return time.perf_counter() - t0


class HostClock:
    def __init__(self):
        self.samples = []       # kernel durations, in order
        self.spent = 0.0        # total time inside the handler

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def mark(self):
        return time.perf_counter(), self.spent, len(self.samples)

    def since(self, mark):
        """(raw, adjusted) seconds since `mark`, both without the time
        spent sampling."""
        t0, spent0, n0 = mark
        raw = time.perf_counter() - t0 - (self.spent - spent0)
        window = self.samples[max(0, n0 - PRIOR):]
        if not window:
            return raw, raw
        return raw, raw * KERNEL_REF_S / statistics.fmean(window)

    def median_sample(self):
        return statistics.median(self.samples) if self.samples else 0.0
