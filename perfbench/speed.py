"""Machine-speed sampling, so that times measured on a shared machine compare.

The CPU this benchmark was built on runs up to 1.8 times slower for seconds
to minutes at a time when other work shares it.  A rep therefore times a
fixed stdlib reference kernel, which never touches the package, every
INTERVAL_S seconds from a SIGALRM handler while its op list runs.  Each op's
latency is then expressed at the reference speed: the handler time inside
the op is taken out, and the rest is scaled by REFERENCE_S over the median
kernel time sampled during the op and next to it.  Verify-all also samples
right before and after each check, because its median check is short
enough that the machine's speed changes between timer samples.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

clock = time.perf_counter

# Time of one reference_kernel() call on the idle 2-CPU Xeon (Python 3.11)
# the bounds were set on.
REFERENCE_S = 0.004
INTERVAL_S = 0.25


def reference_kernel():
    """Fixed stdlib work shaped like the package's hot loops: a sparse
    int-dict product of (1 - q^k) factors, Fraction sums and a small Fraction
    matrix power.  Mixing the dict and the Fraction-matrix work tracks both
    the qpoly-heavy and the cm-heavy workloads' slowdowns better than either
    part alone."""
    poly = {0: 1}
    for k in range(1, 25):
        out = {}
        for e1, c1 in poly.items():
            for e2, c2 in ((0, 1), (k, -1)):
                s = out.get(e1 + e2, 0) + c1 * c2
                if s:
                    out[e1 + e2] = s
                else:
                    out.pop(e1 + e2, None)
        poly = out
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    n = 6
    a = [[Fraction(1, 3 * (i - j) + 1) if i != j else Fraction(7) for j in range(n)] for i in range(n)]
    m = a
    for _ in range(3):
        m = [[sum((m[i][k] * a[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]
    return poly, acc, m


def reference_times(count):
    """Durations of `count` back-to-back reference_kernel() calls."""
    times = []
    for _ in range(count):
        start = clock()
        reference_kernel()
        times.append(clock() - start)
    return times


class SpeedSampler:
    """Context manager that runs reference_kernel() every INTERVAL_S seconds
    and keeps (start, duration) of each run in `samples`.  ``sample`` adds
    a run at a chosen moment."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum=None, frame=None):
        start = clock()
        reference_kernel()
        self.samples.append((start, clock() - start))

    def sample(self):
        """Run the kernel once now, with the timer held off so that samples
        stay in start order."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._tick()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def scaled_latencies(intervals, samples, fallback_s):
    """Latency of each [start, end) op at the reference speed.

    Sampler time inside the op is removed.  The speed comes from the samples
    inside the op plus the nearest two on each side; fallback_s is the kernel
    time used when there are no samples at all.
    """
    starts = [t for t, _ in samples]
    out = []
    for start, end in intervals:
        i = bisect.bisect_left(starts, start)
        j = bisect.bisect_left(starts, end)
        inside = sum(d for _, d in samples[i:j])
        near = [d for _, d in samples[max(i - 2, 0):j + 2]]
        kernel_s = statistics.median(near) if near else fallback_s
        out.append((end - start - inside) * REFERENCE_S / kernel_s)
    return out


def scaled_wall_s(start, end, samples, fallback_s):
    """Time from start to end at the reference speed, cut at every sample
    so that each stretch is scaled by the speed around it."""
    cuts = [start] + [t for t, _ in samples if start < t < end] + [end]
    return sum(scaled_latencies(list(zip(cuts, cuts[1:])), samples, fallback_s))
