"""How fast the host runs, sampled while the program runs.

The host's speed wanders: timings of a fixed 30 ms loop vary by 23%
(relative standard deviation), and their averages over 8 s windows still
vary by 10%, with CPU time moving with wall time.  A raw wall time
therefore carries the host's speed at that moment.  The benchmark times a
short fixed reference loop between the processes it measures and, through
``Sampler``, every ``INTERVAL_S`` seconds inside each of them.  It takes
the loop's own time out of every time a process reports, and scales each
process's times by (``NOMINAL_NS`` over the median of the timings taken
during and around it) to the power ``SPEED_EXPONENT``.

The loop mimics the program's hot loop, a sparse series product over
dict-keyed integers, because the host's speed changes do not move all
kinds of code alike: a pure big-integer loop sped up by 1.6x where the
program did not.
"""

import signal
from math import gcd
from time import perf_counter_ns

NOMINAL_NS = 3_000_000
INTERVAL_S = 0.08
# Timings this close to an interval count for its speed.
WINDOW_NS = 1_000_000_000
# The program's times move about half as much as the loop's when the host's
# speed changes (fitted exponents: 0.52 for certify-grid's run time, between
# 0.5 and 1 for the CLI workloads), so times are scaled by the square root.
SPEED_EXPONENT = 0.5

# A fixed sparse series with 60-bit coefficients, keyed like the program's.
_SERIES = {
    (m, r, n): (m * 7919 + r * 104729 + n * 1299709 + 1) ** 3
    for m in range(4)
    for n in range(4)
    for r in range(-3, 4)
}


def reference_ns() -> int:
    """Wall time of one pass of the fixed reference loop: a sparse series
    product over dict-keyed integer coefficients, like the program's."""
    t = perf_counter_ns()
    out = {}
    get = out.get
    items = list(_SERIES.items())
    for (m1, r1, n1), c1 in items:
        for (m2, r2, n2), c2 in items:
            if m1 + m2 <= 4 and n1 + n2 <= 4:
                key = (m1 + m2, r1 + r2, n1 + n2)
                prev = get(key)
                out[key] = c1 * c2 if prev is None else prev + c1 * c2
    g = 0
    for value in out.values():
        g = gcd(g, value)
    if g < 1:
        raise AssertionError("unreachable")
    return perf_counter_ns() - t


def sample() -> tuple[int, int]:
    """(start, duration) of one reference-loop pass, in ns of the monotonic
    clock that every process on the host shares."""
    start = perf_counter_ns()
    return start, reference_ns()


def speed(samples, start: int, end: int) -> float:
    """The factor that scales a time in the interval [start, end] to
    nominal host speed, from the reference timings within ``WINDOW_NS``."""
    near = sorted(d for t, d in samples if start - WINDOW_NS <= t <= end + WINDOW_NS)
    if not near:
        raise ValueError("no reference timing near the interval")
    mid = len(near) // 2
    median = near[mid] if len(near) % 2 else (near[mid - 1] + near[mid]) / 2
    return (NOMINAL_NS / median) ** SPEED_EXPONENT


class Sampler:
    """Times the reference loop every ``INTERVAL_S`` seconds of wall time,
    from a SIGALRM handler that runs between the program's bytecodes."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(sample())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples

    def ns_since(self, count: int) -> int:
        """Time the loop took since the sampler held ``count`` timings."""
        return sum(duration for _, duration in self.samples[count:])
