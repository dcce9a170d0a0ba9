"""How fast the machine runs, sampled while the benchmark runs.

The benchmark's machine is a few cores of a shared host, whose speed drifts
by a quarter and more while nothing in the benchmark changes (README,
"Scaled times").  `kernel()` is a fixed piece of pure-Python work, the mix
of integer arithmetic, bitmask growth and tuple-keyed dict stores that
scalc's `denote` runs, and it does not touch scalc.  `Sampler` times it from
a SIGALRM handler every INTERVAL seconds while an operation runs, and
`probe()` times it between operations and, for `setup_s`, in the fresh
interpreter once it has imported scalc.  `run.py` multiplies each time it
reports by REFERENCE_S / (the kernel's time around it): the time on the
reference machine at its median speed.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.02  # seconds between samples inside an operation
PROBE_REPS = 5  # samples between two operations
# The kernel's median time on the machine the bounds were set on
# (README, "Reference figures"); it fixes the unit of the scaled times.
REFERENCE_S = 0.00018


def kernel() -> int:
    s = acc = 0
    d = {}
    for i in range(250):
        s += i * i % 7
        acc |= 1 << (i * 7919 % 16_000)
        d[(i & 63, i >> 6)] = i
    return s + acc.bit_count() + len(d)


def timed_kernel() -> float:
    """The kernel's time on its second of two runs back to back, so that
    the caches hold the kernel's own code and data rather than whatever
    ran before it."""
    kernel()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def probe() -> list[float]:
    """PROBE_REPS kernel times, taken back to back."""
    return [timed_kernel() for _ in range(PROBE_REPS)]


class Sampler:
    """Kernel times sampled from a SIGALRM handler while an operation runs.

    The handler runs between two bytecodes of the operation, so its time is
    part of the operation's wall time; `spent` adds it up for the caller to
    subtract."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(timed_kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
