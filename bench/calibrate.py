"""A fixed reference kernel, timed next to the library to cancel the machine's speed swings.

On the shared 2-core machine the benchmark was written on, the speed of a core
changes by up to a third from one stretch of seconds to the next and from one
minute to the next, and the library slows down with it.  Every time that the
benchmark reports as a metric is therefore a wall time divided by the time of
this kernel, measured in the same process on either side of each item (or
right after the import, for set-up), times ``REF_S``: seconds at the kernel's
reference speed.  The kernel is the benchmark's own code with fixed inputs,
so a change to the library cannot change it.  The report prints the plain
wall times as well.
"""

import statistics
from time import perf_counter

import numpy as np

REF_S = 1.5e-3  # about the kernel's median time on that machine

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((64, 64))
_X = _RNG.standard_normal(1025) + 0j


def seconds() -> float:
    """Wall time of one run of the kernel: FFTs, a small matrix product, a Python loop."""
    t0 = perf_counter()
    for _ in range(15):
        np.fft.ifft(np.fft.fft(_X) * _X)
        _A @ _A
        s = 0
        for i in range(300):
            s += i * i
    return perf_counter() - t0


def settled_seconds() -> float:
    """Median of seven runs: one reading in a fresh process, where single runs scatter more."""
    return statistics.median(seconds() for _ in range(7))
