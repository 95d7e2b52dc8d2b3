"""Reference kernel: a fixed pure-Python workload that measures machine speed.

The benchmark runs this kernel after every timed step and divides the
step's wall time by the kernel times around it, so that a slow stretch of a
shared machine slows the kernel and the step alike and cancels out.  The
kernel therefore does the same kind of work as the program's scan loops
(int arithmetic, tuple indexing, set and dict inserts) and never touches
``facthist``.  It runs with the garbage collector off, so the size of the
program's heap cannot change its time.

Its tables are small enough to stay in the fastest caches: a kernel with a
cache-sized working set slows down more than the program's ops when other
tenants of a shared machine contend for memory, and a bare int loop slows
down less, so the kernel spends about a third of its time in a plain int
loop and the rest in the scan.

Its work is fixed by the constants below.  Changing them changes the unit of
every corrected time the benchmark reports.
"""

from __future__ import annotations

import gc
from time import perf_counter

_RANKS = 64
_BITS = 6
# Stride-scaled digits of six binary factors, as FactoredSpace.scaled_digits
# would hold them for a 2**6 outcome space.
_COLS = tuple(
    tuple(r & (1 << (_BITS - 1 - b)) for r in range(_RANKS)) for b in range(_BITS)
)
_SUBSETS = ((0, 3, 5), (1, 2, 4), (0, 1, 2, 3), (4, 5), (1, 3, 5))
_JOBS = tuple(tuple(_COLS[i] for i in ids) for ids in _SUBSETS)
_PASSES = 28
_INT_STEPS = 10_500


def _work() -> int:
    check = 0
    for _ in range(_PASSES):
        for cols in _JOBS:
            left = set()
            right = set()
            seen = {}
            for r in range(_RANKS):
                a = 0
                for col in cols:
                    a += col[r]
                seen.setdefault(a, r & 1)
                left.add(a)
                right.add(r - a)
            check += len(left) * len(right) + len(seen)
    a = 0
    for i in range(_INT_STEPS):
        a = (a * 31 + i) & 0xFFFFF
    return check + a


_EXPECTED = _work()


def run_kernel() -> float:
    """Run the kernel once with gc off; return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        check = _work()
        elapsed = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if check != _EXPECTED:
        raise RuntimeError("reference kernel returned a different checksum")
    return elapsed
