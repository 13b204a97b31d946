"""The host's speed, measured by a fixed reference loop.

On a 2-vCPU x86-64 virtual machine shared with other tenants, the speed
of pure-Python code swings by up to 1.8 times within seconds, so whole
runs drift by 20-50% and medians of raw wall times do not hold still from
run to run.  Each timed job sample is therefore bracketed by this
reference loop, and its wall time is scaled to the host speed at which
the loop takes ``REFERENCE_S``:

    scaled = wall * speed,  speed = REFERENCE_S / mean(loop before, loop after)

The loop uses only builtin ints, tuples and dicts, which the program under
test cannot patch, and does the same kind of interpreter work as the
program (small-rational arithmetic in tuple-keyed dicts).
"""

from __future__ import annotations

import time
from math import gcd

# Close to the loop's median time on a 2-vCPU x86-64 VM under CPython 3.11,
# so that scaled times read close to wall times.
REFERENCE_S = 0.007
LOOP_ITERATIONS = 10000


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter()
    sums: dict[tuple[int, int, int], tuple[int, int]] = {}
    for i in range(1, LOOP_ITERATIONS):
        key = (i % 7, i % 5, i % 3)
        num, den = sums.get(key, (0, 1))
        a, b = i * 3, (i % 9 + 1) * (i % 4 + 1)
        num, den = num * b + a * den, den * b
        g = gcd(num, den)
        sums[key] = (num // g, den // g)
    return time.perf_counter() - start


def speed(before: float, after: float) -> float:
    """The factor that scales a wall time measured between two loops."""
    return 2 * REFERENCE_S / (before + after)
