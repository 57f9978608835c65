"""The reference computation that benchmark times are scaled by.

A fixed piece of exact rational arithmetic in plain Python, independent of
the library, so that its time tracks the speed the machine is running at
and nothing else.
"""

from __future__ import annotations

import time
from fractions import Fraction


def reference() -> float:
    """Seconds for the harmonic number H_150 in Fractions, best of two."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        total = Fraction(0)
        for n in range(1, 151):
            total += Fraction(1, n)
        best = min(best, time.perf_counter() - t0)
    return best
