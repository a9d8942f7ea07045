"""Times scaled by an interleaved reference loop.

On a shared machine the same code runs up to about 1.5x slower for tens of
seconds at a time, depending on what else the host runs.  Measured here
(2 vCPUs, Python 3.11): 0.2 s chunks of campaign work spread by 45% between
their quartiles over 90 s, while their ratio to a reference loop timed just
before and after each chunk spread by 9%.  The benchmark therefore times the
reference loop between chunks of about CHUNK_S of work and reports each
chunk's times multiplied by NOMINAL_S / (the mean of its two reference
times): seconds on a machine where the reference loop takes NOMINAL_S.  The
loop does not call lpa, so a change to lpa cannot change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

CHUNK_S = 0.25
NOMINAL_S = 0.010


def reference_loop() -> float:
    """Seconds for a fixed pure-Python job shaped like lpa's inner loops:
    tuples as dict keys, exact fractions and small sorts."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(3000):
        key = (i % 61, ("e", i % 7), i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 - 3, 1 + i % 3)
        if len(acc) > 200:
            acc = dict(sorted(acc.items())[:100])
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor for work timed between two reference loops."""
    return NOMINAL_S / ((before + after) / 2)
