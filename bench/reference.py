"""Host-speed reference for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same round of operations took from 4.2 s to 8.7 s within ten minutes, with
CPU time equal to wall time.  A median over rounds cannot remove a drift
that lasts minutes, so two runs of the same code disagreed by 20-40%.

A fixed piece of work that does not touch cvqec, half `Fraction`
arithmetic and half numpy, is timed before the first operation and after
every operation.  Each operation's wall time is scaled by `REFERENCE_S`
over the median of the reference times around it.  A timing then reads as
the seconds the operation takes on a host where the reference takes
`REFERENCE_S`.  A slower program still reads slower; a slower host does not.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 2e-3
# reference times taken on each side of an operation
WINDOW = 5

_ANGLES = np.linspace(0.0, 7.0, 4096)


def reference_work() -> tuple[Fraction, complex]:
    total = Fraction(0)
    for k in range(1, 150):
        total += Fraction(k, 2 * k + 1) * Fraction(3, k + 2)
    v = np.exp(1j * _ANGLES)
    m = np.outer(v[:160], v[:160].conj())
    return total, complex(np.sum(m @ m))


def measure() -> float:
    """Wall time of one reference_work() call."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def factor(refs: list[float]) -> float:
    return REFERENCE_S / statistics.median(refs)


def factors(refs: list[float]) -> list[float]:
    """Scale of operation k, which ran between refs[k] and refs[k + 1]."""
    return [factor(refs[max(0, k - WINDOW + 1): k + WINDOW + 1]) for k in range(len(refs) - 1)]
