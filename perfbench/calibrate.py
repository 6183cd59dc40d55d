"""A fixed calibration kernel, timed around every round, that measures how
fast the machine runs at that moment.

On a shared host the same round runs up to twice as slow in spells of tens
of seconds to minutes (see NOTES.md).  Dividing a round's wall time by the
kernel's, timed right before and right after it, cancels most of that.  The
kernel does what dominates atlb's decision path, with none of atlb's code:
small HiGHS solves through ``scipy.optimize.linprog`` and Gauss-Jordan
elimination over ``Fraction``.  It takes about 0.1 s.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

_rng = np.random.default_rng(0)
_A = _rng.integers(-5, 6, size=(12, 10)).astype(float)
_B = _rng.integers(1, 9, size=12).astype(float)
_C = _rng.integers(-3, 4, size=10).astype(float)
_M = [[Fraction(int(x), 7) + Fraction(i + 1, j + 3) for j, x in enumerate(row)]
      for i, row in enumerate(_A.astype(int).tolist()[:10])]
LP_SOLVES = 25
ELIMINATIONS = 3


def _eliminate(m: list[list[Fraction]]) -> None:
    n = len(m)
    for i in range(n):
        p = next((r for r in range(i, n) if m[r][i] != 0), None)
        if p is None:
            continue
        m[i], m[p] = m[p], m[i]
        for r in range(n):
            if r != i and m[r][i] != 0:
                f = m[r][i] / m[i][i]
                m[r] = [x - f * y for x, y in zip(m[r], m[i])]


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    for _ in range(LP_SOLVES):
        linprog(_C, A_ub=_A, b_ub=_B, bounds=[(0, 10)] * len(_C), method="highs")
    for _ in range(ELIMINATIONS):
        _eliminate([row[:] for row in _M])
    return time.perf_counter() - t0
