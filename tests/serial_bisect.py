"""Bisection of the maximum with one float solve per midpoint: the tests'
oracle for atlb.search._bisect_max, which solves the midpoints of a whole
predicted stretch of the bisection path at once.

Each annotation is decided at its own lo, and the live (feasible) ones at
hi; then one bracket, from the lo of an annotation without '2' to hi, is
bisected with the predicate "some live annotation is ahead at c": feasible
there, or with lo >= c.  Each midpoint decides its live annotations in one
batch (search._decide_batch), from one float solve of their LPs alone.
"""

from __future__ import annotations

from fractions import Fraction

from atlb import search
from atlb.analytics import _bisect


def bisect_max(annotations, alpha, tol, mode):
    """(c*, annotation, the Feasibility at its last feasible c) of the
    annotation with the largest c*, the first in order among ties; None when
    each is infeasible near c = 1."""
    hi = (1 + alpha) / alpha

    def lo_of(a):
        base = max(Fraction(1), 1 / alpha) if "2" in a else Fraction(1)
        return base + Fraction(1, 1000)

    los = {a: lo_of(a) for a in annotations}
    last = {}

    def feasible_of(pairs) -> list[str]:
        fs = search._decide_batch(list(pairs), alpha, mode, False)
        last.update((f.annotation, f) for f in fs if f.feasible)
        return [f.annotation for f in fs if f.feasible]

    live = feasible_of(los.items())
    if not live:
        return None
    if both := feasible_of((a, hi) for a in live):
        raise search.BracketError(
            f"feasibility not monotone for {both[0]!r}: "
            f"feasible at both c={los[both[0]]} and c={hi}"
        )

    def some_ahead(c):
        nonlocal live
        ok = feasible_of((a, c) for a in live if los[a] < c)
        ahead = [a for a in live if los[a] >= c or a in ok]
        live = ahead or live
        return bool(ahead)

    c_star = _bisect(some_ahead, lo_of("1"), hi, tol)
    return c_star, live[0], last[live[0]]
