"""The LP of an annotation built with Fraction coefficients at one (alpha, c),
and its float block-diagonal stacking: the tests' oracle for atlb.lp's
template, which walks the annotation once and reads each coefficient at
(alpha, c) from a table, and for atlb.search._stacked, which reads each
float from that table.

The walk keeps each expression as {var index: coeff, CONST: coeff}.  It
subtracts and scales them in exact arithmetic, so it also builds the LP of
an annotation with a squiggle straight after a speedup ('12'), which
atlb.lp decides without one.
"""

from __future__ import annotations

from fractions import Fraction

from scipy.sparse import csc_array

from atlb.kernel import _rule_names
from atlb.simplex import CONST as _CONST

_MARGIN = 0


class BuildAlgebra:
    """The LP, built from linear expressions {var index: coeff, _CONST: coeff}.

    Besides the rows it keeps each max variable's terms, in creation order,
    and each strict precondition.  Coefficients that do not depend on c are
    the ints 1 and -1, not Fractions."""

    def __init__(self):
        self.nvars = 1  # var 0 is the margin
        self.rows: list[dict[int, Fraction | int]] = []  # each row means expr >= 0
        self.xvars: list[int] = []
        self.maxes: list[tuple[int, list[dict]]] = []  # (max variable, its terms)
        self.preconditions: list[dict] = []  # each means expr > 0

    def _new_var(self) -> int:
        i = self.nvars
        self.nvars += 1
        return i

    def x(self) -> dict:
        i = self._new_var()
        self.xvars.append(i)
        return {i: 1}

    def sub(self, e1: dict, e2: dict) -> dict:
        out = dict(e1)
        for k, v in e2.items():
            out[k] = out.get(k, 0) - v
            if not out[k]:
                del out[k]
        return out

    def scale(self, fac: Fraction, e: dict) -> dict:
        return {k: fac * v for k, v in e.items()} if fac else {}

    def max_of(self, terms: list[dict]) -> dict:
        terms = [t for t in terms if t]
        if not terms:
            return {}
        if len(terms) == 1:
            return terms[0]
        i = self._new_var()
        self.maxes.append((i, terms))
        for t in terms:
            self.rows.append(self.sub({i: 1}, t))
        return {i: 1}

    def precondition(self, e: dict):
        self.preconditions.append(e)
        self.rows.append(self.sub(e, {_MARGIN: 1}))


def build_lp(a: str, alpha: Fraction, cc: Fraction, mode: str) -> BuildAlgebra:
    """The LP of the annotation's homogeneous rule semantics."""
    lp = BuildAlgebra()
    zero: dict = {}
    blocks: list[tuple] = []  # (a value, b value); constant-1 floors are zero
    d = {_CONST: 1}
    for rule in _rule_names(a, mode):
        if rule.startswith("speedup"):
            x = lp.x()
            lp.precondition(x)
            lp.precondition(lp.sub(d, x))
            a0, b0 = blocks.pop() if blocks else (zero, zero)  # the input block E(0,1)
            if rule == "speedup_rand":
                blocks += [(a0, b0), (x, lp.max_of([b0, x])), (zero, b0)]
            else:
                blocks += [(lp.max_of([a0, x]), lp.max_of([b0, x])), (zero, b0)]
            d = lp.sub(d, x)
        elif rule == "slowdown":
            a0, b0 = blocks.pop()
            b_prev = blocks[-1][1] if blocks else zero
            lead = lp.scale(cc * alpha, d)
            d = lp.max_of([lead, lp.scale(cc, b0), lp.scale(cc, a0), lp.scale(cc, b_prev)])
        else:
            a0, b0 = blocks[-1]
            ratio = alpha * cc / (alpha * cc - 1)
            lp.precondition(lp.sub(lp.scale(ratio, a0), d))
            d = lp.max_of([lp.scale(cc, a0), lp.scale(cc, b0)])
    lp.precondition(lp.sub({_CONST: 1}, d))
    return lp


def stacked(lps: list[BuildAlgebra]):
    """(A_ub, b_ub, spans) of the block-diagonal float LP A_ub v <= b_ub with
    the LPs' rows as blocks, each coefficient converted to a float one at a
    time; spans holds each LP's first column and row.  One LP gets a dense
    A_ub."""
    rows, cols, vals, b_ub, spans = [], [], [], [], []
    nvars = 0
    for lp in lps:
        r0 = len(b_ub)
        spans.append((nvars, r0))
        for r, row in enumerate(lp.rows):
            b = 0.0
            for i, coeff in row.items():
                if i == _CONST:
                    b = float(coeff)
                else:
                    rows.append(r0 + r)
                    cols.append(nvars + i)
                    vals.append(-float(coeff))
            b_ub.append(b)
        nvars += lp.nvars
    a_ub = csc_array((vals, (rows, cols)), shape=(len(b_ub), nvars))
    return (a_ub.toarray() if len(lps) == 1 else a_ub), b_ub, spans
