"""Exact primal simplex for LPs in inequality form.

An LP here maximizes objective . v subject to rows, each a linear form
{column: coefficient} (column CONST holds the constant term) that must be
>= 0, and v_i >= 0 for every column not in free.  A vertex is n linearly
independent constraints (rows, or bounds v_i >= 0) tight at a point that
satisfies all of them.  solve starts at a vertex the caller names by its
active set, the rows it takes as tight and the columns it takes as 0, and
pivots by Bland's rule, each step two exact solves (_solve_rational) of the
basis system.  There is no phase 1: the caller knows a feasible vertex.
This is the design of exact LP solvers that pivot on from a floating-point
basis (Applegate, Cook, Dash & Espinoza, Exact solutions to linear
programming problems, Oper. Res. Letters 2007).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

CONST = -1


def _value(e: dict, v, table=None) -> Fraction:
    """The linear expression e (a row, a max term or a precondition) at the
    point v, whose v[CONST] is 1: exact, or float for a float v.  Given a
    table, e's coefficients are codes and a code other than +-1 stands for
    table[code].  Unit coefficients skip the multiply, and the sum starts at
    the first term, not at an int 0: a tight point costs about a third less
    than with a plain multiply-and-add loop."""
    s = None
    for i, coeff in e.items():
        t = v[i] if coeff == 1 else -v[i] if coeff == -1 else (coeff if table is None else table[coeff]) * v[i]
        s = t if s is None else s + t
    return s


def _eliminate(a_rows: list[list[Fraction]], b: list[Fraction]):
    """(w, pivots) for A w = b: any exact solution w (free unknowns set to 0)
    and the (column, row of A) of each pivot, in order; None when the system
    is inconsistent.

    Fraction-free Gauss-Jordan: each equation is scaled to integers, and a
    row is eliminated by integer cross-multiplication, then divided by its
    content (the gcd of its entries)."""
    rows = []
    for row in ([*r, bv] for r, bv in zip(a_rows, b)):
        den = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (den // v.denominator) for v in row])
    m = len(rows)
    n = len(a_rows[0]) if m else 0
    order = list(range(m))
    piv_cols = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        order[r], order[piv] = order[piv], order[r]
        p = rows[r][col]
        for i in range(m):
            if i != r and (f := rows[i][col]):
                row = [p * v - f * q for v, q in zip(rows[i], rows[r])]
                g = math.gcd(*row) or 1
                rows[i] = [v // g for v in row]
        piv_cols.append(col)
        r += 1
        if r == m:
            break
    if any(row[-1] for row in rows[r:]):
        return None  # inconsistent
    w = [Fraction(0)] * n
    for row, col in zip(rows, piv_cols):
        w[col] = Fraction(row[-1], row[col])
    return w, list(zip(piv_cols, order))


def _solve_rational(a_rows: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Any exact solution of A w = b (free unknowns set to 0), else None."""
    sol = _eliminate(a_rows, b)
    return None if sol is None else sol[0]


@dataclass(frozen=True)
class Vertex:
    """An optimal vertex: the objective's value there, the point (one value
    per column), a multiplier w_r >= 0 per basis row r with objective +
    sum_r w_r * row_r <= 0 in every bounded column and = 0 in every free
    one, and the number of pivots made."""

    value: Fraction
    point: list[Fraction]
    duals: dict[int, Fraction]
    pivots: int


def solve(
    objective: list[Fraction], rows: list[dict], active: list[int], zeros: list[int], free=()
) -> Vertex | None:
    """The optimum, by Bland's rule from the vertex where the rows `active`
    are tight and the columns `zeros` are 0; None when these constraints do
    not give a feasible vertex.  An unbounded objective raises ValueError.

    Rows of `active` that depend on the others are dropped, and a column
    they leave undetermined is set to 0, as _solve_rational sets its free
    unknowns (a free column left undetermined gives None).  The basis is
    then the bounds of the zero columns and rows as many as the other
    columns.  Relaxing one of its constraints by a unit moves the point along
    a direction d; where that raises the objective, the constraint's
    multiplier is positive.  Bland's two choices take the first constraint
    in one order, the bound of each column (constraint i) and then each row
    (constraint n + r): the first with a positive multiplier leaves the
    basis, and the first of those that block d at the least step enters it."""
    n = len(objective)
    cols = [i for i in range(n) if i not in zeros]
    a_active = [[rows[r].get(i, 0) for i in cols] for r in active]
    sol = _eliminate(a_active, [-rows[r].get(CONST, 0) for r in active])
    if sol is None:
        return None
    w, pivots = sol
    v = {CONST: 1, **dict.fromkeys(range(n), Fraction(0)), **dict(zip(cols, w))}
    cols = [cols[j] for j, _ in pivots]
    if set(free) - set(cols):
        return None
    basis = [active[r] for _, r in pivots]  # the basis rows, one per column of cols
    if any(v[i] < 0 for i in range(n) if i not in free) or any(_value(row, v) < 0 for row in rows):
        return None

    steps = 0
    while True:
        zeros = [i for i in range(n) if i not in cols]
        a_basis = [[rows[r].get(i, 0) for i in cols] for r in basis]
        # objective = sum_r y_r row_r (over the basis rows) + sum_i z_i e_i (over zeros)
        y = dict(zip(basis, _solve_rational([*zip(*a_basis)], [objective[i] for i in cols])))
        z = {i: objective[i] - sum(yr * rows[r].get(i, 0) for r, yr in y.items()) for i in zeros}
        up = [i for i, zi in z.items() if zi > 0] + [n + r for r, yr in y.items() if yr > 0]
        if not up:
            point = [v[i] for i in range(n)]
            value = sum(c * vi for c, vi in zip(objective, point))
            return Vertex(value, point, {r: -yr for r, yr in y.items()}, steps)
        k = min(up)
        if k < n:  # column k leaves 0 at unit rate, the basis rows stay tight
            d = {k: Fraction(1)}
            rhs = [-rows[r].get(k, 0) for r in basis]
        else:  # row k - n's form grows by 1, the other basis rows stay tight
            d = {}
            rhs = [Fraction(int(n + r == k)) for r in basis]
        d.update(zip(cols, _solve_rational(a_basis, rhs)))
        blocking = [(v[i] / -d[i], i) for i in cols if d[i] < 0 and i not in free]
        for r, row in enumerate(rows):
            rate = sum(coeff * d[i] for i, coeff in row.items() if i in d)
            if rate < 0 and r not in basis:
                blocking.append((_value(row, v) / -rate, n + r))
        if not blocking:
            raise ValueError("unbounded objective")
        t, j = min(blocking)
        for i, di in d.items():
            v[i] += t * di
        if k < n:
            cols.append(k)
        else:
            basis.remove(k - n)
        if j < n:
            cols.remove(j)
        else:
            basis.append(j - n)
        steps += 1
