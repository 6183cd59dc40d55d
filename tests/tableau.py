"""Exact rational two-phase tableau simplex: the tests' oracle for
atlb.simplex.solve.

Solves  maximize c.x  subject to rows of the form  a.x (<=|>=|=) rhs,  x >= 0,
entirely in Fraction arithmetic with Bland's anti-cycling rule, from scratch:
phase 1 finds a feasible basis with artificial columns, phase 2 optimizes.
It shares no code with atlb.simplex, which pivots on from a known vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, GE, EQ = "<=", ">=", "="

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class SimplexResult:
    status: str
    value: Fraction | None
    x: list[Fraction] | None


def solve(
    objective: list[Fraction],
    rows: list[tuple[list[Fraction], str, Fraction]],
    pivot_limit: int = 100000,
) -> SimplexResult:
    n = len(objective)
    m = len(rows)
    n_slack = sum(1 for _, sense, _ in rows if sense in (LE, GE))
    width = n + n_slack

    tableau: list[list[Fraction]] = []
    slack_col = n
    slack_of_row: list[int | None] = []
    for coeffs, sense, rhs in rows:
        if len(coeffs) != n:
            raise ValueError("row width does not match objective")
        row = [Fraction(v) for v in coeffs] + [_ZERO] * n_slack + [Fraction(rhs)]
        if sense == LE:
            row[slack_col] = _ONE
            slack_of_row.append(slack_col)
            slack_col += 1
        elif sense == GE:
            row[slack_col] = -_ONE
            slack_of_row.append(slack_col)
            slack_col += 1
        elif sense == EQ:
            slack_of_row.append(None)
        else:
            raise ValueError(f"unknown sense {sense!r}")
        tableau.append(row)

    # make every rhs nonnegative, then give each row a basic column:
    # its own slack if that slack has coefficient +1, otherwise an artificial.
    basis: list[int] = []
    artificial_cols: list[int] = []
    for i, row in enumerate(tableau):
        if row[-1] < 0:
            tableau[i] = [-v for v in row]
            row = tableau[i]
        sc = slack_of_row[i]
        if sc is not None and row[sc] == 1:
            basis.append(sc)
        else:
            basis.append(-1)  # placeholder, artificial assigned below
    for i in range(m):
        if basis[i] == -1:
            col = width + len(artificial_cols)
            artificial_cols.append(col)
            basis[i] = col
    total = width + len(artificial_cols)
    for i in range(m):
        row = tableau[i]
        rhs = row.pop()
        row.extend([_ZERO] * (total - width))
        row.append(rhs)
        if basis[i] >= width:
            row[basis[i]] = _ONE

    pivots = [0]

    def pivot(r: int, c: int):
        pivots[0] += 1
        if pivots[0] > pivot_limit:
            raise RuntimeError(f"simplex pivot limit {pivot_limit} exceeded")
        prow = tableau[r]
        inv = _ONE / prow[c]
        tableau[r] = prow = [v * inv for v in prow]
        for i in range(m):
            if i == r:
                continue
            factor = tableau[i][c]
            if factor != 0:
                tableau[i] = [v - factor * p for v, p in zip(tableau[i], prow)]
        basis[r] = c

    def optimize(cost: list[Fraction], allowed: int) -> Fraction:
        """Maximize cost.x over the current tableau (columns < allowed)."""
        # reduced-cost row, eliminated against the current basis
        z = [-v for v in cost] + [_ZERO]
        for i in range(m):
            factor = z[basis[i]]
            if factor != 0:
                z[:] = [v - factor * p for v, p in zip(z, tableau[i])]
        while True:
            enter = -1
            for j in range(allowed):
                if z[j] < 0:
                    enter = j
                    break
            if enter == -1:
                # z = -cost with basic columns eliminated, so for the current
                # basic solution the accumulated constant equals cost.x
                return z[-1]
            leave = -1
            best = None
            for i in range(m):
                a = tableau[i][enter]
                if a > 0:
                    ratio = tableau[i][-1] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave == -1:
                raise _Unbounded()
            pivot(leave, enter)
            factor = z[enter]
            z[:] = [v - factor * p for v, p in zip(z, tableau[leave])]

    if artificial_cols:
        phase1_cost = [_ZERO] * total
        for col in artificial_cols:
            phase1_cost[col] = -_ONE
        value = optimize(phase1_cost, total)
        if value < 0:
            return SimplexResult(INFEASIBLE, None, None)
        # drive leftover artificials out of the basis (degenerate rows)
        drop_rows = []
        for i in range(m):
            if basis[i] >= width:
                col = next((j for j in range(width) if tableau[i][j] != 0), None)
                if col is None:
                    drop_rows.append(i)
                else:
                    pivot(i, col)
        for i in reversed(drop_rows):
            del tableau[i]
            del basis[i]
        m = len(tableau)

    phase2_cost = [Fraction(v) for v in objective] + [_ZERO] * (total - n)
    try:
        value = optimize(phase2_cost, width)
    except _Unbounded:
        return SimplexResult(UNBOUNDED, None, None)
    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][-1]
    return SimplexResult(OPTIMAL, value, x)


class _Unbounded(Exception):
    pass
