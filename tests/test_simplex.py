"""The exact simplex (atlb.simplex.solve) on known answers, and its oracle,
the two-phase tableau simplex of tests/tableau.py, on the same answers."""

from fractions import Fraction

import pytest
from tableau import EQ, GE, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, solve

from atlb import simplex
from atlb.simplex import CONST

F = Fraction


def _le(coeffs, rhs):
    """The row coeffs . x <= rhs as a linear form that must be >= 0."""
    return {CONST: F(rhs), **{i: -F(c) for i, c in enumerate(coeffs) if c}}


# max 3x + 2y st x + y <= 4, x + 3y <= 6
ROWS_3X_2Y = [_le([1, 1], 4), _le([1, 3], 6)]
# Beale's degenerate example: the textbook pivot rule cycles on it
BEALE = (
    [F(3, 4), F(-150), F(1, 50), F(-6)],
    [_le([F(1, 4), -60, F(-1, 25), 9], 0), _le([F(1, 2), -90, F(-1, 50), 3], 0), _le([0, 0, 1, 0], 1)],
)


class TestSolve:
    def test_basic_maximization(self):
        # from the origin: optimum 12 at (4, 0)
        res = simplex.solve([F(3), F(2)], ROWS_3X_2Y, [], [0, 1])
        assert (res.value, res.point) == (12, [4, 0])

    def test_interior_vertex_optimum(self):
        # max 2x + 3y: optimum 9 at (3, 1), where both rows are tight
        res = simplex.solve([F(2), F(3)], ROWS_3X_2Y, [], [0, 1])
        assert (res.value, res.point) == (9, [3, 1])

    def test_exact_rational_answer(self):
        # max x st 3x <= 1
        res = simplex.solve([F(1)], [_le([3], 1)], [], [0])
        assert (res.value, res.point) == (F(1, 3), [F(1, 3)])

    def test_degenerate_cycling_guard(self):
        # Bland's rule must end, at the optimum 1/20
        objective, rows = BEALE
        res = simplex.solve(objective, rows, [], [0, 1, 2, 3])
        assert res.value == F(1, 20)

    def test_unbounded(self):
        # max x st x >= 1, from x = 1
        with pytest.raises(ValueError, match="unbounded"):
            simplex.solve([F(1)], [{0: F(1), CONST: F(-1)}], [0], [])

    def test_warm_start_at_optimum_makes_no_pivot(self):
        # x + y <= 4 tight and y = 0 is the optimal vertex (4, 0)
        res = simplex.solve([F(3), F(2)], ROWS_3X_2Y, [0], [1])
        assert (res.value, res.point, res.pivots) == (12, [4, 0], 0)
        assert simplex.solve([F(3), F(2)], ROWS_3X_2Y, [], [0, 1]).pivots > 0

    def test_multipliers_certify_the_optimum(self):
        # weak duality: objective + sum_r w_r * row_r is <= 0 in every
        # column, so the objective is at most sum_r w_r * constant_r
        for objective, start in (([F(3), F(2)], [0, 1]), ([F(2), F(3)], [0, 1])):
            res = simplex.solve(objective, ROWS_3X_2Y, [], start)
            assert all(w >= 0 for w in res.duals.values())
            for i, c in enumerate(objective):
                assert c + sum(w * ROWS_3X_2Y[r].get(i, 0) for r, w in res.duals.items()) <= 0
            assert sum(w * ROWS_3X_2Y[r][CONST] for r, w in res.duals.items()) == res.value

    def test_start_that_is_no_feasible_vertex(self):
        # x + 3y = 6 at y = 0 breaks x + y <= 4; two rows tight at x = 0
        # are inconsistent; a free column the active rows leave open is no vertex
        assert simplex.solve([F(3), F(2)], ROWS_3X_2Y, [1], [1]) is None
        assert simplex.solve([F(3), F(2)], ROWS_3X_2Y, [0, 1], [0]) is None
        assert simplex.solve([F(3), F(2)], ROWS_3X_2Y, [], [1], free=(0,)) is None
        # x + y = 4 and y - x = 6 meet at (-1, 5), where every row holds
        # but x < 0
        assert simplex.solve([F(3), F(2)], [ROWS_3X_2Y[0], _le([-1, 1], 6)], [0, 1], []) is None
        # a bounded column left open is set to 0, as at the origin
        assert simplex.solve([F(3), F(2)], ROWS_3X_2Y, [], [1]).value == 12


def test_basic_maximization():
    # max 3x + 2y st x + y <= 4, x + 3y <= 6: optimum 12 at (4, 0)
    res = solve([F(3), F(2)], [([F(1), F(1)], LE, F(4)), ([F(1), F(3)], LE, F(6))])
    assert res.status == OPTIMAL
    assert res.value == 12
    assert res.x == [F(4), F(0)]


def test_interior_vertex_optimum():
    # max 2x + 3y st x + y <= 4, x + 3y <= 6: optimum 9 at (3, 1)
    res = solve([F(2), F(3)], [([F(1), F(1)], LE, F(4)), ([F(1), F(3)], LE, F(6))])
    assert res.status == OPTIMAL
    assert res.value == 9
    assert res.x == [F(3), F(1)]


def test_ge_and_eq_rows():
    # max x + y st x + y <= 10, x >= 2, x + 2y = 8
    res = solve(
        [F(1), F(1)],
        [([F(1), F(1)], LE, F(10)), ([F(1), F(0)], GE, F(2)), ([F(1), F(2)], EQ, F(8))],
    )
    assert res.status == OPTIMAL
    assert res.value == 8  # x=8, y=0
    assert res.x == [F(8), F(0)]


def test_infeasible():
    res = solve([F(1)], [([F(1)], GE, F(3)), ([F(1)], LE, F(2))])
    assert res.status == INFEASIBLE


def test_unbounded():
    res = solve([F(1)], [([F(1)], GE, F(1))])
    assert res.status == UNBOUNDED


def test_exact_rational_answer():
    # max x st 3x <= 1
    res = solve([F(1)], [([F(3)], LE, F(1))])
    assert res.value == F(1, 3)


def test_degenerate_cycling_guard():
    # classic degenerate problem; Bland's rule must terminate
    res = solve(
        [F(3, 4), F(-150), F(1, 50), F(-6)],
        [
            ([F(1, 4), F(-60), F(-1, 25), F(9)], LE, F(0)),
            ([F(1, 2), F(-90), F(-1, 50), F(3)], LE, F(0)),
            ([F(0), F(0), F(1), F(0)], LE, F(1)),
        ],
    )
    assert res.status == OPTIMAL
    assert res.value == F(1, 20)


def test_negative_rhs_normalized():
    # max -x st -x <= -2  (i.e. x >= 2)
    res = solve([F(-1)], [([F(-1)], LE, F(-2))])
    assert res.status == OPTIMAL
    assert res.value == -2


def test_row_width_checked():
    with pytest.raises(ValueError):
        solve([F(1), F(1)], [([F(1)], LE, F(1))])


def test_redundant_equalities():
    res = solve(
        [F(1), F(1)],
        [([F(1), F(1)], EQ, F(2)), ([F(2), F(2)], EQ, F(4))],
    )
    assert res.status == OPTIMAL
    assert res.value == 2
