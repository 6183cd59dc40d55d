"""Analytics: cubic roots, threshold ordering, curve emission."""

import math
from fractions import Fraction

import pytest

from atlb.analytics import (
    Cubic,
    emit_curve,
    largest_root_cubic,
    p_alpha,
    p_alpha_roots,
    real_roots_cubic,
    threshold_bounds,
)

F = Fraction


class TestCubic:
    def test_evaluation_exact(self):
        p = Cubic(1, -1, 0, -1)
        assert p(F(2)) == 3
        assert p(F(3, 2)) == F(1, 8)

    def test_leading_coefficient_required(self):
        with pytest.raises(ValueError):
            Cubic(0, 1, 1, 1)


class TestRoots:
    def test_known_factored_cubic(self):
        # (x-1)(x-2)(x-3)
        roots = real_roots_cubic(Cubic(1, -6, 11, -6))
        assert len(roots) == 3
        for got, want in zip(roots, (1, 2, 3)):
            assert abs(got - want) < 1e-9

    def test_single_real_root(self):
        roots = real_roots_cubic(Cubic(1, 0, 0, -8))
        assert len(roots) == 1
        assert abs(roots[0] - 2) < 1e-9

    def test_double_root_at_critical_point(self):
        # (x-1)^2 (x+2) and (x+1)(2x-1)^2: the double root is an exact cut,
        # found by its zero there and reported once
        for p, want in ((Cubic(1, 0, -3, 2), (-2, 1)), (Cubic(4, 0, -3, 1), (-1, 0.5))):
            roots = real_roots_cubic(p)
            assert len(roots) == 2
            for got, w in zip(roots, want):
                assert abs(got - w) < 1e-9

    def test_largest_root_x3_x2_1(self):
        assert abs(largest_root_cubic(Cubic(1, -1, 0, -1)) - 1.4655712319) < 1e-9

    def test_p_alpha_largest_roots(self):
        assert abs(largest_root_cubic(p_alpha(F(1))) - 2 * math.cos(math.pi / 7)) < 1e-12
        assert abs(largest_root_cubic(p_alpha(F(2, 3))) - (3 + math.sqrt(3)) / 2) < 1e-12

    def test_p_alpha_roots_descending_and_exact(self):
        r1, r2, r3 = p_alpha_roots(F(1))
        assert r1 > r2 > r3
        p = p_alpha(F(1))
        for r in (r1, r2, r3):
            assert abs(float(p(F(r).limit_denominator(10**9)))) < 1e-6
        # Vieta: sum = 1/alpha, product = -1/alpha^2
        assert abs((r1 + r2 + r3) - 1.0) < 1e-9
        assert abs(r1 * r2 * r3 + 1.0) < 1e-9

    def test_alpha_range_checked(self):
        with pytest.raises(ValueError):
            p_alpha_roots(F(3, 2))


class TestThresholds:
    def test_values_alpha_one(self):
        t = threshold_bounds(F(1))
        assert t["ratio_bound"] == 2.0
        assert abs(t["annotation100_bound"] - math.sqrt(2)) < 1e-12
        assert abs(t["lower_window"] - (1 + math.sqrt(5)) / 2) < 1e-12

    @pytest.mark.parametrize("i", range(1, 21))
    def test_root_ordering_on_grid(self, i):
        alpha = F(i, 20)
        r1, r2, _ = p_alpha_roots(alpha)
        t = threshold_bounds(alpha)
        assert r2 < t["lower_window"] < r1 < t["ratio_bound"]


class TestCurve:
    def test_header_and_shape(self):
        csv = emit_curve(F(1, 2), F(1), 5)
        lines = csv.strip().split("\n")
        assert lines[0] == "alpha,c"
        assert len(lines) == 6

    def test_endpoint_values(self):
        csv = emit_curve(F(1, 2), F(1), 3)
        last = csv.strip().split("\n")[-1].split(",")
        assert last[0] == "1"
        assert abs(float(last[1]) - 2 * math.cos(math.pi / 7)) < 1e-9

    def test_curve_decreasing_in_alpha(self):
        rows = emit_curve(F(1, 10), F(1), 10).strip().split("\n")[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert values == sorted(values, reverse=True)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            emit_curve(F(1), F(1, 2), 5)
        with pytest.raises(ValueError):
            emit_curve(F(1, 2), F(1), 1)
