"""Closed-form constants: cubic roots, threshold bounds, and the c-vs-alpha curve.

The lower-bound exponent for slowdown parameter alpha is the largest real root
of P_alpha(x) = alpha^2 x^3 - alpha x^2 - 2 alpha x + 1.  Roots are isolated by
sign-change bracketing with rational endpoints and refined by bisection
(_bisect, the one bisection loop, which the search also runs over c); they are
the only irrational values in the package and never feed back into
certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class Cubic:
    c3: Fraction
    c2: Fraction
    c1: Fraction
    c0: Fraction

    def __post_init__(self):
        if self.c3 == 0:
            raise ValueError("leading coefficient must be nonzero")
        for name in ("c3", "c2", "c1", "c0"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def __call__(self, x: Fraction) -> Fraction:
        return ((self.c3 * x + self.c2) * x + self.c1) * x + self.c0


def p_alpha(alpha: Fraction) -> Cubic:
    """P_alpha(x) = alpha^2 x^3 - alpha x^2 - 2 alpha x + 1."""
    alpha = Fraction(alpha)
    return Cubic(alpha * alpha, -alpha, -2 * alpha, Fraction(1))


def _midpoint(lo: Fraction, hi: Fraction) -> Fraction:
    """A simple rational strictly inside (lo, hi), near the midpoint.

    Keeping denominators small keeps all downstream exact arithmetic cheap;
    the exact midpoint would double the denominator every bisection step."""
    mid = (lo + hi) / 2
    limit = 16
    while limit <= 10**18:
        cand = mid.limit_denominator(limit)
        if lo < cand < hi:
            return cand
        limit *= 16
    return mid


def _bisect(pred, lo: Fraction, hi: Fraction, tol: Fraction) -> Fraction:
    """Midpoint of the bracket [lo, hi], pred true at lo and false at hi, once
    bisection has narrowed it to width <= tol."""
    while hi - lo > tol:
        mid = _midpoint(lo, hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def real_roots_cubic(p: Cubic, tol: float = DEFAULT_TOL) -> list[float]:
    """All real roots, ascending, each within tol."""
    # Bracket using the critical points (floats suffice for bracketing; the
    # sign tests and the bisection itself are exact rational).  Cauchy's bound
    # is strict, so p(+-bound) != 0 and a root at a cut is a critical point.
    bound = 1 + max(abs(p.c2), abs(p.c1), abs(p.c0)) / abs(p.c3)
    a, b, c = 3 * p.c3, 2 * p.c2, p.c1
    disc = float(b * b - 4 * a * c)
    cuts = [Fraction(-bound)]
    if disc > 0:
        r = math.sqrt(disc)
        for t in sorted(((-float(b) - r) / (2 * float(a)), (-float(b) + r) / (2 * float(a)))):
            cuts.append(Fraction(t).limit_denominator(10**15))
    cuts.append(Fraction(bound))
    roots: list[float] = []
    for lo, hi in zip(cuts, cuts[1:]):
        if lo >= hi:
            continue
        flo, fhi = p(lo), p(hi)
        if flo == 0:
            roots.append(float(lo))
        if flo * fhi < 0:
            root = _bisect(lambda x: (p(x) > 0) == (flo > 0), lo, hi, Fraction(tol) / 4)
            roots.append(float(root))
    out: list[float] = []
    for r in sorted(roots):
        if not out or abs(r - out[-1]) > 10 * tol:
            out.append(r)
    return out


def largest_root_cubic(p: Cubic, tol: float = DEFAULT_TOL) -> float:
    roots = real_roots_cubic(p, tol)
    if not roots:
        raise ValueError("no real root bracketed")
    return roots[-1]


def p_alpha_roots(alpha: Fraction, tol: float = DEFAULT_TOL) -> tuple[float, float, float]:
    """All three real roots of P_alpha, descending."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha out of range (0, 1]: {alpha}")
    roots = real_roots_cubic(p_alpha(alpha), tol)
    if len(roots) != 3:
        raise ValueError(f"expected three real roots for alpha={alpha}, found {len(roots)}")
    r3, r2, r1 = roots
    return r1, r2, r3


def threshold_bounds(alpha: Fraction) -> dict[str, float]:
    """The three closed-form thresholds for slowdown parameter alpha:
    the simple ratio bound (1+alpha)/alpha, the annotation-100 bound
    sqrt(1+alpha)/alpha, and the lower edge (1+sqrt(1+4*alpha))/(2*alpha)
    of the window where the squiggle construction applies."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive: {alpha}")
    a = float(alpha)
    return {
        "ratio_bound": float((1 + alpha) / alpha),
        "annotation100_bound": math.sqrt(1 + a) / a,
        "lower_window": (1 + math.sqrt(1 + 4 * a)) / (2 * a),
    }


def emit_curve(alpha_min: Fraction, alpha_max: Fraction, steps: int) -> str:
    """CSV `alpha,c` with c = largest root of P_alpha, 12 significant digits."""
    alpha_min, alpha_max = Fraction(alpha_min), Fraction(alpha_max)
    if not (0 < alpha_min < alpha_max <= 1):
        raise ValueError("need 0 < alpha_min < alpha_max <= 1")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    lines = ["alpha,c"]
    for i in range(steps):
        alpha = alpha_min + (alpha_max - alpha_min) * i / (steps - 1)
        c = largest_root_cubic(p_alpha(alpha))
        lines.append(f"{float(alpha):.12g},{c:.12g}")
    return "\n".join(lines) + "\n"
