"""The LP model of an annotation and its exact layer.

For a fixed annotation and parameters (alpha, c) the choice of speedup
parameters reduces to a linear program: every exponent produced by a rule is
a variable bounded below by each argument of its max, strict rule
preconditions get a common margin variable that is maximized, constant floors
are dropped (homogeneous form) and the initial d = 1 fixes the scale.  The
annotation is feasible iff the maximal margin is positive.

The LP's variables, rows and sparsity do not depend on (alpha, c), and each
coefficient is +-1 times a monomial in c, alpha and the squiggle guard's ratio
rho = alpha*c/(alpha*c - 1).  _template walks the annotation once, each
speedup and slowdown by rules._effect, into an LP whose coefficients are int
codes for these monomials; _LP reads it at one (alpha, c) through a _Table of
the codes' values, exact and float.  _template is memoized, so each
(annotation, mode) is walked once per process and read at every (alpha, c).
The template is the one record of the LP: _LP's exact rows are built from it,
and the tight point reads its coded terms through the table.

Everything here is exact.  _decide, the one place where the certification
order lives, decides the LP from its float solution (x, row duals), which
only steers.  A feasible answer is certified by the exact margin of its
rounded witness at the LP's tight point (each max variable at the max of
its terms; method "float+primal"), an infeasible one by exact weak-duality
multipliers solved on the float solution's active set ("float+dual"), which
_dual_bound, the one weak-duality check, accepts.
When neither certifies, the exact simplex (simplex.solve) decides, with the
exact LP optimum of either sign ("vertex").  It starts warm, at the vertex
of the float solution's active set, and pivots on from there when that
vertex is not optimal; it starts cold, at the crash vertex (every speedup
parameter 0), when the warm point is no feasible vertex or there is no
float solution.  A feasible optimum's witness is its own speedup
parameters; search._replay takes those of one float re-solve toward the
tight maxima instead if their tight margin is positive.
Neither numpy nor scipy is imported, so a "no" rests on this module and
simplex alone.

Feasibility is monotone in c, which lets search's bisections certify each
annotation only at its ends.  Let opt(c) be the LP's optimal margin, and
c0 < c1 two values where the LP exists.

- Lemma (ts).  A point with margin m > 0 at c1 has margin m at c0, so
  opt(c1) > 0 implies opt(c0) >= opt(c1).  Each coefficient that depends
  on c sits in one of two kinds of row.  In a max row v >= k(c) * t, k is
  c or alpha*c times a positive constant, and t is a variable or a d that
  the preconditions keep >= m > 0: the row weakens as c falls.  In the
  squiggle guard rho*a - d >= margin, rho = alpha*c/(alpha*c - 1) grows as
  c falls and multiplies a >= 0.  In ts every slowdown's max has a second
  nonzero term besides its lead, so max_of gives each c-scaled term a max
  variable, and no c-dependent coefficient reaches a precondition.
- Conjecture (bpts).  The same point can fail.  A slowdown that pops the
  input block has its lead alpha*c*d as its only nonzero term, so max_of
  returns that expression itself, and the next speedup's row
  alpha*c*d - x >= margin tightens as c falls.  Scaling every variable
  after each of the k interior returns to height 0 by c0/c1 suggests
  opt(c0) >= (c0/c1)^k * opt(c1) > 0 whenever opt(c1) > 0.

The tests pin both at exact optima: opt(c0) >= opt(c1) in ts, of either
sign, and opt(c0) >= (c0/c1)^k * opt(c1) in bpts when opt(c1) > 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from . import simplex
from .kernel import _rule_names
from .rules import _effect, _squiggle_window
from .simplex import CONST as _CONST
from .simplex import _solve_rational, _value

_MARGIN = 0

_FLOAT_TOL = 1e-9
_DUAL_TOL = 1e-11  # a row dual below -_DUAL_TOL is nonzero

# Templates kept per process: every one of a length-12 scan (1,581 of
# ~7-12 KB each), at most ~25 MB.
_TEMPLATES = 2048


# --- The LP of an annotation ------------------------------------------------
#
# A coefficient code is an int: +-2^i 3^j 5^l stands for +-c^i alpha^j rho^l,
# so 1 and -1 stand for themselves.  Scaling an expression by c, alpha or
# rho multiplies its codes by _C, _A or _RHO.
_C, _A, _RHO = 2, 3, 5


class _Template:
    """The LP of an annotation for every (alpha, c), built from linear
    expressions {var index: code, _CONST: code}.

    Its rows, each meaning expr >= 0, are kept as entries (row, column,
    code), row by row, in the order of their expressions' keys.  Besides
    them it keeps each max variable's terms, in creation order, and each
    strict precondition: what _tight_point evaluates.  The walk only scales
    expressions, multiplying their codes, and subtracts ones that share no
    variable, so each coefficient is +-1 times one monomial.  sub refuses a
    shared variable, which only an annotation with '12' meets (it has no
    LP, see _lp_of; tests/lp_walk.py builds it in Fractions).  It is
    rules._effect's arithmetic, without the floors: zero = one = {}."""

    zero = one = {}

    def __init__(self, annotation: str):
        self.annotation = annotation
        self.nvars = 1  # var 0 is the margin
        self.nrows = 0
        self.coo_rows: list[int] = []
        self.coo_cols: list[int] = []
        self.coo_codes: list[int] = []
        self.xvars: list[int] = []
        self.maxes: list[tuple[int, list[dict]]] = []  # (max variable, its terms)
        self.preconditions: list[dict] = []  # each means expr > 0

    def _new_var(self) -> int:
        i = self.nvars
        self.nvars += 1
        return i

    def _row(self, cols: list[int], codes: list[int]):
        """Add the row sum of codes[k] * v[cols[k]] >= 0."""
        self.coo_rows += [self.nrows] * len(cols)
        self.coo_cols += cols
        self.coo_codes += codes
        self.nrows += 1

    def x(self) -> dict:
        i = self._new_var()
        self.xvars.append(i)
        return {i: 1}

    def sub(self, e1: dict, e2: dict) -> dict:
        """e1 - e2, for expressions without a common variable."""
        if not e1.keys().isdisjoint(e2):
            raise ValueError(f"no LP template for {self.annotation!r}: a difference shares a term")
        out = dict(e1)
        for k, code in e2.items():
            out[k] = -code
        return out

    def scale(self, code: int, e: dict) -> dict:
        return {k: code * v for k, v in e.items()}

    def max_of(self, terms: list[dict], k: int | None = None) -> dict:  # of k times each term
        terms = [t if k is None else self.scale(k, t) for t in terms if t]
        if not terms:
            return {}
        if len(terms) == 1:
            return terms[0]
        i = self._new_var()
        self.maxes.append((i, terms))
        for t in terms:
            self._row([i, *t], [1, *(-code for code in t.values())])
        return {i: 1}

    def precondition(self, e: dict):
        self.preconditions.append(e)
        self._row([*e, _MARGIN], [*e.values(), -1])


@lru_cache(maxsize=_TEMPLATES)
def _template(a: str, mode: str) -> _Template:
    """The LP template of the annotation's homogeneous rule semantics.  Every
    caller shares it, so nothing changes it after this walk."""
    lp = _Template(a)
    blocks: list[tuple] = []  # (a value, b value)
    d = {_CONST: 1}
    for rule in _rule_names(a, mode):
        if rule != "squiggle":
            new, d = _effect(rule, lp, blocks, d, (_C, _A) if rule == "slowdown" else lp.x())
            blocks[-1:] = new
        else:
            # rules.squiggle's one step without its constant floor: under the
            # guard d < rho*a_k, d goes to the fixed point c*max(a_k, b_k).
            # Two differences.  First, where the rule is a no-op (d at or
            # below the fixed point, or the guard fails) these rows raise d
            # to c*max(a_k, b_k), or are infeasible.  No scan's answer moves:
            # the entering d is a slowdown's max variable, bounded only from
            # below ('12' has no LP, after a '2' d is at its fixed point), and
            # the annotation without this '2', also scanned, is at least as
            # good with the same exact proof.  Second, max_of makes a0 an
            # upper bound, not the tight max, which the guard row rewards: an
            # optimum that uses it fails the tight witness check and can fail
            # replay (10102100 at c = 8/5).
            a0, b0 = blocks[-1]
            lp.precondition(lp.sub(lp.scale(_RHO, a0), d))
            d = lp.max_of([a0, b0], _C)
    lp.precondition(lp.sub({_CONST: 1}, d))
    return lp


class _Memo(dict):
    """fn(key) of each key, computed at its first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Table:
    """The coefficients at one (alpha, c): exact[code] is the int a code 0
    or +-1 stands for, else the Fraction +-c^i alpha^j rho^l, and
    floats[code] its float.  Each is computed at its code's first lookup."""

    def __init__(self, alpha: Fraction, cc: Fraction):
        self.alpha, self.cc = alpha, cc
        self.exact = _Memo(self._coefficient)
        self.floats = _Memo(lambda code: float(self.exact[code]))

    def _coefficient(self, code: int) -> Fraction | int:
        value, n = (1, code) if code >= 0 else (-1, -code)
        if n < 2:
            return code
        ac = self.alpha * self.cc
        while n % _RHO == 0:
            value, n = value * ac / (ac - 1), n // _RHO
        while n % _A == 0:
            value, n = value * self.alpha, n // _A
        while n % _C == 0:
            value, n = value * self.cc, n // _C
        return value


class _LP:
    """The template's LP at the table's (alpha, c).  Its one exact view is
    its rows, in the template's order, built from the table when first read
    (search stacks the floats from the template and the table, and a
    "float+primal" verdict reads no row); the tight point reads the
    template's coded max terms and preconditions through the table."""

    def __init__(self, template: _Template, table: _Table):
        self.template, self.table = template, table
        self.nvars, self.xvars = template.nvars, template.xvars

    @cached_property
    def rows(self) -> list[dict]:
        t, exact = self.template, self.table.exact
        rows: list[dict] = [{} for _ in range(t.nrows)]
        for r, i, code in zip(t.coo_rows, t.coo_cols, t.coo_codes):
            rows[r][i] = exact[code]
        return rows


def _tight_point(lp: _LP, xs: list[Fraction]) -> dict[int, Fraction]:
    """The LP's point at the speedup parameters xs under the tight semantics
    the rules compute: each max variable at the max of its terms, and the
    margin at the least precondition.

    The LP drops a max's zero terms, so where a term is negative the margin
    may differ from the rules' in value, but not in sign; a positive margin
    is the rules' own, and the point then satisfies every row."""
    t, exact = lp.template, lp.table.exact
    v = {_CONST: 1, **dict(zip(lp.xvars, xs))}
    for i, terms in t.maxes:
        v[i] = max(_value(term, v, exact) for term in terms)
    v[_MARGIN] = min(_value(e, v, exact) for e in t.preconditions)
    return v


# --- Exact certification of the float answer --------------------------------


def _dual_bound(lp: _LP, support: list[int], w: list[Fraction]) -> Fraction | None:
    """Weak-duality bound on the margin from exact multipliers w on the rows
    support, else None.  With every w_r >= 0, summing w_r * (row_r >= 0)
    gives q.v + bound >= 0; with every variable coefficient q_i <= 0 and the
    free margin's < 0, margin <= bound / (-q_margin), whatever its sign.  It
    checks all three conditions, so any w may be given."""
    q: dict[int, Fraction] = {}
    bound = 0
    for r, wr in zip(support, w):
        if wr < 0:
            return None
        if not wr:
            continue
        for i, coeff in lp.rows[r].items():
            if i == _CONST:
                bound += wr * coeff
            else:
                q[i] = q.get(i, 0) + wr * coeff
    if q.get(_MARGIN, 0) >= 0:
        return None
    if any(v > 0 for i, v in q.items() if i != _MARGIN):
        return None
    return bound / -q[_MARGIN]


def _active_dual_bound(lp: _LP, x, duals) -> Fraction | None:
    """Exact weak-duality upper bound on the margin, of any sign, or None.
    The multipliers solve the dual equations exactly on the float solution's
    active set: the rows with a nonzero dual times the tight columns (the
    margin and those the float solution puts above 0); _dual_bound checks
    them."""
    support = [r for r, v in enumerate(duals) if v < -_DUAL_TOL]
    if not support:
        return None
    tight = [_MARGIN] + [i for i in range(1, lp.nvars) if x[i] > _FLOAT_TOL]
    a_rows = [[lp.rows[r].get(i, 0) for r in support] for i in tight]
    b = [-1] + [0] * (len(tight) - 1)
    sol = _solve_rational(a_rows, b)
    return None if sol is None else _dual_bound(lp, support, sol)


def _exact_optimum(lp: _LP, start) -> simplex.Vertex | None:
    """The exact LP optimum, by simplex.solve from the vertex of start (its
    tight rows and its columns at 0); None when start gives no feasible
    vertex."""
    objective = [1] + [0] * (lp.nvars - 1)
    return simplex.solve(objective, lp.rows, *start, free=(_MARGIN,))


def _warm_start(lp: _LP, x, duals):
    """The float solution's active set: the rows with a nonzero dual or a
    zero residual, and the columns it leaves at 0."""
    at_x = {_CONST: 1, **dict(enumerate(x))}
    active = [
        r
        for r, (row, dual) in enumerate(zip(lp.rows, duals))
        if dual < -_DUAL_TOL or abs(_value(row, at_x)) <= _FLOAT_TOL
    ]
    return active, [i for i in range(1, lp.nvars) if x[i] <= _FLOAT_TOL]


def _crash_start(lp: _LP):
    """The active set of the crash vertex, the tight point at every speedup
    parameter 0: each max variable at its largest term and the margin at the
    least precondition.  Every row holds there, and the active constraints
    determine the point: the parameters' bounds, then, in creation order, a
    tight row per max variable, and the least precondition for the margin."""
    v = _tight_point(lp, [0] * len(lp.xvars))
    return [r for r, row in enumerate(lp.rows) if _value(row, v) == 0], lp.xvars


def _witness(lp: _LP, x) -> tuple[list[Fraction], Fraction]:
    """The float point x's speedup parameters as nearby simple rationals,
    and their margin at the tight point."""
    xs = [Fraction(float(x[i])).limit_denominator(10**12) for i in lp.xvars]
    return xs, _tight_point(lp, xs)[_MARGIN]


def _decide(lp: _LP | None, sol) -> tuple[bool, Fraction | None, list[Fraction], str]:
    """(feasible, margin, witness, method) of the LP, method "precondition"
    when there is none.  The float solution sol (x, row duals), or None,
    only picks which exact check decides and where the simplex starts."""
    if lp is None:
        return False, None, [], "precondition"
    warm = None
    if sol is not None:
        x, duals = sol
        if x[_MARGIN] > _FLOAT_TOL:
            xs, margin = _witness(lp, x)
            if margin > 0:
                return True, margin, xs, "float+primal"
        elif x[_MARGIN] < -_FLOAT_TOL:
            bound = _active_dual_bound(lp, x, duals)
            if bound is not None and bound <= 0:
                return False, bound, [], "float+dual"
        warm = _exact_optimum(lp, _warm_start(lp, x, duals))
    vertex = warm or _exact_optimum(lp, _crash_start(lp))
    ok = vertex.value > 0
    return ok, vertex.value, [vertex.point[i] for i in lp.xvars] if ok else [], "vertex"


def _lp_of(a: str, mode: str, table: _Table) -> _LP | None:
    """The annotation's LP at the table's (alpha, c), or None when its margin
    is <= 0 whatever the speedup parameters: a squiggle's precondition
    1/alpha < c < (1+alpha)/alpha fails, or a squiggle follows a speedup
    ('12'), where the block's a is 0: the guard row gives margin <= -d, the
    speedup's row d >= margin."""
    if "12" in a or ("2" in a and not _squiggle_window(table.alpha, table.cc)):
        return None
    return _LP(_template(a, mode), table)
