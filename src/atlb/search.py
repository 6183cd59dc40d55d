"""Per-annotation parameter optimization and proof search.

For a fixed annotation and parameters (alpha, c) the choice of speedup
parameters reduces to a linear program: every exponent produced by a rule is
a variable bounded below by each argument of its max, strict rule
preconditions get a common margin variable that is maximized, constant floors
are dropped (homogeneous form) and the initial d = 1 fixes the scale.  The
annotation is feasible iff the maximal margin is positive; a positive
answer is replayed through the exact rules at a large concrete d, in one
derivation (rules.derive) that builds the certificate and checks it.

The float LP (scipy/HiGHS) only steers: a feasible answer is certified by the
exact margin of its rounded witness at the LP's tight point (each max
variable at the max of its terms), an infeasible one by exact weak-duality
multipliers solved on the float solution's active set (one dual path).  When
neither certifies, the exact simplex (simplex.solve) decides, with the exact
LP optimum of either sign (method "vertex").  It starts warm, at the vertex
of the float solution's active set, and pivots on from there when that
vertex is not optimal; it starts cold, at the crash vertex (every speedup
parameter 0), when the warm point is no feasible vertex or the float solve
does not end optimal.  A feasible optimum's witness is its own speedup
parameters, or, when replayed, those of one float re-solve toward the tight
maxima if the rules accept them.
The float LPs are solved in batches: the LPs of a batch share no
variable and no row, so they stack into one block-diagonal LP whose
objective is the sum of their margins, and its optimum and duals split into
those of each block.  Scans and searches cut their annotations into fixed
batches; a process pool spreads whole batches, so the number of workers
changes no answer.  Bisection over c (best_exponent, search_best) bisects
one bracket per batch for the largest best exponent of its annotations: each
midpoint decides, without replay, the annotations still level with the
best, and drops those that fall behind.  One float solve takes the LPs of
the stretch of bisection path that the float margins predict (each c*
interpolated from HiGHS's margins); a wrong prediction wastes only float
LPs, as each decision is certified exactly from its own LP's float
solution.  search_best replays only the winner's last feasible witness, and
decides the winner again if the rules reject it.

The named constructors (good_proof, bpts_proof) are annotation certificates
of fixed annotations with geometric speedup parameters; every certificate is
assembled by _run_steps, and every bisection runs in analytics._bisect.
There is one slowdown model: a ts-mode Grover proof is an alpha = 2/3 proof
with its slowdowns named grover (grover_certificate).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from . import simplex
from .analytics import _bisect, _midpoint, largest_root_cubic, p_alpha
from .kernel import (
    BP_TS,
    BPTS_MODE,
    DET_TS,
    TS_MODE,
    AltClass,
    _step_height,
    enumerate_annotations,
    validate_annotation,
)
from .rules import (
    ProofCertificate,
    ProofReport,
    RuleError,
    RuleStep,
    _iterations,
    apply_step,  # unused here: perfbench's tracer replaces search.apply_step by name
    derive,
    expected_assumption,
    verify_proof,  # unused here: perfbench's tracer replaces search.verify_proof by name
)
from .simplex import CONST as _CONST
from .simplex import _solve_rational, _value

_MARGIN = 0

_FLOAT_TOL = 1e-9
_DUAL_TOL = 1e-11  # a row dual below -_DUAL_TOL is nonzero
# at HiGHS's default 1e-7 a row broken by ~1e-8 drops out of the active set
_HIGHS = {"primal_feasibility_tolerance": _FLOAT_TOL}
# The witness re-solve of a replayed vertex keeps margin >= opt/_WITNESS_FLOOR.
# Of the 106 such verdicts of scripts/decisions.py's sweep, its witness
# replays 76 times at a floor of opt/2, 101 at opt/10 and all at opt/100.
_WITNESS_FLOOR = 100

# LPs per float solve in scans and bisection rounds.  On a 2-vCPU Xeon a
# lone solve takes 3-4 ms, nearly all of it linprog's per-call overhead; per
# LP, batches of 16 cost 0.5-0.6 ms, of 32 to 128 0.4-0.5 ms.  HiGHS's
# working memory grows by ~35 KB per LP of a batch (the peak RSS of a
# length-8 scan grows by 1.25 MB at 32 and 5.5 MB at 128), so 32 it is.
_BATCH = 32


# --- The LP of an annotation ------------------------------------------------


class _BuildAlgebra:
    """The LP, built from linear expressions {var index: coeff, _CONST: coeff}.

    Besides the rows it keeps each max variable's terms, in creation order,
    and each strict precondition: what _tight_point evaluates.  Coefficients
    that do not depend on c are the ints 1 and -1, not Fractions."""

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


def _rule_names(a: str, mode: str):
    """The rule each symbol applies; the height trace names each speedup."""
    h, ver = 0, BP_TS if mode == BPTS_MODE else DET_TS
    for sym in a:
        speedup = "speedup_rand" if ver == BP_TS else "speedup" if h else "speedup_first"
        h, ver = _step_height(h, ver, sym, mode)  # AnnotationError on an invalid step
        yield {"1": speedup, "0": "slowdown", "2": "squiggle"}[sym]


def _build_lp(a: str, alpha: Fraction, cc: Fraction, mode: str) -> _BuildAlgebra:
    """The LP of the annotation's homogeneous rule semantics."""
    lp = _BuildAlgebra()
    zero: dict = {}
    blocks: list[tuple] = []  # (a value, b value); constant-1 floors are zero
    d = {_CONST: 1}
    for rule in _rule_names(a, mode):
        if rule.startswith("speedup"):
            x = lp.x()
            lp.precondition(x)
            lp.precondition(lp.sub(d, x))
            if rule == "speedup_first":  # E(x, max(x,1)) A(0, 1)
                blocks += [(x, x), (zero, zero)]
            elif rule == "speedup":
                a0, b0 = blocks[-1]
                blocks[-1] = (lp.max_of([a0, x]), lp.max_of([b0, x]))
                blocks.append((zero, b0))
            elif blocks:  # randomized speedup
                a0, b0 = blocks[-1]
                blocks += [(x, lp.max_of([b0, x])), (zero, b0)]
            else:  # randomized first speedup: E(0,1) A(x, max(x,1)) E(0,1)
                blocks += [(zero, zero), (x, x), (zero, zero)]
            d = lp.sub(d, x)
        elif rule == "slowdown":
            a0, b0 = blocks.pop()
            b_prev = blocks[-1][1] if blocks else zero
            lead = lp.scale(cc * alpha, d)  # a grover collapse is this lead at alpha = 2/3
            d = lp.max_of([lead, lp.scale(cc, b0), lp.scale(cc, a0), lp.scale(cc, b_prev)])
        else:
            # rules.squiggle's one step without its constant floor: under the
            # guard d < ratio*a_k, d goes to the fixed point c*max(a_k, b_k).
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
            ratio = alpha * cc / (alpha * cc - 1)
            lp.precondition(lp.sub(lp.scale(ratio, a0), d))
            d = lp.max_of([lp.scale(cc, a0), lp.scale(cc, b0)])
    lp.precondition(lp.sub({_CONST: 1}, d))
    return lp


def _tight_point(lp: _BuildAlgebra, xs: list[Fraction]) -> dict[int, Fraction]:
    """The LP's point at the speedup parameters xs under the tight semantics
    the rules compute: each max variable at the max of its terms, and the
    margin at the least precondition.

    The LP drops a max's zero terms, so where a term is negative the margin
    may differ from the rules' in value, but not in sign; a positive margin
    is the rules' own, and the point then satisfies every row."""
    v = {_CONST: 1, **dict(zip(lp.xvars, xs))}
    for i, terms in lp.maxes:
        v[i] = max(_value(t, v) for t in terms)
    v[_MARGIN] = min(_value(e, v) for e in lp.preconditions)
    return v


# --- Exact certification of the float answer --------------------------------


def _dual_bound(lp: _BuildAlgebra, support: list[int], w: list[Fraction]) -> Fraction | None:
    """Weak-duality bound from any exact multipliers w >= 0 on the rows:
    summing w_r * (row_r >= 0) gives q.v + bound >= 0, so if every variable
    coefficient q_i is <= 0 (and the free margin's is < 0) then
    margin <= bound / (-q_margin), whatever its sign."""
    q: dict[int, Fraction] = {}
    bound = 0
    for r, wr in zip(support, w):
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


def _active_dual_bound(lp: _BuildAlgebra, x, duals) -> Fraction | None:
    """Exact weak-duality upper bound on the margin, of any sign.  The
    multipliers solve the dual equations exactly on the float solution's
    active set: the rows with a nonzero dual times the tight columns (the
    margin and those the float solution puts above 0)."""
    support = [r for r, v in enumerate(duals) if v < -_DUAL_TOL]
    if not support:
        return None
    tight = [_MARGIN] + [i for i in range(1, lp.nvars) if x[i] > _FLOAT_TOL]
    a_rows = [[lp.rows[r].get(i, 0) for r in support] for i in tight]
    b = [-1] + [0] * (len(tight) - 1)
    sol = _solve_rational(a_rows, b)
    if sol is None or any(v < 0 for v in sol):
        return None
    return _dual_bound(lp, support, sol)


def _exact_optimum(lp: _BuildAlgebra, start) -> simplex.Vertex | None:
    """The exact LP optimum, by simplex.solve from the vertex of start (its
    tight rows and its columns at 0); None when start gives no feasible
    vertex."""
    objective = [1] + [0] * (lp.nvars - 1)
    return simplex.solve(objective, lp.rows, *start, free=(_MARGIN,))


def _warm_start(lp: _BuildAlgebra, x, duals):
    """The float solution's active set: the rows with a nonzero dual or a
    zero residual, and the columns it leaves at 0."""
    at_x = {_CONST: 1, **dict(enumerate(x))}
    active = [
        r
        for r, (row, dual) in enumerate(zip(lp.rows, duals))
        if dual < -_DUAL_TOL or abs(_value(row, at_x)) <= _FLOAT_TOL
    ]
    return active, [i for i in range(1, lp.nvars) if x[i] <= _FLOAT_TOL]


def _crash_start(lp: _BuildAlgebra):
    """The active set of the crash vertex, the tight point at every speedup
    parameter 0: each max variable at its largest term and the margin at the
    least precondition.  Every row holds there, and the active constraints
    determine the point: the parameters' bounds, then, in creation order, a
    tight row per max variable, and the least precondition for the margin."""
    v = _tight_point(lp, [0] * len(lp.xvars))
    return [r for r, row in enumerate(lp.rows) if _value(row, v) == 0], lp.xvars


def _rounded(lp: _BuildAlgebra, x) -> list[Fraction]:
    """The float solution's speedup parameters as nearby simple rationals."""
    return [Fraction(float(x[i])).limit_denominator(10**12) for i in lp.xvars]


def _vertex_witness(lp: _BuildAlgebra, opt: Fraction) -> list[Fraction] | None:
    """The witness of a feasible vertex that is replayed: the speedup
    parameters of one float re-solve that keeps margin >= opt/_WITNESS_FLOOR
    and minimizes the sum of the max variables, pushing each toward the
    tight max the rules compute; None when HiGHS does not end optimal."""
    a_ub, b_ub, _ = _stacked([lp])
    c = np.ones(lp.nvars)
    c[[_MARGIN, *lp.xvars]] = 0.0
    bounds = [(float(opt / _WITNESS_FLOOR), None)] + [(0, None)] * (lp.nvars - 1)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs", options=_HIGHS)
    return _rounded(lp, res.x) if res.status == 0 else None


def _stacked(lps: list[_BuildAlgebra]):
    """(A_ub, b_ub, spans) of the block-diagonal float LP A_ub v <= b_ub with
    the LPs' rows as blocks; spans holds each LP's first column and row.

    A_ub is sparse: dense, it would grow with the square of the batch (~26 MB
    for 145 LPs).  One LP gets a dense A_ub, which linprog takes without the
    sparse conversions (2.6 ms against 3.1 ms a solve, for 10110200)."""
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


def _solve_floats(lps: list[_BuildAlgebra]) -> list:
    """Float solution (x, row duals) of each LP, from one HiGHS solve of the
    block-diagonal LP that maximizes the sum of their margins; None for every
    block when that solve does not end optimal.

    The blocks share no variable and no row, so an optimum of the sum is an
    optimum of each block, and the duals of a block's rows are duals of its
    LP."""
    if not lps:
        return []
    a_ub, b_ub, spans = _stacked(lps)
    nvars = a_ub.shape[1]
    margins = [v0 + _MARGIN for v0, _ in spans]
    c = np.zeros(nvars)
    c[margins] = -1.0
    bounds = np.zeros((nvars, 2))
    bounds[:, 1] = np.inf
    bounds[margins, 0] = -np.inf
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs", options=_HIGHS)
    if res.status != 0:
        return [None] * len(lps)
    duals = res.ineqlin.marginals
    return [
        (res.x[v0 : v0 + lp.nvars], duals[r0 : r0 + len(lp.rows)])
        for lp, (v0, r0) in zip(lps, spans)
    ]


# --- Feasibility ------------------------------------------------------------


@dataclass
class Feasibility:
    annotation: str
    alpha: Fraction
    c: Fraction
    mode: str
    feasible: bool
    margin: Fraction | None
    witness: list[Fraction]
    replay_ok: bool
    certificate: ProofCertificate | None
    method: str


def annotation_certificate(
    a: str, alpha: Fraction, cc: Fraction, mode: str, xs: list[Fraction], d0: Fraction
) -> ProofCertificate:
    """Apply the annotation's rules at concrete scale d0 with the given
    speedup parameters (one per '1')."""
    return _run_steps(alpha, cc, mode, d0, _annotation_steps(a, mode, xs))[0]


def _annotation_steps(a: str, mode: str, xs: list[Fraction]) -> list[RuleStep]:
    """The annotation's rule steps, the speedups taking xs in turn."""
    xs = iter(xs)
    return [RuleStep(r, next(xs) if r.startswith("speedup") else None) for r in _rule_names(a, mode)]


def _run_steps(alpha, cc, mode, d0, steps) -> tuple[ProofCertificate, ProofReport]:
    """The certificate of the steps applied from the empty class at d0, and
    the report of that one derivation: verify_proof's when 0 < alpha <= 1 < c.
    RuleError names the first failing step."""
    first = AltClass((), BP_TS if mode == BPTS_MODE else DET_TS, Fraction(d0))
    classes, report = derive(alpha, cc, mode, first, steps)
    if not report.valid:
        raise RuleError(report.first_error[1])
    assumption = expected_assumption(mode, any(s.rule == "grover" for s in steps))
    return ProofCertificate(alpha, cc, mode, assumption, classes, steps), report


def grover_certificate(cert: ProofCertificate) -> ProofCertificate:
    """The alpha = 2/3 ts certificate with each slowdown applied as grover:
    the same classes (a grover collapse is the slowdown at alpha = 2/3),
    under assumption ebqp."""
    if cert.mode != TS_MODE or cert.alpha != Fraction(2, 3):
        raise ValueError(f"grover needs mode ts, alpha 2/3: mode={cert.mode}, alpha={cert.alpha}")
    steps = [RuleStep("grover") if s.rule == "slowdown" else s for s in cert.steps]
    return _run_steps(cert.alpha, cert.c, cert.mode, cert.classes[0].d, steps)[0]


def _replay(a, alpha, cc, mode, xs, margin):
    """Replay the witness through the exact rules at one concrete scale d0.

    The rules are homogeneous above their constant-1 floors: scaled by d0, a
    witness replays the LP walk times d0, and d0 >= 2/(alpha*margin) keeps
    every strict precondition 2/alpha clear of its bound.  A larger d0 only
    scales the same chain of classes, so a witness that fails here fails the
    tight semantics (the squiggle guard row, see _build_lp)."""
    d0 = Fraction(max(10**6, int(2 / (alpha * margin)) + 1))
    try:
        steps = _annotation_steps(a, mode, [x * d0 for x in xs])
        cert, report = _run_steps(alpha, cc, mode, d0, steps)
    except (RuleError, ValueError):
        return False, None
    return (True, cert) if report.contradiction else (False, None)


def _check_params(alpha, cc=None, tol=None):
    """Raise ValueError for what no decision accepts: alpha outside (0, 1],
    c <= 1, or tol <= 0 (exact bisection would never end).  Scans and
    searches check once, before enumerating."""
    if not 0 < alpha <= 1 or (cc is not None and cc <= 1):
        got = f"alpha={alpha}" + ("" if cc is None else f", c={cc}")
        raise ValueError(f"parameter range 0 < alpha <= 1 < c fails: {got}")
    if tol is not None and tol <= 0:
        raise ValueError(f"tol must be > 0: tol={tol}")


def _lp_of(a, alpha, cc, mode) -> _BuildAlgebra | None:
    """The annotation's LP, or None when its margin is <= 0 whatever the
    parameters: a squiggle's precondition 1/alpha < c < (1+alpha)/alpha
    fails, or a squiggle follows a speedup ('12'), where the block's a is 0:
    the guard row gives margin <= -d, the speedup's row d >= margin."""
    if "12" in a or ("2" in a and not (alpha * cc > 1 and cc < (1 + alpha) / alpha)):
        return None
    return _build_lp(a, alpha, cc, mode)


def _solve_batch(jobs) -> list[tuple]:
    """(LP or None, float solution) of each (a, alpha, c, mode) job, from
    one float solve of all the LPs."""
    lps = [_lp_of(*job) for job in jobs]
    sols = iter(_solve_floats([lp for lp in lps if lp is not None]))
    return [(lp, None if lp is None else next(sols)) for lp in lps]


def feasible(
    a: str, alpha: Fraction, cc: Fraction, mode: str = TS_MODE, *, replay: bool = True, _solved=None
) -> Feasibility:
    """Decide the linear relaxation for (annotation, alpha, c) and replay any
    positive answer through the exact rules (skipped when replay=False).

    _solved is this decision's (LP, float solution) from a batch
    (_decide_batch); without it the decision is a batch of one."""
    alpha, cc = Fraction(alpha), Fraction(cc)
    report = validate_annotation(a, mode)
    if not (report.valid and report.complete):
        raise ValueError(f"annotation {a!r} is not a valid complete {mode} annotation")
    _check_params(alpha, cc=cc)

    def result(ok, margin, xs, method, tight=None):
        # tight: the witness's own margin under the rules, when it differs
        replay_ok, cert = (False, None)
        if ok and replay:
            replay_ok, cert = _replay(a, alpha, cc, mode, xs, tight or margin)
        return Feasibility(a, alpha, cc, mode, ok, margin, xs, replay_ok, cert, method)

    lp, sol = _solved or _solve_batch([(a, alpha, cc, mode)])[0]
    if lp is None:
        return result(False, None, [], "precondition")

    warm = None
    if sol is not None:
        x, duals = sol
        mval = x[_MARGIN]
        if mval > _FLOAT_TOL:
            xs = _rounded(lp, x)
            margin = _tight_point(lp, xs)[_MARGIN]
            if margin > 0:
                return result(True, margin, xs, "float+primal")
        elif mval < -_FLOAT_TOL:
            bound = _active_dual_bound(lp, x, duals)
            if bound is not None and bound <= 0:
                return result(False, bound, [], "float+dual")
        warm = _exact_optimum(lp, _warm_start(lp, x, duals))
    vertex = warm or _exact_optimum(lp, _crash_start(lp))
    opt = vertex.value
    if opt <= 0:
        return result(False, opt, [], "vertex")
    if replay and (xs := _vertex_witness(lp, opt)) is not None:
        tight = _tight_point(lp, xs)[_MARGIN]
        if tight > 0:
            return result(True, opt, xs, "vertex", tight)
    # unreplayed, or no re-solved witness passes the tight check: its own point
    return result(True, opt, [vertex.point[i] for i in lp.xvars], "vertex")


def _decide_batch(jobs, replay):
    """feasible(*job, replay=replay) of each job, all from one float solve."""
    solved = _solve_batch(jobs)
    return [feasible(*job, replay=replay, _solved=s) for job, s in zip(jobs, solved)]


def _map_batches(fn, items, workers, *args) -> list:
    """fn(batch, *args) of each run of _BATCH consecutive items, in order; in
    a process pool when workers > 1 and there are two batches or more, with
    no more workers than batches (the fork start method launches them all
    at the first submit).  The pool maps whole batches, so which items share
    a float solve, and hence every answer, depends on the items only."""
    batches = [items[i : i + _BATCH] for i in range(0, len(items), _BATCH)]
    if workers and workers > 1 and len(batches) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(batches))) as pool:
            return list(pool.map(fn, batches, *([arg] * len(batches) for arg in args)))
    return [fn(batch, *args) for batch in batches]


# --- Bisection over c -------------------------------------------------------


class BracketError(RuntimeError):
    """Feasibility is not monotone over the chosen bracket."""


def _c_star_estimate(margins: dict) -> float:
    """The c where an annotation's float margins {c: margin} cross 0, linear
    between its largest c with margin > 0 and its smallest with margin <= 0;
    inf without the latter, -inf without the former."""
    pos = [c for c, m in margins.items() if m > 0]
    neg = [c for c, m in margins.items() if m <= 0]
    if not (pos and neg):
        return -math.inf if neg else math.inf
    c0, c1 = max(pos), min(neg)
    return float(c0) + float(c1 - c0) * margins[c0] / (margins[c0] - margins[c1])


def _bisect_max(annotations, alpha, tol, mode, counts: Counter):
    """(c*, annotation, the Feasibility at its last feasible c) of the
    annotation with the largest c*, the first in order among ties; None when
    each is infeasible near c = 1.  counts gains the decisions made and the
    float solves.

    Each annotation is decided at its own lo, and the live (feasible) ones at
    hi.  Then one bracket, from the lo of an annotation without '2' to hi, is
    bisected with the predicate "some live annotation is ahead at c": feasible
    there, or with lo >= c.  A true midpoint keeps only the annotations ahead,
    so each live one has met every verdict of the bracket, and the first one's
    best_exponent is exactly c*.  Decides without replay, so a caller that
    wants a certificate replays.

    A midpoint not solved yet solves the LPs of the path that follows if each
    live annotation is feasible below its _c_star_estimate: whole levels while
    they fit in _BATCH LPs, at least one.  Each decision reads its own LP's
    float solution, so predictions change only the number of float solves."""
    hi = (1 + alpha) / alpha

    def lo_of(a):
        base = max(Fraction(1), 1 / alpha) if "2" in a else Fraction(1)
        return base + min(Fraction(1, 1000), (hi - base) / 1000)

    los = {a: lo_of(a) for a in annotations}
    last = {}  # annotation -> its last feasible decision
    solved = {}  # (annotation, c) -> (LP or None, float solution), undecided
    margins = {a: {} for a in annotations}  # annotation -> {c: float margin}

    def feasible_of(pairs, path=None) -> list[str]:
        """The annotations of the (annotation, c) pairs feasible at their c;
        if one is not solved yet, one float solve takes path() (or pairs)."""
        if any(p not in solved for p in pairs):
            solved.clear()
            todo = path() if path else pairs
            jobs = _solve_batch([(a, alpha, c, mode) for a, c in todo])
            counts["float_solves"] += any(lp is not None for lp, _ in jobs)
            for (a, c), (lp, sol) in zip(todo, jobs):
                solved[a, c] = lp, sol
                if sol is not None:
                    margins[a][c] = sol[0][_MARGIN]
        counts["decisions"] += len(pairs)
        fs = [feasible(a, alpha, c, mode, replay=False, _solved=solved.pop((a, c))) for a, c in pairs]
        last.update((f.annotation, f) for f in fs if f.feasible)
        return [f.annotation for f in fs if f.feasible]

    if not (live := feasible_of(list(los.items()))):
        return None
    if both := feasible_of([(a, hi) for a in live]):
        raise BracketError(
            f"feasibility not monotone for {both[0]!r}: "
            f"feasible at both c={los[both[0]]} and c={hi}"
        )

    def predicted_path(lo, hi, live) -> list[tuple]:
        estimates = {a: _c_star_estimate(margins[a]) for a in live}
        pairs = []
        while hi - lo > tol:
            c = _midpoint(lo, hi)
            level = [(a, c) for a in live if los[a] < c]
            if pairs and len(pairs) + len(level) > _BATCH:
                break
            pairs += level
            ahead = [a for a in live if los[a] >= c or float(c) < estimates[a]]
            lo, hi, live = (c, hi, ahead) if ahead else (lo, c, live)
        return pairs

    bracket = [lo_of("1"), hi]  # _bisect's bracket, mirrored

    def some_ahead(c):
        nonlocal live
        ok = feasible_of([(a, c) for a in live if los[a] < c], lambda: predicted_path(*bracket, live))
        ahead = [a for a in live if los[a] >= c or a in ok]
        live = ahead or live
        bracket[0 if ahead else 1] = c
        return bool(ahead)

    c_star = _bisect(some_ahead, *bracket, tol)
    return c_star, live[0], last[live[0]]


def _bisect_counted(annotations, alpha, tol, mode):
    """_bisect_max's answer and the Counter of its decisions and float solves."""
    return _bisect_max(annotations, alpha, tol, mode, counts := Counter()), counts


def best_exponent(
    a: str, alpha: Fraction, tol: Fraction = Fraction(1, 10**6), mode: str = TS_MODE
) -> Fraction | None:
    """Largest c (within tol) at which the annotation is feasible, by
    bisection; None if it is infeasible even near c = 1."""
    alpha, tol = Fraction(alpha), Fraction(tol)
    _check_params(alpha, tol=tol)
    best = _bisect_max([a], alpha, tol, mode, Counter())
    return None if best is None else best[0]


@dataclass
class SearchResult:
    best_c: Fraction
    annotation: str
    certificate: ProofCertificate | None
    decisions: int  # the bisections' exact decisions, summed over batches
    float_solves: int  # and their HiGHS calls


def search_best(
    max_len: int,
    alpha: Fraction,
    mode: str = TS_MODE,
    tol: Fraction = Fraction(1, 10**6),
    *,
    workers: int | None = None,
) -> SearchResult | None:
    """Maximize best_exponent over all annotations up to max_len, by one
    bisection of the maximum per batch (_bisect_max), and replay the winner's
    last feasible witness; when the rules reject it (an LP vertex above the
    tight maxima), decide the winner again at that c with replay.

    Ties break deterministically toward the shortest, then lexicographically
    smallest annotation (the enumeration order)."""
    alpha, tol = Fraction(alpha), Fraction(tol)
    _check_params(alpha, tol=tol)
    annotations = list(enumerate_annotations(max_len, mode))
    batches = _map_batches(_bisect_counted, annotations, workers, alpha, tol, mode)
    best = max((b for b, _ in batches if b is not None), key=lambda b: b[0], default=None)
    if best is None:
        return None
    c_star, a, f = best
    ok, cert = _replay(a, alpha, f.c, mode, f.witness, f.margin)
    if not ok:  # the bisection kept a vertex the rules reject: decide again
        cert = feasible(a, alpha, f.c, mode).certificate
    counts = sum((n for _, n in batches), Counter())
    return SearchResult(c_star, a, cert, counts["decisions"], counts["float_solves"])


# --- Named proof constructors ----------------------------------------------


def _geometric(k: int, cc: Fraction, slack: Fraction, base: Fraction):
    """(r, scale, least d) of the speedups x_i = r^(i-1) * d/scale with
    r = (1-1/k)/(c*slack).

    scale is base when the speedups fit into d, otherwise just large enough
    that they do (a contradiction then holds a fortiori); from the least d
    on every x_i is at least 2, above the constant floors."""
    r = (1 - Fraction(1, k)) / (cc * slack)
    s = sum(r**i for i in range(k))
    scale = base if s < base else s + r ** (k - 1) / (2 * slack)
    return r, scale, 2 * scale / min(Fraction(1), r) ** (k - 1)


def _good_proof(alpha, cc, k: int, d) -> tuple[ProofCertificate, ProofReport]:
    """good_proof's certificate and the report of its one derivation."""
    alpha, cc = Fraction(alpha), Fraction(cc)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (alpha * cc > 1 and cc < (1 + alpha) / alpha):
        raise ValueError(
            f"need 1/alpha < c < (1+alpha)/alpha for the squiggle rule: alpha={alpha}, c={cc}"
        )
    tau, scale, min_d = _geometric(k, cc, alpha * cc - 1, alpha * cc * cc)
    d = max(Fraction(d) if d is not None else Fraction(100), min_d)
    xs = [d / scale * tau**i for i in range(k)]
    steps = _annotation_steps("1" * k + "0" + "20" * k, TS_MODE, xs)
    return _run_steps(alpha, cc, TS_MODE, d, steps)


def good_proof(
    alpha: Fraction, cc: Fraction, k: int, d: Fraction | None = None
) -> ProofCertificate:
    """Certificate for the annotation 1^k 0 (20)^k with geometric speedup
    parameters x_i = tau^(i-1) * x_1, tau = (1-eps)/(c(alpha*c-1)), eps = 1/k.

    x_1 is d/(alpha*c^2) when the speedups fit into d; otherwise it is scaled
    down just enough that they do (the contradiction then holds a fortiori).
    d is auto-scaled upward so every exponent stays above the constant floors.
    The certificate always verifies; it shows a contradiction exactly when the
    finite-k constraint holds (all squiggles proper)."""
    return _good_proof(alpha, cc, k, d)[0]


def good_proof_contradicts(alpha: Fraction, cc: Fraction, k: int) -> bool:
    """True iff the Good proof at (alpha, c, k) derives a contradiction with
    every squiggle proper; read from the report of its one derivation."""
    try:
        report = _good_proof(alpha, cc, k, None)[1]
    except (ValueError, RuleError):
        return False
    return (
        report.contradiction
        and len(report.squiggles) == k
        and all(proper for _, _, proper in report.squiggles)
    )


def good_proof_best_c(alpha: Fraction, k: int, tol: Fraction = Fraction(1, 10**7)) -> Fraction:
    """Largest c (within tol) at which the Good proof of height k shows a
    proper contradiction, by grid scan plus bisection."""
    alpha, tol = Fraction(alpha), Fraction(tol)
    _check_params(alpha, tol=tol)
    lo_base = max(Fraction(1), 1 / alpha)
    hi = (1 + alpha) / alpha
    span = hi - lo_base
    grid = 64
    lo = None
    prev = hi
    for i in range(1, grid + 1):
        c = hi - span * i / grid
        if c <= lo_base:
            break
        if good_proof_contradicts(alpha, c, k):
            lo = c
            break
        prev = c
    if lo is None:
        raise RuntimeError(f"no contradicting c found for alpha={alpha}, k={k}")
    return _bisect(lambda c: good_proof_contradicts(alpha, c, k), lo, prev, tol)


def good_proof_limit(alpha: Fraction) -> float:
    """k -> infinity limit of the Good-proof bound: largest root of P_alpha."""
    return largest_root_cubic(p_alpha(Fraction(alpha)))


def bpts_proof(k: int, cc: Fraction, d: Fraction | None = None) -> ProofCertificate:
    """Certificate for the bpts annotation 1^k 0^(k+2) with geometric
    parameters x_i = ((1-eps)/c)^(i-1) * x_1, eps = 1/k.

    x_1 is d/c^3 when the speedups fit into d, otherwise scaled down just
    enough; d is auto-scaled above the constant floors."""
    cc = Fraction(cc)
    if k < 1:
        raise ValueError("k must be >= 1")
    if cc <= 1:
        raise ValueError(f"need c > 1: c={cc}")
    rho, scale, min_d = _geometric(k, cc, 1, cc**3)
    d = max(Fraction(d) if d is not None else Fraction(100), min_d)
    xs = [d / scale * rho**i for i in range(k)]
    return annotation_certificate("1" * k + "0" * (k + 2), Fraction(1), cc, BPTS_MODE, xs, d)


def bpts_grover_proof(cc: Fraction, d: Fraction | None = None) -> ProofCertificate:
    """Certificate for the repeated grover contraction on a randomized
    verifier: randomized speedup with x = 2d/3, two normal slowdowns, then
    grover rounds while they shrink the exponent, then a final slowdown.
    Shows a contradiction exactly when c < 3/2.

    The slowdowns leave d = 2c^2*d0/3, a round sets d to max(2c*d/3, c), and
    for c < 3/2 the rounds run to d <= d0/c (> c as d0 >= 10), where the last
    slowdown lands at or below d0: the least n >= 0 with (3/(2c))^n >= 2c^3/3."""
    cc = Fraction(cc)
    if cc <= 1:
        raise ValueError(f"need c > 1: c={cc}")
    d0 = max(Fraction(d) if d is not None else Fraction(10), Fraction(10))
    ratio = 2 * cc**3 / 3
    n = 0 if cc >= Fraction(3, 2) or ratio <= 1 else _iterations(3 / (2 * cc), ratio, "grover round")
    steps = [RuleStep("speedup_rand", 2 * d0 / 3)] + [RuleStep("slowdown")] * 2
    steps += [RuleStep("grover")] * n + [RuleStep("slowdown")]
    return _run_steps(Fraction(1), cc, BPTS_MODE, d0, steps)[0]


# --- Optimality scan --------------------------------------------------------


@dataclass
class ScanReport:
    alpha: Fraction
    c: Fraction
    mode: str
    max_len: int
    entries: list[Feasibility]

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def feasible_entries(self) -> list[Feasibility]:
        return [e for e in self.entries if e.feasible]

    @property
    def methods(self) -> dict[str, int]:
        """How many verdicts each certification method decided."""
        return dict(Counter(e.method for e in self.entries))

    @property
    def replay_failed(self) -> int:
        """Feasible verdicts without a replayed certificate."""
        return sum(not e.replay_ok for e in self.feasible_entries)

    def summary(self) -> str:
        n = len(self.feasible_entries)
        return (
            f"{n} feasible annotation{'s' if n != 1 else ''} of length <= {self.max_len} "
            f"at alpha={self.alpha}, c={self.c} ({self.total} annotations scanned)"
        )


def optimality_scan(
    alpha: Fraction,
    cc: Fraction,
    max_len: int,
    mode: str = TS_MODE,
    *,
    workers: int | None = None,
) -> ScanReport:
    """Run the feasibility relaxation on every valid complete annotation up to
    max_len, in batches (see _map_batches); deterministic order."""
    alpha, cc = Fraction(alpha), Fraction(cc)
    _check_params(alpha, cc=cc)
    jobs = [(a, alpha, cc, mode) for a in enumerate_annotations(max_len, mode)]
    batches = _map_batches(_decide_batch, jobs, workers, True)
    return ScanReport(alpha, cc, mode, max_len, [f for fs in batches for f in fs])
