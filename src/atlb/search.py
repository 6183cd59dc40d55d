"""Float steering and the drivers: per-annotation decisions, scans and
searches.

The LP of an annotation and its exact verdict are in lp (lp._decide orders
the exact checks that a float solution steers), certificate assembly and the
named proofs in proofs.  A positive answer is replayed through the exact
rules at a large concrete d, in one derivation (proofs._run_steps over
rules.derive) that builds the certificate and checks it; a "vertex"
verdict's witness is first re-solved in float toward the tight maxima.

The float LPs are solved in batches: the LPs of a batch share no
variable and no row, so they stack into one block-diagonal LP whose
objective is the sum of their margins, and its optimum and duals split into
those of each block.  Scans and searches cut their annotations into fixed
batches; a process pool spreads whole batches, so the number of workers
changes no answer.  Bisection over c (best_exponent, search_best) walks
one bracket per batch for the largest best exponent of its annotations: each
midpoint judges the annotations still level with the best, and drops those
that fall behind.  Float margins steer the walk: as feasibility is monotone
in c (the lemma in lp), once the walk ends each annotation is decided
exactly, without replay, only where it left, and the winner at its last
"yes", so the searches count exact decisions only.  One float solve takes
the LPs of the stretch of path that the same walk predicts from the float
margins (each c* interpolated from HiGHS's margins); a wrong prediction
wastes only float LPs.  search_best replays only the winner's last "yes",
from its LP, as a scan replays an entry (_replay), without deciding it again.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from .analytics import _midpoint
from .kernel import TS_MODE, enumerate_annotations, validate_annotation
from .lp import _FLOAT_TOL, _LP, _MARGIN, _decide, _lp_of, _Table, _witness
from .proofs import _annotation_steps, _run_steps
from .rules import (
    ProofCertificate,
    RuleError,
    _check_params,
    apply_step,  # unused here: perfbench's tracer replaces search.apply_step by name
    verify_proof,  # unused here: perfbench's tracer replaces search.verify_proof by name
)
from .simplex import CONST as _CONST

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


# --- The float LPs ----------------------------------------------------------


def _vertex_witness(lp: _LP, opt: Fraction) -> tuple[list[Fraction], Fraction] | None:
    """The witness of a feasible vertex that is replayed, and its tight
    margin (lp._witness): the speedup parameters of one float re-solve that
    keeps margin >= opt/_WITNESS_FLOOR and minimizes the sum of the max
    variables, pushing each toward the tight max the rules compute; None
    when HiGHS does not end optimal."""
    a_ub, b_ub, _ = _stacked([lp])
    c = np.ones(lp.nvars)
    c[[_MARGIN, *lp.xvars]] = 0.0
    bounds = [(float(opt / _WITNESS_FLOOR), None)] + [(0, None)] * (lp.nvars - 1)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs", options=_HIGHS)
    return _witness(lp, res.x) if res.status == 0 else None


def _stacked(lps: list[_LP]):
    """(A_ub, b_ub, spans) of the block-diagonal float LP A_ub v <= b_ub with
    the LPs' rows as blocks; spans holds each LP's first column and row.
    Each coefficient's float is read from its LP's table by code, into one
    list for the whole batch.

    A_ub is sparse: dense, it would grow with the square of the batch (~26 MB
    for 145 LPs).  One LP gets a dense A_ub, which linprog takes without the
    sparse conversions (2.6 ms against 3.1 ms a solve, for 10110200)."""
    rows, cols, vals, spans, sizes = [], [], [], [], []
    nvars = nrows = 0
    for lp in lps:
        t = lp.template
        spans.append((nvars, nrows))
        sizes.append(len(t.coo_codes))
        rows += t.coo_rows
        cols += t.coo_cols
        vals += map(lp.table.floats.__getitem__, t.coo_codes)
        nvars += t.nvars
        nrows += t.nrows
    col0, row0 = (np.repeat(first, sizes) for first in zip(*spans))
    rows, cols, vals = np.add(rows, row0), np.array(cols), np.array(vals)
    const = cols == _CONST  # row >= 0 is -(the rest of the row) <= its constant
    b_ub = np.zeros(nrows)
    b_ub[rows[const]] = vals[const]
    coeffs = ~const
    a_ub = csc_array((-vals[coeffs], (rows[coeffs], (cols + col0)[coeffs])), shape=(nrows, nvars))
    return (a_ub.toarray() if len(lps) == 1 else a_ub), b_ub, spans


def _solve_floats(lps: list[_LP]) -> list:
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
        (res.x[v0 : v0 + lp.nvars], duals[r0 : r0 + lp.template.nrows])
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
    certificate: ProofCertificate | None  # the replay's, when it reached a contradiction
    method: str

    @property
    def replay_ok(self) -> bool:
        return self.certificate is not None


def _replay(f: Feasibility, lp: _LP | None = None) -> tuple[list[Fraction], ProofCertificate | None]:
    """(witness, certificate or None) of the feasible decision f: a "vertex"
    verdict's witness re-solved (_vertex_witness, of lp or else of f's LP) if
    its tight margin is > 0, replayed through the exact rules at a scale d0.

    The rules are homogeneous above their constant-1 floors: scaled by d0, a
    witness replays the LP walk times d0, and d0 >= 2/(alpha*margin) keeps
    every strict precondition 2/alpha clear of its bound.  A larger d0 only
    scales the same chain of classes, so a witness that fails here fails the
    tight semantics (the squiggle guard row, see lp._template)."""
    xs, tight = f.witness, f.margin  # a re-solved witness replays at its own tight margin
    if f.method == "vertex":
        lp = lp or _lp_of(f.annotation, f.mode, _Table(f.alpha, f.c))
        if (w := _vertex_witness(lp, f.margin)) is not None and w[1] > 0:
            xs, tight = w
    d0 = Fraction(max(10**6, int(2 / (f.alpha * tight)) + 1))
    try:
        steps = _annotation_steps(f.annotation, f.mode, [x * d0 for x in xs])
        cert, report = _run_steps(f.alpha, f.c, f.mode, d0, steps)
    except (RuleError, ValueError):
        return xs, None
    return xs, cert if report.contradiction else None


def _check_annotation(a: str, mode: str):
    """Raise ValueError unless a is a valid complete annotation."""
    report = validate_annotation(a, mode)
    if not (report.valid and report.complete):
        raise ValueError(f"annotation {a!r} is not a valid complete {mode} annotation")


def _solve_batch(pairs, alpha, mode) -> list[tuple]:
    """(LP or None, float solution) of each (annotation, c) pair, from one
    float solve of all the LPs, read through one coefficient table per c."""
    tables = {cc: _Table(alpha, cc) for cc in dict.fromkeys(cc for _, cc in pairs)}
    lps = [_lp_of(a, mode, tables[cc]) for a, cc in pairs]
    sols = iter(_solve_floats([lp for lp in lps if lp is not None]))
    return [(lp, None if lp is None else next(sols)) for lp in lps]


def feasible(
    a: str, alpha: Fraction, cc: Fraction, mode: str = TS_MODE, *, replay: bool = True, _solved=None
) -> Feasibility:
    """Decide the linear relaxation for (annotation, alpha, c) and replay any
    positive answer through the exact rules (skipped when replay=False).

    _solved is this decision's (LP, float solution) from a batch
    (_decide_batch), whose caller checked the annotation and parameters;
    without it they are checked here and the decision is a batch of one."""
    alpha, cc = Fraction(alpha), Fraction(cc)
    if _solved is None:
        _check_annotation(a, mode)
        _check_params(alpha, cc=cc)
        _solved = _solve_batch([(a, cc)], alpha, mode)[0]

    lp, sol = _solved
    ok, margin, xs, method = _decide(lp, sol)
    f = Feasibility(a, alpha, cc, mode, ok, margin, xs, None, method)
    if ok and replay:
        f.witness, f.certificate = _replay(f, lp)
    return f


def _decide_batch(pairs, alpha, mode, replay):
    """feasible(a, alpha, c, mode, replay=replay) of each (a, c) pair, all
    from one float solve."""
    solved = _solve_batch(pairs, alpha, mode)
    return [
        feasible(a, alpha, cc, mode, replay=replay, _solved=s) for (a, cc), s in zip(pairs, solved)
    ]


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


class _Steered(Exception):
    """An exact decision contradicts the float verdict that steered a
    bisection."""


def _bisect_max(annotations, alpha, tol, mode):
    """((c*, annotation, the Feasibility at its last feasible c) of the
    annotation with the largest c*, the first in order among ties, or None
    when each is infeasible near c = 1; the Counter of the exact decisions
    made, the float solves and any fallback to exact verdicts).

    Each annotation is judged at its own lo, and each live (feasible) one
    starts with hi = (1+alpha)/alpha as its "no" end, which no phase judges
    before the walk.  Then one walk bisects one bracket, from the lo of an
    annotation without '2' to hi, with the predicate "some live annotation
    is ahead at c": feasible there, or with lo >= c.  A true midpoint keeps
    only the annotations ahead, so each live one has met every verdict of
    the bracket, and the first one's best_exponent is exactly c*.  Decides
    without replay, so a caller that wants a certificate replays.

    A verdict is its float margin's sign where that margin is clear of 0 by
    _FLOAT_TOL, else an exact decision.  Feasibility being monotone in c (see
    lp), an exact "yes" below and "no" above make every steered verdict
    between them exact.  So after the walk each annotation is decided exactly
    at its smallest "no" (its lo, the midpoint where it fell behind, or hi),
    and the winner also at its largest "yes", and the path, c*, winner and
    tie order are those of exact decisions at every midpoint.  An exact
    decision against the float verdict that steered sends the batch to a
    second bisection with every verdict exact; there a live annotation
    still feasible at hi raises BracketError.

    A midpoint not solved yet solves the LPs of the path that the same walk
    predicts if each live annotation is feasible below its _c_star_estimate:
    whole levels while they fit in _BATCH LPs, at least one.  The
    predictions change only which LPs share a float solve.  The first float
    solve takes every annotation at both its lo and hi."""
    hi = (1 + alpha) / alpha
    counts = Counter()

    def lo_of(a):
        base = max(Fraction(1), 1 / alpha) if "2" in a else Fraction(1)
        return base + Fraction(1, 1000)

    los = {a: lo_of(a) for a in annotations}

    def walk(lo, hi, live, judge):
        """(c*, live) where the bisection of [lo, hi] stops: while hi - lo >
        tol, judge(pairs, lo, hi, live) gives the annotations feasible at the
        midpoint c among the pairs (a, c) of the live a with los[a] < c, or
        None to stop there.  If some live annotation is ahead at c, c is the
        new lo and those ahead the new live, else c is the new hi."""
        while hi - lo > tol:
            c = _midpoint(lo, hi)
            ok = judge([(a, c) for a in live if los[a] < c], lo, hi, live)
            if ok is None:
                break
            ahead = [a for a in live if los[a] >= c or a in ok]
            lo, hi, live = (c, hi, ahead) if ahead else (lo, c, live)
        return (lo + hi) / 2, live

    def bisect(steered: bool):
        solved = {}  # (annotation, c) -> (LP or None, float solution), undecided
        margins = {a: {} for a in annotations}  # annotation -> {c: float margin}
        # verdict -> {annotation: (c, decision)}: its largest c with a "yes"
        # and its smallest with a "no", each a Feasibility once decided
        # exactly, else the (LP, float solution) that steered
        ends: dict[bool, dict] = {True: {}, False: {}}

        def decide(a, c, s) -> Feasibility:
            counts["decisions"] += 1
            return feasible(a, alpha, c, mode, replay=False, _solved=s)

        def feasible_of(pairs, path) -> set[str]:
            """The annotations of the (annotation, c) pairs judged feasible at
            their c, each verdict steered or exact, recorded in ends; if one
            is not solved yet, one float solve takes path()."""
            if any(p not in solved for p in pairs):
                solved.clear()
                todo = path()
                batch = _solve_batch(todo, alpha, mode)
                counts["float_solves"] += any(lp is not None for lp, _ in batch)
                for (a, c), (lp, sol) in zip(todo, batch):
                    solved[a, c] = lp, sol
                    if sol is not None:
                        margins[a][c] = sol[0][_MARGIN]
            ok = set()
            for a, c in pairs:
                s = solved.pop((a, c))
                if steered and s[1] is not None and abs(m := s[1][0][_MARGIN]) > _FLOAT_TOL:
                    yes, end = m > 0, s
                else:
                    end = decide(a, c, s)
                    yes = end.feasible
                ends[yes][a] = c, end
                if yes:
                    ok.add(a)
            return ok

        def predicted_path(lo, hi, live) -> list[tuple]:
            estimates = {a: _c_star_estimate(margins[a]) for a in live}
            path = []

            def guess(pairs, *_):
                if path and len(path) + len(pairs) > _BATCH:
                    return None
                path.extend(pairs)
                return {a for a, c in pairs if float(c) < estimates[a]}

            walk(lo, hi, live, guess)
            return path

        def certify(a, yes: bool) -> Feasibility:
            """The exact decision at a's end ends[yes][a]; unless its verdict
            is yes, _Steered, or BracketError in the exact pass (a hi end)."""
            c, end = ends[yes][a]
            if not isinstance(end, Feasibility):
                end = decide(a, c, end)
            if end.feasible != yes:
                if steered:
                    raise _Steered
                raise BracketError(
                    f"feasibility not monotone for {a!r}: feasible at both c={los[a]} and c={hi}"
                )
            return end

        ok = feasible_of(list(los.items()), lambda: [*los.items(), *((a, hi) for a in los)])
        live = [a for a in annotations if a in ok]
        ends[False].update((a, (hi, solved.pop((a, hi)))) for a in live)
        if live:
            c_star, live = walk(
                lo_of("1"), hi, live, lambda pairs, *at: feasible_of(pairs, lambda: predicted_path(*at))
            )
        for a in annotations:
            certify(a, False)
        return (c_star, live[0], certify(live[0], True)) if live else None

    try:
        return bisect(steered=True), counts
    except _Steered:
        counts["fallbacks"] += 1
        return bisect(steered=False), counts


def best_exponent(
    a: str, alpha: Fraction, tol: Fraction = Fraction(1, 10**6), mode: str = TS_MODE
) -> Fraction | None:
    """Largest c (within tol) at which the annotation is feasible, by
    bisection; None if it is infeasible even near c = 1."""
    alpha, tol = Fraction(alpha), Fraction(tol)
    _check_annotation(a, mode)
    _check_params(alpha, tol=tol)
    best = _bisect_max([a], alpha, tol, mode)[0]
    return None if best is None else best[0]


@dataclass
class SearchResult:
    best_c: Fraction
    annotation: str
    certificate: ProofCertificate | None
    decisions: int  # the bisections' exact decisions, not their steered verdicts, summed over batches
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
    last feasible decision from its LP, as a scan replays an entry (_replay).

    Ties break deterministically toward the shortest, then lexicographically
    smallest annotation (the enumeration order)."""
    alpha, tol = Fraction(alpha), Fraction(tol)
    _check_params(alpha, tol=tol)
    annotations = list(enumerate_annotations(max_len, mode))
    batches = _map_batches(_bisect_max, annotations, workers, alpha, tol, mode)
    best = max((b for b, _ in batches if b is not None), key=lambda b: b[0], default=None)
    if best is None:
        return None
    c_star, a, f = best
    counts = sum((n for _, n in batches), Counter())
    return SearchResult(c_star, a, _replay(f)[1], counts["decisions"], counts["float_solves"])


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
    pairs = [(a, cc) for a in enumerate_annotations(max_len, mode)]
    batches = _map_batches(_decide_batch, pairs, workers, alpha, mode, True)
    return ScanReport(alpha, cc, mode, max_len, [f for fs in batches for f in fs])
