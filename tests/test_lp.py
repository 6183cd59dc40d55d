"""The LP template: one walk per annotation, read at each (alpha, c) through
a coefficient table, against the Fraction walk of tests/lp_walk.py."""

import random
from fractions import Fraction

import lp_walk
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import block_diag, csc_array
from test_search import _build_lp, lp_decisions

from atlb import lp, proofs, rules, search, simplex
from atlb.kernel import BPTS_MODE, TS_MODE, AltClass, _verifier, enumerate_annotations, validate_annotation

F = Fraction
ALPHAS = (F(1), F(2, 3), F(4, 5), F(9, 10))
_EPS = F(1, 10**6)


def _grid(alpha):
    """c values from just above 1 to just below (1+alpha)/alpha, with one
    just inside each end of the squiggle's window (1/alpha, (1+alpha)/alpha)."""
    hi = (1 + alpha) / alpha
    return sorted({F(1001, 1000), 1 / alpha + _EPS, (1 / alpha + hi) / 2, F(3, 2), hi - _EPS} - {hi})


def _typed(e: dict) -> list:
    """The expression's entries in order, each coefficient with its type:
    1 == Fraction(1), but the exact layer keeps c-free coefficients ints."""
    return [(i, type(v), v) for i, v in e.items()]


def _same_lp(got, want):
    """got (a template instance) and want (the Fraction walk's LP) have the
    same variables, rows, max terms and preconditions, in order, of the same
    values and int/Fraction types; got's max terms and preconditions are the
    template's codes read through the instance's table."""
    exact = got.table.exact

    def read(e):
        return _typed({i: exact[code] for i, code in e.items()})

    assert (got.nvars, got.xvars, got.template.nrows) == (want.nvars, want.xvars, len(want.rows))
    assert [_typed(row) for row in got.rows] == [_typed(row) for row in want.rows]
    assert [(i, [read(t) for t in terms]) for i, terms in got.template.maxes] == [
        (i, [_typed(t) for t in terms]) for i, terms in want.maxes
    ]
    assert [read(e) for e in got.template.preconditions] == [_typed(e) for e in want.preconditions]


def _bits(a):
    """The exact bits of a float matrix, dense or sparse."""
    if isinstance(a, np.ndarray):
        return a.shape, a.tobytes()
    a = csc_array(a)
    a.sum_duplicates()
    a.sort_indices()
    return a.shape, a.data.tobytes(), a.indices.tolist(), a.indptr.tolist()


def _same_stack(lps, oracle_lps):
    """search._stacked of the LPs equals the Fraction walk's stacking bit for bit."""
    a_ub, b_ub, spans = search._stacked(lps)
    want_a, want_b, want_spans = lp_walk.stacked(oracle_lps)
    assert spans == want_spans
    assert _bits(a_ub) == _bits(want_a)
    assert np.asarray(b_ub, dtype=float).tobytes() == np.asarray(want_b, dtype=float).tobytes()


@pytest.mark.parametrize("mode, max_len", [(TS_MODE, 9), (BPTS_MODE, 11)])
@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
def test_template_instances_match_fraction_walk(mode, max_len, alpha, walked):
    # every annotation with an LP, walked once and read at each c of the
    # grid: the same LP as the Fraction walk at that c, and the same float
    # batches
    for cc in _grid(alpha):
        table = lp._Table(alpha, cc)
        pairs = []
        for a in enumerate_annotations(max_len, mode):
            got = lp._lp_of(a, mode, table)
            if got is None:
                continue
            want = lp_walk.build_lp(a, alpha, cc, mode)
            _same_lp(got, want)
            pairs.append((got, want))
        assert pairs
        for i in range(0, len(pairs), search._BATCH):
            _same_stack(*zip(*pairs[i : i + search._BATCH]))
    assert len(set(walked)) == len(walked) and all("12" not in a for a in walked)


@given(lp_decisions())
@settings(max_examples=60, deadline=None)
def test_built_lp_matches_fraction_walk(job):
    got, want = _build_lp(*job), lp_walk.build_lp(*job)
    _same_lp(got, want)
    _same_stack([got], [want])


@st.composite
def c_pairs(draw):
    """(annotation, alpha, c0, c1, mode) with c0 < c1, both where the LP
    exists."""
    a, alpha, c1, mode = draw(lp_decisions())
    lo = max(F(1), 1 / alpha) if "2" in a else F(1)
    return a, alpha, lo + (c1 - lo) * F(draw(st.integers(1, 99)), 100), c1, mode


def _optimum(a, alpha, cc, mode) -> simplex.Vertex:
    built = _build_lp(a, alpha, cc, mode)
    return lp._exact_optimum(built, lp._crash_start(built))


@given(c_pairs())
@settings(max_examples=150, deadline=None)
def test_feasibility_is_monotone_in_c(job):
    # lp's lemma at exact optima: a "yes" at c1 is a "yes" at c0 < c1 in
    # both modes; in ts, the optimum does not fall as c does, and a
    # positive optimum's own point is feasible at c0 with the same margin;
    # in bpts, a positive optimum falls at most by (c0/c1)^k, k the
    # annotation's interior returns to height 0
    a, alpha, c0, c1, mode = job
    opt0, opt1 = _optimum(a, alpha, c0, mode), _optimum(a, alpha, c1, mode)
    assert opt0.value > 0 or opt1.value <= 0
    if mode == TS_MODE:
        assert opt0.value >= opt1.value
        if opt1.value > 0:
            point = {simplex.CONST: 1, **dict(enumerate(opt1.point))}
            assert all(simplex._value(row, point) >= 0 for row in _build_lp(a, alpha, c0, mode).rows)
    elif opt1.value > 0:
        k = sum(h == 0 for _, h in validate_annotation(a, mode).heights[1:-1])
        assert opt0.value >= (c0 / c1) ** k * opt1.value


_D0 = F(10**6)


def _contradicts_as(a, alpha, cc, mode, xs) -> str | None:
    """The annotation whose derivation the rules make at the speedup
    parameters xs * d0, from the empty class at d0, when it ends in a
    contradiction: a without each improper squiggle, which leaves the class
    unchanged.  None for an invalid derivation or one without a
    contradiction."""
    steps = proofs._annotation_steps(a, mode, [x * _D0 for x in xs])
    _, report = rules.derive(alpha, cc, mode, AltClass((), _verifier(mode), _D0), steps)
    if not report.contradiction:
        return None
    improper = {i for i, _, proper in report.squiggles if not proper}
    return "".join(s for i, s in enumerate(a, start=1) if i not in improper)


def _dropped_term_optima(built: lp._LP, point: list[Fraction]) -> list[list[Fraction]]:
    """For each max term row tight at point, the speedup parameters of the
    LP's float optimum without that row: where a rule that forgot the term
    would be stronger than the LP.  One HiGHS call solves them all."""
    at = {simplex.CONST: 1, **dict(enumerate(point))}
    rows = [r for r, row in enumerate(built.rows) if lp._MARGIN not in row and simplex._value(row, at) == 0]
    a_ub, b_ub, _ = search._stacked([built])
    keeps = [[q for q in range(len(b_ub)) if q != r] for r in rows]
    n = built.nvars
    objective = np.zeros(n * len(rows))
    objective[::n] = -1.0
    bounds = ([(None, 1)] + [(0, None)] * (n - 1)) * len(rows)
    res = linprog(
        objective, A_ub=block_diag([a_ub[k] for k in keeps], format="csc"),
        b_ub=np.concatenate([b_ub[k] for k in keeps]), bounds=bounds, method="highs",
    )
    assert res.status == 0
    return [[F(res.x[j * n + i]).limit_denominator(10**9) for i in built.xvars] for j in range(len(rows))]


@pytest.mark.parametrize("mode, max_len", [(TS_MODE, 8), (BPTS_MODE, 10)])
def test_lp_relaxes_the_rules(mode, max_len):
    # every "no" rests on this: a rule derivation that ends in a
    # contradiction gives its annotation's LP (improper squiggles dropped)
    # an exact optimum > 0.  The derivations are aimed where a rule stronger
    # than the LP would show: just above each annotation's c*, at the LP's
    # exact optimum and at the optimum of the LP without each max term
    # tight there, and at seeded perturbations of each, which reach points
    # where a term that the LP leaves slack binds in the rules.  At
    # alpha < 1 a rule that misplaces alpha shows too
    alpha, tol = F(9, 10), F(1, 10**6)
    rng = random.Random(27)
    checked, refuted = 0, {}
    for a in enumerate_annotations(max_len, mode):
        if "12" in a or (best := search._bisect_max([a], alpha, tol, mode)[0]) is None:
            continue
        cc = best[0] + tol
        if "2" in a and not rules._squiggle_window(alpha, cc):
            continue
        built = _build_lp(a, alpha, cc, mode)
        opt = lp._exact_optimum(built, lp._crash_start(built))
        points = [[opt.point[i] for i in built.xvars], *_dropped_term_optima(built, opt.point)]
        points += [[x * F(rng.randint(50, 150), 100) for x in xs] for xs in points for _ in range(5)]
        for xs in points:
            checked += 1
            if (b := _contradicts_as(a, alpha, cc, mode, xs)) is not None:
                if (b, cc) not in refuted:
                    refuted[b, cc] = _optimum(b, alpha, cc, mode).value
                assert refuted[b, cc] > 0, (a, b, cc, xs)
    assert checked > 600


def test_instance_shares_its_template(walked):
    # one walk serves every c: an instance holds the memoized template, not
    # a copy, and builds its exact rows only when they are read
    lps = [lp._lp_of("110020", TS_MODE, lp._Table(F(1), cc)) for cc in (F(3, 2), F(8, 5))]
    assert walked == ["110020"]
    assert lps[0].template is lps[1].template is lp._template("110020", TS_MODE)
    assert lp._template.cache_info().misses == 1
    assert "rows" not in vars(lps[0])
    assert lps[0].rows != lps[1].rows and "rows" in vars(lps[0])


def test_table_codes():
    # a code +-2^i 3^j 5^l stands for +-c^i alpha^j rho^l; 0 and +-1 are ints
    table = lp._Table(F(4, 5), F(3, 2))
    ac = F(6, 5)
    rho = ac / (ac - 1)
    assert [table.exact[code] for code in (0, 1, -1)] == [0, 1, -1]
    assert all(type(table.exact[code]) is int for code in (0, 1, -1))
    assert table.exact[lp._C] == F(3, 2)
    assert table.exact[-lp._C * lp._A] == -ac
    assert table.exact[-((lp._C * lp._A) ** 2)] == -(ac**2)
    assert table.exact[lp._RHO * lp._C] == rho * F(3, 2)
    assert table.floats[-lp._RHO] == float(-rho)


def test_template_refuses_a_shared_variable():
    # '12020' subtracts c*x from rho*x in its second squiggle's guard: no
    # coefficient of one monomial, and no LP either ('12')
    with pytest.raises(ValueError, match="no LP template for '12020'"):
        lp._template("12020", TS_MODE)
    assert lp._lp_of("12020", TS_MODE, lp._Table(F(1), F(3, 2))) is None
