"""Linear relaxation feasibility, bisection, proof constructors, scans."""

import concurrent.futures
import copy
import dataclasses
import importlib.util
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import lp_walk
import numpy as np
import pytest
import serial_bisect
import tableau
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

import atlb
from atlb import proofs, rules, search, simplex
from atlb.kernel import BPTS_MODE, TS_MODE, enumerate_annotations
from atlb.lp import (
    _CONST,
    _LP,
    _MARGIN,
    _crash_start,
    _decide,
    _dual_bound,
    _exact_optimum,
    _Table,
    _template,
    _tight_point,
    _warm_start,
    _witness,
)
from atlb.proofs import (
    annotation_certificate,
    bpts_grover_proof,
    bpts_proof,
    good_proof,
    good_proof_best_c,
    good_proof_contradicts,
    good_proof_limit,
    grover_certificate,
)
from atlb.rules import RuleError, RuleStep, format_certificate, verify_proof
from atlb.search import best_exponent, feasible, optimality_scan, search_best

F = Fraction


def _build_lp(a, alpha, cc, mode):
    """The annotation's LP at (alpha, c), read from its memoized template."""
    return _LP(_template(a, mode), _Table(alpha, cc))


def _oracle_margin(lp):
    """The LP's maximal margin by the two-phase tableau oracle, clamped to
    >= 0 as the oracle's columns are: None when the optimum is negative."""
    rows = [
        ([row.get(i, F(0)) for i in range(lp.nvars)], tableau.GE, -row.get(_CONST, F(0)))
        for row in lp.rows
    ]
    res = tableau.solve([F(1)] + [F(0)] * (lp.nvars - 1), rows)
    return res.value if res.status == tableau.OPTIMAL else None


def _solve_one(job):
    """(LP, float solution) of one (annotation, alpha, c, mode) decision."""
    a, alpha, cc, mode = job
    return search._solve_batch([(a, cc)], alpha, mode)[0]


def _lp_optimum(lp, shift=F(10)):
    """Exact maximal margin of the LP, of either sign.  The oracle clamps
    the margin to >= 0, so it is given the LP in margin + shift."""
    shifted = copy.copy(lp)
    shifted.rows = [
        {**row, _CONST: row.get(_CONST, F(0)) - shift * row.get(_MARGIN, F(0))} for row in lp.rows
    ]
    margin = _oracle_margin(shifted)
    assert margin is not None and margin > 0
    return margin - shift


class TestFeasible:
    def test_100_feasible_below_sqrt2(self):
        f = feasible("100", F(1), F(7, 5))
        assert f.feasible
        assert f.margin == F(1, 50)
        assert f.method == "float+primal"
        assert f.replay_ok
        assert f.certificate is not None
        rep = verify_proof(f.certificate)
        assert rep.valid and rep.contradiction

    def test_100_infeasible_above_sqrt2(self):
        f = feasible("100", F(1), F(3, 2))
        assert not f.feasible
        # exact weak-duality upper bound on the margin
        assert f.margin is not None and f.margin <= 0
        assert f.method in ("float+dual", "vertex")

    def test_100_alpha_two_thirds(self):
        # threshold is sqrt(1+alpha)/alpha = sqrt(15)/2 ~ 1.9365
        assert feasible("100", F(2, 3), F(19, 10)).feasible
        assert not feasible("100", F(2, 3), F(39, 20)).feasible

    def test_squiggle_precondition_short_circuit(self):
        # '2' needs alpha*c > 1: structurally infeasible without an LP solve
        f = feasible("1020", F(1, 2), F(3, 2))
        assert not f.feasible
        assert f.method == "precondition"

    @pytest.mark.parametrize("mode", [TS_MODE, BPTS_MODE])
    def test_squiggle_after_speedup_decided_without_lp(self, mode):
        # after a '1' the last block's a is 0: the guard row gives
        # margin <= -d and the speedup's row d >= margin, so no LP is needed.
        # The Fraction walk builds the LP that lp._template refuses
        anns = [a for a in enumerate_annotations(7, mode) if "12" in a]
        assert len(anns) == {TS_MODE: 30, BPTS_MODE: 5}[mode]
        for a in anns:
            for alpha, cc in ((F(1), F(3, 2)), (F(2, 3), F(2))):
                f = feasible(a, alpha, cc, mode)
                assert (f.feasible, f.method, f.margin) == (False, "precondition", None), a
                margin = _oracle_margin(lp_walk.build_lp(a, alpha, cc, mode))
                assert margin is None or margin <= 0, (a, alpha, cc)

    def test_replay_skippable(self):
        f = feasible("100", F(1), F(7, 5), replay=False)
        assert f.feasible and not f.replay_ok and f.certificate is None

    def test_invalid_annotation_rejected(self):
        with pytest.raises(ValueError):
            feasible("10", F(1), F(7, 5))
        with pytest.raises(ValueError):
            feasible("100", F(1), F(1, 2))

    @pytest.mark.parametrize("a", ["0", "10", "13"])
    def test_invalid_annotation_message(self, a):
        # checked before any LP walk: "0" and "13" fail the height trace, "10"
        # does not return to height 0
        message = f"annotation {a!r} is not a valid complete ts annotation"
        for decide in (lambda: feasible(a, F(1), F(7, 5)), lambda: best_exponent(a, F(1))):
            with pytest.raises(ValueError) as exc:
                decide()
            assert str(exc.value) == message

    def test_batched_decisions_validate_nothing(self, monkeypatch):
        # a scan's annotations come from the enumeration and its parameters
        # were checked once: its batched decisions check neither again
        monkeypatch.setattr(search, "validate_annotation", lambda *args: pytest.fail("validated"))
        monkeypatch.setattr(search, "_check_params", lambda *args, **kwargs: None)
        decided = _record_decisions(monkeypatch)
        report = optimality_scan(F(1), F(3, 2), 8)
        assert len(decided) == report.total == 145

    def test_exact_simplex_agrees_with_float_path(self):
        for a in ("100", "1020", "1200", "10100"):
            for cc in (F(13, 10), F(7, 5), F(3, 2), F(8, 5)):
                margin = _oracle_margin(_build_lp(a, F(1), cc, TS_MODE))
                got = feasible(a, F(1), cc, replay=False).feasible
                want = margin is not None and margin > 0
                assert got == want, (a, cc)

    def test_exact_simplex_decides_feasible(self):
        # the float witness fails the tight check here: the warm start
        # decides, and the replayed witness is the re-solve's, with a
        # positive tight margin; margin and method stay the vertex's
        f = feasible("10102100", F(1), F(8, 5))
        assert f.feasible and f.method == "vertex"
        lp = _build_lp("10102100", F(1), F(8, 5), TS_MODE)
        assert f.margin == F(881, 9425) == _oracle_margin(lp)
        assert f.witness == search._vertex_witness(lp, f.margin)[0]
        assert _tight_point(lp, f.witness)[_MARGIN] > 0
        assert (f.certificate is None) == (not f.replay_ok)

    def test_exact_simplex_pivots_on_from_its_start(self):
        # HiGHS's active set is the optimal vertex: no pivot.  The crash
        # vertex is feasible but not optimal: a few pivots to the same optimum
        job = ("10102100", F(1), F(8, 5), TS_MODE)
        lp, (x, duals) = _solve_one(job)
        warm = _exact_optimum(lp, _warm_start(lp, x, duals))
        cold = _exact_optimum(lp, _crash_start(lp))
        assert (warm.value, warm.pivots) == (F(881, 9425), 0)
        assert cold.value == warm.value and 0 < cold.pivots <= 9

    def test_verified_vertex_is_final_without_replay(self, monkeypatch):
        # without replay a verified vertex returns at once, with its own
        # speedup parameters as witness: no witness re-solve, no cold start.
        # A lone LP is solved with a dense matrix
        calls, linprog = [], search.linprog

        def counted(*args, **kwargs):
            calls.append(kwargs["A_ub"])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(search, "linprog", counted)
        monkeypatch.setattr(atlb.lp, "_crash_start", lambda *args: pytest.fail("cold start"))
        f = feasible("10102100", F(1), F(8, 5), replay=False)
        assert (f.feasible, f.method, f.margin) == (True, "vertex", F(881, 9425))
        assert len(calls) == 1 and isinstance(calls[0], np.ndarray)

    def test_cold_start_guard_fires(self, monkeypatch):
        # positive control for the cold-start guards (above, and in
        # test_scan_prove_needs_no_cold_start): with the float solve failing,
        # the decision starts cold through the patched lp._crash_start
        monkeypatch.setattr(search, "linprog", lambda *args, **kwargs: OptimizeResult(status=4))
        monkeypatch.setattr(atlb.lp, "_crash_start", lambda *args: pytest.fail("cold start"))
        with pytest.raises(pytest.fail.Exception, match="cold start"):
            feasible("10102100", F(1), F(8, 5), replay=False)

    def test_simplex_witness_of_vertex_replays(self):
        # the re-solve's witness replays, with a positive tight margin;
        # verdict, margin and method stay the vertex's
        f = feasible("102011000", F(2, 3), F(8, 5))
        assert (f.feasible, f.method, f.replay_ok) == (True, "vertex", True)
        lp = _build_lp("102011000", F(2, 3), F(8, 5), TS_MODE)
        assert f.margin == _oracle_margin(lp)
        assert f.witness == search._vertex_witness(lp, f.margin)[0]
        assert _tight_point(lp, f.witness)[_MARGIN] > 0
        assert verify_proof(f.certificate).contradiction

    @pytest.mark.parametrize(
        "a, alpha, cc",
        [(a, F(1), F(8, 5)) for a in ("10102100", "101022100")]
        + [
            (a, alpha, cc)
            for alpha, cc in ((F(2, 3), F(1517, 1000)), (F(4, 5), F(7, 5)))
            for a in ("10211000", "102110020", "102110200", "102211000")
        ]
        + [("102011000", F(2, 3), F(8, 5))],
        ids=str,
    )
    def test_vertex_verdict_replays(self, a, alpha, cc):
        # vertex verdicts whose re-solved witness replays at a margin floor
        # of opt/100; at opt/2 it fails the rules (the last one replayed
        # only with the exact simplex's optimum from the crash vertex)
        f = feasible(a, alpha, cc)
        assert (f.feasible, f.method, f.replay_ok) == (True, "vertex", True)
        rep = verify_proof(f.certificate)
        assert rep.valid and rep.contradiction

    def test_scan_vertex_verdicts_replay(self):
        assert optimality_scan(F(2, 3), F(1517, 1000), 9).replay_failed == 0

    def test_near_zero_margin_decided_on_first_solve(self, monkeypatch):
        # near c* the margin is ~1e-8.  At HiGHS's default tolerance 1e-7 the
        # solution breaks rows 7, 9 and 26 by ~1e-8; at _FLOAT_TOL its rounded
        # witness already has an exact positive margin: one linprog call, no
        # simplex
        a, cc = "102110020", F(67040, 41433)
        calls, linprog = [], search.linprog
        monkeypatch.setattr(search, "linprog", lambda *a, **k: calls.append(1) or linprog(*a, **k))
        monkeypatch.setattr(simplex, "solve", lambda *args: pytest.fail("exact simplex called"))
        f = feasible(a, F(1), cc, replay=False)
        assert (f.feasible, f.method, len(calls)) == (True, "float+primal", 1)
        assert f.margin == _tight_point(_build_lp(a, F(1), cc, TS_MODE), f.witness)[_MARGIN]
        monkeypatch.undo()
        assert 0 < f.margin <= F(209, 2777668320) == _oracle_margin(_build_lp(a, F(1), cc, TS_MODE))

    def test_infeasible_vertex_margin_is_lp_optimum(self):
        # c is a convergent of sqrt(2) just above it: the float margin is
        # within HiGHS's tolerance of 0, so neither float check settles.  The
        # exact simplex reports the exact negative optimum.
        cc = F(66922, 47321)
        f = feasible("100", F(1), cc)
        assert (f.feasible, f.method) == (False, "vertex")
        assert f.margin == _lp_optimum(_build_lp("100", F(1), cc, TS_MODE)) == F(-1, 2239277041)

    @pytest.mark.parametrize("a, cc", [("10102100", F(1517, 1000)), ("100", F(66922, 47321))])
    def test_unverified_vertex_falls_back_to_exact_simplex(self, a, cc, monkeypatch):
        # with the warm start rejected (no active row gives no vertex) the
        # exact simplex starts cold, at the crash vertex, and reaches the
        # same verdict and LP optimum, negative ones included
        warm = feasible(a, F(1), cc)
        assert warm.method == "vertex"
        starts, crash_start = [], atlb.lp._crash_start
        monkeypatch.setattr(atlb.lp, "_warm_start", lambda *args: ([], []))
        monkeypatch.setattr(atlb.lp, "_crash_start", lambda lp: starts.append(1) or crash_start(lp))
        cold = feasible(a, F(1), cc)
        assert starts
        assert (cold.feasible, cold.method, cold.margin) == (warm.feasible, "vertex", warm.margin)

    def test_dual_margin_is_lp_optimum(self):
        # the multipliers are solved exactly on the optimal active set, so an
        # infeasible margin is the LP optimum itself, alone and in a batch
        cc = F(1517, 1000)
        scan = {e.annotation: e.margin for e in optimality_scan(F(1), cc, 8).entries}
        optima = {}
        for a in ("100100", "10011000", "11000100"):
            f = feasible(a, F(1), cc)
            optima[a] = _lp_optimum(_build_lp(a, F(1), cc, TS_MODE))
            assert f.method == "float+dual", a
            assert f.margin == scan[a] == optima[a] < 0, a
        assert optima["100100"] == F(-1295931061521, 4000000000000)

    @pytest.mark.parametrize(
        "a, cc, mode",
        [
            ("100", F(7, 5), TS_MODE),
            ("1102020", F(17, 10), TS_MODE),
            ("111100202020", F(44, 25), TS_MODE),
            ("11100000", F(13, 10), BPTS_MODE),  # randomized speedup of a quantifier-free class
            ("1001000", F(6, 5), BPTS_MODE),  # randomized speedup under a prefix
        ],
    )
    def test_lp_walk_matches_rule_replay(self, a, cc, mode):
        # the LP's tight point and the exact rules agree on the witness: the
        # replay ends at d0 times the final d of the tight point, read from
        # the last precondition, 1 - d
        f = feasible(a, F(1), cc, mode)
        assert f.feasible and f.replay_ok
        lp = _build_lp(a, F(1), cc, mode)
        final = lp.template.preconditions[-1]
        final_d = 1 - simplex._value(final, _tight_point(lp, f.witness), lp.table.exact)
        classes = f.certificate.classes
        assert classes[-1].d == classes[0].d * final_d


_LP_ANNOTATIONS = {
    mode: [a for a in enumerate_annotations(8, mode) if "12" not in a] for mode in (TS_MODE, BPTS_MODE)
}


@st.composite
def lp_decisions(draw):
    """(annotation, alpha, c, mode) whose LP exists: c strictly inside the
    squiggle's range when the annotation has a '2'."""
    mode = draw(st.sampled_from([TS_MODE, BPTS_MODE]))
    a = draw(st.sampled_from(_LP_ANNOTATIONS[mode]))
    alpha = F(draw(st.integers(1, 20)), 20)
    lo = max(F(1), 1 / alpha) if "2" in a else F(1)
    cc = lo + ((1 + alpha) / alpha - lo) * F(draw(st.integers(1, 99)), 100)
    return a, alpha, cc, mode


@given(lp_decisions())
@settings(max_examples=30, deadline=None)
def test_active_vertex_is_lp_optimum(job):
    # HiGHS's active set gives a feasible vertex, and the exact simplex from
    # it (warm) and from the crash vertex (cold) reaches the tableau
    # oracle's optimum, what a "vertex" decision reports.  Its multipliers
    # bound the margin at exactly that optimum
    lp, (x, duals) = _solve_one(job)
    optimum = _lp_optimum(lp, shift=F(math.ceil(max(0.0, -x[_MARGIN]))) + 1)
    for start in (_warm_start(lp, x, duals), _crash_start(lp)):
        vertex = _exact_optimum(lp, start)
        assert vertex is not None
        assert vertex.value == optimum == vertex.point[_MARGIN]
        assert _dual_bound(lp, list(vertex.duals), list(vertex.duals.values())) == optimum


class TestDualBound:
    def test_negative_multiplier_is_no_bound(self):
        # w sums rows 0, 3, 4 and 5 of 100's LP to q = -margin with bound 0,
        # a "no" for a feasible LP, but w_5 < 0: weak duality does not hold
        lp = _build_lp("100", F(1), F(7, 5), TS_MODE)
        support, w = [0, 3, 4, 5], [F(1), F(5, 2), F(25, 14), F(-25, 14)]
        q = {i: sum(wr * lp.rows[r].get(i, 0) for r, wr in zip(support, w)) for i in (_CONST, *range(lp.nvars))}
        assert q == {_CONST: 0, _MARGIN: -1, 1: 0, 2: 0, 3: 0}
        assert feasible("100", F(1), F(7, 5)).feasible
        assert _dual_bound(lp, support, w) is None

    def test_multipliers_without_the_margin_are_no_bound(self):
        # 1 - v_1 >= 0 gives q_1 = -1 <= 0 but says nothing of the margin
        lp = SimpleNamespace(rows=[{_CONST: 1, 1: -1}])
        assert _dual_bound(lp, [0], [F(1)]) is None


def _rank(vectors):
    """The rank of the vectors, by Fraction elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@given(lp_decisions())
@settings(max_examples=60, deadline=None)
def test_crash_point_is_a_vertex(job):
    # the tight point at every speedup parameter 0 satisfies every row and
    # bound exactly, and its active constraints (tight rows, bounds of the
    # columns at 0) have rank nvars: the exact simplex's cold start
    lp = _build_lp(*job)
    v = _tight_point(lp, [0] * len(lp.xvars))
    assert all(simplex._value(row, v) >= 0 for row in lp.rows)
    assert all(v[i] >= 0 for i in range(1, lp.nvars))
    tight_rows = [[row.get(i, 0) for i in range(lp.nvars)] for row in lp.rows if simplex._value(row, v) == 0]
    bounds = [[int(i == j) for i in range(lp.nvars)] for j in range(1, lp.nvars) if v[j] == 0]
    assert _rank(tight_rows + bounds) == lp.nvars


@given(lp_decisions())
@settings(max_examples=30, deadline=None)
def test_tight_point_with_positive_margin_is_lp_feasible(job):
    # the tight point of the float solve's rounded witness: with a positive
    # margin it satisfies every LP row exactly, so that margin is at most the
    # LP optimum, and a "float+primal" verdict is sound
    lp, (x, _) = _solve_one(job)
    v = _tight_point(lp, _witness(lp, x)[0])
    if v[_MARGIN] > 0:
        assert all(simplex._value(row, v) >= 0 for row in lp.rows)
        assert v[_MARGIN] <= _oracle_margin(lp)


@st.composite
def steered_lps(draw):
    """(LP, float solution) of a small ts or bpts LP: HiGHS's own solution,
    it with noise on x, with its duals zeroed or scaled, random finite
    vectors, or None."""
    lp, sol = _solve_one(draw(lp_decisions()))
    x, duals = sol
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steer = draw(st.sampled_from(["highs", "noise", "zero duals", "scaled duals", "random", "none"]))
    if steer == "noise":
        x = x + rng.normal(scale=draw(st.sampled_from([1e-10, 1e-7, 1e-3, 1e-1])), size=x.shape)
    elif steer == "zero duals":
        duals = np.zeros_like(duals)
    elif steer == "scaled duals":
        duals = duals * draw(st.sampled_from([-1.0, 1e-3, 0.5, 2.0, 1e3]))
    elif steer == "random":
        x, duals = rng.uniform(-2, 2, x.shape), rng.uniform(-2, 2, duals.shape)
    return lp, None if steer == "none" else (x, duals)


@given(steered_lps())
@settings(max_examples=60, deadline=None)
def test_floats_only_steer(steered):
    # whatever float solution lp._decide is given, its verdict is the cold
    # start's, the exact optimum's sign.  A float "yes" has a witness whose
    # tight margin is its margin, at most that optimum; a "vertex" verdict's
    # margin is the optimum itself (its own witness may lie above the tight
    # maxima, which replay re-solves).  A "no" has a margin between the
    # optimum and 0
    lp, sol = steered
    cold_ok, opt, _, cold_method = _decide(lp, None)
    ok, margin, xs, method = _decide(lp, sol)
    assert cold_method == "vertex" and ok == cold_ok
    if method == "float+primal":
        assert 0 < _tight_point(lp, xs)[_MARGIN] == margin <= opt
    elif method == "vertex":
        assert margin == opt
    if not ok:
        assert opt <= margin <= 0


class TestBestExponent:
    def test_100_is_sqrt2(self):
        c = best_exponent("100", F(1), tol=F(1, 10**6))
        assert abs(float(c) - math.sqrt(2)) < 1e-5

    def test_100_alpha_two_thirds_is_sqrt15_over_2(self):
        c = best_exponent("100", F(2, 3), tol=F(1, 10**6))
        assert abs(float(c) - math.sqrt(15) / 2) < 1e-5

    def test_infeasible_annotation_returns_none(self):
        # a squiggle straight after the first speedup never pays off
        assert best_exponent("1200", F(1), tol=F(1, 10**3)) is None

    def test_search_best_small(self):
        res = search_best(3, F(1), tol=F(1, 10**5))
        assert res is not None
        assert res.annotation == "100"
        assert abs(float(res.best_c) - math.sqrt(2)) < 1e-4
        assert res.certificate is not None
        rep = verify_proof(res.certificate)
        assert rep.valid and rep.contradiction

    def test_one_bisection_per_batch_beats_solo_bisections(self, monkeypatch):
        # search_best bisects one bracket per batch and decides only the
        # annotations still level with the best: fewer decisions than one
        # best_exponent per annotation (48 against 81), in fewer float
        # solves, and one replay, of the winner
        calls = {"feasible": 0, "_replay": 0, "linprog": 0}

        def counted(name):
            orig = getattr(search, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(search, name, counted(name))
        tol = F(1, 10**4)
        solo_decisions = 0
        for a in enumerate_annotations(5, TS_MODE):
            calls.update(feasible=0)
            best_exponent(a, F(1), tol=tol)
            solo_decisions += calls["feasible"]
        assert best_exponent("100", F(1), tol=tol) is not None
        assert calls["_replay"] == 0
        calls.update(feasible=0, _replay=0, linprog=0)
        res = search_best(5, F(1), tol=tol)
        assert res.certificate is not None
        assert calls["feasible"] < solo_decisions
        assert calls["_replay"] == 1
        assert calls["linprog"] < calls["feasible"]

    @pytest.mark.parametrize("alpha", [F(2, 3), F(1)])
    def test_search_best_is_max_of_best_exponent(self, alpha):
        best = None
        for a in enumerate_annotations(6, TS_MODE):
            c = best_exponent(a, alpha)
            if c is not None and (best is None or c > best[0]):
                best = (c, a)
        res = search_best(6, alpha)
        assert (res.best_c, res.annotation) == best

    @pytest.mark.parametrize(
        "mode,max_len,alpha,annotation,best_c",
        [
            (TS_MODE, 7, F(1), "1102020", F(13559257, 7898569)),
            (TS_MODE, 7, F(2, 3), "1102020", F(46819881, 20535148)),
            (TS_MODE, 7, F(3, 4), "1102020", F(5051107, 2410209)),
            (TS_MODE, 7, F(4, 5), "1102020", F(30224377, 15093760)),
            (TS_MODE, 7, F(9, 10), "1102020", F(7465793, 4046656)),
            (BPTS_MODE, 6, F(1), "110000", F(673430053, 497653716)),
            (BPTS_MODE, 6, F(2, 3), "110000", F(4910981, 2602300)),
            (BPTS_MODE, 6, F(9, 10), "110000", F(10461287, 7099234)),
        ],
    )
    def test_search_best_exact_answers(self, mode, max_len, alpha, annotation, best_c):
        # exact answers, so a bisection that moves any midpoint shows
        res = search_best(max_len, alpha, mode)
        assert (res.annotation, res.best_c) == (annotation, best_c)
        rep = verify_proof(res.certificate)
        assert rep.valid and rep.contradiction

    def test_feasible_at_both_ends_raises_bracket_error(self, force_feasible):
        # 100 made feasible at every c, so also at hi = (1+alpha)/alpha
        force_feasible("100")
        with pytest.raises(search.BracketError, match="not monotone for '100'"):
            best_exponent("100", F(1))
        with pytest.raises(search.BracketError, match="not monotone for '100'"):
            search_best(5, F(1))

    def test_vertex_winner_certified_from_its_lp(self, monkeypatch):
        # a "vertex" winner is certified as a scan entry is, from its LP:
        # one witness re-solve and one replay, no second decision
        a, cc = "10102100", F(8, 5)
        f = feasible(a, F(1), cc, replay=False)
        assert f.method == "vertex"
        best = (cc, a, f), Counter()
        monkeypatch.setattr(search, "_bisect_max", lambda *args: best)
        calls = Counter()

        def counted(module, name):
            orig = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, **kw: calls.update([name]) or orig(*args, **kw))

        counted(search, "feasible")
        counted(search, "linprog")
        counted(simplex, "solve")
        res = search_best(3, F(1))
        assert (res.best_c, res.annotation) == (cc, a)
        assert calls == Counter(linprog=1)  # the re-solve: no decision, no simplex
        monkeypatch.undo()
        want = feasible(a, F(1), cc).certificate
        assert format_certificate(res.certificate) == format_certificate(want)

    def test_search_best_length5_beats_length3(self):
        res = search_best(5, F(1), tol=F(1, 10**4))
        assert float(res.best_c) > math.sqrt(2) - 1e-4


class TestGoodProof:
    def test_worked_example_k2(self):
        cert = good_proof(F(1), F(3, 2), 2, d=F(100))
        xs = [s.x for s in cert.steps if s.x is not None]
        # x_1 = d/(alpha*c^2), ratio tau = (1-1/k)/(c(alpha*c-1)) = 2/3
        assert xs == [F(400, 9), F(800, 27)]
        assert xs[1] / xs[0] == (1 - F(1, 2)) / (F(3, 2) * (F(3, 2) - 1))
        rep = verify_proof(cert)
        assert rep.valid
        # annotation 1^2 0 (20)^2 ends back at the starting exponent
        assert cert.classes[-1].d == F(100)
        assert rep.contradiction
        assert len(rep.squiggles) == 2
        assert all(proper for _, _, proper in rep.squiggles)

    def test_contradiction_predicate(self):
        assert good_proof_contradicts(F(1), F(3, 2), 2)
        assert not good_proof_contradicts(F(1), F(181, 100), 20)
        assert good_proof_contradicts(F(2, 3), F(23, 10), 30)

    def test_best_c_matches_scalar_oracle(self):
        # contradiction iff alpha*c^2 - S < tau^(k-1)/(alpha*c - 1)
        def oracle_best(alpha, k, tol=F(1, 10**7)):
            def contradicts(cc):
                if not (alpha * cc > 1 and cc < (1 + alpha) / alpha):
                    return False
                eps = F(1, k)
                tau = (1 - eps) / (cc * (alpha * cc - 1))
                s = sum(tau**i for i in range(k))
                return alpha * cc * cc - s < tau ** (k - 1) / (alpha * cc - 1)

            lo, hi = max(F(1), 1 / alpha) + F(1, 100), (1 + alpha) / alpha
            while not contradicts(lo):
                lo += F(1, 100)
            while contradicts(hi - tol):
                hi -= tol
            while hi - lo > tol:
                mid = (lo + hi) / 2
                if contradicts(mid):
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        for alpha, k in ((F(1), 6), (F(2, 3), 6)):
            got = good_proof_best_c(alpha, k, tol=F(1, 10**6))
            want = oracle_best(alpha, k, tol=F(1, 10**6))
            assert abs(float(got - want)) < 1e-5, (alpha, k)

    @pytest.mark.parametrize("k", [0, -1])
    def test_best_c_rejects_height_below_one(self, k, monkeypatch):
        # as good_proof does, before deciding any c
        monkeypatch.setattr(proofs, "good_proof_contradicts", lambda *args: pytest.fail("decided"))
        with pytest.raises(ValueError, match="k must be >= 1"):
            good_proof_best_c(F(1), k)

    @pytest.mark.parametrize("tol", [F(0), F(-1, 100)])
    def test_bisections_reject_nonpositive_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            good_proof_best_c(F(1), 2, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            best_exponent("100", F(1), tol=tol)

    def test_best_c_increases_with_k_toward_limit(self):
        prev = None
        for k in (2, 5, 10, 20):
            c = good_proof_best_c(F(1), k, tol=F(1, 10**6))
            if prev is not None:
                assert c > prev
            prev = c
        limit = good_proof_limit(F(1))
        assert abs(limit - 2 * math.cos(math.pi / 7)) < 1e-9
        assert float(prev) < limit

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            good_proof(F(1), F(21, 10), 3)  # above (1+alpha)/alpha
        with pytest.raises(ValueError):
            good_proof(F(1), F(3, 2), 0)


class TestBptsProof:
    def test_contradiction_below_three_halves_region(self):
        cert = bpts_proof(40, F(14, 10))
        rep = verify_proof(cert)
        assert rep.valid and rep.contradiction

    def test_no_contradiction_at_three_halves(self):
        cert = bpts_proof(40, F(3, 2))
        rep = verify_proof(cert)
        assert rep.valid and not rep.contradiction

    def test_threshold_flip_near_1_46(self):
        assert verify_proof(bpts_proof(200, F(146, 100))).contradiction
        assert not verify_proof(bpts_proof(200, F(147, 100))).contradiction

    def test_certificate_shape(self):
        cert = bpts_proof(3, F(14, 10))
        assert cert.mode == BPTS_MODE
        # annotation 1^3 0^5: ends with no quantifier blocks
        assert cert.classes[-1].blocks == ()


class TestBptsGroverProof:
    @pytest.mark.parametrize(
        "cc,expect",
        [
            (F(11, 10), True),
            (F(13, 10), True),
            (F(149, 100), True),
            (F(3, 2), False),
            (F(151, 100), False),
            (F(17, 10), False),
        ],
    )
    def test_contradiction_iff_c_below_three_halves(self, cc, expect):
        rep = verify_proof(bpts_grover_proof(cc))
        assert rep.valid
        assert rep.contradiction == expect

    def test_uses_grover_steps(self):
        cert = bpts_grover_proof(F(149, 100))
        assert any(s.rule == "grover" for s in cert.steps)

    @pytest.mark.parametrize("cc, rounds", [(F(1499, 1000), 1213), (F(14999, 10000), 12161)])
    def test_rounds_near_three_halves_contradict(self, cc, rounds):
        # the round count grows like 1/log(3/(2c)); at 14999/10000 the
        # classes' numbers pass the int-to-str digit limit
        cert = bpts_grover_proof(cc)
        assert sum(s.rule == "grover" for s in cert.steps) == rounds
        assert len(cert.steps) == rounds + 4
        rep = verify_proof(cert)
        assert rep.valid and rep.contradiction

    def test_rounds_past_iteration_cap_raise(self, monkeypatch):
        # the rounds are counted as the squiggle's iterations, under its cap
        monkeypatch.setattr(rules, "SQUIGGLE_ITERATION_CAP", 1000)
        with pytest.raises(RuntimeError, match="grover round cap exceeded"):
            bpts_grover_proof(F(1499, 1000))


class TestNamedConstructorsAreAnnotations:
    @pytest.mark.parametrize(
        "alpha,cc,k",
        [(F(1), F(3, 2), 1), (F(1), F(3, 2), 2), (F(1), F(17, 10), 5), (F(2, 3), F(9, 5), 3), (F(4, 5), F(3, 2), 8)],
    )
    def test_good_proof(self, alpha, cc, k):
        cert = good_proof(alpha, cc, k)
        d = cert.classes[0].d
        xs = [s.x for s in cert.steps if s.x is not None]
        assert len(xs) == k
        tau = (1 - F(1, k)) / (cc * (alpha * cc - 1))
        assert all(x1 * tau == x2 for x1, x2 in zip(xs, xs[1:]))
        assert cert == annotation_certificate("1" * k + "0" + "20" * k, alpha, cc, TS_MODE, xs, d)

    @pytest.mark.parametrize("k,cc", [(1, F(7, 5)), (3, F(73, 50)), (10, F(3, 2))])
    def test_bpts_proof(self, k, cc):
        cert = bpts_proof(k, cc)
        xs = [s.x for s in cert.steps if s.x is not None]
        assert len(xs) == k
        a = "1" * k + "0" * (k + 2)
        assert cert == annotation_certificate(a, F(1), cc, BPTS_MODE, xs, cert.classes[0].d)


class TestGroverCertificate:
    def test_alpha_two_thirds_proof_with_grover_slowdowns(self):
        f = feasible("1102020", F(2, 3), F(2))
        cert = grover_certificate(f.certificate)
        assert cert.classes == f.certificate.classes
        assert [s.rule for s in cert.steps] == [
            "grover" if s.rule == "slowdown" else s.rule for s in f.certificate.steps
        ]
        assert cert.assumption == "ebqp" and f.certificate.assumption == "ntime"
        rep = verify_proof(cert)
        assert rep.valid and rep.contradiction

    def test_rejects_other_alpha_and_bpts(self):
        with pytest.raises(ValueError, match="grover"):
            grover_certificate(feasible("100", F(1), F(7, 5)).certificate)
        with pytest.raises(ValueError, match="grover"):
            grover_certificate(bpts_proof(3, F(7, 5)))


class TestOneDerivation:
    """A certificate is derived once (proofs._run_steps over rules.derive),
    and that pass's report is the verifier's."""

    def test_scan_certificates_report_as_verified(self, monkeypatch):
        built, run_steps = [], search._run_steps

        def recorded(*args):
            built.append(run_steps(*args))
            return built[-1]

        monkeypatch.setattr(search, "_run_steps", recorded)
        scan = optimality_scan(F(1), F(8, 5), 8)
        monkeypatch.undo()
        feasible_entries = scan.feasible_entries
        assert feasible_entries and len(built) == len(feasible_entries)
        assert scan.replay_failed == 0
        for cert, report in built:
            assert report == verify_proof(cert)
        kept = [f.certificate for f in feasible_entries if f.replay_ok]
        assert all(any(cert is c for c, _ in built) for cert in kept)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: good_proof(F(1), F(3, 2), 3),
            lambda: good_proof(F(1), F(19, 10), 2),  # valid, no contradiction
            lambda: bpts_proof(10, F(7, 5)),
            lambda: bpts_grover_proof(F(13, 10)),
            lambda: bpts_grover_proof(F(17, 10)),
            lambda: grover_certificate(feasible("1102020", F(2, 3), F(2)).certificate),
        ],
    )
    def test_named_certificates_report_as_verified(self, make):
        cert = make()
        rederived, report = proofs._run_steps(cert.alpha, cert.c, cert.mode, cert.classes[0].d, cert.steps)
        assert rederived == cert
        assert report == verify_proof(cert)

    @pytest.mark.parametrize(
        "a, alpha, cc", [("100", F(1), F(7, 5)), ("1102020", F(2, 3), F(2)), ("10102100", F(1), F(1517, 1000))]
    )
    def test_replay_applies_each_step_once(self, a, alpha, cc, monkeypatch):
        calls, apply_step = [], rules.apply_step
        monkeypatch.setattr(rules, "apply_step", lambda *args: calls.append(1) or apply_step(*args))
        monkeypatch.setattr(search, "verify_proof", lambda p: pytest.fail("verify_proof called"))
        f = feasible(a, alpha, cc)
        assert f.replay_ok
        assert len(calls) == len(f.certificate.steps)

    @pytest.mark.parametrize(
        "alpha, cc, k", [(F(1), F(3, 2), 2), (F(1), F(19, 10), 3), (F(2, 3), F(23, 10), 6)]
    )
    def test_good_proof_contradicts_derives_once(self, alpha, cc, k, monkeypatch):
        # the predicate reads the report of good_proof's one derivation:
        # 3k+1 steps (k speedups, a slowdown, k squiggle-slowdown pairs)
        calls, apply_step = [], rules.apply_step
        monkeypatch.setattr(rules, "apply_step", lambda *args: calls.append(1) or apply_step(*args))
        monkeypatch.setattr(search, "verify_proof", lambda p: pytest.fail("verify_proof called"))
        good_proof_contradicts(alpha, cc, k)
        assert len(calls) == 3 * k + 1

    def test_good_proof_contradicts_is_verified_predicate(self):
        # the same verdict as verify_proof on good_proof's certificate, also
        # for alpha > 1, alpha*c <= 1 and c >= (1+alpha)/alpha
        def verified(alpha, cc, k):
            try:
                report = verify_proof(good_proof(alpha, cc, k))
            except (ValueError, RuleError):
                return False
            return (
                report.valid
                and report.contradiction
                and len(report.squiggles) == k
                and all(proper for _, _, proper in report.squiggles)
            )

        alphas = (F(1, 2), F(2, 3), F(1), F(3, 2))
        cs = (F(11, 10), F(7, 5), F(3, 2), F(19, 10), F(2), F(5, 2), F(3))
        verdicts = set()
        for alpha in alphas:
            for cc in cs:
                for k in (1, 2, 5):
                    got = good_proof_contradicts(alpha, cc, k)
                    assert got == verified(alpha, cc, k), (alpha, cc, k)
                    verdicts.add(got)
        assert verdicts == {True, False}

    def test_first_error_is_earliest_of_mismatch_and_failing_step(self):
        # a stated class that differs comes before a later failing step; the
        # squiggles reported are those of the steps up to the first error
        cert = good_proof(F(1), F(3, 2), 2)
        squiggles = [j for j, s in enumerate(cert.steps, start=1) if s.rule == "squiggle"]
        last = len(cert.steps)
        steps = cert.steps[:-1] + [RuleStep("speedup_first", F(1))]  # needs no quantifier
        rep = verify_proof(dataclasses.replace(cert, steps=steps))
        assert not rep.valid and rep.first_error[0] == last
        assert rep.first_error[1].startswith(f"step {last} (speedup_first): ")
        assert [j for j, _, _ in rep.squiggles] == squiggles
        i = squiggles[0] + 1
        classes = list(cert.classes)
        classes[i] = dataclasses.replace(classes[i], d=classes[i].d + 1)
        rep = verify_proof(dataclasses.replace(cert, classes=classes, steps=steps))
        assert not rep.valid and rep.first_error[0] == i
        assert rep.first_error[1].startswith(f"class {i} mismatch")
        assert [j for j, _, _ in rep.squiggles] == squiggles[:1]


class TestOptimalityScan:
    def test_scan_below_sqrt2_finds_100(self):
        rep = optimality_scan(F(1), F(7, 5), 3)
        assert rep.total == 1
        assert [e.annotation for e in rep.feasible_entries] == ["100"]
        assert rep.feasible_entries[0].replay_ok
        assert rep.summary().startswith("1 feasible annotation of length <= 3")

    def test_scan_above_threshold_finds_nothing(self):
        rep = optimality_scan(F(1), F(9, 5), 7)
        assert rep.feasible_entries == []
        assert rep.summary().startswith("0 feasible annotations")

    def test_scan_deterministic_order(self):
        rep = optimality_scan(F(1), F(7, 5), 5)
        anns = [e.annotation for e in rep.entries]
        assert anns == sorted(anns, key=lambda a: (len(a), a))

    def test_scan_independent_of_workers(self):
        serial = optimality_scan(F(1), F(3, 2), 6)
        pooled = optimality_scan(F(1), F(3, 2), 6, workers=2)
        assert pooled.entries == serial.entries

    def test_scan_independent_of_workers_across_batches(self):
        serial = optimality_scan(F(1), F(3, 2), 8)
        assert serial.total == 145 > search._BATCH
        pooled = optimality_scan(F(1), F(3, 2), 8, workers=2)
        assert pooled.entries == serial.entries


def _record_decisions(monkeypatch) -> list:
    """Every Feasibility that search.feasible returns from now on."""
    decided, solo = [], search.feasible

    def recorded(*args, **kwargs):
        decided.append(solo(*args, **kwargs))
        return decided[-1]

    monkeypatch.setattr(search, "feasible", recorded)
    return decided


class TestBatchedDecisions:
    @pytest.mark.parametrize(
        "alpha,cc", [(F(1), F(1517, 1000)), (F(1), F(8, 5)), (F(4, 5), F(17, 10))]
    )
    def test_scan_matches_solo_decisions(self, alpha, cc, monkeypatch):
        # a batch may pick another optimal vertex than a lone solve, so a
        # margin or witness may differ, but every one must be exact
        decided = _record_decisions(monkeypatch)
        report = optimality_scan(alpha, cc, 8)
        monkeypatch.undo()
        assert report.total == 145 > search._BATCH
        assert [f.annotation for f in decided] == [e.annotation for e in report.entries]
        for f in decided:
            alone = feasible(f.annotation, alpha, cc)
            got = (f.feasible, f.replay_ok, f.method)
            assert got == (alone.feasible, alone.replay_ok, alone.method), f.annotation
            if not f.feasible:
                assert f.margin is None or f.margin <= 0
            elif f.method == "float+primal":
                assert f.margin > 0
                lp = _build_lp(f.annotation, alpha, cc, TS_MODE)
                assert f.margin == _tight_point(lp, f.witness)[_MARGIN]
            else:
                assert f.method == "vertex" and f.margin > 0
                lp = _build_lp(f.annotation, alpha, cc, TS_MODE)
                assert f.margin == _oracle_margin(lp)

    def test_failed_float_solve_falls_to_exact_simplex(self, monkeypatch):
        # a batch whose solve does not end optimal sends every block to the
        # exact simplex's cold start; annotations with a '12' have no LP, so
        # no block
        want = optimality_scan(F(1), F(3, 2), 6)
        monkeypatch.setattr(search, "linprog", lambda *args, **kwargs: OptimizeResult(status=4))
        decided = _record_decisions(monkeypatch)
        got = optimality_scan(F(1), F(3, 2), 6)
        assert [(e.annotation, e.feasible, e.replay_ok) for e in got.entries] == [
            (e.annotation, e.feasible, e.replay_ok) for e in want.entries
        ]
        assert len(decided) == got.total
        assert {f.method for f in decided if "12" not in f.annotation} == {"vertex"}
        assert {f.method for f in decided if "12" in f.annotation} == {"precondition"}

    def test_cold_start_verdict_witness_is_its_own_vertex(self, monkeypatch):
        # with every float solve failing each LP decision starts cold once,
        # and the witness re-solve fails too: the witness is the verdict's
        # own vertex
        monkeypatch.setattr(search, "linprog", lambda *args, **kwargs: OptimizeResult(status=4))
        starts, crash_start = [], atlb.lp._crash_start
        monkeypatch.setattr(atlb.lp, "_crash_start", lambda lp: starts.append(1) or crash_start(lp))
        report = optimality_scan(F(2, 3), F(8, 5), 8)
        assert sum(e.method == "vertex" for e in report.entries) == len(starts) == 56
        assert report.replay_failed == 4


def _exact_numbers(entries):
    """Every margin, witness entry and certificate number of the entries."""
    for e in entries:
        if e.margin is not None:
            yield e.margin
        yield from e.witness
        if e.certificate is not None:
            yield from _certificate_numbers(e.certificate)


def _certificate_numbers(cert):
    yield from (cert.alpha, cert.c)
    yield from (s.x for s in cert.steps if s.x is not None)
    for cls in cert.classes:
        yield cls.d
        for block in cls.blocks:
            yield from (block.a, block.b)


def test_exact_layer_returns_fractions():
    # the LP's coefficients 0 and +-1 are ints; a division of two ints would
    # silently give a float
    entries = optimality_scan(F(1), F(1517, 1000), 8).entries
    entries += optimality_scan(F(4, 5), F(17, 10), 8, BPTS_MODE).entries
    assert {"float+primal", "float+dual", "vertex"} <= {e.method for e in entries}
    best = search_best(6, F(2, 3))
    numbers = [*_exact_numbers(entries), best.best_c, *_certificate_numbers(best.certificate)]
    assert numbers and all(type(v) is Fraction for v in numbers)


def test_search_best_independent_of_workers():
    serial = search_best(5, F(1), tol=F(1, 10**4))
    pooled = search_best(5, F(1), tol=F(1, 10**4), workers=2)
    assert pooled.annotation == serial.annotation
    assert pooled.best_c == serial.best_c
    assert format_certificate(pooled.certificate) == format_certificate(serial.certificate)


def test_search_best_independent_of_workers_across_batches():
    # 55 annotations: two batches, each bisected on its own
    assert len(list(enumerate_annotations(7, TS_MODE))) > search._BATCH
    serial = search_best(7, F(1), tol=F(1, 10**4))
    pooled = search_best(7, F(1), tol=F(1, 10**4), workers=2)
    assert (pooled.annotation, pooled.best_c) == (serial.annotation, serial.best_c)
    assert format_certificate(pooled.certificate) == format_certificate(serial.certificate)


def test_single_batch_runs_without_pool(monkeypatch):
    # at most _BATCH items are one batch: workers=2 must not start a pool
    serial_search = search_best(5, F(1))
    serial_scan = optimality_scan(F(1), F(3, 2), 6)
    assert serial_scan.total <= search._BATCH

    def no_pool(*args, **kwargs):
        raise AssertionError("process pool started for a single batch")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    pooled = search_best(5, F(1), workers=2)
    assert (pooled.annotation, pooled.best_c) == (serial_search.annotation, serial_search.best_c)
    assert format_certificate(pooled.certificate) == format_certificate(serial_search.certificate)
    assert optimality_scan(F(1), F(3, 2), 6, workers=2).entries == serial_scan.entries


def test_pool_has_no_more_workers_than_batches(monkeypatch):
    # the fork start method launches max_workers processes at the first
    # submit, so a pool asks for no more workers than there are batches.  A
    # fake executor records the size and maps serially: no process starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    serial = search_best(7, F(1), tol=F(1, 10**4))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert search._map_batches(len, list(range(search._BATCH + 1)), 4) == [search._BATCH, 1]
    pooled = search_best(7, F(1), tol=F(1, 10**4), workers=3)  # two batches
    assert (pooled.annotation, pooled.best_c) == (serial.annotation, serial.best_c)
    assert optimality_scan(F(1), F(3, 2), 8, workers=3).total == 145  # five batches
    assert sizes == [2, 2, 3]


def _bisections(annotations, alpha, tol, mode, monkeypatch):
    """(answer, exact decisions) of the serial oracle's bisection and of
    _bisect_max's, each decision as (annotation, c, verdict, method)."""
    runs = []

    def steered(*args):
        return search._bisect_max(*args)[0]

    for bisect_max in (serial_bisect.bisect_max, steered):
        decided = _record_decisions(monkeypatch)
        answer = bisect_max(annotations, alpha, tol, mode)
        monkeypatch.undo()
        runs.append((answer and answer[:2], [(f.annotation, f.c, f.feasible, f.method) for f in decided]))
    return runs


def _assert_decides_as_serial(want, got):
    """got, a steered bisection, has the serial oracle's (c*, winner), makes
    only exact decisions the oracle made, with its verdicts, and at most two
    exact decisions per annotation."""
    assert got[0] == want[0]
    oracle = {(a, c): ok for a, c, ok, _ in want[1]}
    assert all(oracle.get((a, c)) == ok for a, c, ok, _ in got[1])
    per_annotation = Counter(a for a, _, _, _ in got[1])
    assert max(per_annotation.values(), default=0) <= 2


@pytest.mark.parametrize(
    "mode,max_len,alpha",
    [(TS_MODE, n, alpha) for n in range(3, 8) for alpha in (F(1), F(2, 3))]
    + [(BPTS_MODE, n, alpha) for n in range(3, 7) for alpha in (F(1), F(2, 3))],
)
def test_bisect_max_decides_as_serial_bisection(mode, max_len, alpha, monkeypatch):
    # search_best's batches bisected with float verdicts steering and with an
    # exact decision at every midpoint: the same c* and winner, from a few of
    # the same exact decisions
    annotations = list(enumerate_annotations(max_len, mode))
    for i in range(0, len(annotations), search._BATCH):
        batch = annotations[i : i + search._BATCH]
        _assert_decides_as_serial(*_bisections(batch, alpha, F(1, 10**6), mode, monkeypatch))


@pytest.mark.parametrize("a", ["100", "10102100", "1110202020"])
def test_best_exponent_decides_as_serial_bisection(a, monkeypatch):
    want, got = _bisections([a], F(1), F(1, 10**7), TS_MODE, monkeypatch)
    _assert_decides_as_serial(want, got)
    assert got[0] is not None


@pytest.mark.parametrize(
    "annotations,alpha,mode",
    [
        (list(enumerate_annotations(5, TS_MODE)), F(1), TS_MODE),
        (list(enumerate_annotations(7, TS_MODE))[:32], F(2, 3), TS_MODE),
        (["10102100"], F(1), TS_MODE),
        (list(enumerate_annotations(6, BPTS_MODE)), F(1), BPTS_MODE),
    ],
)
def test_wrong_float_verdict_falls_back_to_exact_bisection(annotations, alpha, mode, monkeypatch):
    # the winner's float margin flipped at the largest c where the oracle
    # finds it feasible: the steered verdict there is "no", an exact decision
    # contradicts it, and the batch is bisected again with exact verdicts
    tol = F(1, 10**6)
    c_star, winner, last = serial_bisect.bisect_max(annotations, alpha, tol, mode)
    solve_floats, flips = search._solve_floats, []

    def flipped(lps):
        sols = solve_floats(lps)
        for i, lp in enumerate(lps):
            if (lp.template.annotation, lp.table.cc) == (winner, last.c) and sols[i] is not None:
                x, duals = sols[i]
                flips.append(x[_MARGIN])
                x = x.copy()
                x[_MARGIN] *= -1
                sols[i] = x, duals
        return sols

    monkeypatch.setattr(search, "_solve_floats", flipped)
    best, counts = search._bisect_max(annotations, alpha, tol, mode)
    assert best[:2] == (c_star, winner)
    assert flips and min(flips) > search._FLOAT_TOL
    assert counts["fallbacks"] == 1


def test_float_yes_at_hi_keeps_steered_bisection(monkeypatch):
    # every float "no" at hi flipped to "yes": hi is each live annotation's
    # "no" end only until the walk meets a smaller one, and an end left at hi
    # is decided exactly, so no batch falls back to exact verdicts
    annotations, alpha, tol = ["100", "1102020"], F(1), F(1, 10**6)
    hi = (1 + alpha) / alpha
    want = search._bisect_max(annotations, alpha, tol, TS_MODE)[0]
    solve_floats, flips = search._solve_floats, []

    def flipped(lps):
        sols = solve_floats(lps)
        for i, lp in enumerate(lps):
            if lp.table.cc == hi and sols[i] is not None and sols[i][0][_MARGIN] < 0:
                x, duals = sols[i]
                flips.append(lp.template.annotation)
                x = x.copy()
                x[_MARGIN] = 1.0
                sols[i] = x, duals
        return sols

    monkeypatch.setattr(search, "_solve_floats", flipped)
    best, counts = search._bisect_max(annotations, alpha, tol, TS_MODE)
    assert flips
    assert best[:2] == want[:2]
    assert counts["fallbacks"] == 0


def test_search_best_solves_each_predicted_path_at_once(monkeypatch):
    # 22 float solves with one per midpoint
    calls, linprog = [], search.linprog
    monkeypatch.setattr(search, "linprog", lambda *a, **kw: calls.append(1) or linprog(*a, **kw))
    res = search_best(6, F(1))
    assert res.float_solves == len(calls) <= 6


@pytest.mark.parametrize("estimate", [math.inf, -math.inf], ids=["feasible", "infeasible"])
@pytest.mark.parametrize(
    "mode,max_len,alpha,annotation,best_c",
    [
        (TS_MODE, 7, F(1), "1102020", F(13559257, 7898569)),
        (TS_MODE, 7, F(2, 3), "1102020", F(46819881, 20535148)),
        (BPTS_MODE, 6, F(1), "110000", F(673430053, 497653716)),
    ],
)
def test_wrong_predictions_keep_answers(
    estimate, mode, max_len, alpha, annotation, best_c, monkeypatch
):
    # predictions steer only which LPs share a float solve: predicted always
    # feasible or always infeasible, the search makes the same decisions
    want = search_best(max_len, alpha, mode)
    monkeypatch.setattr(search, "_c_star_estimate", lambda margins: estimate)
    res = search_best(max_len, alpha, mode)
    assert (res.annotation, res.best_c, res.decisions) == (annotation, best_c, want.decisions)
    assert res.float_solves > want.float_solves
    rep = verify_proof(res.certificate)
    assert rep.valid and rep.contradiction


@pytest.mark.parametrize(
    "a,alpha,tol,mode",
    [
        ("100", F(1), F(1, 10**6), TS_MODE),
        ("1110202020", F(1), F(1, 10**6), TS_MODE),
        ("1102020", F(2, 3), F(1, 10**7), TS_MODE),
        ("110000", F(1), F(1, 10**6), BPTS_MODE),
    ],
)
def test_true_estimate_predicts_the_whole_path(a, alpha, tol, mode, monkeypatch):
    # estimated at its true c*, an annotation's prediction is its bisection
    # path: one float solve at both ends, then one of every midpoint that the
    # serial oracle decides, in its order
    solves, solve_batch = [], search._solve_batch

    def recorded(pairs, *args):
        solves.append(pairs)
        return solve_batch(pairs, *args)

    monkeypatch.setattr(search, "_solve_batch", recorded)
    c_star = serial_bisect.bisect_max([a], alpha, tol, mode)[0]
    ends, path = solves[:2], [p for level in solves[2:] for p in level]
    solves.clear()
    monkeypatch.setattr(search, "_c_star_estimate", lambda margins: float(c_star))
    best, counts = search._bisect_max([a], alpha, tol, mode)
    assert best[0] == c_star
    assert counts["float_solves"] == len(solves) == 2
    assert solves == [ends[0] + ends[1], path]


@pytest.mark.parametrize(
    "margins,estimate",
    [
        ({}, math.inf),
        ({F(3, 2): 0.2, F(8, 5): 1e-9}, math.inf),
        ({F(3, 2): -0.2, F(8, 5): -0.5}, -math.inf),
        ({F(3, 2): 0.0}, -math.inf),  # a zero margin is a "no"
        ({F(3, 2): 0.2, F(8, 5): -0.2}, 1.55),
        ({F(3, 2): 0.3, F(8, 5): 0.0}, 1.6),
        # only the largest "yes" and the smallest "no" count
        ({F(6, 5): 0.9, F(3, 2): 0.1, F(8, 5): -0.3, F(2): -0.4}, 1.525),
    ],
)
def test_c_star_estimate(margins, estimate):
    assert search._c_star_estimate(margins) == pytest.approx(estimate)


def test_failed_float_solves_keep_search_answer(monkeypatch):
    # with every float solve failing there are no margins to predict from or
    # steer by: every verdict is decided exactly, and every LP decision
    # starts the exact simplex cold
    want = search_best(5, F(1))
    monkeypatch.setattr(search, "linprog", lambda *args, **kwargs: OptimizeResult(status=4))
    starts, crash_start = [], atlb.lp._crash_start
    monkeypatch.setattr(atlb.lp, "_crash_start", lambda lp: starts.append(1) or crash_start(lp))
    decided = _record_decisions(monkeypatch)
    got = search_best(5, F(1))
    assert (got.annotation, got.best_c) == (want.annotation, want.best_c)
    assert got.decisions > want.decisions  # no float verdict steers
    assert {f.method for f in decided} <= {"vertex", "precondition"}
    assert len(starts) >= sum(f.method == "vertex" for f in decided) > 0


def test_search_walks_each_annotation_once_per_batch(walked, monkeypatch):
    # _bisect_max walks each annotation at its first solve in the process
    # and reads the template at every c after: 55 annotations in two
    # batches, ~4 LPs each
    batches, bisect_max = [], search._bisect_max

    def recorded(annotations, *args):
        start = len(walked)
        answer = bisect_max(annotations, *args)
        batches.append((annotations, walked[start:]))
        return answer

    monkeypatch.setattr(search, "_bisect_max", recorded)
    res = search_best(7, F(1))
    assert len(batches) == 2
    for annotations, batch_walks in batches:
        assert len(set(batch_walks)) == len(batch_walks)
        assert set(batch_walks) <= {a for a in annotations if "12" not in a}
    assert len(walked) == atlb.lp._template.cache_info().misses
    assert res.decisions > 2 * len(walked)


def test_scan_walks_each_lp_annotation_once(walked):
    report = optimality_scan(F(1), F(3, 2), 8)
    assert sorted(walked) == sorted(e.annotation for e in report.entries if "12" not in e.annotation)
    assert len(walked) == sum(e.method != "precondition" for e in report.entries)


def test_second_scan_walks_no_template(walked):
    # the templates outlive a call: a scan at another c reads them all
    first = optimality_scan(F(1), F(1517, 1000), 8)
    assert len(walked) == sum(e.method != "precondition" for e in first.entries) > 0
    walked.clear()
    second = optimality_scan(F(1), F(1519, 1000), 8)
    assert walked == [] and second.total == first.total


def test_searches_walk_each_lp_annotation_once(walked):
    # search-bisect's round: four bisections over the same annotations, one
    # walk of each that has an LP, at its first solve
    for alpha in (F(2, 3), F(4, 5), F(9, 10), F(1)):
        search_best(6, alpha)
    assert sorted(walked) == sorted(a for a in enumerate_annotations(6, TS_MODE) if "12" not in a)


def test_template_cache_is_bounded():
    # a finite cache that holds at least a batch's templates, and every one
    # of a length-12 scan
    maxsize = atlb.lp._template.cache_parameters()["maxsize"]
    assert maxsize is not None and maxsize >= search._BATCH
    assert sum("12" not in a for a in enumerate_annotations(12, TS_MODE)) <= maxsize


def test_search_counts_independent_of_workers():
    # 55 annotations: two batches, whose counts add up
    serial = search_best(7, F(1), tol=F(1, 10**4))
    pooled = search_best(7, F(1), tol=F(1, 10**4), workers=2)
    assert (pooled.decisions, pooled.float_solves) == (serial.decisions, serial.float_solves)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["scan-prove", "search-bisect"])
def test_benchmark_answers_match_reference(workload):
    # every input of the workload's domain, run and checked against
    # perfbench/reference.json by the benchmark's own rules: equal totals and
    # feasible sets, no replay failure the reference lacks; for the search
    # the same annotation, best_c within tol, a certificate that verifies
    wl = _load_perfbench("workloads").WORKLOADS[workload]
    reference = json.loads((PERFBENCH / "reference.json").read_text())[wl.name]
    for inputs in wl.domain:
        outcome = wl.check(inputs, wl.run(inputs), None, reference)
        assert outcome.wrong == [], (str(inputs), outcome.wrong)


def test_scan_prove_needs_no_cold_start(monkeypatch):
    # every input of the scan-prove workload is decided without a cold
    # start of the exact simplex, and every feasible verdict replays
    wl = _load_perfbench("workloads").WORKLOADS["scan-prove"]

    def no_cold_start(*args, **kwargs):
        raise AssertionError("exact simplex started cold")

    monkeypatch.setattr(atlb.lp, "_crash_start", no_cold_start)
    for cc in wl.domain:
        report = wl.run(cc)
        assert report.feasible_entries and report.replay_failed == 0, cc


def test_perfbench_tracer_binds_search(monkeypatch):
    # perfbench/tracing.py wraps these functions by attribute name; a missing
    # one breaks the traced benchmark with AttributeError.  It counts one
    # decision per feasible span, and batches solve many in one linprog.  A
    # scan's replays and good_proof_contradicts derive each certificate once,
    # without verify_proof; the one verify_proof span is a direct call.
    tracer = _load_perfbench("tracing").Tracer()
    with tracer.installed():
        report = optimality_scan(F(1), F(7, 5), 5)
        proofs.good_proof_contradicts(F(1), F(3, 2), 2)
        atlb.verify_proof(good_proof(F(1), F(3, 2), 2))
    names = [span[0] for span in tracer.spans]
    assert {"feasible", "linprog", "apply_step", "verify_proof"} <= set(names)
    assert names.count("feasible") == report.total
    assert names.count("linprog") < names.count("feasible")
    assert names.count("verify_proof") == 1
    # the tracer reads replay from feasible's keyword arguments: this scan
    # replays every feasible verdict, and '12' decisions show as
    # precondition
    tracer = _load_perfbench("tracing").Tracer()
    with tracer.installed():
        optimality_scan(F(1), F(8, 5), 8)
    assert tracer.replay_failed == 0
    assert "precondition" in tracer.methods
    # the exact simplex is traced as its own layer: this verdict is the
    # warm start's
    tracer = _load_perfbench("tracing").Tracer()
    with tracer.installed():
        assert feasible("102011000", F(2, 3), F(8, 5)).replay_ok
    assert "simplex" in [span[0] for span in tracer.spans]
    # a replay failure counts: with every float solve failing, four of this
    # scan's witnesses are their vertex's own points, which the rules reject
    monkeypatch.setattr(search, "linprog", lambda *args, **kwargs: OptimizeResult(status=4))
    tracer = _load_perfbench("tracing").Tracer()
    with tracer.installed():
        report = optimality_scan(F(2, 3), F(8, 5), 8)
    assert tracer.replay_failed == report.replay_failed == 4


def test_tracer_restores_lazy_exports():
    # the tracer replaces the entry points on atlb itself, whose search names
    # resolve lazily; on exit each is the search module's own function again
    with _load_perfbench("tracing").Tracer().installed():
        assert atlb.search_best is not search.search_best
    assert atlb.search_best is search.search_best
    assert atlb.optimality_scan is search.optimality_scan
    assert atlb.verify_proof is rules.verify_proof
