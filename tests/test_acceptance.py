"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints one PASS/FAIL line, and
enforces its runtime budget.  Budgets are wall-clock on a single CPU.
"""

import math
import random
import time
from fractions import Fraction

from atlb.analytics import largest_root_cubic, p_alpha, p_alpha_roots, threshold_bounds
from atlb.grover import (
    SearchInstance,
    collapse_exponent,
    random_iteration_success,
    simulate_grover,
    success_probability,
)
from atlb.analytics import Cubic
from atlb.kernel import DET_TS, AltClass, check_orderly
from atlb.rules import slowdown_generic, speedup, speedup_first, squiggle, verify_proof
from atlb.proofs import bpts_grover_proof, bpts_proof, good_proof_best_c, grover_certificate
from atlb.search import best_exponent, feasible, optimality_scan, search_best

F = Fraction


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_constant_reproduction():
    t0 = time.time()
    checks = [
        (largest_root_cubic(p_alpha(F(1))), 2 * math.cos(math.pi / 7)),
        (largest_root_cubic(p_alpha(F(2, 3))), (3 + math.sqrt(3)) / 2),
        (largest_root_cubic(Cubic(1, -1, 0, -1)), 1.4655712319),
    ]
    errs = [abs(got - want) for got, want in checks]
    elapsed = time.time() - t0
    ok = all(e < 1e-9 for e in errs) and elapsed < 1.0
    report(1, ok, f"root errors {['%.1e' % e for e in errs]}, {elapsed:.2f}s")


def test_criterion_2_sigma2_annotation_sqrt2():
    t0 = time.time()
    res = search_best(3, F(1), tol=F(1, 10**7))  # the only annotation is 100
    err = abs(float(res.best_c) - math.sqrt(2))
    rep = verify_proof(res.certificate) if res.certificate is not None else None
    verified = rep is not None and rep.valid and rep.contradiction
    elapsed = time.time() - t0
    ok = err < 1e-6 and verified and elapsed < 5.0
    report(2, ok, f"best_c err {err:.2e}, certificate verified={verified}, {elapsed:.2f}s")


def test_criterion_3_geometric_family_convergence():
    t0 = time.time()
    details = []
    ok = True
    for alpha in (F(1), F(2, 3)):
        r1 = p_alpha_roots(alpha)[0]
        values = []
        for k in range(2, 21):
            c_k = good_proof_best_c(alpha, k, tol=F(1, 10**7))
            # independent scalar oracle for the finite-k constraint:
            # contradiction iff alpha*c^2 - sum tau^i < tau^(k-1)/(alpha*c-1)
            def contradicts(cc, k=k, alpha=alpha):
                if not (alpha * cc > 1 and cc < (1 + alpha) / alpha):
                    return False
                tau = (1 - F(1, k)) / (cc * (alpha * cc - 1))
                s = sum(tau**i for i in range(k))
                return alpha * cc * cc - s < tau ** (k - 1) / (alpha * cc - 1)

            lo, hi = 1 / alpha + F(1, 50), (1 + alpha) / alpha
            while hi - lo > F(1, 10**8):
                mid = (lo + hi) / 2
                if contradicts(mid):
                    lo = mid
                else:
                    hi = mid
            oracle = (lo + hi) / 2
            if abs(float(c_k - oracle)) >= 1e-6:
                ok = False
                details.append(f"alpha={alpha} k={k}: oracle mismatch {float(c_k - oracle):.2e}")
            values.append(c_k)
        increasing = all(b > a for a, b in zip(values, values[1:]))
        bounded = all(float(v) < r1 for v in values)
        # the LP over the same annotation reaches the alpha-root at k=20
        a20 = "1" * 20 + "0" + "20" * 20
        lp_best = best_exponent(a20, alpha, tol=F(1, 10**6))
        near = abs(float(lp_best) - r1) < 0.01
        ok = ok and increasing and bounded and near
        details.append(
            f"alpha={alpha}: constructor k=20 -> {float(values[-1]):.7f}, "
            f"LP k=20 -> {float(lp_best):.7f}, r1={r1:.7f}, "
            f"increasing={increasing}, bounded={bounded}, within 0.01={near}"
        )
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    report(3, ok, "; ".join(details) + f", {elapsed:.1f}s")


def _exact(m):
    return "None" if m is None else f"{m} (~{float(m):.3g})"


def _scan_detail(rep):
    """Feasible count at rep.c and the entry of largest margin: the best
    feasible one (exact margin), else the closest infeasible one (exact upper
    bound on its margin)."""
    n = len(rep.feasible_entries)
    head = f"c={float(rep.c):g} ({rep.c}): {n} feasible"
    best = max(
        (e for e in rep.entries if e.margin is not None),
        key=lambda e: (e.feasible, e.margin),
        default=None,
    )
    if best is None:
        return head
    kind, rel = ("best", "=") if best.feasible else ("closest", "<=")
    return f"{head}, {kind} {best.annotation} margin {rel} {_exact(best.margin)}"


def test_criterion_4_depth12_optimality():
    # Depth 12 = annotation length <= 12.  No such annotation reaches
    # 2cos(pi/7); the best is 111100202020 at c* ~ 1.7638, so the lower scan
    # sits just below it.  c = 1.79 is first reached by the family
    # 1^k 0 (20)^k at k = 6 (length 19), not at k = 5 (length 16).
    t0 = time.time()
    above = optimality_scan(F(1), F(18025, 10000), 12)
    below = optimality_scan(F(1), F(44, 25), 12)
    n_above = len(above.feasible_entries)
    found = [e.annotation for e in below.feasible_entries]
    replayed = all(e.replay_ok for e in below.feasible_entries)
    below_ok = "111100202020" in found and replayed
    c179 = F(179, 100)
    k6 = feasible("1" * 6 + "0" + "20" * 6, F(1), c179)
    k5 = feasible("1" * 5 + "0" + "20" * 5, F(1), c179)
    family_ok = k6.feasible and k6.replay_ok and not k5.feasible
    elapsed = time.time() - t0
    ok = n_above == 0 and below_ok and family_ok and elapsed < 600.0
    report(
        4,
        ok,
        f"{_scan_detail(above)} (want 0); "
        f"{_scan_detail(below)} (want >= 1 incl. 111100202020, all replayed: {replayed}); "
        f"c=1.79: 1^6 0 (20)^6 feasible={k6.feasible} replayed={k6.replay_ok} "
        f"margin = {_exact(k6.margin)} (want feasible, replayed), "
        f"1^5 0 (20)^5 feasible={k5.feasible} margin <= {_exact(k5.margin)} (want infeasible), "
        f"{elapsed:.0f}s",
    )


def test_criterion_5_ratio_bound_boundary():
    t0 = time.time()
    counts = {}
    for alpha in (F(1, 2), F(2, 3), F(1)):
        cc = (1 + alpha) / alpha
        counts[str(alpha)] = len(optimality_scan(alpha, cc, 12).feasible_entries)
    elapsed = time.time() - t0
    ok = all(v == 0 for v in counts.values()) and elapsed < 600.0
    report(5, ok, f"feasible counts at c=(1+alpha)/alpha: {counts}, {elapsed:.0f}s")


def test_criterion_6_root_ordering():
    t0 = time.time()
    ok = True
    for i in range(1, 21):
        alpha = F(i, 20)
        r1, r2, _ = p_alpha_roots(alpha)
        t = threshold_bounds(alpha)
        if not (r2 < t["lower_window"] < r1 < t["ratio_bound"]):
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    report(6, ok, f"20 grid points, {elapsed:.2f}s")


def test_criterion_7_randomized_verifier_bounds():
    t0 = time.time()
    hit_146 = any(
        verify_proof(bpts_proof(k, F(146, 100))).contradiction for k in (50, 100, 200)
    )
    miss_147 = not any(
        verify_proof(bpts_proof(k, F(147, 100))).contradiction
        for k in [*range(1, 51), *range(60, 201, 10)]
    )
    grid = {}
    for cc in (F(14, 10), F(145, 100), F(149, 100), F(15, 10), F(151, 100)):
        grid[str(cc)] = verify_proof(bpts_grover_proof(cc)).contradiction
    grover_ok = all(grid[str(cc)] == (cc < F(3, 2)) for cc in
                    (F(14, 10), F(145, 100), F(149, 100), F(15, 10), F(151, 100)))
    elapsed = time.time() - t0
    ok = hit_146 and miss_147 and grover_ok and elapsed < 10.0
    report(
        7,
        ok,
        f"c=1.46 contradicts={hit_146}, c=1.47 never={miss_147}, "
        f"grover grid ok={grover_ok}, {elapsed:.1f}s",
    )


def test_criterion_8_quantum_search_model():
    t0 = time.time()
    sim_ok = True
    for n in (2, 4, 16, 64, 256):
        for marked in (1, 2, n // 2):
            inst = SearchInstance(n, marked)
            for j in range(10):
                if abs(success_probability(inst, j) - simulate_grover(inst, j)) >= 1e-9:
                    sim_ok = False
    quarter_ok = all(
        random_iteration_success(SearchInstance(n, m)) >= 0.25
        for n in (4, 16, 100, 1024, 10**6)
        for m in (1, 2, max(1, n // 10))
    )
    argmin_ok = all(
        collapse_exponent(3.0, x) >= collapse_exponent(3.0, 2.0) - 1e-12
        for x in [0.2, 0.5, 1.0, 1.5, 1.99, 2.01, 2.5, 2.9]
    )
    elapsed = time.time() - t0
    ok = sim_ok and quarter_ok and argmin_ok and elapsed < 5.0
    report(
        8,
        ok,
        f"simulator match={sim_ok}, >=1/4 lower bound={quarter_ok}, "
        f"argmin 2d/3={argmin_ok}, {elapsed:.1f}s",
    )


def test_criterion_9_soundness_suite():
    t0 = time.time()
    rng = random.Random(20260824)
    applications = 0
    sound = True
    while applications < 10000:
        d = F(rng.randint(20, 2000), rng.randint(1, 20))
        cls = AltClass((), DET_TS, d)
        alpha = F(rng.randint(1, 10), 10)
        cc = F(rng.randint(11, 29), 10)
        for _ in range(rng.randint(2, 12)):
            try:
                if not cls.blocks:
                    x = cls.d * F(rng.randint(1, 9), 10)
                    nxt = speedup_first(cls, x)
                    if not (nxt.d < cls.d and check_orderly(nxt)):
                        sound = False
                elif rng.random() < 0.5 and cls.d > 1:
                    x = cls.d * F(rng.randint(1, 9), 10)
                    nxt = speedup(cls, x)
                    if not (nxt.d < cls.d and check_orderly(nxt)):
                        sound = False
                elif rng.random() < 0.3 and alpha * cc > 1 and cc < (1 + alpha) / alpha:
                    nxt, _, _ = squiggle(cls, alpha, cc)
                    if not (nxt.d <= cls.d and check_orderly(nxt)):
                        sound = False
                else:
                    nxt = slowdown_generic(cls, alpha, cc)
                    if not (nxt.d >= cc * alpha * cls.d and check_orderly(nxt)):
                        sound = False
                cls = nxt
                applications += 1
            except ValueError:
                break
    replays_ok = True
    witnesses = 0
    for alpha, cc in ((F(1), F(14, 10)), (F(1), F(17, 10)), (F(2, 3), F(2))):
        rep = optimality_scan(alpha, cc, 8)
        for entry in rep.feasible_entries:
            witnesses += 1
            if not entry.replay_ok:
                replays_ok = False
    elapsed = time.time() - t0
    ok = sound and replays_ok and applications >= 10000 and elapsed < 120.0
    report(
        9,
        ok,
        f"{applications} rule applications sound={sound}; "
        f"{witnesses} positive-margin witnesses all replayed={replays_ok}, {elapsed:.0f}s",
    )


def test_criterion_10_qma_superquadratic():
    # The QMA headline c < (3+sqrt3)/2 ~ 2.366 is the alpha = 2/3 case: a
    # grover collapse is the slowdown at alpha = 2/3, so the alpha = 2/3
    # proof of 1^3 0 (20)^3 with its slowdowns named grover is an ebqp proof,
    # here at c = 23/10 > 2.  No annotation of length <= 10 reaches
    # 237/100 > (3+sqrt3)/2.
    t0 = time.time()
    cc, c_above = F(23, 10), F(237, 100)
    f = feasible("1110202020", F(2, 3), cc)
    cert = grover_certificate(f.certificate) if f.certificate is not None else None
    rep = verify_proof(cert) if cert is not None else None
    proved = rep is not None and rep.valid and rep.contradiction and cert.assumption == "ebqp"
    above = optimality_scan(F(2, 3), c_above, 10)
    n_above = len(above.feasible_entries)
    limit = (3 + math.sqrt(3)) / 2
    elapsed = time.time() - t0
    ok = proved and cc > 2 and n_above == 0 and c_above > limit and elapsed < 30.0
    report(
        10,
        ok,
        f"1110202020 at alpha=2/3, c={cc}: margin = {_exact(f.margin)}, "
        f"ebqp certificate contradicts={proved}; length <= 10, {above.total} annotations, "
        f"{_scan_detail(above)} (want 0 above (3+sqrt3)/2 = {limit:.6f}), {elapsed:.1f}s",
    )
