"""Certificate assembly and the named proof constructors.

Every certificate is assembled by _run_steps, in one derivation
(rules.derive) whose report is the one verify_proof gives.  The named
constructors (good_proof, bpts_proof) are annotation certificates of fixed
annotations with geometric speedup parameters; every bisection runs in
analytics._bisect.  There is one slowdown model: a ts-mode Grover proof is
an alpha = 2/3 proof with its slowdowns named grover (grover_certificate).
Neither numpy nor scipy is imported, so a "yes" rests on this module, the
rules and the kernel alone.
"""

from __future__ import annotations

from fractions import Fraction

from .analytics import _bisect, largest_root_cubic, p_alpha
from .kernel import BPTS_MODE, TS_MODE, AltClass, _rule_names, _verifier
from .rules import (
    SPEEDUP_RULES,
    ProofCertificate,
    ProofReport,
    RuleError,
    RuleStep,
    _check_params,
    _iterations,
    _squiggle_window,
    derive,
    expected_assumption,
)


def annotation_certificate(
    a: str, alpha: Fraction, cc: Fraction, mode: str, xs: list[Fraction], d0: Fraction
) -> ProofCertificate:
    """Apply the annotation's rules at concrete scale d0 with the given
    speedup parameters (one per '1')."""
    return _run_steps(alpha, cc, mode, d0, _annotation_steps(a, mode, xs))[0]


def _annotation_steps(a: str, mode: str, xs: list[Fraction]) -> list[RuleStep]:
    """The annotation's rule steps, the speedups taking xs in turn."""
    xs = iter(xs)
    return [RuleStep(r, next(xs) if r in SPEEDUP_RULES else None) for r in _rule_names(a, mode)]


def _run_steps(alpha, cc, mode, d0, steps) -> tuple[ProofCertificate, ProofReport]:
    """The certificate of the steps applied from the empty class at d0, and
    the report of that one derivation: verify_proof's when 0 < alpha <= 1 < c.
    RuleError names the first failing step."""
    first = AltClass((), _verifier(mode), Fraction(d0))
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


# --- Named proof constructors ----------------------------------------------


def _geometric_proof(k: int, a: str, alpha, cc, mode: str, d, slack, base, error: str | None):
    """The certificate of the annotation a, whose k speedups come first, and
    the report of its one derivation, with x_i = r^(i-1) * d/scale and
    r = (1-1/k)/(c*slack).  ValueError if k < 1, then with error if given.

    scale is base when the speedups fit into d, otherwise just large enough
    that they do (a contradiction then holds a fortiori); d (100 if None) is
    raised to the least d from which every x_i is at least 2, above the
    constant floors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if error:
        raise ValueError(error)
    r = (1 - Fraction(1, k)) / (cc * slack)
    s = sum(r**i for i in range(k))
    scale = base if s < base else s + r ** (k - 1) / (2 * slack)
    least_d = 2 * scale / min(Fraction(1), r) ** (k - 1)
    d = max(Fraction(d) if d is not None else Fraction(100), least_d)
    xs = [d / scale * r**i for i in range(k)]
    return _run_steps(alpha, cc, mode, d, _annotation_steps(a, mode, xs))


def _good_proof(alpha, cc, k: int, d) -> tuple[ProofCertificate, ProofReport]:
    """good_proof's certificate and the report of its one derivation."""
    alpha, cc = Fraction(alpha), Fraction(cc)
    error = None
    if not _squiggle_window(alpha, cc):
        error = f"need 1/alpha < c < (1+alpha)/alpha for the squiggle rule: alpha={alpha}, c={cc}"
    a = "1" * k + "0" + "20" * k
    return _geometric_proof(k, a, alpha, cc, TS_MODE, d, alpha * cc - 1, alpha * cc * cc, error)


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
    proper contradiction, by bisection from c = max(1, 1/alpha) + 1/1000,
    where it must hold, to hi = (1+alpha)/alpha."""
    alpha, tol = Fraction(alpha), Fraction(tol)
    _check_params(alpha, tol=tol)
    if k < 1:
        raise ValueError("k must be >= 1")
    lo = max(Fraction(1), 1 / alpha) + Fraction(1, 1000)
    if not good_proof_contradicts(alpha, lo, k):
        raise RuntimeError(f"no contradicting c found for alpha={alpha}, k={k}")
    return _bisect(lambda c: good_proof_contradicts(alpha, c, k), lo, (1 + alpha) / alpha, tol)


def good_proof_limit(alpha: Fraction) -> float:
    """k -> infinity limit of the Good-proof bound: largest root of P_alpha."""
    return largest_root_cubic(p_alpha(Fraction(alpha)))


def bpts_proof(k: int, cc: Fraction, d: Fraction | None = None) -> ProofCertificate:
    """Certificate for the bpts annotation 1^k 0^(k+2) with geometric
    parameters x_i = ((1-eps)/c)^(i-1) * x_1, eps = 1/k.

    x_1 is d/c^3 when the speedups fit into d, otherwise scaled down just
    enough; d is auto-scaled above the constant floors."""
    cc = Fraction(cc)
    error = None if cc > 1 else f"need c > 1: c={cc}"
    a = "1" * k + "0" * (k + 2)
    return _geometric_proof(k, a, Fraction(1), cc, BPTS_MODE, d, 1, cc**3, error)[0]


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
