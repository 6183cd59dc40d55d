"""Exact application of the inclusion rules and certificate verification.

Every rule is a pure function from an alternating class to a new one, in
exact rationals.  The speedups and the slowdown are written once, in _effect,
whose arithmetic lp._template shares without the constant-1 floors.  One loop
(derive) applies a certificate's steps to its initial class: it assembles
certificates, and the verifier checks every stated line against it and
decides whether the chain shows a contradiction (a return to a class of the
same shape with no larger exponents, using at least one speedup).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .kernel import (
    BP_TS,
    BPTS_MODE,
    DET_TS,
    EXISTS,
    TS_MODE,
    AltClass,
    Block,
    _flip,
    _verifier,
    format_class,
    format_rational,
    parse_class,
    parse_rational,
)

SQUIGGLE_ITERATION_CAP = 10**6

SPEEDUP_RULES = ("speedup_first", "speedup", "speedup_rand")  # the rules that take x
RULE_NAMES = SPEEDUP_RULES + ("slowdown", "grover", "squiggle")
ASSUMPTIONS = ("ntime", "ebqp", "ebp")


class RuleError(ValueError):
    """Rule precondition violated."""


class CertificateError(ValueError):
    """Malformed certificate file."""


def _require(cond: bool, message: str):
    if not cond:
        raise RuleError(message)


def _range_error(alpha, cc=None) -> str | None:
    """The message when alpha lies outside (0, 1] or c (unless None) <= 1."""
    if not 0 < alpha <= 1 or (cc is not None and cc <= 1):
        got = f"alpha={alpha}" + ("" if cc is None else f", c={cc}")
        return f"parameter range 0 < alpha <= 1 < c fails: {got}"


def _check_params(alpha, cc=None, tol=None):
    """Raise ValueError for what no decision accepts: alpha outside (0, 1],
    c <= 1, or tol <= 0 (exact bisection would never end).  Scans and
    searches check once, before enumerating."""
    if message := _range_error(alpha, cc):
        raise ValueError(message)
    if tol is not None and tol <= 0:
        raise ValueError(f"tol must be > 0: tol={tol}")


def _squiggle_window(alpha, cc) -> bool:
    """1/alpha < c < (1+alpha)/alpha: the c at which a squiggle can apply."""
    return alpha * cc > 1 and cc < (1 + alpha) / alpha


class _Exact:
    """_effect's arithmetic in the rules: exact, with the constant-1 floors."""

    zero, one = Fraction(0), Fraction(1)
    sub, scale = operator.sub, operator.mul  # builtins: no self is bound
    precondition = staticmethod(lambda e: _require(e > 0, "unmet"))  # _apply gives the message

    @staticmethod
    def max_of(terms, k=None):  # times k if given: one product, where the LP has a row per term
        return max(terms) if k is None else k * max(terms)


def _effect(rule: str, alg, blocks: list, d, x):
    """A speedup's or the slowdown's effect on a class's (a, b) block pairs
    and d: (new, d'), the pairs that replace the last block, and d'.  It reads
    the last two pairs after the input block E(0,1) (twice, for an empty prefix).
    x is a speedup's 0 < x < d or the slowdown's (c, alpha); alg is _Exact or lp._Template."""
    (_, b_prev), (a0, b0) = ([(alg.zero, alg.one)] * 2 + blocks)[-2:]
    if rule == "slowdown":  # d' = c * max(alpha*d, b_k, a_k, b_{k-1}, 1)
        c, alpha = x
        return [], alg.max_of([alg.scale(alpha, d), b0, a0, b_prev, alg.one], c)
    alg.precondition(x)
    d = alg.sub(d, x)
    alg.precondition(d)
    if rule == "speedup_rand":  # two new blocks after the last one
        return [(a0, b0), (x, alg.max_of([b0, x])), (alg.zero, b0)], d
    # the guess n^x merges into the last block, then a log-width block
    return [(alg.max_of([a0, x]), alg.max_of([b0, x])), (alg.zero, b0)], d


def _apply(c0: AltClass, rule: str, verifier: str, x) -> AltClass:
    """The class rule's _effect leaves; new blocks alternate in kind from the replaced one."""
    try:
        new, d = _effect(rule, _Exact, [(blk.a, blk.b) for blk in c0.blocks[-2:]], c0.d, x)
    except RuleError:  # the message is built only now: str() of a d past 4,300 digits raises
        raise RuleError(f"speedup parameter out of range: 0 < {x} < {c0.d} fails") from None
    kind = c0.blocks[-1].kind if c0.blocks else EXISTS
    new = (Block(kind if i % 2 == 0 else _flip(kind), a, b) for i, (a, b) in enumerate(new))
    return AltClass(c0.blocks[:-1] + tuple(new), verifier, d)


def speedup_first(c0: AltClass, x: Fraction) -> AltClass:
    """First speedup: the usual speedup of a quantifier-free deterministic
    class's input block.  TS[d] -> E(x, max(x,1)) A(0, 1) TS[d - x]."""
    _require(not c0.blocks, "speedup_first needs a quantifier-free class")
    _require(c0.verifier == DET_TS, "speedup_first needs a deterministic verifier")
    return _apply(c0, "speedup_first", DET_TS, Fraction(x))


def speedup(c0: AltClass, x: Fraction) -> AltClass:
    """Usual speedup of a class with at least one quantifier."""
    _require(len(c0.blocks) >= 1, "speedup needs at least one quantifier")
    _require(c0.verifier == DET_TS, "speedup needs a deterministic verifier")
    return _apply(c0, "speedup", DET_TS, Fraction(x))


def speedup_randomized(c0: AltClass, x: Fraction) -> AltClass:
    """Randomized speedup: adds two quantifiers after the last one (the input
    block of a quantifier-free class) and derandomizes the verifier."""
    _require(c0.verifier == BP_TS, "randomized speedup needs a randomized verifier")
    return _apply(c0, "speedup_rand", DET_TS, Fraction(x))


def slowdown_generic(
    c0: AltClass, alpha: Fraction, cc: Fraction, mode: str = TS_MODE
) -> AltClass:
    """Generic slowdown: remove the last quantifier at cost
    d' = cc * max(alpha*d, b_k, a_k, b_{k-1}, 1).  In bpts mode the output
    verifier is randomized (the assumed containment lands in BPTS)."""
    alpha, cc = Fraction(alpha), Fraction(cc)
    _require(len(c0.blocks) >= 1, "slowdown needs at least one quantifier")
    if message := _range_error(alpha, cc):
        raise RuleError(message)
    verifier = _verifier(mode)
    if mode == TS_MODE:
        _require(c0.verifier == DET_TS, "deterministic slowdown needs a deterministic verifier")
    return _apply(c0, "slowdown", verifier, (cc, alpha))


def grover_collapse(c0: AltClass, cc: Fraction) -> AltClass:
    """Grover slowdown (deterministic verifier): remove the last quantifier via
    an internal speedup with x = 2d/3 and quantum search over the appended
    guesses.  d' = cc * max(a_k, b_k, b_{k-1}, 1, 2d/3), which is the generic
    slowdown at alpha = 2/3."""
    return slowdown_generic(c0, Fraction(2, 3), cc)


def grover_round(c0: AltClass, cc: Fraction) -> AltClass:
    """Grover step on a randomized verifier: randomized speedup with x = 2d/3,
    quantum search absorbing the log-width quantifier, then a randomized
    slowdown removing the appended quantifier.  The quantifier list is
    unchanged and d' = cc * max(2d/3, b_k, 1)."""
    cc = Fraction(cc)
    _require(len(c0.blocks) >= 1, "grover step needs at least one quantifier")
    _require(c0.verifier == BP_TS, "grover step needs a randomized verifier")
    _require(cc > 1, f"parameter range c > 1 fails: c={cc}")
    d_new = cc * max(Fraction(2, 3) * c0.d, c0.blocks[-1].b, Fraction(1))
    return AltClass(c0.blocks, BP_TS, d_new)


def squiggle(
    c0: AltClass, alpha: Fraction, cc: Fraction
) -> tuple[AltClass, int, bool]:
    """Squiggle rule, (speedup with x = a_k, generic slowdown) while d strictly
    decreases, in closed form.  Proper iff the guard d < top = q*a_k/(q-1),
    q = alpha*c, holds; an iteration then sets the last block to (a_k,
    max(a_k, b_k)) and d to max(q*(d - a_k), fixed), fixed = c*max(a_k, b_k, 1),
    so top - d grows by the factor q until d lands on fixed, after the least
    n >= 1 with q^n >= (top - fixed)/(top - d); if d <= fixed, or the guard
    fails, the class is unchanged.  Returns (class, iterations, proper)."""
    alpha, cc = Fraction(alpha), Fraction(cc)
    _require(len(c0.blocks) >= 1, "squiggle needs at least one quantifier")
    _require(c0.verifier == DET_TS, "squiggle needs a deterministic verifier")
    _require(
        0 < alpha <= 1 and _squiggle_window(alpha, cc),
        f"parameter range 0 < alpha <= 1, 1/alpha < c < (1+alpha)/alpha fails: alpha={alpha}, c={cc}",
    )
    last = c0.blocks[-1]
    q = alpha * cc
    top = q * last.a / (q - 1)
    if c0.d >= top:  # also when a_k = 0
        return c0, 0, False
    fixed = cc * max(last.a, last.b, Fraction(1))
    if c0.d <= fixed:
        return c0, 0, True
    n = _iterations(q, (top - fixed) / (top - c0.d))
    block = Block(last.kind, last.a, max(last.a, last.b))
    return AltClass(c0.blocks[:-1] + (block,), DET_TS, fixed), n, True


def _iterations(q: Fraction, ratio: Fraction, unit: str = "squiggle iteration") -> int:
    """The least n >= 1 with q^n >= ratio (q, ratio > 1), checked exactly near
    a log estimate; RuntimeError naming the unit counted past the cap, with no
    power of q beyond it."""
    cap = SQUIGGLE_ITERATION_CAP
    estimate = _log(ratio) / _log(q)
    n = cap + 1  # above twice the cap the estimate decides: its error is far below 2x
    if estimate <= 2 * cap:
        n = min(max(1, math.ceil(estimate)), cap + 1)
        below = q ** (n - 1)
        while n > 1 and below >= ratio:  # n too large
            n, below = n - 1, below / q
        while n <= cap and below * q < ratio:  # n too small
            n, below = n + 1, below * q
    if n > cap:
        raise RuntimeError(f"{unit} cap exceeded (cap={cap})")
    return n


def _log(x: Fraction) -> Fraction:
    """log x for x > 1 to about float precision, also where x - 1 over- or underflows."""
    t = x - 1
    if t < Fraction(1, 2**30):
        return t - t * t / 2  # relative error below t^2/3
    if t < 2**1000:
        return Fraction(math.log1p(t))
    return Fraction(math.log(x.numerator) - math.log(x.denominator))


# --- Certificates ----------------------------------------------------------


@dataclass(frozen=True)
class RuleStep:
    rule: str
    x: Fraction | None = None

    def __post_init__(self):
        if self.rule not in RULE_NAMES:
            raise CertificateError(f"unknown rule {self.rule!r}")
        needs_x = self.rule in SPEEDUP_RULES
        if needs_x and self.x is None:
            raise CertificateError(f"rule {self.rule} needs a speedup parameter x")
        if not needs_x and self.x is not None:
            raise CertificateError(f"rule {self.rule} takes no parameter")


@dataclass
class ProofCertificate:
    alpha: Fraction
    c: Fraction
    mode: str
    assumption: str
    classes: list[AltClass]
    steps: list[RuleStep]

    def __post_init__(self):
        if self.mode not in (TS_MODE, BPTS_MODE):
            raise CertificateError(f"unknown mode {self.mode!r}")
        if self.assumption not in ASSUMPTIONS:
            raise CertificateError(f"unknown assumption {self.assumption!r}")
        if len(self.classes) != len(self.steps) + 1:
            raise CertificateError(
                f"{len(self.classes)} classes do not match {len(self.steps)} steps"
            )


@dataclass(frozen=True)
class ProofReport:
    valid: bool
    contradiction: bool
    first_error: tuple[int, str] | None
    final_exponent: Fraction | None
    squiggles: tuple[tuple[int, int, bool], ...] = ()  # (step index, iterations, proper)


def apply_step(
    c0: AltClass, step: RuleStep, alpha: Fraction, cc: Fraction, mode: str
) -> tuple[AltClass, tuple[int, bool] | None]:
    """Apply one certificate step; returns (class, squiggle (iterations, proper))."""
    if step.rule == "speedup_first":
        return speedup_first(c0, step.x), None
    if step.rule == "speedup":
        return speedup(c0, step.x), None
    if step.rule == "speedup_rand":
        return speedup_randomized(c0, step.x), None
    if step.rule == "slowdown":
        return slowdown_generic(c0, alpha, cc, mode), None
    if step.rule == "grover":
        if mode == BPTS_MODE:
            return grover_round(c0, cc), None
        return grover_collapse(c0, cc), None
    if step.rule == "squiggle":
        out, n, proper = squiggle(c0, alpha, cc)
        return out, (n, proper)
    raise CertificateError(f"unknown rule {step.rule!r}")


def expected_assumption(mode: str, uses_grover: bool) -> str:
    if uses_grover:
        return "ebqp"
    return "ntime" if mode == TS_MODE else "ebp"


def _matches_contradiction(first: AltClass, last: AltClass) -> bool:
    if first.verifier != last.verifier or len(first.blocks) != len(last.blocks):
        return False
    for fb, lb in zip(first.blocks, last.blocks):
        if fb.kind != lb.kind or lb.a > fb.a or lb.b > fb.b:
            return False
    return last.d <= first.d


def derive(
    alpha: Fraction, cc: Fraction, mode: str, first: AltClass, steps: list[RuleStep]
) -> tuple[list[AltClass], ProofReport]:
    """The classes the steps derive in turn from the first one, up to the
    first failing step, and the report of that derivation: the one loop over
    a step list, which both assembles and verifies certificates."""
    classes = [first]
    squiggles: list[tuple[int, int, bool]] = []
    for i, step in enumerate(steps, start=1):
        try:
            cur, sq = apply_step(classes[-1], step, alpha, cc, mode)
        except (RuleError, ValueError) as exc:
            error = (i, f"step {i} ({step.rule}): {exc}")
            return classes, ProofReport(False, False, error, None, tuple(squiggles))
        if sq is not None:
            squiggles.append((i, *sq))
        classes.append(cur)
    used_speedup = any(s.rule in SPEEDUP_RULES for s in steps) or any(q[1] for q in squiggles)
    last = classes[-1]
    contradiction = len(steps) >= 2 and used_speedup and _matches_contradiction(first, last)
    return classes, ProofReport(True, contradiction, None, last.d, tuple(squiggles))


def verify_proof(p: ProofCertificate) -> ProofReport:
    """Re-derive every line exactly and decide validity and contradiction.
    The first error is a failing header check (line 0), else the first
    stated class that differs from its derivation or the first failing step."""

    def fail(message: str) -> ProofReport:
        return ProofReport(False, False, (0, message), None)

    if message := _range_error(p.alpha, p.c):
        return fail(message)
    uses_grover = any(s.rule == "grover" for s in p.steps)
    expected = expected_assumption(p.mode, uses_grover)
    if p.assumption != expected:
        return fail(f"assumption {p.assumption!r} inconsistent with mode/rules (expected {expected!r})")
    if p.classes[0].verifier != _verifier(p.mode):
        return fail(f"initial class verifier {p.classes[0].verifier} does not match mode {p.mode}")
    derived, report = derive(p.alpha, p.c, p.mode, p.classes[0], p.steps)
    for i, (stated, cur) in enumerate(zip(p.classes[1:], derived[1:]), start=1):
        if stated != cur:
            squiggles = tuple(q for q in report.squiggles if q[0] <= i)
            message = f"class {i} mismatch: stated {format_class(stated)}, derived {format_class(cur)}"
            return ProofReport(False, False, (i, message), None, squiggles)
    return report


# --- Certificate file format ------------------------------------------------

# An atlb-proof v1 certificate is, one per line (blank lines and surrounding
# whitespace ignored): the line "atlb-proof v1"; the parameter line
# "alpha <rat>   c <rat>   mode <ts|bpts>   assumption <ntime|ebp|ebqp>";
# then "class 0: <class>" and, for i = 1, 2, ..., "step i: <step>" followed by
# "class i: <class>".  A step is "rule" or, for a speedup, "rule x=<rat>".
_MAGIC = "atlb-proof v1"


def format_certificate(p: ProofCertificate) -> str:
    lines = [
        _MAGIC,
        f"alpha {format_rational(p.alpha)}   c {format_rational(p.c)}   "
        f"mode {p.mode}   assumption {p.assumption}",
        f"class 0: {format_class(p.classes[0])}",
    ]
    for i, step in enumerate(p.steps, start=1):
        if step.x is not None:
            lines.append(f"step {i}: {step.rule} x={format_rational(step.x)}")
        else:
            lines.append(f"step {i}: {step.rule}")
        lines.append(f"class {i}: {format_class(p.classes[i])}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> ProofCertificate:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _MAGIC:
        raise CertificateError(f"missing header line {_MAGIC!r}")
    if len(lines) < 3:
        raise CertificateError("truncated certificate")
    tokens = lines[1].split()
    if len(tokens) != 8 or tokens[0::2] != ["alpha", "c", "mode", "assumption"]:
        raise CertificateError(f"bad parameter line: {lines[1]!r}")
    try:
        alpha = parse_rational(tokens[1])
        cc = parse_rational(tokens[3])
    except ValueError as exc:
        raise CertificateError(str(exc)) from exc
    mode, assumption = tokens[5], tokens[7]
    classes: list[AltClass] = []
    steps: list[RuleStep] = []
    for lineno, line in enumerate(lines[2:], start=3):
        i = len(classes)  # the next head is class i after i steps, else step i
        kind = "class" if len(steps) == i else "step"
        head, _, body = line.partition(":")
        words = head.split()
        # the index in ASCII digits, leading zeros allowed ("class 01" is class 1)
        if len(words) != 2 or (words[0], words[1].lstrip("0") or "0") != (kind, str(i)):
            raise CertificateError(f"line {lineno}: expected '{kind} {i}:', got {line!r}")
        parts = body.split() or [""]  # an empty step names no known rule
        try:
            if kind == "class":
                classes.append(parse_class(body))
            elif len(parts) == 2 and parts[1].startswith("x="):
                steps.append(RuleStep(parts[0], parse_rational(parts[1][2:])))
            elif len(parts) == 1:
                steps.append(RuleStep(parts[0]))
            else:
                raise CertificateError(f"bad step syntax {body!r}")
        except ValueError as exc:  # CertificateError is one
            raise CertificateError(f"line {lineno}: {exc}") from exc
    return ProofCertificate(alpha, cc, mode, assumption, classes, steps)

