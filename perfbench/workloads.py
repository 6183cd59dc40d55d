"""The two workloads: how a seed becomes inputs, the timed library calls,
and the output checks against perfbench/reference.json.

Every workload calls atlb's public entry points serially in one process,
through module attributes (``atlb.search.optimality_scan``, ...), so that the
traced run can wrap them.  A workload is a ``domain`` (the inputs of one round
each; a run cycles through them in a seeded order), a ``run`` (the timed
library calls) and a ``check`` (done after the round, outside the timed
window).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from atlb import rules, search

# A round takes about 1 s, so that a run holds about fifty.  A run cycles
# through its workload's domain in a seeded order, so every input appears
# about equally often, and the domain keeps the cost of one round nearly
# independent of the input: exact-arithmetic cost depends on the reduced
# denominator of c, so c has denominator exactly 1000; scan-prove's c stays
# above c = 1.512, below which three times as many verdicts fall to the
# exact simplex; alpha = 3/4 needs four times the exact simplex solves of
# the others.
PROVE_MAX_LEN = 8
PROVE_C = [Fraction(n, 1000) for n in range(1513, 1522) if n % 2 and n % 5]
BISECT_MAX_LEN = 6
BISECT_ALPHA = [Fraction(2, 3), Fraction(4, 5), Fraction(9, 10), Fraction(1)]
BISECT_TOL = Fraction(1, 10**6)  # search_best's default tol


@dataclass
class Outcome:
    """Result of checking one round: operations attempted and failed, and
    the outputs that disagree with the seed-commit reference (``wrong``).

    A replay failure the reference also records counts as failed but not
    wrong; fixing it later keeps the run correct."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)

    def add(self, ok: bool, problem: str | None = None):
        self.attempted += 1
        if not ok:
            self.failed += 1
        if problem is not None:
            self.wrong.append(problem)


def ref_key(value: Fraction) -> str:
    return str(value)


# --- scan-prove ---------------------------------------------------------------


def scan_run(cc):
    return search.optimality_scan(Fraction(1), cc, PROVE_MAX_LEN)


def scan_check(cc, report, error, ref) -> Outcome:
    """One operation per annotation verdict."""
    ref = ref[ref_key(cc)]
    out = Outcome()
    if error is not None:
        out.attempted = out.failed = ref["total"]
        out.wrong.append(f"scan raised {error}")
        return out
    if report.total != ref["total"]:
        out.wrong.append(f"{report.total} annotations scanned, reference {ref['total']}")
    feasible_ref = set(ref["feasible"])
    replay_failed_ref = set(ref["replay_failed"])
    for e in report.entries:
        if e.feasible != (e.annotation in feasible_ref):
            out.add(False, f"{e.annotation}: feasible={e.feasible} differs from reference")
        elif e.feasible and not e.replay_ok:
            known = e.annotation in replay_failed_ref
            out.add(False, None if known else f"{e.annotation}: new replay failure")
        else:
            out.add(True)
    return out


# --- search-bisect ------------------------------------------------------------


def bisect_run(alpha):
    return search.search_best(BISECT_MAX_LEN, alpha)


def bisect_check(alpha, res, error, ref) -> Outcome:
    """One operation: the search answer."""
    out = Outcome()
    want = ref[ref_key(alpha)]
    if error is not None:
        out.add(False, f"search_best raised {error}")
    elif res is None:
        out.add(False, "search_best found nothing")
    elif res.annotation != want["annotation"]:
        out.add(False, f"annotation {res.annotation}, reference {want['annotation']}")
    elif abs(res.best_c - Fraction(want["best_c"])) > BISECT_TOL:
        out.add(False, f"best_c {res.best_c} not within tol of {want['best_c']}")
    else:
        rep = rules.verify_proof(res.certificate) if res.certificate is not None else None
        ok = rep is not None and rep.valid and rep.contradiction
        out.add(ok, None if ok else "returned certificate does not verify to a contradiction")
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    domain: list  # the inputs of one round each
    run: Callable  # (inputs) -> result; the timed library calls
    check: Callable  # (inputs, result, error, reference) -> Outcome

    def rounds(self, rng: random.Random):
        """Inputs of successive rounds: the domain in a seeded order, repeated."""
        order = rng.sample(self.domain, len(self.domain))
        while True:
            yield from order


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-prove", PROVE_C, scan_run, scan_check),
        Workload("search-bisect", BISECT_ALPHA, bisect_run, bisect_check),
    )
}
