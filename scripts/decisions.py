"""Print every decision of a fixed sweep, to diff two checkouts' answers.

    PYTHONPATH=src python scripts/decisions.py OUT

writes to OUT, one line each:

- every optimality_scan entry for ts annotations of length <= 9 and bpts
  annotations of length <= 8, at alpha in {1, 2/3, 4/5} and each c in
  {7/5, 3/2, 1517/1000, 8/5, 17/10, 2, 9/4} below (1+alpha)/alpha
  (7,290 decisions): mode, alpha, c, annotation, feasible, margin,
  replay_ok, method; then the count of feasible entries without a
  replayed certificate (replay failed);
- the search_best(8, alpha) answer, ts at alpha in {1, 2/3, 3/4, 4/5, 9/10}
  and bpts at alpha in {1, 2/3, 9/10}: mode, alpha, annotation, best c,
  and whether its certificate verifies to a contradiction;
- best_exponent's bisection (tol 1e-7) of each of the 170 ts annotations
  of length <= 10 without '12' or '22' at alpha = 1: annotation, c*, its
  exact decisions per method, and a sha256 over its ordered (c, verdict)
  exact decisions.  A decision's method may change with the float solve it
  shares with others, its verdict may not, so two trees' bisections can be
  compared verdict by verdict where their method counts differ.  Float
  verdicts steer the bisection and are not recorded: its exact decisions
  are each annotation's "no" where it leaves and the winner's last "yes";
- the named proofs: good_proof_best_c(alpha, k) at alpha in {1, 2/3} and
  k in {2, 5, 10}, and whether bpts_proof(40, c) and bpts_grover_proof(c)
  verify to a contradiction at c in {7/5, 3/2}; and bpts_grover_proof at
  c = 14999/10000, its grover round count and whether it verifies to a
  contradiction;
- the calls to HiGHS (search.linprog), to the exact simplex (simplex.solve)
  and to the rules (apply_step and verify_proof, as bound in atlb.rules and
  atlb.search) of each part; the script's own verify_proof checks of
  certificates are not counted, but the apply_step calls they make are.
  A simplex call is one run of the exact simplex from one start: a warm
  start for each decision that neither float check settles (each "vertex"
  verdict with a float solution) and a cold start for each warm point that
  is no feasible vertex or missing float solution (in the sweep, 106 warm
  starts and no cold one).  A bisection's float solve takes the LPs of the
  path its float margins predict, and its first one takes each annotation
  at both ends of the bracket: the searches make 114 HiGHS calls and the
  bisections 845 (528 and 4,288 at one float solve per midpoint);
- with them, decisions= the decisions (search.feasible calls) of each part,
  so that a second decision of any (annotation, c) shows; walks= the LP
  templates walked (lp._template's cache misses) and lps= the LPs read
  from them (lp._LP) in each part: each (annotation, mode) is walked once
  per process, so a part walks only the annotations with an LP that no
  earlier part walked, and every float solve reads one LP per (annotation,
  c) it takes; and fallbacks= the bisections (search._bisect_max) that an
  exact decision against a steered verdict sent to a second pass with
  every verdict exact;
- a sha256 over the formatted certificates of each part that builds them:
  the sweep's replayed entries, the search winners, and the named proofs
  (the bpts proofs at c in {7/5, 3/2} and good_proof at three (alpha, c, k));
  the proof at c = 14999/10000 is left out, as its numbers pass the
  int-to-str digit limit.  Each certificate is formatted, parsed back
  (rules.parse_certificate) and formatted again before it is hashed, so every
  one passes through the parser; the digest is that of the certificates
  themselves as long as that round trip is the identity.

Run it in a checkout of each tree and diff the two files.  It takes about
11 s on a 2-vCPU Xeon.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from fractions import Fraction

from atlb import lp, proofs, rules, search, simplex
from atlb.kernel import BPTS_MODE, TS_MODE, enumerate_annotations
from atlb.rules import format_certificate, parse_certificate, verify_proof

F = Fraction
ALPHAS = (F(1), F(2, 3), F(4, 5))
CS = (F(7, 5), F(3, 2), F(1517, 1000), F(8, 5), F(17, 10), F(2), F(9, 4))
GOOD_PROOFS = ((F(1), F(3, 2), 2), (F(1), F(17, 10), 5), (F(2, 3), F(2), 3))
SEARCHES = [(TS_MODE, a) for a in (F(1), F(2, 3), F(3, 4), F(4, 5), F(9, 10))] + [
    (BPTS_MODE, a) for a in (F(1), F(2, 3), F(9, 10))
]


def counted(module, name, calls):
    orig = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return orig(*args, **kwargs)

    setattr(module, name, wrapper)


def counted_fallbacks(calls):
    """Add the fallbacks to exact verdicts of every search._bisect_max call
    to calls["fallbacks"]."""
    bisect_max = search._bisect_max

    def wrapper(*args):
        answer, counts = bisect_max(*args)
        calls["fallbacks"] += counts["fallbacks"]
        return answer, counts

    search._bisect_max = wrapper


def main(out_path: str) -> None:
    calls: Counter = Counter()
    counted(search, "feasible", calls)
    counted(search, "linprog", calls)
    counted_fallbacks(calls)
    counted(simplex, "solve", calls)
    counted(lp, "_LP", calls)
    for module in (rules, search):
        counted(module, "apply_step", calls)
        counted(module, "verify_proof", calls)
    lines = []
    certs: list = []
    replay_failed = 0
    walked = 0  # template cache misses before this part

    def part_done(name):
        nonlocal walked
        misses = lp._template.cache_info().misses
        walks, walked = misses - walked, misses
        lines.append(
            f"calls {name}: decisions={calls['feasible']} linprog={calls['linprog']} "
            f"simplex={calls['solve']} apply_step={calls['apply_step']} "
            f"verify_proof={calls['verify_proof']} "
            f"walks={walks} lps={calls['_LP']} fallbacks={calls['fallbacks']}"
        )
        calls.clear()
        if certs:
            texts = (format_certificate(parse_certificate(format_certificate(c))) for c in certs)
            digest = hashlib.sha256("".join(texts).encode()).hexdigest()
            lines.append(f"sha256 {name}: {digest} ({len(certs)} certificates)")
            certs.clear()

    for alpha in ALPHAS:
        for cc in (c for c in CS if c < (1 + alpha) / alpha):
            for mode, max_len in ((TS_MODE, 9), (BPTS_MODE, 8)):
                for e in search.optimality_scan(alpha, cc, max_len, mode).entries:
                    if e.certificate is not None:
                        certs.append(e.certificate)
                    replay_failed += e.feasible and not e.replay_ok
                    lines.append(
                        f"scan {mode} {alpha} {cc} {e.annotation} {e.feasible} {e.margin} "
                        f"{e.replay_ok} {e.method}"
                    )
    lines.append(f"replay failed: {replay_failed}")
    part_done("sweep")

    for mode, alpha in SEARCHES:
        res = search.search_best(8, alpha, mode)
        certs.append(res.certificate)
        rep = verify_proof(res.certificate)
        verifies = "certificate verifies" if rep.valid and rep.contradiction else "CERTIFICATE FAILS"
        lines.append(f"search {mode} {alpha} {res.annotation} {res.best_c} {verifies}")
    part_done("searches")

    decided: list = []
    solo = search.feasible

    def recorded(*args, **kwargs):
        decided.append(solo(*args, **kwargs))
        return decided[-1]

    search.feasible = recorded
    for a in enumerate_annotations(10, TS_MODE):
        if "12" in a or "22" in a:
            continue
        decided.clear()
        best = search._bisect_max([a], F(1), F(1, 10**7), TS_MODE)[0]
        methods = ", ".join(f"{m}={n}" for m, n in sorted(Counter(f.method for f in decided).items()))
        verdicts = hashlib.sha256("".join(f"{f.c} {f.feasible}\n" for f in decided).encode())
        lines.append(f"bisect {a} {None if best is None else best[0]} {methods} {verdicts.hexdigest()}")
    search.feasible = solo
    part_done("bisections")

    for alpha in (F(1), F(2, 3)):
        for k in (2, 5, 10):
            lines.append(f"good_proof_best_c {alpha} {k} {proofs.good_proof_best_c(alpha, k)}")
    for cc in (F(7, 5), F(3, 2)):
        for name, cert in (
            ("bpts_proof(40)", proofs.bpts_proof(40, cc)),
            ("bpts_grover_proof", proofs.bpts_grover_proof(cc)),
        ):
            certs.append(cert)
            lines.append(f"{name} {cc} contradiction={verify_proof(cert).contradiction}")
    certs.extend(proofs.good_proof(alpha, cc, k) for alpha, cc, k in GOOD_PROOFS)
    cert = proofs.bpts_grover_proof(F(14999, 10000))
    rounds = sum(s.rule == "grover" for s in cert.steps)
    contradiction = verify_proof(cert).contradiction
    lines.append(f"bpts_grover_proof 14999/10000 rounds={rounds} contradiction={contradiction}")
    part_done("named proofs")

    with open(out_path, "w") as out:
        out.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: decisions.py OUT")
    main(sys.argv[1])
