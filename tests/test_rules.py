"""Rules: exact rule application, certificates, verification, contradiction."""

import random
import time
from fractions import Fraction

import pytest

from atlb import rules
from atlb.kernel import BP_TS, BPTS_MODE, DET_TS, TS_MODE, AltClass, Block, check_orderly, parse_class
from atlb.proofs import bpts_proof, good_proof
from atlb.rules import (
    CertificateError,
    ProofCertificate,
    RuleError,
    RuleStep,
    format_certificate,
    grover_collapse,
    grover_round,
    parse_certificate,
    slowdown_generic,
    speedup,
    speedup_first,
    speedup_randomized,
    squiggle,
    verify_proof,
)

F = Fraction


class TestSpeedupFirst:
    def test_basic(self):
        out = speedup_first(parse_class("TS d=6"), F(2))
        assert out == parse_class("E(a=2,b=2) A(a=0,b=1) TS d=4")

    def test_small_x_floor(self):
        out = speedup_first(parse_class("TS d=2"), F(1, 2))
        assert out == parse_class("E(a=1/2,b=1) A(a=0,b=1) TS d=3/2")

    def test_requires_quantifier_free(self):
        with pytest.raises(RuleError):
            speedup_first(parse_class("E(a=1,b=1) TS d=4"), F(1))

    def test_x_range(self):
        with pytest.raises(RuleError):
            speedup_first(parse_class("TS d=2"), F(2))
        with pytest.raises(RuleError):
            speedup_first(parse_class("TS d=2"), F(0))

    def test_requires_deterministic_verifier(self):
        with pytest.raises(RuleError):
            speedup_first(parse_class("BPTS d=4"), F(1))


class TestSpeedup:
    def test_merge_and_append(self):
        out = speedup(parse_class("E(a=1,b=1) A(a=0,b=1) TS d=4"), F(2))
        assert out == parse_class("E(a=1,b=1) A(a=2,b=2) E(a=0,b=1) TS d=2")

    def test_single_block(self):
        out = speedup(parse_class("E(a=2,b=2) TS d=3"), F(1))
        assert out == parse_class("E(a=2,b=2) A(a=0,b=2) TS d=2")

    def test_x_equals_d_rejected(self):
        with pytest.raises(RuleError):
            speedup(parse_class("E(a=1,b=1) TS d=1"), F(1))


class TestSpeedupRandomized:
    def test_base_case(self):
        out = speedup_randomized(parse_class("BPTS d=3"), F(2))
        assert out == parse_class("E(a=0,b=1) A(a=2,b=2) E(a=0,b=1) TS d=1")

    def test_appends_two_blocks(self):
        out = speedup_randomized(parse_class("E(a=1,b=1) BPTS d=4"), F(2))
        assert out == parse_class("E(a=1,b=1) A(a=2,b=2) E(a=0,b=1) TS d=2")

    def test_x_range(self):
        with pytest.raises(RuleError):
            speedup_randomized(parse_class("BPTS d=1"), F(1))

    def test_requires_randomized_verifier(self):
        with pytest.raises(RuleError):
            speedup_randomized(parse_class("TS d=3"), F(1))


class TestSpeedupRange:
    # d has more digits than str() converts; the range message is built only
    # when the check fails
    BIG_D = F(10**4400 + 1, 10**4399)

    @pytest.mark.parametrize(
        "rule, mode, first",
        [
            ("speedup", TS_MODE, AltClass((Block("E", F(1), F(1)),), DET_TS, BIG_D)),
            ("speedup_first", TS_MODE, AltClass((), DET_TS, BIG_D)),
            ("speedup_rand", BPTS_MODE, AltClass((), BP_TS, BIG_D)),
        ],
    )
    def test_valid_on_a_long_exponent(self, rule, mode, first):
        classes, report = rules.derive(F(1), F(3, 2), mode, first, [RuleStep(rule, F(1))])
        assert report.valid, report.first_error
        assert classes[-1].d == self.BIG_D - 1

    @pytest.mark.parametrize(
        "rule, first",
        [(speedup, "E(a=1,b=1) TS d=2"), (speedup_first, "TS d=2"), (speedup_randomized, "BPTS d=2")],
    )
    def test_failed_check_reports_the_range(self, rule, first):
        with pytest.raises(RuleError, match="out of range: 0 < 3 < 2 fails"):
            rule(parse_class(first), F(3))


class TestSlowdownGeneric:
    def test_formula(self):
        out = slowdown_generic(parse_class("E(a=1,b=1) A(a=0,b=1) TS d=3"), F(2, 3), F(2))
        assert out == parse_class("E(a=1,b=1) TS d=4")

    def test_alpha_one_last_block(self):
        out = slowdown_generic(parse_class("E(a=2,b=2) TS d=3"), F(1), F(3, 2))
        assert out.blocks == ()
        assert out.d == F(9, 2)

    def test_bpts_mode_randomizes_verifier(self):
        out = slowdown_generic(parse_class("E(a=1,b=1) A(a=2,b=2) TS d=4"), F(1), F(2), BPTS_MODE)
        assert out.verifier == BP_TS
        assert out.d == 8

    def test_needs_quantifier(self):
        with pytest.raises(RuleError):
            slowdown_generic(parse_class("TS d=2"), F(1), F(2))

    def test_unknown_mode_raises(self):
        # not read as ts, whose verifier check it would skip on a BPTS class
        with pytest.raises(ValueError, match="^unknown mode 'xx'$") as exc:
            slowdown_generic(parse_class("E(a=1,b=1) BPTS d=4"), F(1), F(3, 2), "xx")
        assert exc.type is ValueError

    def test_parameter_range(self):
        with pytest.raises(RuleError):
            slowdown_generic(parse_class("E(a=1,b=1) TS d=2"), F(1), F(1))
        with pytest.raises(RuleError):
            slowdown_generic(parse_class("E(a=1,b=1) TS d=2"), F(2), F(2))


class TestBlockKinds:
    # each rule's new blocks alternate in kind from the class's first block,
    # which may be A as well as E; slowdowns at alpha = 2/3, c = 3/2
    @pytest.mark.parametrize(
        "step, mode, first, last",
        [
            ("speedup 2", TS_MODE, "A(a=1,b=2) E(a=0,b=1) TS d=5", "A(a=1,b=2) E(a=2,b=2) A(a=0,b=1) TS d=3"),
            ("speedup 1", TS_MODE, "A(a=1,b=2) TS d=5", "A(a=1,b=2) E(a=0,b=2) TS d=4"),
            ("speedup 2", TS_MODE, "E(a=1,b=2) A(a=0,b=1) TS d=5", "E(a=1,b=2) A(a=2,b=2) E(a=0,b=1) TS d=3"),
            ("speedup_rand 2", BPTS_MODE, "A(a=1,b=2) BPTS d=5", "A(a=1,b=2) E(a=2,b=2) A(a=0,b=2) TS d=3"),
            ("speedup_rand 3", BPTS_MODE, "E(a=1,b=2) BPTS d=5", "E(a=1,b=2) A(a=3,b=3) E(a=0,b=2) TS d=2"),
            (
                "speedup_rand 1",
                BPTS_MODE,
                "A(a=1,b=2) E(a=0,b=3) BPTS d=5",
                "A(a=1,b=2) E(a=0,b=3) A(a=1,b=3) E(a=0,b=3) TS d=4",
            ),
            ("slowdown", TS_MODE, "A(a=1,b=2) E(a=0,b=1) TS d=5", "A(a=1,b=2) TS d=5"),
            ("slowdown", TS_MODE, "A(a=1,b=2) TS d=5", "TS d=5"),
            ("slowdown", TS_MODE, "E(a=1,b=2) A(a=0,b=3) TS d=1", "E(a=1,b=2) TS d=9/2"),
            ("slowdown", BPTS_MODE, "A(a=1,b=2) E(a=0,b=3) TS d=1", "A(a=1,b=2) BPTS d=9/2"),
        ],
    )
    def test_kinds_alternate_from_the_first_block(self, step, mode, first, last):
        rule, *x = step.split()
        out, _ = rules.apply_step(parse_class(first), RuleStep(rule, *map(F, x)), F(2, 3), F(3, 2), mode)
        assert out == parse_class(last)


class TestGroverCollapse:
    def test_two_thirds_term_binds(self):
        out = grover_collapse(parse_class("E(a=1,b=1) A(a=1,b=1) TS d=3"), F(2))
        assert out == parse_class("E(a=1,b=1) TS d=4")

    def test_floor_binds(self):
        out = grover_collapse(parse_class("E(a=1,b=1) TS d=3/2"), F(2))
        assert out == parse_class("TS d=2")

    def test_never_worse_than_alpha_two_thirds_slowdown(self):
        rng = random.Random(7)
        for _ in range(300):
            k = rng.randrange(1, 4)
            blocks = []
            kind = "E" if rng.random() < 0.5 else "A"
            for _ in range(k):
                a = F(rng.randrange(0, 8), rng.randrange(1, 4))
                b = a + F(rng.randrange(0, 8), rng.randrange(1, 4)) + 1
                blocks.append(Block(kind, a, b))
                kind = "A" if kind == "E" else "E"
            c0 = AltClass(tuple(blocks), DET_TS, F(rng.randrange(1, 40), rng.randrange(1, 4)))
            cc = F(rng.randrange(11, 40), 10)
            # the grover collapse is the slowdown at alpha = 2/3, class for class
            assert grover_collapse(c0, cc) == slowdown_generic(c0, F(2, 3), cc)


class TestGroverRound:
    def test_contracts_d(self):
        c0 = parse_class("E(a=0,b=1) BPTS d=9")
        out = grover_round(c0, F(13, 10))
        assert out.blocks == c0.blocks
        assert out.d == F(13, 10) * 6

    def test_last_block_b_above_two_thirds_d(self):
        out = grover_round(parse_class("E(a=0,b=10) BPTS d=3"), F(3, 2))
        assert out.d == 15  # c * b_k, above c * 2d/3 = 3

    def test_requires_randomized_verifier(self):
        with pytest.raises(RuleError):
            grover_round(parse_class("E(a=1,b=1) TS d=9"), F(13, 10))


class TestSquiggle:
    def test_one_iteration(self):
        out, n, proper = squiggle(parse_class("A(a=0,b=1) E(a=1,b=1) TS d=2"), F(1), F(3, 2))
        assert proper and n == 1
        assert out.d == F(3, 2)
        assert out.blocks == parse_class("A(a=0,b=1) E(a=1,b=1) TS d=2").blocks

    def test_guard_fails_returns_unchanged(self):
        c0 = parse_class("A(a=0,b=1) E(a=1,b=1) TS d=4")
        out, n, proper = squiggle(c0, F(1), F(3, 2))
        assert (out, n, proper) == (c0, 0, False)

    def test_fixed_point_zero_iterations(self):
        c0 = parse_class("A(a=0,b=3/2) E(a=1,b=1) TS d=3/2")
        out, n, proper = squiggle(c0, F(1), F(3, 2))
        assert proper and n == 0 and out.d == F(3, 2)

    def test_parameter_window(self):
        c0 = parse_class("E(a=1,b=1) TS d=2")
        with pytest.raises(RuleError):
            squiggle(c0, F(1), F(2))  # c = (1+alpha)/alpha excluded
        with pytest.raises(RuleError):
            squiggle(c0, F(1, 2), F(3, 2))  # alpha*c <= 1

    def test_zero_guess_length_improper(self):
        c0 = parse_class("E(a=0,b=1) TS d=2")
        out, n, proper = squiggle(c0, F(1), F(3, 2))
        assert (out, n, proper) == (c0, 0, False)

    def test_idempotent(self):
        c0 = parse_class("A(a=0,b=1) E(a=1,b=1) TS d=2")
        once, n1, _ = squiggle(c0, F(1), F(3, 2))
        twice, n2, proper2 = squiggle(once, F(1), F(3, 2))
        assert twice == once and n2 == 0

    @pytest.mark.parametrize("d", ["7/4", "5"], ids=["no-iteration", "iteration"])
    def test_alpha_above_one_raises(self, d):
        # alpha*c > 1 and c < (1+alpha)/alpha hold, alpha <= 1 does not; at
        # d = 7/4 the class is at its fixed point, at d = 5 an iteration runs
        with pytest.raises(RuleError, match="alpha <= 1"):
            squiggle(parse_class(f"E(a=3,b=4) TS d={d}"), F(25, 11), F(26, 25))

    def test_long_squiggle_in_closed_form(self):
        # alpha = 1, c = 1001/1000: the guard's bound is 1001, the fixed point c
        cc = F(1001, 1000)
        c0 = parse_class("E(a=1,b=1) TS d=1000999/1000")
        start = time.perf_counter()
        out, n, proper = squiggle(c0, F(1), cc)
        assert time.perf_counter() - start < 1
        assert (n, proper) == (13823, True)
        assert out == parse_class("E(a=1,b=1) TS d=1001/1000")
        ratio = (1001 - cc) / (1001 - c0.d)  # the least n with c^n >= ratio
        assert cc ** (n - 1) < ratio <= cc**n

    def test_counts_where_c_minus_one_is_below_floats(self):
        # alpha = 1, c - 1 = 1e-400; d is 3 iterations above the fixed point c
        cc = 1 + F(1, 10**400)
        top = cc / (cc - 1)
        d = top - (top - cc) / cc**3
        out, n, proper = squiggle(AltClass((Block("E", 1, 1),), DET_TS, d), F(1), cc)
        assert (out.d, n, proper) == (cc, 3, True)

    def test_counts_where_the_ratio_is_above_floats(self):
        # alpha = 1, c = 3/2: the guard's bound is 3, (top - fixed)/(top - d) = 1.5e400
        cc, d = F(3, 2), 3 - F(1, 10**400)
        out, n, proper = squiggle(AltClass((Block("E", 1, 1),), DET_TS, d), F(1), cc)
        ratio = (3 - cc) / (3 - d)
        assert proper and out.d == cc
        assert cc ** (n - 1) < ratio <= cc**n

    def test_iteration_cap(self, monkeypatch):
        c0 = parse_class("E(a=1,b=1) TS d=1000999/1000")
        monkeypatch.setattr(rules, "SQUIGGLE_ITERATION_CAP", 13823)
        assert squiggle(c0, F(1), F(1001, 1000))[1] == 13823
        monkeypatch.setattr(rules, "SQUIGGLE_ITERATION_CAP", 13822)
        with pytest.raises(RuntimeError, match="cap"):
            squiggle(c0, F(1), F(1001, 1000))


# A squiggle of 3,790 iterations, then one at its fixed point.
LONG_SQUIGGLES = """atlb-proof v1
alpha 1   c 301/300   mode ts   assumption ntime
class 0: E(a=1,b=1) TS d=300999/1000
step 1: squiggle
class 1: E(a=1,b=1) TS d=301/300
step 2: squiggle
class 2: E(a=1,b=1) TS d=301/300
"""


class TestSquiggleChains:
    def test_iterating_squiggle_counts_as_speedup(self):
        report = verify_proof(parse_certificate(LONG_SQUIGGLES))
        assert report.valid and report.contradiction
        assert report.squiggles == ((1, 3790, True), (2, 0, True))

    def test_squiggles_at_fixed_point_show_no_contradiction(self):
        c0 = parse_class("A(a=0,b=3/2) E(a=1,b=1) TS d=3/2")
        steps = [RuleStep("squiggle")] * 2
        cert = ProofCertificate(F(1), F(3, 2), TS_MODE, "ntime", [c0, c0, c0], steps)
        report = verify_proof(cert)
        assert report.valid and not report.contradiction
        assert report.squiggles == ((1, 0, True), (2, 0, True))


def lipton_viglas_certificate(cc: Fraction) -> ProofCertificate:
    """Two slowdowns then a speedup, rooted at a Sigma_2 class: shows a
    contradiction exactly when cc^2 < 2."""
    start = AltClass((Block("E", 2, 2), Block("A", 2, 2)), DET_TS, F(2))
    steps = [RuleStep("slowdown"), RuleStep("slowdown"), RuleStep("speedup_first", cc * cc)]
    classes = [start]
    cur = start
    cur = slowdown_generic(cur, F(1), cc)
    classes.append(cur)
    cur = slowdown_generic(cur, F(1), cc)
    classes.append(cur)
    cur = speedup_first(cur, cc * cc)
    classes.append(cur)
    return ProofCertificate(F(1), cc, TS_MODE, "ntime", classes, steps)


class TestVerifyProof:
    def test_lipton_viglas_contradiction(self):
        report = verify_proof(lipton_viglas_certificate(F(7, 5)))
        assert report.valid and report.contradiction

    def test_lipton_viglas_no_contradiction_above_sqrt2(self):
        report = verify_proof(lipton_viglas_certificate(F(3, 2)))
        assert report.valid and not report.contradiction

    def test_class_mismatch_names_line(self):
        cert = lipton_viglas_certificate(F(7, 5))
        cert.classes[2] = AltClass(cert.classes[2].blocks, DET_TS, cert.classes[2].d + 1)
        report = verify_proof(cert)
        assert not report.valid
        assert report.first_error[0] == 2
        assert "mismatch" in report.first_error[1]

    def test_wrong_assumption_rejected(self):
        cert = lipton_viglas_certificate(F(7, 5))
        cert.assumption = "ebp"
        report = verify_proof(cert)
        assert not report.valid

    def test_contradiction_needs_speedup(self):
        start = parse_class("E(a=1,b=1) TS d=10")
        mid = slowdown_generic(start, F(1), F(3, 2))
        back = AltClass((Block("E", 1, 1),), DET_TS, F(3, 2))
        # fabricate a chain with no speedup: slowdown then a bogus line
        cert = ProofCertificate(
            F(1), F(3, 2), TS_MODE, "ntime", [start, mid], [RuleStep("slowdown")]
        )
        report = verify_proof(cert)
        assert report.valid and not report.contradiction
        assert back.d <= start.d  # the shape alone would have matched

    # the last class matches the first when it has the same verifier and
    # block kinds, and each of its a, b and d is at most the first's
    @pytest.mark.parametrize(
        "last, matches",
        [
            ("A(a=1,b=2) E(a=1,b=1) TS d=3/2", True),
            ("A(a=1/2,b=1) E(a=0,b=1) TS d=2", True),
            ("A(a=2,b=2) E(a=1,b=1) TS d=3/2", False),
            ("A(a=1,b=2) E(a=1,b=2) TS d=3/2", False),
            ("A(a=1,b=2) E(a=1,b=1) BPTS d=3/2", False),
            ("A(a=1,b=2) E(a=1,b=1) TS d=3", False),
            ("E(a=1,b=2) A(a=1,b=1) TS d=3/2", False),
            ("E(a=1,b=1) TS d=3/2", False),
        ],
        ids=["smaller-d", "smaller-a-b", "larger-a", "larger-b", "verifier", "larger-d", "kind", "blocks"],
    )
    def test_contradiction_shape(self, last, matches):
        first = parse_class("A(a=1,b=2) E(a=1,b=1) TS d=2")
        assert rules._matches_contradiction(first, parse_class(last)) is matches

    def test_squiggle_report(self):
        c0 = parse_class("A(a=0,b=1) E(a=1,b=1) TS d=2")
        out, _, _ = squiggle(c0, F(1), F(3, 2))
        cert = ProofCertificate(
            F(1), F(3, 2), TS_MODE, "ntime", [c0, out], [RuleStep("squiggle")]
        )
        report = verify_proof(cert)
        assert report.valid
        assert report.squiggles == ((1, 1, True),)


class TestCertificateFormat:
    def test_round_trip(self):
        cert = lipton_viglas_certificate(F(7, 5))
        text = format_certificate(cert)
        back = parse_certificate(text)
        assert back == cert
        assert verify_proof(back).contradiction

    @pytest.mark.parametrize(
        "cert", [good_proof(F(1), F(3, 2), 2), bpts_proof(3, F(7, 5))], ids=["good_proof", "bpts_proof"]
    )
    def test_every_line_edit_is_rejected(self, cert):
        """A formatted certificate parses back to itself, and deleting,
        duplicating or swapping with the next line any one of its lines breaks
        the one sequence of heads: CertificateError, and never another error."""
        text = format_certificate(cert)
        assert parse_certificate(text) == cert
        lines = text.splitlines()
        n = len(lines)
        edits = [lines[:i] + lines[i + 1 :] for i in range(n)]
        edits += [lines[: i + 1] + lines[i:] for i in range(n)]
        edits += [lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2 :] for i in range(n - 1)]
        for edited in edits:
            with pytest.raises(CertificateError):
                parse_certificate("\n".join(edited) + "\n")

    def test_header_required(self):
        with pytest.raises(CertificateError, match="header"):
            parse_certificate("alpha 1 c 2\n")

    def test_edited_parameter_detected(self):
        text = format_certificate(lipton_viglas_certificate(F(7, 5)))
        edited = text.replace("c 7/5", "c 2")
        report = verify_proof(parse_certificate(edited))
        assert not report.valid  # re-derived classes no longer match

    def test_step_order_enforced(self):
        with pytest.raises(CertificateError):
            parse_certificate(
                "atlb-proof v1\n"
                "alpha 1   c 3/2   mode ts   assumption ntime\n"
                "class 0: TS d=2\n"
                "step 2: slowdown\n"
            )

    def test_step_parameter_rules(self):
        with pytest.raises(CertificateError):
            RuleStep("slowdown", F(1))
        with pytest.raises(CertificateError):
            RuleStep("speedup")
        with pytest.raises(CertificateError):
            RuleStep("unknown_rule")


class TestOrderlinessPreservation:
    def test_rules_preserve_orderliness(self):
        rng = random.Random(11)
        for _ in range(200):
            cur = AltClass((), DET_TS, F(rng.randrange(6, 30)))
            for _ in range(rng.randrange(2, 8)):
                assert check_orderly(cur)
                choices = []
                if not cur.blocks:
                    choices = ["first"]
                else:
                    choices = ["speedup", "slow", "grover", "squiggle"]
                op = rng.choice(choices)
                x = F(rng.randrange(1, max(2, int(cur.d))), 2)
                try:
                    if op == "first":
                        cur = speedup_first(cur, x)
                    elif op == "speedup":
                        cur = speedup(cur, x)
                    elif op == "slow":
                        cur = slowdown_generic(cur, F(2, 3), F(3, 2))
                    elif op == "grover":
                        cur = grover_collapse(cur, F(3, 2))
                    else:
                        cur, _, _ = squiggle(cur, F(2, 3), F(2))
                except RuleError:
                    continue
            assert check_orderly(cur)
