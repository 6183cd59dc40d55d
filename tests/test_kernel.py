"""Kernel: class grammar, annotation heights, enumeration."""

from fractions import Fraction

import pytest

from atlb.kernel import (
    _rule_names,
    BP_TS,
    BPTS_MODE,
    DET_TS,
    EXISTS,
    FORALL,
    TS_MODE,
    AltClass,
    Block,
    ClassError,
    check_orderly,
    enumerate_annotations,
    format_class,
    parse_class,
    parse_rational,
    validate_annotation,
)

# A 25-step annotation whose height trace is pinned below.
LONG_ANNOTATION = "1111001110010101000110000"
LONG_HEIGHTS = (0, 2, 3, 4, 5, 4, 3, 4, 5, 6, 5, 4, 5, 4, 5, 4, 5, 4, 3, 2, 3, 4, 3, 2, 1, 0)


class TestParseClass:
    def test_two_block_class(self):
        c = parse_class("E(a=2,b=2) A(a=2,b=2) TS d=5")
        assert len(c.blocks) == 2
        assert c.blocks[0] == Block(EXISTS, 2, 2)
        assert c.blocks[1] == Block(FORALL, 2, 2)
        assert c.verifier == DET_TS
        assert c.d == 5

    def test_quantifier_free_class(self):
        c = parse_class("TS d=3/2")
        assert c.blocks == ()
        assert c.d == Fraction(3, 2)

    def test_bpts_verifier(self):
        assert parse_class("BPTS d=7").verifier == BP_TS

    def test_orderliness_violation_rejected(self):
        with pytest.raises(ClassError, match="orderliness"):
            parse_class("E(a=3,b=2) TS d=4")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ClassError, match="position"):
            parse_class("E(a=1,b=1) garbage d=2")

    def test_nonpositive_d_rejected(self):
        with pytest.raises(ClassError, match="positive"):
            parse_class("TS d=0")

    def test_round_trip(self):
        text = "E(a=1/2,b=1) A(a=0,b=1) TS d=3/2"
        assert format_class(parse_class(text)) == text

    def test_alternation_enforced(self):
        with pytest.raises(ClassError, match="alternate"):
            AltClass((Block(EXISTS, 1, 1), Block(EXISTS, 0, 1)), DET_TS, 2)


class TestParseRational:
    def test_forms(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("2") == 2
        assert parse_rational("1.8025") == Fraction(721, 400)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("x")

    @pytest.mark.parametrize("text", ["1e3", "2E-1", "1_000", "1/2/3", "1.5/2", ".", "--1", "1 /2"])
    def test_rejects_other_than_fraction_or_decimal(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_sign_and_decimal_point(self):
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert parse_rational("+.5") == Fraction(1, 2)
        assert parse_rational("2.") == 2


class TestCheckOrderly:
    def test_orderly(self):
        assert check_orderly(AltClass((Block(EXISTS, 1, 1), Block(FORALL, 0, 1)), DET_TS, 2))

    def test_disorderly(self):
        assert not check_orderly(AltClass((Block(EXISTS, 2, 1),), DET_TS, 2))


class TestAnnotationHeights:
    def test_100(self):
        assert validate_annotation("100").heights == ((0, 0), (1, 2), (2, 1), (3, 0))

    def test_lone_slowdown_invalid(self):
        report = validate_annotation("0")
        assert not report.valid
        assert "no quantifier" in report.first_error[1]

    def test_long_annotation_trace(self):
        heights = validate_annotation(LONG_ANNOTATION).heights
        assert heights == tuple(enumerate(LONG_HEIGHTS))

    def test_bpts_randomized_speedup_adds_extra_block(self):
        # the second '1' acts on a deterministic verifier (after '1' the
        # verifier is derandomized), so it adds one block, and the three
        # slowdowns leave height 1: incomplete
        report = validate_annotation("11000", BPTS_MODE)
        assert report.valid and not report.complete
        assert report.heights == ((0, 0), (1, 3), (2, 4), (3, 3), (4, 2), (5, 1))

    def test_bpts_100_incomplete(self):
        report = validate_annotation("100", BPTS_MODE)
        assert report.valid and not report.complete
        assert report.heights[-1] == (3, 1)

    def test_bpts_first_complete_annotation(self):
        assert validate_annotation("1000", BPTS_MODE).complete

    def test_squiggle_is_height_neutral(self):
        assert validate_annotation("1020").heights[-1] == (4, 0)

    def test_squiggle_on_randomized_verifier_invalid(self):
        # right after '1' the verifier is deterministic, so '2' is fine; a
        # '0' flips it back to randomized and '2' becomes illegal
        assert validate_annotation("12000", BPTS_MODE).valid
        assert not validate_annotation("102", BPTS_MODE).valid

    def test_invalid_raises(self):
        report = validate_annotation("1000")  # ts mode: goes below zero
        assert not report.valid
        assert report.first_error == (3, "slowdown with no quantifier")

    def test_heights_are_the_rules_block_counts(self):
        # every valid complete annotation derived through the rules: the
        # class after each step has as many blocks as the height trace says
        from atlb.proofs import _annotation_steps, _run_steps

        count = 0
        for mode in (TS_MODE, BPTS_MODE):
            for a in enumerate_annotations(8, mode):
                xs = [Fraction(1, 1000)] * a.count("1")
                steps = _annotation_steps(a, mode, xs)
                cert = _run_steps(Fraction(1), Fraction(3, 2), mode, Fraction(10**6), steps)[0]
                heights = [h for _, h in validate_annotation(a, mode).heights]
                assert [len(c.blocks) for c in cert.classes] == heights, (a, mode)
                count += 1
        assert count == 164


@pytest.mark.parametrize(
    "walk",
    [
        lambda: list(enumerate_annotations(5, "xx")),
        lambda: list(_rule_names("100", "xx")),
        lambda: validate_annotation("100", "xx"),
    ],
    ids=["enumerate_annotations", "_rule_names", "validate_annotation"],
)
def test_unknown_mode_raises(walk):
    with pytest.raises(ValueError, match="^unknown mode 'xx'$"):
        walk()


def _brute_force(max_len, mode):
    out = []
    for length in range(1, max_len + 1):
        stack = [""]
        for _ in range(length):
            stack = [p + s for p in stack for s in "012"]
        for cand in stack:
            report = validate_annotation(cand, mode)
            if report.valid and report.complete:
                out.append(cand)
    return out


class TestEnumerateAnnotations:
    def test_max_len_3_ts(self):
        assert list(enumerate_annotations(3, TS_MODE)) == ["100"]

    def test_max_len_5_ts(self):
        got = list(enumerate_annotations(5, TS_MODE))
        assert got == ["100", "1020", "1200", "10100", "10220", "11000", "12020", "12200"]

    def test_max_len_4_bpts(self):
        assert list(enumerate_annotations(4, BPTS_MODE)) == ["1000"]

    @pytest.mark.parametrize("mode", [TS_MODE, BPTS_MODE])
    def test_matches_brute_force(self, mode):
        got = list(enumerate_annotations(7, mode))
        expected = _brute_force(7, mode)
        assert sorted(got) == sorted(expected)
        assert len(set(got)) == len(got)

    def test_order_is_length_lexicographic(self):
        got = list(enumerate_annotations(6, TS_MODE))
        assert got == sorted(got, key=lambda a: (len(a), a))

    def test_every_emitted_annotation_is_complete(self):
        for a in enumerate_annotations(8, TS_MODE):
            report = validate_annotation(a, TS_MODE)
            assert report.valid and report.complete

