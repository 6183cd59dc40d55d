"""Property-based invariants for classes, rules, annotations and the exact
linear solver."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from atlb.kernel import (
    BPTS_MODE,
    DET_TS,
    EXISTS,
    FORALL,
    TS_MODE,
    AltClass,
    Block,
    check_orderly,
    enumerate_annotations,
    format_class,
    parse_class,
    validate_annotation,
)
from atlb.rules import slowdown_generic, speedup, speedup_first, squiggle
from atlb.search import _solve_rational

F = Fraction

rationals = st.fractions(min_value=0, max_value=100, max_denominator=50)
pos_rationals = st.fractions(min_value=F(1, 50), max_value=100, max_denominator=50)


@st.composite
def alt_classes(draw, min_blocks=0, max_blocks=5, orderly=True):
    n = draw(st.integers(min_blocks, max_blocks))
    first = draw(st.sampled_from([EXISTS, FORALL]))
    blocks = []
    kind = first
    for _ in range(n):
        a = draw(rationals)
        b = draw(rationals.filter(lambda v, a=a: v >= a)) if orderly else draw(rationals)
        blocks.append(Block(kind, a, max(a, b) if orderly else max(a, b)))
        kind = FORALL if kind == EXISTS else EXISTS
    d = draw(pos_rationals)
    return AltClass(tuple(blocks), DET_TS, d)


@st.composite
def slowdown_params(draw):
    alpha = draw(st.fractions(min_value=F(1, 10), max_value=1, max_denominator=20))
    cc = draw(st.fractions(min_value=F(11, 10), max_value=3, max_denominator=20))
    return alpha, cc


class TestClassRoundTrip:
    @given(alt_classes())
    def test_format_parse_identity(self, cls):
        assert parse_class(format_class(cls)) == cls


class TestRulePreservation:
    @given(alt_classes(min_blocks=1), slowdown_params())
    def test_slowdown_preserves_orderliness_and_floor(self, cls, params):
        alpha, cc = params
        out = slowdown_generic(cls, alpha, cc)
        assert check_orderly(out)
        assert out.d >= cc  # the constant-1 floor
        assert out.d >= cc * alpha * cls.d
        assert len(out.blocks) == len(cls.blocks) - 1

    @given(alt_classes(min_blocks=1), pos_rationals)
    def test_speedup_preserves_orderliness(self, cls, x):
        if not x < cls.d:
            return
        out = speedup(cls, x)
        assert check_orderly(out)
        assert out.d == cls.d - x
        assert len(out.blocks) == len(cls.blocks) + 1

    @given(pos_rationals, pos_rationals)
    def test_first_speedup_orderly(self, x, d):
        if not x < d:
            return
        out = speedup_first(AltClass((), DET_TS, d), x)
        assert check_orderly(out)
        assert out.blocks[0].a == x

    @given(alt_classes(min_blocks=1, max_blocks=3))
    @settings(max_examples=60)
    def test_squiggle_idempotent_and_monotone(self, cls):
        alpha, cc = F(1), F(3, 2)
        out, n, proper = squiggle(cls, alpha, cc)
        assert check_orderly(out)
        assert out.blocks == cls.blocks
        assert out.d <= cls.d
        if not proper:
            assert out == cls and n == 0
        again, n2, _ = squiggle(out, alpha, cc)
        assert again == out  # fixed point
        assert n2 == 0


class TestAnnotations:
    @given(st.integers(3, 8), st.sampled_from([TS_MODE, BPTS_MODE]))
    @settings(max_examples=20, deadline=None)
    def test_enumeration_yields_valid_complete_unique(self, max_len, mode):
        anns = list(enumerate_annotations(max_len, mode))
        assert len(set(anns)) == len(anns)
        for a in anns:
            rep = validate_annotation(a, mode)
            assert rep.valid and rep.complete

    @given(st.text(alphabet="012", max_size=12))
    def test_validation_never_raises(self, a):
        rep = validate_annotation(a, TS_MODE)
        if rep.complete:
            assert rep.valid and "1" in a


def _gauss_jordan(a_rows, b):
    """Reference solver: Gauss-Jordan in Fraction arithmetic, pivoting on the
    first nonzero entry of each column; any solution of A w = b with the free
    unknowns 0, else None."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    rows = [list(r) + [bv] for r, bv in zip(a_rows, b)]
    piv_cols = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * p for v, p in zip(rows[i], rows[r])]
        piv_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if rows[i][-1] != 0:
            return None
    w = [Fraction(0)] * n
    for i, col in enumerate(piv_cols):
        w[col] = rows[i][-1]
    return w


nonzero = st.builds(F, st.one_of(st.integers(-20, -1), st.integers(1, 20)), st.integers(1, 12))
entries = st.one_of(st.just(F(0)), nonzero)


@st.composite
def linear_systems(draw):
    """A w = b, m x n with m, n in 0..6, some rows and columns zero; b is
    A times a random w, or random, or the system gains a row that combines
    the others with its right side shifted (inconsistent)."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)) if m else ():
        a[i] = [F(0)] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else ():
        for row in a:
            row[j] = F(0)
    w0 = [draw(entries) for _ in range(n)]
    b = [sum((x * y for x, y in zip(row, w0)), F(0)) for row in a]
    kind = draw(st.sampled_from(["consistent", "random", "inconsistent"]))
    if kind == "random":
        b = [draw(entries) for _ in range(m)]
    elif kind == "inconsistent" and m:
        coef = [draw(entries) for _ in range(m)]
        a.append([sum((c * row[j] for c, row in zip(coef, a)), F(0)) for j in range(n)])
        b.append(sum((c * bv for c, bv in zip(coef, b)), F(0)) + draw(nonzero))
    return a, b


class TestSolveRational:
    @settings(max_examples=300, deadline=None)
    @given(linear_systems())
    def test_matches_fraction_gauss_jordan(self, system):
        a, b = system
        got = _solve_rational(a, b)
        assert got == _gauss_jordan(a, b)
        if got is not None:
            assert [sum((x * w for x, w in zip(row, got)), F(0)) for row in a] == b
