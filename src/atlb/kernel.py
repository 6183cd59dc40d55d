"""Exact representation of alternating complexity classes and proof annotations.

A class is a list of quantifier blocks, a verifier kind, and a verifier-runtime
exponent d.  All exponents are exact rationals.  Annotations are strings over
{0, 1, 2} (slowdown / speedup / squiggle) whose validity is a quantifier-height
condition; this module also provides the annotation-graph combinatorics (block
decomposition, camel classification) and the deterministic enumerator used by
the search module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

EXISTS = "E"
FORALL = "A"

DET_TS = "TS"
BP_TS = "BPTS"

TS_MODE = "ts"
BPTS_MODE = "bpts"

DROMEDARY = "DROMEDARY"
BACTRIAN = "BACTRIAN"


class ClassError(ValueError):
    """Malformed alternating class (syntax or invariant violation)."""


class AnnotationError(ValueError):
    """Malformed or invalid proof annotation."""


_RATIONAL = re.compile(r"[+-]?(?:[0-9]+/[0-9]+|[0-9]+\.?[0-9]*|\.[0-9]+)")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational: an optional sign, then p/q or a decimal literal.

    Exponent notation is rejected: Fraction would build 10^n for "1en"."""
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


@dataclass(frozen=True)
class Block:
    """One quantifier block: kind, guess-length exponent a, output exponent b."""

    kind: str
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if self.kind not in (EXISTS, FORALL):
            raise ClassError(f"unknown quantifier kind {self.kind!r}")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a < 0:
            raise ClassError(f"negative guess exponent a={self.a}")


def _flip(kind: str) -> str:
    return FORALL if kind == EXISTS else EXISTS


@dataclass(frozen=True)
class AltClass:
    """An alternating complexity class: quantifier blocks, verifier kind, d."""

    blocks: tuple[Block, ...]
    verifier: str
    d: Fraction

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "d", Fraction(self.d))
        if self.verifier not in (DET_TS, BP_TS):
            raise ClassError(f"unknown verifier kind {self.verifier!r}")
        if self.d <= 0:
            raise ClassError(f"verifier exponent must be positive, got d={self.d}")
        for i in range(1, len(self.blocks)):
            if self.blocks[i].kind == self.blocks[i - 1].kind:
                raise ClassError(
                    f"blocks {i} and {i + 1} do not alternate "
                    f"(both {self.blocks[i].kind})"
                )

    @property
    def k(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return format_class(self)


def check_orderly(c: AltClass) -> bool:
    """True iff a_i <= b_i for every quantifier block."""
    return all(blk.a <= blk.b for blk in c.blocks)


_BLOCK_RE = re.compile(r"([EA])\(a=([^,()]+),b=([^,()]+)\)")
_TAIL_RE = re.compile(r"(TS|BPTS)\s+d=(\S+)$")


def parse_class(text: str) -> AltClass:
    """Parse the one-line class grammar.

    Grammar: ``[E|A](a=<rat>,b=<rat>) ... [TS|BPTS] d=<rat>`` with ``<rat>``
    an integer or ``int/int``.  Raises ClassError with the offending position
    or the violated invariant.
    """
    src = text.strip()
    pos = 0
    blocks = []
    while pos < len(src) and src[pos] in "EA":
        match = _BLOCK_RE.match(src, pos)
        if match is None:
            raise ClassError(f"syntax error in quantifier block at position {pos}: {src[pos:]!r}")
        kind, a_txt, b_txt = match.groups()
        try:
            a = parse_rational(a_txt)
            b = parse_rational(b_txt)
        except ValueError as exc:
            raise ClassError(f"bad rational at position {pos}: {exc}") from exc
        if a > b:
            raise ClassError(f"orderliness violated in block {len(blocks) + 1}: a={a} > b={b}")
        blocks.append(Block(kind, a, b))
        pos = match.end()
        while pos < len(src) and src[pos] == " ":
            pos += 1
    match = _TAIL_RE.match(src, pos)
    if match is None:
        raise ClassError(f"expected '[TS|BPTS] d=<rat>' at position {pos}: {src[pos:]!r}")
    verifier, d_txt = match.groups()
    try:
        d = parse_rational(d_txt)
    except ValueError as exc:
        raise ClassError(f"bad rational for d: {exc}") from exc
    return AltClass(tuple(blocks), verifier, d)


def format_class(c: AltClass) -> str:
    parts = [
        f"{blk.kind}(a={format_rational(blk.a)},b={format_rational(blk.b)})"
        for blk in c.blocks
    ]
    parts.append(f"{c.verifier} d={format_rational(c.d)}")
    return " ".join(parts)


# --- Annotations -----------------------------------------------------------
#
# Heights track the number of quantifier blocks of the class at each point.
# ts mode (deterministic verifier throughout):
#   '1' from height 0 adds two blocks (first speedup), otherwise one;
#   '0' removes one block; '2' needs a block and is height-neutral.
# bpts mode additionally tracks the verifier kind: the randomized speedup
# ('1' on a randomized verifier) adds three blocks from height 0 and two
# otherwise, and makes the verifier deterministic; a speedup on a
# deterministic verifier adds one block; '0' flips back to randomized;
# '2' requires a deterministic verifier and is height-neutral.

ANNOTATION_SYMBOLS = "012"


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    complete: bool
    heights: tuple[tuple[int, int], ...]
    first_error: tuple[int, str] | None


def _step_height(h: int, ver: str, sym: str, mode: str):
    """One height-rule step; returns (new_h, new_ver) or raises AnnotationError."""
    if sym == "1":
        if mode == BPTS_MODE and ver == BP_TS:
            return (h + 3 if h == 0 else h + 2), DET_TS
        return (h + 2 if h == 0 else h + 1), DET_TS
    if sym == "0":
        if h < 1:
            raise AnnotationError("slowdown with no quantifier")
        new_ver = BP_TS if mode == BPTS_MODE else DET_TS
        return h - 1, new_ver
    if sym == "2":
        if h < 1:
            raise AnnotationError("squiggle with no quantifier")
        if ver != DET_TS:
            raise AnnotationError("squiggle on a randomized verifier")
        return h, DET_TS
    raise AnnotationError(f"unknown annotation symbol {sym!r}")


def validate_annotation(a: str, mode: str = TS_MODE) -> ValidityReport:
    """Height-trace validity check; never raises, failures land in the report."""
    if mode not in (TS_MODE, BPTS_MODE):
        raise ValueError(f"unknown mode {mode!r}")
    h = 0
    ver = BP_TS if mode == BPTS_MODE else DET_TS
    points = [(0, 0)]
    for t, sym in enumerate(a):
        try:
            h, ver = _step_height(h, ver, sym, mode)
        except AnnotationError as exc:
            return ValidityReport(False, False, tuple(points), (t, str(exc)))
        points.append((t + 1, h))
    complete = h == 0 and "1" in a
    return ValidityReport(True, complete, tuple(points), None)


def annotation_heights(a: str, mode: str = TS_MODE) -> tuple[tuple[int, int], ...]:
    """Exact height sequence (t, h(t)); raises AnnotationError if invalid."""
    report = validate_annotation(a, mode)
    if not report.valid:
        t, msg = report.first_error
        raise AnnotationError(f"invalid annotation at step {t}: {msg}")
    return report.heights


def enumerate_annotations(max_len: int, mode: str = TS_MODE):
    """Yield every valid complete annotation of length <= max_len exactly once.

    Deterministic length-lexicographic order with 0 < 1 < 2.
    """
    if max_len < 3:
        raise ValueError("max_len must be >= 3")

    def extend(prefix: list[str], h: int, ver: str, seen_speedup: bool, length: int):
        if length == len(prefix):
            if h == 0 and seen_speedup:
                yield "".join(prefix)
            return
        remaining = length - len(prefix)
        if h > remaining:  # cannot get back to height 0
            return
        for sym in ANNOTATION_SYMBOLS:
            try:
                nh, nver = _step_height(h, ver, sym, mode)
            except AnnotationError:
                continue
            prefix.append(sym)
            yield from extend(prefix, nh, nver, seen_speedup or sym == "1", length)
            prefix.pop()

    start_ver = BP_TS if mode == BPTS_MODE else DET_TS
    for length in range(1, max_len + 1):
        yield from extend([], 0, start_ver, False, length)


# --- Block decomposition ---------------------------------------------------

_DROMEDARY_SHAPE_RE = re.compile(r"^1+0+(10+)*$")


@dataclass(frozen=True)
class BlockDecomposition:
    """Split of a dromedary-shaped annotation: prefix b0 = 1^k 0, then
    blocks b_k, ..., b_1 of shape (10)*0."""

    b0: str
    blocks: tuple[str, ...]  # in order b_k, ..., b_1

    def concat(self) -> str:
        return self.b0 + "".join(self.blocks)


def decompose_blocks(a: str) -> BlockDecomposition:
    if not _DROMEDARY_SHAPE_RE.match(a):
        raise AnnotationError(f"not of dromedary shape 1^k 0^+ (1 0^+)*: {a!r}")
    k = 0
    while a[k] == "1":
        k += 1
    b0 = a[: k + 1]
    rest = a[k + 1 :]
    blocks = []
    i = 0
    while i < len(rest):
        start = i
        while rest.startswith("10", i):
            i += 2
        if i >= len(rest) or rest[i] != "0":
            raise AnnotationError(f"suffix block at offset {k + 1 + start} not of shape (10)*0")
        i += 1
        blocks.append(rest[start:i])
    if len(blocks) != k:
        raise AnnotationError(
            f"expected {k} suffix blocks for prefix 1^{k}0, found {len(blocks)}"
        )
    return BlockDecomposition(b0, tuple(blocks))


# --- Camels ----------------------------------------------------------------


@dataclass(frozen=True)
class Camel:
    span: tuple[int, int]  # (start, end) point indices on the flattened graph
    base: int
    kind: str


def flattened_heights(a: str) -> list[int]:
    """Height trace with every step counted +1/-1/0 (squiggles collapsed,
    the extra block of the first speedup ignored)."""
    heights = [0]
    for sym in a:
        delta = {"1": 1, "0": -1, "2": 0}[sym]
        heights.append(heights[-1] + delta)
    return heights


def _camel_kind(a: str, start: int, end: int) -> str:
    """Dromedary iff no speedup follows a slowdown inside the span."""
    seen_down = False
    for sym in a[start:end]:
        if sym == "0":
            seen_down = True
        elif sym == "1" and seen_down:
            return BACTRIAN
    return DROMEDARY


def classify_camels(a: str) -> list[Camel]:
    """Maximal excursions of the flattened graph, recursively.

    At each base level, a camel spans a maximal region where the path stays at
    or above the base, from its first up-step to its last return to base.
    Bactrian interiors are decomposed further one level up.  Spans are pairwise
    disjoint or nested.
    """
    heights = flattened_heights(a)
    camels: list[Camel] = []

    def scan(lo: int, hi: int, base: int):
        i = lo
        while i <= hi:
            # skip to the next up-step leaving the base inside a >= base region
            if heights[i] != base or i == hi or heights[i + 1] != base + 1:
                i += 1
                continue
            start = i
            end = i
            j = i
            while j < hi and heights[j + 1] >= base:
                j += 1
                if heights[j] == base:
                    end = j
            if end > start:
                kind = _camel_kind(a, start, end)
                camels.append(Camel((start, end), base, kind))
                if kind == BACTRIAN:
                    scan(start, end, base + 1)
            i = j + 1
    scan(0, len(a), 0)
    camels.sort(key=lambda c: (c.span[0], -(c.span[1] - c.span[0])))
    return camels
