"""Command-line surface: verify certificates, run searches, emit curves and
reports.

Exit codes: 0 success (for `verify`: valid with a contradiction), 10 valid
certificate without a contradiction, 1 invalid certificate or runtime failure,
2 usage error.  All `<rat>` arguments accept `p/q` or decimal literals (no
exponent notation), both parsed exactly.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .analytics import emit_curve
from .grover import SearchInstance, random_iteration_success, simulate_grover, success_probability
from .kernel import BPTS_MODE, TS_MODE, format_rational, parse_rational
from .proofs import bpts_grover_proof, bpts_proof, good_proof, grover_certificate
from .rules import CertificateError, format_certificate, parse_certificate, verify_proof

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_NO_CONTRADICTION = 10


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {value}")
    return value


def _load_config(path: str) -> dict[str, str]:
    config: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        config[key.strip()] = value.strip()
    return config


_CONFIG_KEYS = {
    "tol": _rational,
    "max_len": _positive_int,
    "k": _positive_int,
    "workers": _positive_int,
    "out": str,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlb",
        description="Alternation-trading lower-bound proofs: verify, search, report.",
    )
    parser.add_argument("--config", help="key=value defaults file, overridden by flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a proof certificate file")
    p.add_argument("file")

    p = sub.add_parser("search", help="best exponent over all annotations up to a length")
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--mode", choices=[TS_MODE, BPTS_MODE], default=TS_MODE)
    p.add_argument("--max-len", type=_positive_int, default=None)
    p.add_argument("--grover", action="store_true", help="ebqp: needs --mode ts, --alpha 2/3")
    p.add_argument("--tol", type=_rational, default=None)
    p.add_argument("--workers", type=_positive_int, default=None)
    p.add_argument("--out", help="write the best certificate here")

    p = sub.add_parser("good-proof", help="emit the 1^k 0 (20)^k certificate")
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--c", type=_rational, required=True)
    p.add_argument("--k", type=_positive_int, default=None)
    p.add_argument("--d", type=_rational, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("bpts-proof", help="emit a randomized-verifier certificate")
    p.add_argument("--c", type=_rational, required=True)
    p.add_argument("--k", type=_positive_int, default=None, help="height (omit with --grover)")
    p.add_argument("--d", type=_rational, default=None)
    p.add_argument("--grover", action="store_true", help="repeated quantum contraction instead")
    p.add_argument("--out", default=None)

    p = sub.add_parser("curve", help="CSV of the limit exponent against alpha")
    p.add_argument("--min", type=_rational, required=True)
    p.add_argument("--max", type=_rational, required=True)
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("optimality", help="feasibility scan of all annotations up to a length")
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--c", type=_rational, required=True)
    p.add_argument("--max-len", type=_positive_int, default=None)
    p.add_argument("--mode", choices=[TS_MODE, BPTS_MODE], default=TS_MODE)
    p.add_argument("--grover", action="store_true", help="ebqp: needs --mode ts, --alpha 2/3")
    p.add_argument("--workers", type=_positive_int, default=None)

    p = sub.add_parser("grover", help="quantum search success probabilities")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--marked", type=_positive_int, required=True)
    p.add_argument("--j", type=int, default=None)

    return parser


def _apply_config(args: argparse.Namespace):
    if not args.config:
        return
    config = _load_config(args.config)
    for key, value in config.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, _CONFIG_KEYS[key](value))


def _cmd_verify(args) -> int:
    text = Path(args.file).read_text()
    try:
        cert = parse_certificate(text)
    except CertificateError as exc:
        print(f"invalid certificate: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report = verify_proof(cert)
    if not report.valid:
        line, message = report.first_error
        print(f"invalid proof at line {line}: {message}", file=sys.stderr)
        return EXIT_INVALID
    if report.contradiction:
        print(
            f"valid: contradiction at c={format_rational(cert.c)} "
            f"(alpha={format_rational(cert.alpha)}, mode={cert.mode}, "
            f"assumption={cert.assumption}, {len(cert.steps)} steps)"
        )
        return EXIT_OK
    print(
        f"valid: no contradiction (final exponent {format_rational(report.final_exponent)} "
        f"vs initial {format_rational(cert.classes[0].d)})"
    )
    return EXIT_NO_CONTRADICTION


def _check_grover(args):
    # a Grover proof is the alpha = 2/3 ts proof with its slowdowns named grover
    if args.grover and (args.mode != TS_MODE or args.alpha != Fraction(2, 3)):
        raise ValueError("--grover is the alpha = 2/3 model: it needs --mode ts and --alpha 2/3")


def _cmd_search(args) -> int:
    from .search import search_best  # loads scipy: only the LP commands import it

    _check_grover(args)
    max_len = args.max_len if args.max_len is not None else 8
    tol = args.tol if args.tol is not None else Fraction(1, 10**6)
    result = search_best(max_len, args.alpha, args.mode, tol, workers=args.workers)
    if result is None:
        print("no feasible annotation found")
        return EXIT_INVALID
    print(
        f"best_c={format_rational(result.best_c)} ({float(result.best_c):.9f}) "
        f"annotation={result.annotation}"
    )
    print(f"decisions={result.decisions} float_solves={result.float_solves}")
    if args.out:
        if result.certificate is None:
            print(f"no replayed certificate for {result.annotation}: nothing written", file=sys.stderr)
            return EXIT_INVALID
        cert = grover_certificate(result.certificate) if args.grover else result.certificate
        Path(args.out).write_text(format_certificate(cert))
        print(f"certificate written to {args.out}")
    return EXIT_OK


def _require(args, *names):
    # flags a config key can supply are optional to argparse, checked here
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required (as a flag or a config key)")


def _write_certificate(cert, out: str):
    Path(out).write_text(format_certificate(cert))
    report = verify_proof(cert)
    status = "contradiction" if report.contradiction else "no contradiction"
    print(f"certificate written to {out} ({len(cert.steps)} steps, {status})")


def _cmd_good_proof(args) -> int:
    _require(args, "k", "out")
    _write_certificate(good_proof(args.alpha, args.c, args.k, args.d), args.out)
    return EXIT_OK


def _cmd_bpts_proof(args) -> int:
    _require(args, "out")
    if args.grover:
        cert = bpts_grover_proof(args.c, args.d)
    else:
        if args.k is None:
            raise ValueError("--k is required without --grover")
        cert = bpts_proof(args.k, args.c, args.d)
    _write_certificate(cert, args.out)
    return EXIT_OK


def _cmd_curve(args) -> int:
    _require(args, "out")
    csv = emit_curve(args.min, args.max, args.steps)
    Path(args.out).write_text(csv)
    print(f"{args.steps} rows written to {args.out}")
    return EXIT_OK


def _cmd_optimality(args) -> int:
    from .search import optimality_scan

    _check_grover(args)
    max_len = args.max_len if args.max_len is not None else 8
    report = optimality_scan(args.alpha, args.c, max_len, args.mode, workers=args.workers)
    for entry in report.feasible_entries:
        margin = "?" if entry.margin is None else format_rational(entry.margin)
        replay = "replayed" if entry.replay_ok else "replay failed"
        print(f"feasible: {entry.annotation} margin={margin} ({replay})")
    print(report.summary())
    methods = ", ".join(f"{m}={n}" for m, n in sorted(report.methods.items()))
    print(f"methods: {methods or 'none'}; replay failed: {report.replay_failed}")
    return EXIT_OK


def _cmd_grover(args) -> int:
    inst = SearchInstance(args.n, args.marked)
    if args.j is not None:
        if args.j < 0:
            raise ValueError("--j must be >= 0")
        closed = success_probability(inst, args.j)
        simulated = simulate_grover(inst, args.j)
        print(f"n={args.n} marked={args.marked} j={args.j}")
        print(f"closed form    {closed:.12f}")
        print(f"simulated      {simulated:.12f}")
    else:
        success = random_iteration_success(inst)  # n >= 2: check before printing
        print(f"n={args.n} marked={args.marked}")
        print(f"random-iteration success {success:.12f}")
    return EXIT_OK


_COMMANDS = {
    "verify": _cmd_verify,
    "search": _cmd_search,
    "good-proof": _cmd_good_proof,
    "bpts-proof": _cmd_bpts_proof,
    "curve": _cmd_curve,
    "optimality": _cmd_optimality,
    "grover": _cmd_grover,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (OSError, UnicodeDecodeError, RuntimeError) as exc:  # unreadable input, unwritable out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
