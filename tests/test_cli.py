"""Command-line interface: exit codes, round trips, config files."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import atlb
from atlb import rules, search
from atlb.cli import EXIT_INVALID, EXIT_NO_CONTRADICTION, EXIT_OK, EXIT_USAGE, main


def run(args):
    return main(args)


# A squiggle of 3,790 iterations, then one at its fixed point.
LONG_SQUIGGLES = """atlb-proof v1
alpha 1   c 301/300   mode ts   assumption ntime
class 0: E(a=1,b=1) TS d=300999/1000
step 1: squiggle
class 1: E(a=1,b=1) TS d=301/300
step 2: squiggle
class 2: E(a=1,b=1) TS d=301/300
"""


_HEAD = "alpha 1   c 3/2   mode ts   assumption ntime"
_CLASS0 = "class 0: E(a=1,b=1) TS d=2"


def _cert(*lines):
    return "\n".join(["atlb-proof v1", *lines]) + "\n"


class TestVerify:
    def test_contradiction_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "proof.txt"
        assert run(["good-proof", "--alpha", "1", "--c", "1.5", "--k", "2", "--out", str(out)]) == EXIT_OK
        assert "contradiction" in capsys.readouterr().out
        assert run(["verify", str(out)]) == EXIT_OK
        assert "valid: contradiction at c=3/2" in capsys.readouterr().out

    def test_no_contradiction_exit_ten(self, tmp_path, capsys):
        out = tmp_path / "proof.txt"
        assert run(["good-proof", "--alpha", "1", "--c", "1.81", "--k", "20", "--out", str(out)]) == EXIT_OK
        assert run(["verify", str(out)]) == EXIT_NO_CONTRADICTION
        assert "no contradiction" in capsys.readouterr().out

    def test_tampered_certificate_exit_one(self, tmp_path, capsys):
        out = tmp_path / "proof.txt"
        run(["good-proof", "--alpha", "1", "--c", "1.5", "--k", "2", "--out", str(out)])
        capsys.readouterr()
        text = out.read_text().replace("d=100", "d=101", 1)
        out.write_text(text)
        assert run(["verify", str(out)]) == EXIT_INVALID
        assert "invalid" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path, capsys):
        assert run(["verify", str(tmp_path / "nope.txt")]) == EXIT_INVALID
        capsys.readouterr()

    def test_garbage_file_exit_one(self, tmp_path, capsys):
        p = tmp_path / "junk.txt"
        p.write_text("not a certificate\n")
        assert run(["verify", str(p)]) == EXIT_INVALID
        capsys.readouterr()

    def test_non_utf8_file_exit_one(self, tmp_path, capsys):
        p = tmp_path / "binary.txt"
        p.write_bytes(b"\xff\xfe")
        assert run(["verify", str(p)]) == EXIT_INVALID
        assert "utf-8" in capsys.readouterr().err

    def test_exponent_notation_exit_one(self, tmp_path, capsys):
        # Fraction("1e999999999") would build a billion-digit integer
        out = tmp_path / "proof.txt"
        run(["good-proof", "--alpha", "1", "--c", "1.5", "--k", "1", "--out", str(out)])
        capsys.readouterr()
        lines = out.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("step 1:"))
        lines[i] = "step 1: speedup_first x=1e999999999"
        out.write_text("\n".join(lines) + "\n")
        assert run(["verify", str(out)]) == EXIT_INVALID
        assert "not a rational" in capsys.readouterr().err

    def test_long_squiggle_exit_zero(self, tmp_path, capsys):
        p = tmp_path / "proof.txt"
        p.write_text(LONG_SQUIGGLES)
        assert run(["verify", str(p)]) == EXIT_OK
        assert "valid: contradiction at c=301/300" in capsys.readouterr().out

    def test_one_step_back_below_the_start_exit_ten(self, tmp_path, capsys):
        # the squiggle alone leads from the start's shape to a smaller d, but a
        # contradiction takes at least two steps
        p = tmp_path / "proof.txt"
        p.write_text(_cert(_HEAD, _CLASS0, "step 1: squiggle", "class 1: E(a=1,b=1) TS d=3/2"))
        assert run(["verify", str(p)]) == EXIT_NO_CONTRADICTION
        assert "valid: no contradiction (final exponent 3/2 vs initial 2)" in capsys.readouterr().out

    def test_squiggle_past_iteration_cap_exit_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(rules, "SQUIGGLE_ITERATION_CAP", 100)
        p = tmp_path / "proof.txt"
        p.write_text(LONG_SQUIGGLES)
        assert run(["verify", str(p)]) == EXIT_INVALID
        assert "error: squiggle iteration cap exceeded (cap=100)" in capsys.readouterr().err


class TestUsageErrors:
    def test_bad_rational_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["search", "--alpha", "banana"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_exponent_notation_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["optimality", "--alpha", "1", "--c", "1e3"])
        assert exc.value.code == EXIT_USAGE
        assert "not a rational" in capsys.readouterr().err

    def test_bpts_proof_needs_k_without_grover(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        assert run(["bpts-proof", "--c", "1.4", "--out", str(out)]) == EXIT_USAGE
        assert "--k" in capsys.readouterr().err

    def test_unknown_config_key_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("bogus=1\n")
        assert run(["--config", str(cfg), "search", "--alpha", "1", "--max-len", "3"]) == EXIT_USAGE
        capsys.readouterr()

    def test_search_alpha_zero_exit_two(self, capsys):
        assert run(["search", "--alpha", "0", "--max-len", "3"]) == EXIT_USAGE
        assert "alpha=0" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1/100"])
    def test_search_nonpositive_tol_exit_two(self, tol, capsys):
        # exact bisection would never reach hi - lo <= tol; fails at once
        assert run(["search", "--alpha", "1", "--max-len", "3", f"--tol={tol}"]) == EXIT_USAGE
        assert "tol" in capsys.readouterr().err

    def test_config_nonpositive_tol_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("tol=0\n")
        assert run(["--config", str(cfg), "search", "--alpha", "1", "--max-len", "3"]) == EXIT_USAGE
        assert "tol" in capsys.readouterr().err

    # parameters are checked before enumerating, so the exit code does not
    # depend on whether any annotation of that length exists
    @pytest.mark.parametrize("max_len", ["3", "5"])
    def test_optimality_grover_outside_ts_exit_two(self, max_len, capsys):
        args = ["optimality", "--alpha", "1", "--c", "3/2", "--max-len", max_len, "--mode", "bpts", "--grover"]
        assert run(args) == EXIT_USAGE
        assert "grover" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["search", "--alpha", "1", "--max-len", "5", "--grover"],
            ["optimality", "--alpha", "1", "--c", "3/2", "--grover"],
        ],
    )
    def test_grover_outside_alpha_two_thirds_exit_two(self, args, capsys):
        # --grover is the alpha = 2/3 model; any other alpha is a usage error
        assert run(args) == EXIT_USAGE
        assert "grover" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["ts", "bpts"])
    def test_search_alpha_zero_any_mode_exit_two(self, mode, capsys):
        assert run(["search", "--alpha", "0", "--max-len", "3", "--mode", mode]) == EXIT_USAGE
        assert "alpha=0" in capsys.readouterr().err

    def test_optimality_c_at_most_one_exit_two(self, capsys):
        assert run(["optimality", "--alpha", "1", "--c", "1", "--max-len", "2"]) == EXIT_USAGE
        assert "c=1" in capsys.readouterr().err

    # k and out are config keys, so argparse cannot require their flags; the
    # command names the one that neither a flag nor the config supplies
    @pytest.mark.parametrize(
        "args, missing",
        [
            (["good-proof", "--alpha", "1", "--c", "1.5", "--out", "p.txt"], "--k"),
            (["good-proof", "--alpha", "1", "--c", "1.5", "--k", "2"], "--out"),
            (["bpts-proof", "--c", "1.4", "--k", "3"], "--out"),
            (["curve", "--min", "1/2", "--max", "1", "--steps", "3"], "--out"),
        ],
        ids=["good-proof-k", "good-proof-out", "bpts-proof-out", "curve-out"],
    )
    def test_missing_flag_named(self, args, missing, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(args) == EXIT_USAGE
        assert f"usage error: {missing} is required" in capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()


# Each documented exit code's failing branches, one row each: (arguments,
# the text of the file that {file} names, or None, and the message printed).
_VERIFY = ["verify", "{file}"]
_EXIT_ONE = {
    "no-header": (_VERIFY, f"{_HEAD}\n{_CLASS0}\n", "missing header line"),
    "truncated": (_VERIFY, _cert(_HEAD), "truncated certificate"),
    "parameter-line": (_VERIFY, _cert("alpha 1   c 3/2   mode ts", _CLASS0), "bad parameter line"),
    "parameter-rational": (
        _VERIFY,
        _cert("alpha one   c 3/2   mode ts   assumption ntime", _CLASS0),
        "not a rational: 'one'",
    ),
    "class-index": (
        _VERIFY,
        _cert(_HEAD, "class 1: TS d=2"),
        "line 3: expected 'class 0:', got 'class 1: TS d=2'",
    ),
    "class-without-step": (
        _VERIFY,
        _cert(_HEAD, _CLASS0, "class 1: TS d=2"),
        "line 4: expected 'step 1:', got 'class 1: TS d=2'",
    ),
    "class-syntax": (_VERIFY, _cert(_HEAD, "class 0: E(a=1) TS d=2"), "line 3: syntax error"),
    "class-header": (
        _VERIFY,
        _cert(_HEAD, "class zero: TS d=2"),
        "line 3: expected 'class 0:', got 'class zero: TS d=2'",
    ),
    "step-order": (
        _VERIFY,
        _cert(_HEAD, _CLASS0, "step 2: squiggle"),
        "line 4: expected 'step 1:', got 'step 2: squiggle'",
    ),
    "step-empty": (_VERIFY, _cert(_HEAD, _CLASS0, "step 1:"), "line 4: unknown rule ''"),
    "step-rational": (_VERIFY, _cert(_HEAD, _CLASS0, "step 1: speedup x=one"), "line 4: not a rational"),
    "step-syntax": (_VERIFY, _cert(_HEAD, _CLASS0, "step 1: squiggle twice"), "line 4: bad step syntax"),
    "step-rule": (_VERIFY, _cert(_HEAD, _CLASS0, "step 1: jump"), "line 4: unknown rule 'jump'"),
    "stray-line": (_VERIFY, _cert(_HEAD, _CLASS0, "qed"), "line 4: expected 'step 1:', got 'qed'"),
    "step-without-class": (
        _VERIFY,
        _cert(_HEAD, _CLASS0, "step 1: squiggle"),
        "1 classes do not match 1 steps",
    ),
    "mode": (
        _VERIFY,
        _cert("alpha 1   c 3/2   mode xx   assumption ntime", _CLASS0),
        "unknown mode 'xx'",
    ),
    "assumption": (
        _VERIFY,
        _cert("alpha 1   c 3/2   mode ts   assumption p", _CLASS0),
        "unknown assumption 'p'",
    ),
    "range": (
        _VERIFY,
        _cert("alpha 1   c 1   mode ts   assumption ntime", _CLASS0),
        "invalid proof at line 0: parameter range",
    ),
    "initial-verifier": (
        _VERIFY,
        _cert("alpha 1   c 3/2   mode bpts   assumption ebp", _CLASS0),
        "invalid proof at line 0: initial class verifier TS does not match mode bpts",
    ),
    "search-none-feasible": (
        ["search", "--alpha", "1", "--mode", "bpts", "--max-len", "3"],
        None,
        "no feasible annotation found",
    ),
}

_EXIT_TWO = {
    "not-an-integer": (["grover", "--n", "x", "--marked", "1"], None, "not an integer: 'x'"),
    "not-positive": (["grover", "--n", "0", "--marked", "1"], None, "must be >= 1: 0"),
    "config-not-an-integer": (
        ["--config", "{file}", "search", "--alpha", "1"],
        "max_len=x\n",
        "usage error: not an integer: 'x'",
    ),
    "config-without-equals": (
        ["--config", "{file}", "search", "--alpha", "1"],
        "max_len 3\n",
        "expected key=value, got 'max_len 3'",
    ),
}


def _run_with_file(args, text, tmp_path):
    """The exit code of atlb with args, {file} naming a file holding text."""
    p = tmp_path / "input.txt"
    if text is not None:
        p.write_text(text)
    args = [str(p) if a == "{file}" else a for a in args]
    try:
        return run(args)
    except SystemExit as exc:  # argparse's own usage errors
        return exc.code


@pytest.mark.parametrize("args, text, message", list(_EXIT_ONE.values()), ids=list(_EXIT_ONE))
def test_exit_one(args, text, message, tmp_path, capsys):
    assert _run_with_file(args, text, tmp_path) == EXIT_INVALID
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


@pytest.mark.parametrize("args, text, message", list(_EXIT_TWO.values()), ids=list(_EXIT_TWO))
def test_exit_two(args, text, message, tmp_path, capsys):
    assert _run_with_file(args, text, tmp_path) == EXIT_USAGE
    assert message in capsys.readouterr().err


class TestConfigSuppliesFlags:
    @pytest.mark.parametrize(
        "args",
        [
            ["good-proof", "--alpha", "1", "--c", "1.5"],
            ["bpts-proof", "--c", "1.4"],
            ["curve", "--min", "1/2", "--max", "1", "--steps", "3"],
        ],
        ids=["good-proof", "bpts-proof", "curve"],
    )
    def test_k_and_out_from_config(self, args, tmp_path, capsys):
        out = tmp_path / "p.txt"
        cfg = tmp_path / "cfg"
        cfg.write_text(f"k=2\nout={out}\n")
        assert run(["--config", str(cfg), *args]) == EXIT_OK
        assert f"written to {out}" in capsys.readouterr().out
        if args[0] != "curve":
            assert run(["verify", str(out)]) in (EXIT_OK, EXIT_NO_CONTRADICTION)
            capsys.readouterr()


class TestSearchAndScan:
    def test_search_small(self, tmp_path, capsys):
        out = tmp_path / "best.txt"
        code = run(["search", "--alpha", "1", "--max-len", "3", "--tol", "1/10000", "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "annotation=100" in text
        assert "1.414" in text
        assert run(["verify", str(out)]) == EXIT_OK
        capsys.readouterr()

    def test_search_prints_its_counts(self, capsys):
        res = atlb.search_best(5, Fraction(1))
        assert run(["search", "--alpha", "1", "--max-len", "5"]) == EXIT_OK
        line = f"decisions={res.decisions} float_solves={res.float_solves}"
        assert line in capsys.readouterr().out.splitlines()

    def test_search_out_without_certificate_exit_one(self, tmp_path, monkeypatch, capsys):
        # 10102100's LP c* is ~1.6520, but its witnesses replay only up to
        # ~1.618: the winner has no certificate to write
        monkeypatch.setattr(search, "enumerate_annotations", lambda max_len, mode: iter(["10102100"]))
        out = tmp_path / "best.txt"
        assert run(["search", "--alpha", "1", "--max-len", "8", "--out", str(out)]) == EXIT_INVALID
        assert "no replayed certificate for 10102100: nothing written" in capsys.readouterr().err
        assert not out.exists()

    def test_search_bracket_error_exit_one(self, force_feasible, capsys):
        force_feasible("100")
        assert run(["search", "--alpha", "1", "--max-len", "3"]) == EXIT_INVALID
        assert "not monotone for '100'" in capsys.readouterr().err

    def test_optimality_scan_none_feasible(self, capsys):
        assert run(["optimality", "--alpha", "1", "--c", "1.8", "--max-len", "5"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "0 feasible annotations of length <= 5" in text

    def test_optimality_scan_lists_feasible(self, capsys):
        assert run(["optimality", "--alpha", "1", "--c", "1.4", "--max-len", "3"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "feasible: 100" in text
        assert "replayed" in text
        assert "1 feasible annotation of length <= 3" in text

    def test_optimality_prints_methods_and_replay_failures(self, capsys):
        # one line after the summary: verdicts per certification method, and
        # the feasible verdicts without a replayed certificate
        assert run(["optimality", "--alpha", "1", "--c", "8/5", "--max-len", "8"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("38 feasible annotations of length <= 8")
        assert lines[-1] == "methods: float+dual=18, float+primal=37, precondition=89, vertex=1; replay failed: 0"
        assert run(["optimality", "--alpha", "1", "--c", "1.4", "--max-len", "3"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "methods: float+primal=1; replay failed: 0"

    def test_config_defaults_overridden_by_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("# defaults\nmax_len = 7\ntol = 1/100\n")
        assert run(["--config", str(cfg), "optimality", "--alpha", "1", "--c", "1.4", "--max-len", "3"]) == EXIT_OK
        assert "length <= 3" in capsys.readouterr().out
        assert run(["--config", str(cfg), "optimality", "--alpha", "1", "--c", "1.8"]) == EXIT_OK
        assert "length <= 7" in capsys.readouterr().out

    def test_grover_search_writes_ebqp_certificate(self, tmp_path, capsys):
        out = tmp_path / "grover.txt"
        assert run(["search", "--alpha", "2/3", "--grover", "--max-len", "6", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert run(["verify", str(out)]) == EXIT_OK
        assert "assumption=ebqp" in capsys.readouterr().out

    def test_grover_scan_is_the_alpha_two_thirds_scan(self, capsys):
        args = ["optimality", "--alpha", "2/3", "--c", "2", "--max-len", "7"]
        assert run(args) == EXIT_OK
        plain = capsys.readouterr().out
        assert run([*args, "--grover"]) == EXIT_OK
        assert capsys.readouterr().out == plain
        assert "feasible: 1102020" in plain


class TestUnwritableOut:
    # an --out in a missing directory is a runtime failure, not a traceback
    @pytest.mark.parametrize(
        "args",
        [
            ["search", "--alpha", "1", "--max-len", "3"],
            ["good-proof", "--alpha", "1", "--c", "1.5", "--k", "2"],
            ["curve", "--min", "1/2", "--max", "1", "--steps", "3"],
        ],
        ids=["search", "good-proof", "curve"],
    )
    def test_exit_one(self, args, tmp_path, capsys):
        out = tmp_path / "missing" / "out.txt"
        assert run([*args, "--out", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing" in err


class TestProofEmitters:
    def test_bpts_proof_round_trip(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        assert run(["bpts-proof", "--c", "1.4", "--k", "10", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert run(["verify", str(out)]) == EXIT_OK
        assert "mode=bpts" in capsys.readouterr().out

    def test_bpts_grover_proof(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        assert run(["bpts-proof", "--c", "1.4", "--grover", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert run(["verify", str(out)]) == EXIT_OK
        assert "assumption=ebqp" in capsys.readouterr().out

    def test_certificate_past_int_digit_limit_exit_one(self, tmp_path, capsys):
        # --c 1.499 takes 1,217 grover steps, with denominators of 3,861 digits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = run(["bpts-proof", "--grover", "--c", "1.499", "--out", str(tmp_path / "p.txt")])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: number too large to write") and "640 digits" in err

    def test_good_proof_out_of_range_exit_two(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        assert run(["good-proof", "--alpha", "1", "--c", "2.5", "--k", "2", "--out", str(out)]) == EXIT_USAGE
        capsys.readouterr()


class TestCurve:
    def test_curve_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run(["curve", "--min", "1/2", "--max", "1", "--steps", "10", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "alpha,c"
        assert len(lines) == 11
        alpha, c = lines[-1].split(",")
        assert alpha == "1"
        assert abs(float(c) - 1.8019377358) < 1e-9


class TestGrover:
    def test_fixed_iterations(self, capsys):
        assert run(["grover", "--n", "4", "--marked", "1", "--j", "1"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "closed form    1.000000000000" in text
        assert "simulated      1.000000000000" in text

    def test_random_iterations(self, capsys):
        assert run(["grover", "--n", "4", "--marked", "1"]) == EXIT_OK
        assert "0.625000000000" in capsys.readouterr().out

    def test_random_iterations_need_two_items(self, capsys):
        # the usage error comes before any output
        assert run(["grover", "--n", "1", "--marked", "1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: need n >= 2" in captured.err


def test_console_script_installed():
    # the child imports the atlb this process imports, installed or not
    src = str(Path(atlb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "atlb.cli", "grover", "--n", "4", "--marked", "1", "--j", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == EXIT_OK
    assert "1.000000000000" in proc.stdout
