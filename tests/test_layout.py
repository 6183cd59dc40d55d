"""The package's layout: which modules load the float stack, and where each
exported name lives."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import atlb
from atlb.rules import format_certificate

# every name the package exported before the split, by defining module
EXPORTS = {
    "analytics": [
        "Cubic",
        "emit_curve",
        "largest_root_cubic",
        "p_alpha",
        "p_alpha_roots",
        "real_roots_cubic",
        "threshold_bounds",
    ],
    "grover": [
        "SearchInstance",
        "collapse_argmin",
        "collapse_exponent",
        "grover_cost",
        "grover_exponent",
        "random_iteration_success",
        "simulate_grover",
        "success_probability",
    ],
    "kernel": [
        "BP_TS",
        "BPTS_MODE",
        "DET_TS",
        "EXISTS",
        "FORALL",
        "TS_MODE",
        "AltClass",
        "AnnotationError",
        "Block",
        "ClassError",
        "ValidityReport",
        "check_orderly",
        "enumerate_annotations",
        "format_class",
        "format_rational",
        "parse_class",
        "parse_rational",
        "validate_annotation",
    ],
    "rules": [
        "CertificateError",
        "ProofCertificate",
        "ProofReport",
        "RuleError",
        "RuleStep",
        "apply_step",
        "format_certificate",
        "grover_collapse",
        "grover_round",
        "parse_certificate",
        "slowdown_generic",
        "speedup",
        "speedup_first",
        "speedup_randomized",
        "squiggle",
        "verify_proof",
    ],
    "proofs": [
        "annotation_certificate",
        "bpts_grover_proof",
        "bpts_proof",
        "good_proof",
        "good_proof_best_c",
        "good_proof_contradicts",
        "good_proof_limit",
        "grover_certificate",
    ],
    "search": [
        "Feasibility",
        "ScanReport",
        "SearchResult",
        "best_exponent",
        "feasible",
        "optimality_scan",
        "search_best",
    ],
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_are_the_defining_modules_objects(module):
    mod = importlib.import_module(f"atlb.{module}")
    for name in EXPORTS[module]:
        scope: dict = {}
        exec(f"from atlb import {name}", scope)
        assert scope[name] is getattr(mod, name), name
        assert getattr(scope[name], "__module__", mod.__name__) == mod.__name__, name


def test_star_import_takes_every_export():
    scope: dict = {}
    exec("from atlb import *", scope)
    assert {name for names in EXPORTS.values() for name in names} <= set(scope)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        atlb.no_such_name  # noqa: B018


def _child(code: str, unloaded=()) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter on this process's atlb, then fail if
    it left numpy, scipy or one of the unloaded modules in sys.modules."""
    src = str(Path(atlb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    check = (
        "\nimport sys\n"
        "heavy = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
        f"heavy += sorted(m for m in sys.modules if m in {tuple(unloaded)!r})\n"
        "assert not heavy, heavy\n"
    )
    return subprocess.run([sys.executable, "-c", code + check], capture_output=True, text=True, env=env)


# a "yes" rests on kernel, rules and proofs: they load no LP code either
_LP_CODE = ("atlb.lp", "atlb.simplex")


@pytest.mark.parametrize("module", ["atlb", "atlb.lp", "atlb.proofs", "atlb.rules"])
def test_exact_core_imports_no_float_stack(module):
    proc = _child(f"import {module}", () if module == "atlb.lp" else _LP_CODE)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "{proof}"],
        ["good-proof", "--alpha", "1", "--c", "3/2", "--k", "2", "--out", "{out}"],
        ["bpts-proof", "--c", "7/5", "--k", "3", "--out", "{out}"],
    ],
)
def test_certificate_commands_import_no_float_stack(args, tmp_path):
    proof = tmp_path / "proof.txt"
    proof.write_text(format_certificate(atlb.good_proof(Fraction(1), Fraction(3, 2), 2)))
    argv = [a.format(proof=proof, out=tmp_path / "out.txt") for a in args]
    proc = _child(f"from atlb.cli import main\nassert main({argv!r}) == 0", _LP_CODE)
    assert proc.returncode == 0, proc.stderr


def test_lp_check_sees_lp_code():
    # the unloaded check itself fails where the LP code is loaded
    proc = _child("import atlb.lp", _LP_CODE)
    assert proc.returncode != 0 and "atlb.lp" in proc.stderr and "atlb.simplex" in proc.stderr
