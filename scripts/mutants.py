"""Run tier-1 against a fixed table of hand mutants, to measure whether the
tests catch a wrong rule.

    python scripts/mutants.py

Each row of MUTANTS is (name, file, old text, new text, why).  For each row
the working tree is copied to a temporary directory, the row's old text,
which must occur exactly once in its file, is replaced there by its new
text, and tier-1 runs in the copy with -x; the checkout itself is never
edited.  One line per row says "killed" with the first failing test,
or "survived".  Exits 1 if any row survives or its old text is not found.

A surviving row is a behaviour no test pins: add a test that kills it, or
say why the mutant is equivalent.  A survivor runs the whole of tier-1,
about 45 s on a 2-vCPU Xeon; a killed row stops at its first failure.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RULES = "src/atlb/rules.py"

MUTANTS = [
    (
        "grover_round without b_k",
        RULES,
        "d_new = cc * max(Fraction(2, 3) * c0.d, c0.blocks[-1].b, Fraction(1))",
        "d_new = cc * max(Fraction(2, 3) * c0.d, Fraction(1))",
        "a smaller d' when b_k > 2d/3: a stronger, unsound Grover round",
    ),
    (
        "_matches_contradiction with 0.1% slack on d",
        RULES,
        "    return last.d <= first.d\n",
        "    return last.d <= first.d * Fraction(1001, 1000)\n",
        "accepts a last class slightly above the first as a contradiction",
    ),
    (
        "_matches_contradiction without its a check",
        RULES,
        "if fb.kind != lb.kind or lb.a > fb.a or lb.b > fb.b:",
        "if fb.kind != lb.kind or lb.b > fb.b:",
        "accepts a last class with a larger block exponent a",
    ),
    (
        "speedup_rand's new block with b = x",
        RULES,
        "return [(a0, b0), (x, alg.max_of([b0, x])), (alg.zero, b0)], d",
        "return [(a0, b0), (x, x), (alg.zero, b0)], d",
        "drops b_k from the guessed block's b, for the rules and the LP alike",
    ),
    (
        "squiggle's fixed point without b_k",
        RULES,
        "fixed = cc * max(last.a, last.b, Fraction(1))",
        "fixed = cc * max(last.a, Fraction(1))",
        "a squiggle that lands below c * b_k",
    ),
]

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


def run(file: str, old: str, new: str) -> tuple[str, str]:
    """(verdict, detail) of one mutant: "killed" and the first failing test,
    "survived", or "missing" when old does not occur exactly once."""
    with tempfile.TemporaryDirectory(prefix="atlb-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        path = tree / file
        text = path.read_text()
        if text.count(old) != 1:
            return "missing", f"{file}: old text found {text.count(old)} times"
        path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider"]
        out = subprocess.run(
            [*cmd, "--continue-on-collection-errors"], cwd=tree, env=env, capture_output=True, text=True
        )
    if out.returncode == 0:
        return "survived", ""
    first = next((line for line in out.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))), None)
    return "killed", first.split(" - ")[0].split(" ", 1)[1] if first else f"pytest exit {out.returncode}"


def main() -> int:
    bad = 0
    for name, file, old, new, why in MUTANTS:
        verdict, detail = run(file, old, new)
        bad += verdict != "killed"
        print(f"{verdict:8}  {name}: {detail or why}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
