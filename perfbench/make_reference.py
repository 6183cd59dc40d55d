"""Record the reference outputs the benchmark checks against.

Run from the repository root on the commit whose answers are the reference:

    python3 perfbench/make_reference.py [workload ...]

It computes every input any seed can draw (all scan-prove c values and
all search-bisect alphas) and rewrites the named
workloads' entries in perfbench/reference.json (all workloads by default).
A full run takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from atlb import search  # noqa: E402

import workloads as w  # noqa: E402

REFERENCE = HERE / "reference.json"


def scan_reference():
    out = {}
    for cc in w.PROVE_C:
        rep = search.optimality_scan(1, cc, w.PROVE_MAX_LEN)
        out[w.ref_key(cc)] = {
            "total": rep.total,
            "feasible": [e.annotation for e in rep.feasible_entries],
            "replay_failed": [e.annotation for e in rep.feasible_entries if not e.replay_ok],
        }
    return out


def bisect_reference():
    out = {}
    for alpha in w.BISECT_ALPHA:
        res = search.search_best(w.BISECT_MAX_LEN, alpha)
        out[w.ref_key(alpha)] = {"annotation": res.annotation, "best_c": str(res.best_c)}
    return out


RECORDERS = {
    "scan-prove": scan_reference,
    "search-bisect": bisect_reference,
}


def main(names):
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref = {name: entry for name, entry in ref.items() if name in RECORDERS}
    for name in names or list(RECORDERS):
        ref[name] = RECORDERS[name]()
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
