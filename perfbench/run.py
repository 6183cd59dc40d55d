"""Benchmark of atlb's exact-decision path.

Run from the repository root:

    python3 perfbench/run.py --workload scan-prove --seed 1 --seconds 60 --trace 0

Workloads (see workloads.py and BENCHMARK.json): scan-prove, search-bisect.
The seed orders the inputs of the rounds.  After one untimed warm-up round,
rounds run serially in this process while the next one is expected to end
within --seconds of the start (always at least one).  Every output is
checked against perfbench/reference.json after its round, outside the timed
window.

--trace 0 prints the end-to-end metrics: wall_rel, the median over rounds of
the round's wall time divided by the mean time of the calibration kernel
(calibrate.py) timed right before and right after it; setup_s, the median
over fresh interpreters, started at even intervals during the run, of
`import atlb` plus one warm-up decision; peak_rss_mb of this process; and
ok_frac, the share of operations that did not fail.  The rounds' median wall
and CPU times in seconds are printed too.  --trace 1 runs each round
untraced and then traced on the same inputs and prints the per-layer split
(tracing.py).

Every metric is printed as `name value unit`, then the output checks, and
as the last line one JSON object with keys correct, attempted, failed and
metrics.  Exits 2 when the atlb sources are not beside perfbench/.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# setup_s samples, taken at even intervals over the run so that their median
# spans the machine's slow and fast spells rather than one moment.
SETUP_REPS = 6
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import atlb\n"
    "from fractions import Fraction\n"
    "atlb.feasible('100', 1, Fraction(7, 5))\n"
    "print(time.perf_counter() - t0)\n"
)


def measure_setup() -> float:
    """Seconds a fresh interpreter takes to import atlb and decide once."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def timed(run, inputs):
    """(result, error, wall seconds, cpu seconds) of one round."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        result, error = run(inputs), None
    except Exception as exc:  # a failing round is reported, not fatal
        traceback.print_exc()
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - wall0, time.process_time() - cpu0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "atlb" / "__init__.py").is_file():
        print(f"perfbench: atlb sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import atlb
    from calibrate import kernel_seconds
    from tracing import Tracer
    from workloads import WORKLOADS

    if Path(atlb.__file__).resolve().parent != (SRC / "atlb").resolve():
        print(f"perfbench: imported atlb from {atlb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())[wl.name]

    rounds = wl.rounds(random.Random(f"{wl.name}:{args.seed}"))
    tracer = Tracer()
    walls, cpus, traced_walls, setups = [], [], [], []
    cals = []  # kernel_seconds() before the first round and after each untimed one
    attempted = failed = 0
    wrong: list[str] = []
    elapsed = 0.0
    start = time.perf_counter()
    wl.run(wl.domain[0])  # warm-up round, not timed: the first call of a path is slower
    kernel_seconds()
    cals.append(kernel_seconds())
    while True:
        if not args.trace and len(setups) < SETUP_REPS and elapsed >= len(setups) * args.seconds / SETUP_REPS:
            setups.append(measure_setup())
        inputs = next(rounds)
        passes = [False, True] if args.trace else [False]
        for traced in passes:
            if traced:
                with tracer.installed():
                    result, error, wall, cpu = timed(wl.run, inputs)
                traced_walls.append(wall)
            else:
                result, error, wall, cpu = timed(wl.run, inputs)
                walls.append(wall)
                cpus.append(cpu)
                cals.append(kernel_seconds())
            print(f"round {len(walls)}{' traced' if traced else ''}: {inputs} wall {wall:.3f} s cpu {cpu:.3f} s")
            outcome = wl.check(inputs, result, error, reference)
            result = None
            attempted += outcome.attempted
            failed += outcome.failed
            wrong += outcome.wrong
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break
    while not args.trace and len(setups) < SETUP_REPS:  # a run too short to spread them
        setups.append(measure_setup())

    if args.trace:
        metrics = tracer.metrics(
            statistics.fmean(traced_walls), statistics.fmean(walls), len(traced_walls)
        )
    else:
        rel = [wall / ((before + after) / 2) for wall, before, after in zip(walls, cals, cals[1:])]
        metrics = {
            "wall_rel": (statistics.median(rel), "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": (1 - failed / attempted, "ratio"),
        }
    print(f"workload {wl.name} seed {args.seed}: {len(walls)} round(s), trace {args.trace}")
    print(f"round wall time: median {statistics.median(walls):.6g} s, fastest {min(walls):.6g} s, "
          f"slowest {max(walls):.6g} s; round cpu time: median {statistics.median(cpus):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"checks: {attempted} operations, {failed} failed, {len(wrong)} outputs differ from the reference")
    for problem in wrong:
        print(f"  wrong: {problem}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
