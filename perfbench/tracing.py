"""Spans around the calls into each atlb layer, recorded from outside.

``Tracer.installed()`` replaces the public function at each module boundary
by a wrapper that records a span (name, start, end, parent) in memory, and
puts the originals back on exit.  Self times are computed from the spans
afterwards; verdict methods, replay status and squiggle iterations are read
from the returned objects.

Layers and the functions whose calls form them:

- kernel: ``enumerate_annotations`` as bound in ``atlb.search``
- search: ``feasible`` (one decision), and the entry points the workloads
  call (``optimality_scan``, ``search_best``)
- highs: ``linprog`` as bound in ``atlb.search``
- simplex: ``atlb.simplex.solve``
- rules: ``apply_step``, ``verify_proof``
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

import atlb
from atlb import rules, search, simplex

ENTRY_POINTS = ("optimality_scan", "search_best")
# span name -> (modules whose attribute is replaced, attribute)
BOUNDARIES = {
    "enumerate": ([search], "enumerate_annotations"),
    "feasible": ([search], "feasible"),
    "linprog": ([search], "linprog"),
    "simplex": ([simplex], "solve"),
    "apply_step": ([search, rules], "apply_step"),
    "verify_proof": ([atlb, search, rules], "verify_proof"),
    **{name: ([atlb, search], name) for name in ENTRY_POINTS},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.methods: dict[str, int] = {}
        self.replay_failed = 0
        self.annotations = 0
        self.squiggle_iterations = 0

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
                if name == "enumerate":  # a generator: consume it inside the span
                    out = list(out)
            finally:
                span[2] = clock()
                stack.pop()
            self._observe(name, out, args, kwargs)
            return iter(out) if name == "enumerate" else out

        return traced

    def _observe(self, name, out, args, kwargs):
        if name == "enumerate":
            self.annotations += len(out)
        elif name == "feasible":
            self.methods[out.method] = self.methods.get(out.method, 0) + 1
            replay = kwargs.get("replay", args[5] if len(args) > 5 else True)
            if replay and out.feasible and not out.replay_ok:
                self.replay_failed += 1
        elif name == "verify_proof":
            self.squiggle_iterations += sum(n for _, n, _ in out.squiggles)

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, (modules, attr) in BOUNDARIES.items():
                for mod in modules:
                    orig = getattr(mod, attr)
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, self._wrap(name, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def metrics(self, traced_wall_s: float, untraced_wall_s: float, rounds: int) -> dict:
        """Per-layer metrics per round (totals divided by ``rounds``); the
        percentiles pool the samples of every traced round.

        ``traced_wall_s`` and ``untraced_wall_s`` are per-round means, so the
        layer self times plus ``other_s`` add up to ``trace.wall_s``."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            layer = "entry" if name in ENTRY_POINTS else name
            self_s[layer] = self_s.get(layer, 0.0) + (end - start - child[i])
            durations.setdefault(layer, []).append(end - start)
        self_s = {k: v / rounds for k, v in self_s.items()}

        def calls(layer):
            return len(durations.get(layer, ())) / rounds

        def ms(layer, q):
            xs = durations.get(layer)
            if not xs:
                return 0.0
            if q == "max":
                return 1000 * max(xs)
            if len(xs) == 1:
                return 1000 * xs[0]
            return 1000 * statistics.quantiles(xs, n=100, method="inclusive")[q - 1]

        decisions = calls("feasible")
        reached_lp = sum(v for k, v in self.methods.items() if k != "precondition")
        settled = self.methods.get("float+primal", 0) + self.methods.get("float+dual", 0)
        annotations = self.annotations / rounds
        return {
            "trace.wall_s": (traced_wall_s, "s"),
            "trace.untraced_wall_s": (untraced_wall_s, "s"),
            "trace_overhead_s": (traced_wall_s - untraced_wall_s, "s"),
            "other_s": (traced_wall_s - sum(self_s.values()), "s"),
            "kernel.annotations": (annotations, "count"),
            "kernel.enumerate_s": (self_s.get("enumerate", 0.0), "s"),
            "search.decisions": (decisions, "count"),
            "search.decide_ms_p50": (ms("feasible", 50), "ms"),
            "search.decide_ms_p99": (ms("feasible", 99), "ms"),
            "search.self_s": (self_s.get("feasible", 0.0), "s"),
            "search.entry_self_s": (self_s.get("entry", 0.0), "s"),
            "search.float_settled_ratio": (settled / reached_lp if reached_lp else 0.0, "ratio"),
            "search.exact_fallbacks": (self.methods.get("exact", 0) / rounds, "count"),
            "search.replay_failed": (self.replay_failed / rounds, "count"),
            "search.solves_per_annotation": (decisions / annotations if annotations else 0.0, "ratio"),
            "highs.calls": (calls("linprog"), "count"),
            "highs.s": (self_s.get("linprog", 0.0), "s"),
            "highs.ms_p50": (ms("linprog", 50), "ms"),
            "simplex.calls": (calls("simplex"), "count"),
            "simplex.s": (self_s.get("simplex", 0.0), "s"),
            "simplex.ms_p50": (ms("simplex", 50), "ms"),
            "simplex.ms_max": (ms("simplex", "max"), "ms"),
            "rules.verify_calls": (calls("verify_proof"), "count"),
            "rules.verify_s": (self_s.get("verify_proof", 0.0), "s"),
            "rules.apply_step_calls": (calls("apply_step"), "count"),
            "rules.apply_step_s": (self_s.get("apply_step", 0.0), "s"),
            "rules.squiggle_iterations": (self.squiggle_iterations / rounds, "count"),
        }
