"""Traced in-process pass: per-module spans and counters for one workload.

Run as a child of ``run.py``::

    python3 benchmarks/tracer.py PLAN.json RESULT.json --wrap 1

It imports ``hypernest`` (timed as ``process.import_s``), then, with
``--wrap 1``, replaces each public function listed in ``LAYERS`` by a wrapper
at every place it is bound: the ``hypernest`` package and each
``hypernest.*`` module, so nested calls (``retention_report`` ->
``build_encapsulation_dag``, ``prepare_dynamics`` -> ``adjacent_layer_dag``)
become child spans. Scripts run through ``runpy`` import the wrapped names.
A name missing from the program is skipped, not an error. Each op of the
plan runs in-process (``hypernest.cli.main`` or ``runpy.run_path``) with its
output redirected to files; spans are kept in memory and written at the end.
With ``--wrap 0`` the same ops run untraced, which gives the tracing overhead.

Only the standard library is imported at module level, so the import timing
includes NumPy, as a user's process pays it.
"""

from __future__ import annotations

import functools
import json
import os
import runpy
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

# (span name, module, functions): a layer's self time is the summed self time
# of its spans, so a layer listing a function and its callee (load_auto ->
# load_plain) still counts each second once.
LAYERS = (
    ("hypergraph.load", "hypergraph",
     ("load_auto", "load_plain", "parse_plain", "load_simplex_dataset")),
    ("hypergraph.preprocess", "hypergraph",
     ("preprocess", "filter_by_size", "largest_connected_component")),
    ("hypergraph.projected_density", "hypergraph", ("projected_density",)),
    ("hypergraph.write_plain", "hypergraph", ("write_plain",)),
    ("linegraph.build_encapsulation_dag", "linegraph", ("build_encapsulation_dag",)),
    ("linegraph.overlap_totals", "linegraph", ("overlap_totals",)),
    ("linegraph.encapsulation_counts", "linegraph", ("encapsulation_counts",)),
    ("linegraph.adjacent_layer_dag", "linegraph", ("adjacent_layer_dag",)),
    ("dagpaths.transitive_reduction", "dagpaths", ("transitive_reduction",)),
    ("dagpaths.rooted_heights", "dagpaths", ("rooted_heights",)),
    ("randomize.layer_randomize", "randomize", ("layer_randomize",)),
    ("randomize.retention_report", "randomize", ("retention_report",)),
    ("rnhm.generate", "rnhm", ("generate",)),
    ("experiments.prepare_dynamics", "experiments", ("prepare_dynamics",)),
    ("experiments.run_experiment", "experiments", ("run_experiment",)),
    ("dynamics.select_seeds", "dynamics", ("select_seeds",)),
    ("rng.spawn_rng", "rng", ("spawn_rng",)),
    # named per call as dynamics.<config.variant>, not by engine function
    ("dynamics", "experiments", ("run_dynamics",)),
)
DYNAMICS_VARIANTS = ("strict", "non-strict", "empirical-adjacent", "threshold")


def _add(counters: Counter, key: str, obj, attr: str) -> None:
    value = getattr(obj, attr, None)
    if isinstance(value, (int, float)):
        counters[key] += value


def _count_result(counters: Counter, span: str, result) -> None:
    """Counters read from a layer's return value, where its work is done."""
    if span == "linegraph.build_encapsulation_dag":
        _add(counters, "linegraph.candidate_visits", result, "candidate_visits")
        _add(counters, "linegraph.dag_edges", result, "edge_count")
    elif span == "linegraph.overlap_totals":
        counters["linegraph.overlap_edges"] += result[0]
    elif span == "dagpaths.transitive_reduction":
        _add(counters, "dagpaths.reduced_edges", result, "edge_count")
    elif span == "dagpaths.rooted_heights":
        counters["dagpaths.roots"] += len(result.records)
        counters["dagpaths.max_height"] = max(counters["dagpaths.max_height"],
                                              result.max_height())
    elif span == "rnhm.generate":
        for attr in ("rewired_edges", "connectivity_rejections", "rewire_rejections"):
            _add(counters, f"rnhm.{attr}", result, attr)
    elif span.startswith("dynamics.") and span[len("dynamics."):] in DYNAMICS_VARIANTS:
        counters[f"{span}.runs"] += 1
        _add(counters, f"{span}.rounds", result, "num_steps")
        _add(counters, f"{span}.activations", result, "non_seed_active")


class Tracer:
    """Spans ``(name, start, end, parent index, op index)`` and counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.op = -1
        self.first_input = None
        self.skipped: list[str] = []

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def wrapper(self, span_name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name
            if span_name == "dynamics":
                config = args[1] if len(args) > 1 else kwargs["config"]
                name = f"dynamics.{config.variant}"
            result = self.span(name, fn, *args, **kwargs)
            self.counters[f"{name}.calls"] += 1
            if fn.__name__ == "preprocess" and self.first_input is None:
                self.first_input = result
            try:
                _count_result(self.counters, name, result)
            except (AttributeError, TypeError, IndexError):
                pass
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "hypernest" or name.startswith("hypernest."))]
        for span_name, module, functions in LAYERS:
            owner = sys.modules.get(f"hypernest.{module}")
            for fn_name in functions:
                original = getattr(owner, fn_name, None)
                if original is None:
                    self.skipped.append(f"{module}.{fn_name}")
                    continue
                traced = self.wrapper(span_name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)


def input_fingerprint(h) -> dict:
    """n, m, sum of squared node degrees and max degree, read through the
    label view so the fingerprint does not depend on internal layout."""
    degree: Counter = Counter()
    m = 0
    for edge in h.iter_label_edges():
        degree.update(edge)
        m += 1
    return {"hypergraph.n": len(degree), "hypergraph.m": m,
            "hypergraph.sum_deg_sq": sum(d * d for d in degree.values()),
            "hypergraph.max_degree": max(degree.values(), default=0)}


def self_times(spans: list) -> dict[str, float]:
    """Per span name: summed duration minus the part its child spans cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
    return totals


def run_op(op: dict, tracer: Tracer, cli_main) -> dict:
    """One op in-process; exit code 1 and a traceback on stderr if it raises."""
    code = 0
    start = time.perf_counter()
    with open(op["stdout"], "w") as out, open(op["stderr"], "w") as err, \
            redirect_stdout(out), redirect_stderr(err):
        try:
            if op["kind"] == "cli":
                code = tracer.span(f"op:{op['name']}", cli_main, list(op["argv"]))
            else:
                sys.argv = list(op["argv"])
                tracer.span(f"op:{op['name']}", runpy.run_path, sys.argv[0],
                            run_name="__main__")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that raises is a failed op, not a crashed pass
            traceback.print_exc()
            code = 1
    return {"name": op["name"], "wall_s": time.perf_counter() - start, "exit": code or 0}


def main(argv: list[str]) -> int:
    plan_path, result_path, wrap = argv[0], argv[1], argv[2:] == ["--wrap", "1"]
    start = time.perf_counter()
    import hypernest  # noqa: F401
    import hypernest.cli
    import_s = time.perf_counter() - start

    plan = json.loads(open(plan_path).read())
    tracer = Tracer()
    if wrap:
        tracer.install()
    os.chdir(plan["cwd"])
    results = []
    for i, op in enumerate(plan["ops"]):
        tracer.op = i
        results.append(run_op(op, tracer, hypernest.cli.main))
    fingerprint = input_fingerprint(tracer.first_input) if tracer.first_input else {}
    with open(result_path, "w") as fh:
        json.dump({"import_s": import_s, "ops": results, "spans": tracer.spans,
                   "counters": dict(tracer.counters), "fingerprint": fingerprint,
                   "skipped": tracer.skipped}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
