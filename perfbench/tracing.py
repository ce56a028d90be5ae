"""Span tracing of atckit from outside the package.

``install`` replaces each traced public function with a wrapper in every
``atckit`` module whose namespace holds it (the defining module and each
module that imported it by name), so calls between modules and calls
inside the defining module are both recorded. No file of the package
changes. Spans are kept in memory and written out once, at exit.

``layer_metrics`` turns a span list into the per-layer metrics named in
``BENCHMARK.json``. A span's self time is its duration minus the
durations of its direct children; atckit is single-threaded, so children
never overlap and no layer waits on another.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

SCORE_IDS = ("max", "negent", "l2n", "l1u", "l2u", "js")


def _rows(result):
    return int(np.shape(getattr(result, "probs", result))[0])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fn_id(fn) -> str:
    value = getattr(fn, "value", None)
    if isinstance(value, str):
        return value
    base = getattr(fn, "base", None)
    return f"{base.value}~" if base is not None else "custom"


def _count_read(args, kwargs, result):
    return {"rows": _rows(result), "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_write(args, kwargs, result):
    return {
        "rows": _rows(_arg(args, kwargs, 0, "data")),
        "bytes": os.path.getsize(_arg(args, kwargs, 1, "path")),
    }


def _count_score(args, kwargs, result):
    return {"rows": _rows(result), "fn": _fn_id(_arg(args, kwargs, 1, "fn"))}


def _count_points(args, kwargs, result):
    n = _rows(np.atleast_2d(_arg(args, kwargs, 0, "points")))
    return {"points": n, "pairs": n * (n - 1) // 2}


#: span name -> (defining module, function, counter(args, kwargs, result)).
TRACED = {
    "io.load_dump": ("atckit.io", "load_dump", _count_read),
    "io.write_dump": ("atckit.io", "write_dump", _count_write),
    "simplex.validate_matrix": ("atckit.simplex", "validate_matrix", lambda a, k, r: {"rows": _rows(r)}),
    "scores.score_batch": ("atckit.scores", "score_batch", _count_score),
    "atc.learn_threshold": ("atckit.atc", "learn_threshold", None),
    "atc.estimate_target": ("atckit.atc", "estimate_target", None),
    "atc.atc_estimate": ("atckit.atc", "atc_estimate", None),
    "doc.doc_estimate": ("atckit.doc", "doc_estimate", None),
    "doc.bootstrap_calibration": (
        "atckit.doc", "bootstrap_calibration", lambda a, k, r: {"sets": len(r)},
    ),
    "harness.bootstrap_resample": ("atckit.harness", "bootstrap_resample", None),
    "harness.run_benchmark": (
        "atckit.harness", "run_benchmark", lambda a, k, r: {"runs": _arg(a, k, 2, "config").n_boot},
    ),
    "harness.aggregate": ("atckit.harness", "aggregate", None),
    "harness.write_runs_csv": ("atckit.harness", "write_runs_csv", None),
    "harness.write_aggregate_csv": ("atckit.harness", "write_aggregate_csv", None),
    "ordering.verify_equivalence_relation": ("atckit.ordering", "verify_equivalence_relation", None),
    "ordering.verify_on_points": ("atckit.ordering", "verify_on_points", _count_points),
    "ordering.search_counterexample": ("atckit.ordering", "search_counterexample", None),
    "ordering.sample_simplex": ("atckit.ordering", "sample_simplex", lambda a, k, r: {"rows": _rows(r)}),
    "ordering.simplex_grid": ("atckit.ordering", "simplex_grid", lambda a, k, r: {"rows": _rows(r)}),
    "synth.generate": ("atckit.synth", "generate", lambda a, k, r: {"rows": _rows(r)}),
}


class Tracer:
    """In-memory span recorder for one process; spans share ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, counter=None):
        kwargs = kwargs or {}
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span["attrs"] = counter(args, kwargs, result)
        return result

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer) -> None:
    """Wrap every ``TRACED`` function wherever atckit holds it."""
    import atckit.cli  # noqa: F401  (imports every module the CLI reaches)

    modules = [m for name, m in sys.modules.items() if name == "atckit" or name.startswith("atckit.")]
    for name, (module, attr, counter) in TRACED.items():
        original = getattr(sys.modules[module], attr)
        traced = tracer.wrap(name, original, counter)
        sites = [(m, key) for m in modules for key, value in vars(m).items() if value is original]
        for m, key in sites:
            setattr(m, key, traced)
        if not any(m.__name__ == module for m, _ in sites):
            raise RuntimeError(f"{module}.{attr} was not patched in its own module")


def self_times(spans: list[dict]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[dict], traced_wall: float, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics (as named in BENCHMARK.json) and self time per layer."""
    own = self_times(spans)
    by_name: dict = {}
    attrs: dict = {}
    calls: dict = {}
    per_fn = {fn: 0.0 for fn in SCORE_IDS}
    layer_self: dict = {}
    for s, t in zip(spans, own):
        name = s["name"]
        by_name[name] = by_name.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t
        for key, value in s.get("attrs", {}).items():
            if key == "fn":
                per_fn[value] = per_fn.get(value, 0.0) + t
            else:
                attrs[(name, key)] = attrs.get((name, key), 0) + value

    def sec(*names):
        return sum(by_name.get(n, 0.0) for n in names)

    def count(name, key=None):
        return attrs.get((name, key), 0) if key else calls.get(name, 0)

    rows_scored = count("scores.score_batch", "rows")
    input_rows = (
        count("io.load_dump", "rows")
        + count("synth.generate", "rows")
        + count("ordering.sample_simplex", "rows")
        + count("ordering.simplex_grid", "rows")
    )
    distinct_fns = len({s["attrs"]["fn"] for s in spans if "fn" in s.get("attrs", {})})
    denominator = input_rows * distinct_fns
    metrics = {
        "io.read_s": sec("io.load_dump"),
        "io.read_calls": count("io.load_dump"),
        "io.rows_read": count("io.load_dump", "rows"),
        "io.bytes_read": count("io.load_dump", "bytes"),
        "io.write_s": sec("io.write_dump"),
        "io.rows_written": count("io.write_dump", "rows"),
        "io.bytes_written": count("io.write_dump", "bytes"),
        "simplex.validate_s": sec("simplex.validate_matrix"),
        "simplex.rows_validated": count("simplex.validate_matrix", "rows"),
        "scores.s": sec("scores.score_batch"),
        "scores.calls": count("scores.score_batch"),
        "scores.rows": rows_scored,
        "scores.rescore_ratio": rows_scored / denominator if denominator else 0.0,
        **{f"scores.{fn}.s": per_fn[fn] for fn in SCORE_IDS},
        "atc.learn_s": sec("atc.learn_threshold"),
        "atc.learn_calls": count("atc.learn_threshold"),
        "atc.estimate_s": sec("atc.estimate_target"),
        "atc.self_s": sec("atc.atc_estimate"),
        "doc.s": sec("doc.doc_estimate"),
        "doc.calls": count("doc.doc_estimate"),
        "doc.calibration_s": sec("doc.bootstrap_calibration"),
        "doc.calibration_sets": count("doc.bootstrap_calibration", "sets"),
        "harness.self_s": sec("harness.run_benchmark"),
        "harness.runs": count("harness.run_benchmark", "runs"),
        "harness.resample_s": sec("harness.bootstrap_resample"),
        "harness.aggregate_s": sec("harness.aggregate"),
        "harness.write_s": sec("harness.write_runs_csv", "harness.write_aggregate_csv"),
        "ordering.s": sec(
            "ordering.verify_equivalence_relation", "ordering.verify_on_points",
            "ordering.sample_simplex", "ordering.simplex_grid",
        ),
        "ordering.calls": count("ordering.verify_on_points"),
        "ordering.points": count("ordering.verify_on_points", "points"),
        "ordering.pairs_checked": count("ordering.verify_on_points", "pairs"),
        "ordering.search_s": sec("ordering.search_counterexample"),
        "synth.generate_s": sec("synth.generate"),
        "synth.rows_generated": count("synth.generate", "rows"),
        "cli.self_s": sec("cli.main"),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return metrics, layer_self
