"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public sacs functions at the module attribute each
caller looks the name up through; nothing inside the library changes.
Spans (id, parent id, name, start, end) stay in memory and are written
out once, when the run ends. Per-layer metrics are derived from the spans
afterwards, so the traced process does no aggregation while it runs.

A wrapped name that a later version of sacs no longer has is recorded as
missing and reported as a zero-call layer instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time

# (module, attribute, span name). Each entry is the attribute the caller
# resolves at call time: harness imported these names into its own
# namespace, covariance imported sym_eig into its own, run_lockstep looks up
# sample_data_block in sa_engine, and harness calls bnd.radius_grid.
WRAPPED = (
    ("sacs.harness", "run_coverage", "harness.run_coverage"),
    ("sacs.harness", "run_gaussian_check", "harness.run_gaussian_check"),
    ("sacs.harness", "emit_report", "harness.emit_report"),
    ("sacs.harness", "run_lockstep", "sa_engine.run_lockstep"),
    ("sacs.harness", "sandwich_from_moments", "covariance.sandwich_from_moments"),
    ("sacs.harness", "sym_eig", "numerics.sym_eig"),
    ("sacs.harness", "sqrt_m", "numerics.sqrt_m"),
    ("sacs.harness", "inv_sqrt", "numerics.inv_sqrt"),
    ("sacs.harness", "cond", "numerics.cond"),
    ("sacs.covariance", "sym_eig", "numerics.sym_eig"),
    ("sacs.sa_engine", "sample_data_block", "sa_engine.sample_data_block"),
    ("sacs.boundaries", "radius_grid", "boundaries.radius_grid"),
)

# Every span name the derivation knows, with its layer. cli.main is the
# root span, opened by the child around the cli.main call.
LAYER_OF = {
    "cli.main": "cli",
    "harness.run_coverage": "harness",
    "harness.run_gaussian_check": "harness",
    "harness.visit": "harness",
    "harness.emit_report": "harness",
    "sa_engine.run_lockstep": "sa_engine",
    "sa_engine.sample_data_block": "sa_engine",
    "covariance.sandwich_from_moments": "covariance",
    "numerics.sym_eig": "numerics",
    "numerics.sqrt_m": "numerics",
    "numerics.inv_sqrt": "numerics",
    "numerics.cond": "numerics",
    "boundaries.radius_grid": "boundaries",
}
LAYERS = ("cli", "harness", "sa_engine", "covariance", "numerics", "boundaries")


class Recorder:
    """In-memory spans plus the few counts that only the call arguments
    or results carry (singular flags, block sizes, report metadata)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack: list[int] = [-1]
        self.next_id = 0
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []

    def span(self, name, fn, *args, **kwargs):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "counts": self.counts, "missing": self.missing},
                fh,
            )


def _wrap(rec: Recorder, name: str, fn):
    if name == "sa_engine.run_lockstep":
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            arg = bound.arguments
            if {"model", "T", "gens"} <= arg.keys():
                block = len(arg["gens"]) * arg["T"] * (arg["model"].dim + 1) * 8
                rec.peak("sa_engine.block_bytes", block)
                rec.add("sa_engine.python_steps", arg["T"])
            visit = arg.get("visit")
            if callable(visit):
                arg["visit"] = lambda *a: rec.span("harness.visit", visit, *a)
            return rec.span(name, fn, *bound.args, **bound.kwargs)

    elif name == "covariance.sandwich_from_moments":

        def wrapper(*args, **kwargs):
            out = rec.span(name, fn, *args, **kwargs)
            singular = isinstance(out, tuple) and len(out) == 2 and bool(out[1])
            rec.add("covariance.sandwich_from_moments.singular", int(singular))
            return out

    elif name in ("harness.run_coverage", "harness.run_gaussian_check"):

        def wrapper(*args, **kwargs):
            report = rec.span(name, fn, *args, **kwargs)
            meta = report.metadata
            config = meta.get("config", {})
            n_grid = len(report.rows) // max(1, len(config.get("boundaries", ())))
            reps_eff = meta.get("reps_effective", config.get("reps", 0))
            rec.add("sa_engine.divergent_reps", meta.get("divergent", {}).get("count", 0))
            rec.add("harness.unavailable_evals", meta.get("unavailable_evaluations", 0))
            rec.add("harness.attempted_evals", reps_eff * n_grid)
            return report

    else:

        def wrapper(*args, **kwargs):
            return rec.span(name, fn, *args, **kwargs)

    return wrapper


def install(rec: Recorder) -> None:
    """Replace every name in WRAPPED that exists by a span-recording wrapper."""
    for module_name, attr, span_name in WRAPPED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            rec.missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, _wrap(rec, span_name, fn))


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, derived from its spans.

    A span's self time is its duration minus that of its direct children;
    the process is single-threaded, so children never overlap. Times of
    named functions are inclusive (`.s`); `.self_s` marks self times.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    child_time: dict[int, float] = {}
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for sid, _parent, name, start, end in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        calls[name] = calls.get(name, 0) + 1

    def t(name):
        return total.get(name, 0.0)

    def s(name):
        return self_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    out = {f"layer.{layer}.self_s": 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        out[f"layer.{LAYER_OF[name]}.self_s"] += value
    attempted = counts.get("harness.attempted_evals", 0)
    unavailable = counts.get("harness.unavailable_evals", 0)
    out.update(
        {
            "sa_engine.run_lockstep.self_s": s("sa_engine.run_lockstep"),
            "sa_engine.run_lockstep.calls": n("sa_engine.run_lockstep"),
            "sa_engine.python_steps": counts.get("sa_engine.python_steps", 0),
            "sa_engine.sample_data_block.s": t("sa_engine.sample_data_block"),
            "sa_engine.sample_data_block.calls": n("sa_engine.sample_data_block"),
            "sa_engine.block_bytes": counts.get("sa_engine.block_bytes", 0),
            "harness.visit.self_s": s("harness.visit"),
            "harness.visit.calls": n("harness.visit"),
            "covariance.sandwich_from_moments.s": t("covariance.sandwich_from_moments"),
            "covariance.sandwich_from_moments.calls": n(
                "covariance.sandwich_from_moments"
            ),
            "covariance.sandwich_from_moments.singular": counts.get(
                "covariance.sandwich_from_moments.singular", 0
            ),
            "numerics.sym_eig.s": t("numerics.sym_eig"),
            "numerics.sym_eig.calls": n("numerics.sym_eig"),
            "numerics.sqrt_m.s": t("numerics.sqrt_m"),
            "numerics.inv_sqrt.s": t("numerics.inv_sqrt"),
            "numerics.cond.s": t("numerics.cond"),
            "boundaries.radius_grid.s": t("boundaries.radius_grid"),
            "boundaries.radius_grid.calls": n("boundaries.radius_grid"),
            "harness.aggregate.self_s": s("harness.run_coverage")
            + s("harness.run_gaussian_check"),
            "harness.emit_report.s": t("harness.emit_report"),
            "sa_engine.divergent_reps": counts.get("sa_engine.divergent_reps", 0),
            "harness.unavailable_evals": unavailable,
            "harness.avail_ratio": (attempted - unavailable) / attempted
            if attempted
            else 1.0,
        }
    )
    return out


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over several traced runs (counts repeat exactly)."""
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
