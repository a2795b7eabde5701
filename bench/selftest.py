"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the trace counts what it should, and that a non-zero exit or a
corrupted CSV is counted as a failure. Exits 1 on the first failed check.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time

import run
import spans
from workloads import TINY

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads(run.REFERENCE.read_text())
WORK = run.WORK / "selftest"
ORIGINAL_RUN_CHILD = run.run_child


def check(cond, message):
    if not cond:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def measure(wl, trace=False, reference=None):
    return run.measure(wl, 0, 0.1, trace, reference or REFERENCE[wl.name], WORK,
                       time.monotonic())


def check_result(outcome, trace, label):
    result = run.result_line(SPEC, outcome, trace)
    names = SPEC["per_layer" if trace else "end_to_end"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result has exactly the four keys")
    check(list(result["metrics"]) == [m["name"] for m in names],
          f"{label}: every {'per-layer' if trace else 'end-to-end'} metric is emitted")
    check(all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in names),
          f"{label}: every metric carries its unit")
    check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
              for v in result["metrics"].values()), f"{label}: every value is a finite number")
    check(json.loads(json.dumps(result)) == result, f"{label}: result is plain JSON")
    return result


def corrupting(edit):
    """run_child that rewrites each sample's CSV after the child has written it."""
    original = run.run_child

    def wrapped(wl, seed, tag, work, **kwargs):
        sample, csv_path, span_path = original(wl, seed, tag, work, **kwargs)
        if csv_path.exists():
            csv_path.write_text(edit(tag, csv_path.read_text()))
        return sample, csv_path, span_path

    return wrapped


def edit_cell(text, t, kind, column, new):
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    for i, ln in enumerate(lines):
        cells = ln.split(",")
        if cells[0] == str(t) and cells[1] == kind:
            cells[col] = new
            lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    for wl in TINY.values():
        out = measure(wl)
        result = check_result(out, False, wl.name)
        check(result["correct"] and out["failed"] == 0 and out["attempted"] >= 2,
              f"{wl.name}: all samples pass the output checks")
        check(out["end_to_end"]["fail_frac"] == 0.0 and out["end_to_end"]["ok_frac"] == 1.0,
              f"{wl.name}: fail_frac 0")

    d1, d3, gauss = TINY.values()
    traced = {wl.name: measure(wl, trace=True) for wl in (d1, d3, gauss)}
    for name, out in traced.items():
        result = check_result(out, True, f"{name} traced")
        check(result["correct"], f"{name} traced: samples pass the output checks")
    layers = {name: out["per_layer"] for name, out in traced.items()}
    n_grid_d3 = len(d3.grid)
    reps_d3 = int(d3.argv[d3.argv.index("--reps") + 1])
    check(layers[d3.name]["numerics.sym_eig.calls"] == 2 * reps_d3 * n_grid_d3,
          "tiny-cov-d3: sym_eig calls = 2 x reps x grid points")
    check(layers[d3.name]["covariance.sandwich_from_moments.calls"] == reps_d3 * n_grid_d3,
          "tiny-cov-d3: one sandwich per repetition and grid point")
    check(layers[d1.name]["numerics.sym_eig.calls"] == 0, "tiny-cov-d1: no Jacobi solves")
    check(layers[d1.name]["harness.visit.calls"] == len(d1.grid),
          "tiny-cov-d1: one visit per grid point and chunk")
    check(layers[gauss.name]["sa_engine.run_lockstep.calls"] == 0,
          "tiny-gauss-d2: no lockstep recursion")
    for name, lay in layers.items():
        total = sum(v for k, v in lay.items() if k.startswith("layer."))
        wall = next(s["wall_s"] for s in traced[name]["samples"] if s["traced"])
        check(abs(total - wall) <= 0.05 * wall + 0.01,
              f"{name}: layer self times add up to the traced wall time")

    bad_args = dataclasses.replace(d1, argv=d1.argv + ("--reps", "0"))
    out = measure(bad_args, reference=REFERENCE[d1.name])
    check(out["failed"] == out["attempted"] >= 1 and out["end_to_end"]["fail_frac"] == 1.0,
          "a non-zero exit counts as a failure")
    check(not run.result_line(SPEC, out, False)["correct"], "a non-zero exit is not correct")

    ref = REFERENCE[d1.name]
    t_ref = ref["t"][-2]
    edits = {  # label: (edit, words the failure must name)
        "dropped last row": (lambda tag, text: "".join(text.splitlines(True)[:-1]), "CSV rows"),
        "renamed header": (lambda tag, text: text.replace("radius_mean", "radius", 1), "header"),
        "radius off by 1e-6": (lambda tag, text: edit_cell(
            text, t_ref, "lilub", "radius_mean",
            repr(float(ref["radius_mean"]["lilub"][-2]) * (1 + 1e-6))), "lilub radius_mean"),
        "gm coverage collapsed": (lambda tag, text: edit_cell(
            text, d1.grid[-1], "gm", "uniform_coverage", "0.1"), "gm uniform coverage"),
        "fixed coverage inflated": (lambda tag, text: edit_cell(
            text, d1.grid[-1], "fixed", "uniform_coverage", "1"), "fixed uniform coverage"),
    }
    for label, (edit, words) in edits.items():
        run.run_child = corrupting(edit)
        try:
            out = measure(d1)
        finally:
            run.run_child = ORIGINAL_RUN_CHILD
        check(out["failed"] == out["attempted"] and out["end_to_end"]["fail_frac"] == 1.0
              and all(words in f for f in out["failures"]),
              f"corrupted CSV ({label}) counts as a failure")

    # Same numbers, different bytes in the second sample only.
    run.run_child = corrupting(
        lambda tag, text: text.replace(",1,", ",1.0,", 1) if tag == "sample1" else text)
    try:
        out = measure(d1)
    finally:
        run.run_child = ORIGINAL_RUN_CHILD
    check(out["samples"][0]["failure"] is None
          and "differs from the first" in out["samples"][1]["failure"],
          "a CSV that differs from the first of the same seed counts as a failure")

    # A public name that a later sacs drops becomes a zero-call layer.
    sys.path.insert(0, str(run.ROOT / "src"))
    import sacs.harness

    saved = sacs.harness.sym_eig
    del sacs.harness.sym_eig
    try:
        rec = spans.Recorder()
        spans.install(rec)
    finally:
        sacs.harness.sym_eig = saved
    lay = spans.layer_metrics({"spans": rec.spans, "counts": rec.counts})
    check(rec.missing == ["sacs.harness.sym_eig"] and lay["numerics.sym_eig.calls"] == 0,
          "a missing public name is reported, not fatal")

    # Without src/ the benchmark must refuse to run and print no result.
    bare = WORK / "bare"
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cov-d1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the sources: non-zero exit and no result")
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
