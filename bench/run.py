"""sacs benchmark: one workload through the CLI, end to end or traced by layer.

    python3 bench/run.py --workload cov-d1 --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
src/ and nothing is installed. Each sample is a fresh Python process that
calls sacs.cli.main once (bench/child.py). Samples repeat while the next
one is expected to end within --seconds (closed loop, one process at a
time; at least two), and every sample's CSV is checked. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end_to_end metrics of BENCHMARK.json with --trace 0, its
per_layer metrics with --trace 1.

--trace 1 alternates untraced and traced samples. Traced samples wrap
public sacs functions from outside (bench/spans.py); the layer metrics
come from their spans and trace.overhead_frac compares the two kinds.

Exit code 0 whenever a result is printed, correct or not; 2 when the
program cannot be started here at all (no src/sacs, or import fails).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import ALPHA, KINDS, TIME_UNIFORM, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
HARD_LIMIT_S = 170.0  # the whole run, set-up probes included
SETUP_PROBES_PER_SAMPLE = 3  # extra set-up-only launches before each sample
RADIUS_RTOL = 1e-8
# A time-uniform coverage count fails when it is this improbable under the
# workload's level; small enough that hundreds of seeded runs see no
# false alarm, while a broken statistic or radius (coverage near 0) fails.
COVERAGE_PVALUE = 1e-6


@dataclass
class Sample:
    traced: bool
    returncode: int | None = None
    meta: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    failure: str | None = None
    layers: dict | None = None
    missing: list = field(default_factory=list)
    emit_bytes: int = 0

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def wall_s(self) -> float:
        return self.meta.get("wall_s", self.elapsed_s)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Same import cost on every launch, and nothing written into src/.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # One BLAS thread (the cap must not exceed the cores). No workload makes
    # a BLAS call big enough to use a second thread, while starting the
    # thread pool at import made setup_s depend on the other core's load.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(wl: Workload, seed: int, tag: str, work: Path, *, traced=False,
              setup_only=False, timeout: float) -> tuple[Sample, Path, Path]:
    """Launch one child process; returns the sample and its CSV and span paths."""
    meta_path, csv_path, span_path = (work / f"{tag}.{ext}" for ext in ("meta", "csv", "spans"))
    for p in (meta_path, csv_path, span_path):
        p.unlink(missing_ok=True)
    opts = ["--meta", str(meta_path)]
    if traced:
        opts += ["--trace", str(span_path)]
    if setup_only:
        opts.append("--setup-only")
    argv = [*wl.argv, "--seed", str(seed), "--out", str(csv_path)]
    sample = Sample(traced=traced)
    launched = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), "--launched", repr(launched), *opts, "--", *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, timeout))
        sample.returncode = proc.returncode
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            sample.failure = f"exit code {proc.returncode}: {tail[0]}"
    except subprocess.TimeoutExpired:
        sample.failure = f"timed out after {timeout:.0f} s"
    sample.elapsed_s = time.monotonic() - launched
    if meta_path.exists():
        sample.meta = json.loads(meta_path.read_text())
    elif sample.failure is None:
        sample.failure = "child wrote no metadata"
    return sample, csv_path, span_path


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), 0 < p < 1."""
    log_p, log_q = math.log(p), math.log1p(-p)
    head = math.lgamma(n + 1)
    return sum(
        math.exp(head - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q)
        for i in range(k + 1)
    )


def check_csv(wl: Workload, text: str, columns: list[str], reference: dict) -> str | None:
    """Reason the CSV fails the workload's output checks, or None."""
    lines = text.splitlines()
    if not lines or lines[0].split(",") != columns:
        return "CSV header differs from harness.CSV_COLUMNS"
    n_kinds = len(KINDS)
    if len(lines) - 1 != len(wl.grid) * n_kinds:
        return f"{len(lines) - 1} CSV rows, expected {len(wl.grid) * n_kinds}"
    col = {name: i for i, name in enumerate(columns)}
    try:
        rows = [ln.split(",") for ln in lines[1:]]
        final = {r[col["boundary_kind"]]: r for r in rows[-n_kinds:]}
        if any(int(r[col["t"]]) != wl.grid[-1] for r in final.values()):
            return "last CSV rows are not at the final step"
        for kind in KINDS:
            cov = float(final[kind][col["uniform_coverage"]])
            r_eff = int(final[kind][col["reps_effective"]])
            if kind in TIME_UNIFORM:
                level = min(1 - ALPHA, wl.levels.get(kind, 1.0))
                covered = round(cov * r_eff)
                if binom_cdf(covered, r_eff, level) < COVERAGE_PVALUE:
                    return (f"{kind} uniform coverage {covered}/{r_eff} at the final "
                            f"step is implausible at level {level}")
            elif not cov < 1 - ALPHA:
                return f"fixed uniform coverage {cov} not below {1 - ALPHA}"
        wanted = {str(t) for t in reference["t"]}
        radius = {(r[col["t"]], r[col["boundary_kind"]]): float(r[col["radius_mean"]])
                  for r in rows if r[col["t"]] in wanted}
        for kind, values in reference["radius_mean"].items():
            for t, ref in zip(reference["t"], values):
                got, ref = radius[(str(t), kind)], float(ref)
                if got != ref and not abs(got - ref) <= RADIUS_RTOL * abs(ref):
                    return f"{kind} radius_mean {got!r} at t={t}, reference {ref!r}"
    except (KeyError, IndexError, ValueError) as e:
        return f"malformed CSV: {type(e).__name__} {e}"
    return None


def finish_sample(wl, sample, csv_path, span_path, reference, digests) -> None:
    """Check a sample's outputs, derive its layer metrics and drop its files."""
    if sample.ok:
        try:
            data = csv_path.read_bytes()
        except OSError as e:
            sample.failure = f"no CSV: {e}"
        else:
            sample.emit_bytes = len(data)
            digests.setdefault("first", hashlib.sha256(data).hexdigest())
            sample.failure = check_csv(wl, data.decode(errors="replace"),
                                       sample.meta["csv_columns"], reference)
            if sample.ok and hashlib.sha256(data).hexdigest() != digests["first"]:
                sample.failure = "CSV differs from the first sample of the same seed"
    if sample.traced:
        trace = {"spans": [], "counts": {}, "missing": []}
        if span_path.exists():
            trace = json.loads(span_path.read_text())
        sample.missing = trace["missing"]
        sample.layers = spans.layer_metrics(trace)
        sample.layers["harness.emit_bytes"] = sample.emit_bytes
    csv_path.unlink(missing_ok=True)
    span_path.unlink(missing_ok=True)


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def fingerprint(seed: int, versions: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            elif packed.is_file():
                commit = next((ln.split()[0] for ln in packed.read_text().splitlines()
                               if ln.endswith(" " + ref[5:])), ref)
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        **versions,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def measure(wl: Workload, seed: int, seconds: float, trace: bool, reference: dict,
            work: Path, started: float) -> dict:
    """Sample the workload for `seconds` and compute every metric."""

    def remaining():
        return HARD_LIMIT_S - (time.monotonic() - started)

    setups, samples, digests, took = [], [], {}, []
    window = time.monotonic()
    while remaining() > 5:
        n_plain = sum(not s.traced for s in samples)
        n_traced = len(samples) - n_plain
        enough = n_plain >= (1 if trace else 2) and n_traced >= (1 if trace else 0)
        # Start another sample only if it is expected to end within the window.
        if enough and time.monotonic() - window + median(took) > seconds:
            break
        began = time.monotonic()
        traced = trace and n_traced < n_plain
        if not traced:
            for k in range(SETUP_PROBES_PER_SAMPLE):
                probe, _, _ = run_child(wl, seed, f"probe{k}", work, setup_only=True,
                                        timeout=remaining())
                if probe.ok:
                    setups.append(probe.meta["setup_s"])
        sample, csv_path, span_path = run_child(wl, seed, f"sample{len(samples)}", work,
                                                traced=traced, timeout=remaining())
        finish_sample(wl, sample, csv_path, span_path, reference, digests)
        if not traced and "setup_s" in sample.meta:
            setups.append(sample.meta["setup_s"])
        samples.append(sample)
        took.append(time.monotonic() - began)
        if sample.returncode is None:  # timed out: no time left for another
            break

    plain = [s for s in samples if not s.traced]
    good = [s for s in plain if s.ok] or plain
    wall = median(s.wall_s for s in good)
    failed = sum(not s.ok for s in samples)
    end_to_end = {
        "wall_s": wall,
        "rep_steps_per_s": wl.steps / wall if wall > 0 else 0.0,
        "peak_rss_mb": median(s.meta.get("peak_rss_mb", 0.0) for s in good),
        "setup_s": median(setups),
        "ok_frac": (len(samples) - failed) / len(samples) if samples else 0.0,
        "fail_frac": failed / len(samples) if samples else 1.0,
    }
    per_layer = None
    if trace:
        traced = [s for s in samples if s.traced]
        traced_good = [s for s in traced if s.ok] or traced
        if traced_good:
            per_layer = spans.median_metrics([s.layers for s in traced_good])
        else:
            per_layer = {**spans.layer_metrics({"spans": [], "counts": {}}),
                         "harness.emit_bytes": 0}
        traced_wall = median(s.wall_s for s in traced_good)
        per_layer["trace.overhead_frac"] = traced_wall / wall - 1 if wall > 0 else 0.0
    return {
        "attempted": len(samples),
        "failed": failed,
        "failures": [s.failure for s in samples if not s.ok],
        "missing": sorted({m for s in samples for m in s.missing}),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": [{"traced": s.traced, "wall_s": s.wall_s, "meta": s.meta,
                     "failure": s.failure} for s in samples],
    }


def result_line(spec: dict, outcome: dict, trace: bool) -> dict:
    values = outcome["per_layer"] if trace else outcome["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    return {
        "correct": outcome["failed"] == 0 and outcome["attempted"] > 0,
        "attempted": max(1, outcome["attempted"]),
        "failed": outcome["failed"] if outcome["attempted"] else 1,
        "metrics": metrics,
    }


def report_lines(name: str, seed: int, outcome: dict, spec: dict) -> list[str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_frac"] = "ratio"
    lines = [f"workload {name} seed {seed}: {outcome['attempted']} samples, "
             f"{outcome['failed']} failed"]
    lines += [f"  failure: {f}" for f in outcome["failures"]]
    lines += [f"  not in this sacs, reported as zero calls: {m}" for m in outcome["missing"]]
    for key, value in {**outcome["end_to_end"], **(outcome["per_layer"] or {})}.items():
        lines.append(f"  {key:<42} {value:>16.6g} {units[key]}")
    return lines


def start_probe(wl: Workload, seed: int, work: Path) -> dict | None:
    """One uncounted set-up launch: warms the file cache, proves the program
    imports, and reports versions. None when it cannot run."""
    probe, _, _ = run_child(wl, seed, "warmup", work, setup_only=True, timeout=60)
    if not probe.ok:
        print(f"error: the program does not start here: {probe.failure}", file=sys.stderr)
        return None
    return probe.meta["versions"]


def main(argv=None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sacs" / "cli.py").is_file():
        print(f"error: no sacs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    versions = start_probe(wl, args.seed, work)
    if versions is None:
        return 2
    reference = json.loads(REFERENCE.read_text())[wl.name]
    outcome = measure(wl, args.seed, args.seconds, bool(args.trace), reference, work, started)
    outcome["fingerprint"] = fingerprint(args.seed, versions)
    result = result_line(spec, outcome, bool(args.trace))
    (work / "result.json").write_text(json.dumps({**outcome, "result": result}, indent=1))
    for line in report_lines(wl.name, args.seed, outcome, spec):
        print(line)
    print("fingerprint " + json.dumps(outcome["fingerprint"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
