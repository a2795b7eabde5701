"""Tests for the Monte Carlo coverage harness and rate exponent tables."""

import csv
import dataclasses
import json
import math
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest

from sacs import harness, sa_engine
from sacs.boundaries import KINDS, BoundarySpec, radius_grid
from sacs.covariance import NumericalError, whiten
from sacs.harness import (
    CSV_COLUMNS,
    CoverageReport,
    ExperimentConfig,
    ReportRow,
    emit_report,
    rate_exponents,
    report_to_json,
    run_coverage,
    run_gaussian_check,
)
from sacs.sa_engine import (
    ModelSpec,
    StepSchedule,
    rng_stream,
    run_lockstep,
    run_trajectory,
)

from helpers import csv_text, fit_rate, gaussian_check_reference, make_report, per_point


def specs(alpha, kinds=KINDS):
    # one BoundarySpec of each kind, at level alpha and the default shape
    return tuple(BoundarySpec(k, alpha) for k in kinds)


def small_config(**overrides):
    base = dict(
        model=ModelSpec("linear", 1),
        schedule=StepSchedule(0.01, 0.67),
        iters=1500,
        reps=10,
        start=500,
        stride=250,
        boundaries=specs(0.1),
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def divergent_config():
    # the config of test_run_coverage_excludes_divergent_reps
    return small_config(
        schedule=StepSchedule(7.0, 0.67),
        iters=2000,
        reps=12,
        start=500,
        stride=500,
        boundaries=(BoundarySpec("gm", 0.1), BoundarySpec("fixed", 0.1)),
    )


# a gaussian check of 40 repetitions over 300 steps at d = 2
GAUSSIAN = dict(dim=2, horizon=300, reps=40, boundaries=specs(0.1), seed=4)


# -------------------------------------------------------- rate exponents


def test_rate_exponents_golden_values():
    lin = rate_exponents(0.45, 1.0, 10.0, 1, linear=True)
    assert lin.e2 is None
    assert lin.e1 == 1.0
    assert lin.e3 == 0.725 and lin.e4 == 0.725 and lin.e5 == 0.725
    assert lin.overall == 0.725
    assert lin.a_opt == 0.45 and lin.r_opt == 0.725
    assert lin.violation is None

    non = rate_exponents(2.0 / 3.0, 1.0, math.inf, 1, linear=False)
    assert non.e2 == 2.0 / 3.0
    assert non.overall == 2.0 / 3.0
    assert non.a_opt == 2.0 / 3.0 and non.r_opt == 2.0 / 3.0
    assert non.violation is None


def test_rate_exponents_violation_reported_not_fatal():
    prof = rate_exponents(0.6, 1.0, 2.0, 1, linear=False)
    assert prof.violation == "p <= (1+lambda)/lambda"
    assert prof.e2 == 0.6 and math.isfinite(prof.overall)


def test_rate_exponents_dimension_term():
    p = 10.0
    one = rate_exponents(0.6, 1.0, p, 1, linear=True)
    five = rate_exponents(0.6, 1.0, p, 5, linear=True)
    assert one.e5 == 0.5 + (1.0 - 0.1) / 4.0
    assert five.e5 == 0.5 + (1.0 - 0.1) / 250.0
    assert five.e5 < one.e5
    with pytest.raises(ValueError):
        rate_exponents(0.6, 1.0, p, 0, linear=True)


def test_rate_exponents_monotone_in_a():
    # increasing a speeds the nonlinear forgetting terms and slows e3
    grid = np.linspace(0.55, 0.95, 9)
    profs = [rate_exponents(float(a), 1.0, 10.0, 2, linear=False) for a in grid]
    e2 = [p.e2 for p in profs]
    e3 = [p.e3 for p in profs]
    e4 = [p.e4 for p in profs]
    assert all(u < v for u, v in zip(e2, e2[1:]))
    assert all(u < v for u, v in zip(e4, e4[1:]))
    assert all(u > v for u, v in zip(e3, e3[1:]))


def test_rate_exponents_feasibility_window():
    # linear with p = 10: a faster-than-classical overall rate holds exactly
    # on 0 < a < (p-1)/p
    for a in np.linspace(0.05, 0.95, 19):
        prof = rate_exponents(float(a), 1.0, 10.0, 1, linear=True)
        assert (prof.overall > 0.5) == (0.0 < a < 0.9)
        assert (prof.violation is None) == (0.0 < a < 0.9)


# --------------------------------------------------------------- fit_rate


def test_fit_rate_exact_power_law():
    ts = np.logspace(2, 5, 12)
    pts = [(t, 3.7 * t**-0.5) for t in ts]
    assert fit_rate(pts, (100.0, 1e5)) == pytest.approx(-0.5, abs=1e-12)
    flat = [(t, 2.0) for t in ts]
    assert fit_rate(flat, (100.0, 1e5)) == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_degenerate_windows():
    pts = [(10.0, 1.0), (20.0, 0.5), (40.0, 0.25)]
    with pytest.raises(ValueError):
        fit_rate(pts[:2], (1.0, 100.0))
    with pytest.raises(ValueError):
        fit_rate(pts, (15.0, 16.0))
    with pytest.raises(ValueError):
        fit_rate([(10.0, 1.0), (10.0, 0.5), (10.0, 0.25)], (1.0, 100.0))
    with pytest.raises(ValueError):
        fit_rate([(10.0, 1.0), (20.0, 0.0), (40.0, 0.25)], (1.0, 100.0))


def test_fit_rate_on_simulated_decay():
    # median error of the averaged iterate decays near t^{-1/2}
    model = ModelSpec("linear", 1)
    sched = StepSchedule(0.01, 0.67)
    gens = [rng_stream(17, r) for r in range(20)]
    ckpts = [1000, 2000, 4000, 8000, 16000]
    med = {}

    def visit(tt, xbar, h_hat, s_hat):
        med[tt] = float(np.median(np.abs(xbar[:, 0] - 1.0)))

    run_lockstep(model, sched, 16000, gens, ckpts, per_point(visit, ckpts))
    slope = fit_rate(sorted(med.items()), (1000.0, 16000.0))
    assert -0.7 <= slope <= -0.3


# ----------------------------------------------------------- run_coverage


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        small_config(reps=0)
    with pytest.raises(ValueError):
        small_config(stride=0)
    with pytest.raises(ValueError):
        small_config(boundaries=())
    with pytest.raises(ValueError):
        small_config(boundaries=(BoundarySpec("gm", 0.1), BoundarySpec("gm", 0.05)))
    with pytest.raises(ValueError):
        small_config(iters=800, start=801)
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\), got -1"):
        small_config(seed=-1)
    # a bool is not a count or a seed, though Python counts it as an int
    for name in ("iters", "reps", "start", "stride"):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got True"):
            small_config(**{name: True})
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\), got False"):
        small_config(seed=False)


@pytest.mark.parametrize("dim", [1, 2])
def test_configs_compare_and_hash_by_value(dim):
    # built twice from the same arguments, a model, schedule, boundary and
    # config are each one value: equal, with equal hashes
    a, b = (small_config(model=ModelSpec("linear", dim)) for _ in range(2))
    pairs = [(a.model, b.model), (a.schedule, b.schedule), (a.boundaries[0], b.boundaries[0])]
    for x, y in pairs + [(a, b)]:
        assert x is not y and x == y and hash(x) == hash(y)
    assert ModelSpec("linear", dim) != ModelSpec("logistic", dim)
    assert a != small_config(model=ModelSpec("logistic", dim))


def test_run_coverage_shapes_and_grid():
    rep = run_coverage(small_config())
    grid = list(range(500, 1501, 250))
    assert len(rep.rows) == len(grid) * len(KINDS)
    # step-major ordering with the configured boundary order inside each step
    for i, row in enumerate(rep.rows):
        assert row.t == grid[i // len(KINDS)]
        assert row.boundary_kind == KINDS[i % len(KINDS)]
    assert rep.metadata["reps_effective"] == 10
    assert rep.metadata["divergent"]["count"] == 0


def test_run_coverage_deterministic():
    a = csv_text(run_coverage(small_config()))
    b = csv_text(run_coverage(small_config()))
    assert a == b


def test_run_coverage_uniform_below_fixed_and_monotone():
    rep = run_coverage(small_config(reps=40))
    by_kind = {}
    for row in rep.rows:
        assert row.uniform_coverage <= row.fixed_coverage + 1e-12
        by_kind.setdefault(row.boundary_kind, []).append(row.uniform_coverage)
    for vals in by_kind.values():
        assert all(u >= v - 1e-12 for u, v in zip(vals, vals[1:]))


def test_run_coverage_single_point_grid():
    # start == iters: one row per kind, uniform equals fixed there
    rep = run_coverage(small_config(iters=800, start=800, stride=10))
    assert len(rep.rows) == len(KINDS)
    for row in rep.rows:
        assert row.t == 800
        assert row.uniform_coverage == row.fixed_coverage


def test_run_coverage_excludes_divergent_reps():
    # eta0 = 7 on the linear reference model makes a fraction of the
    # repetitions overflow; they must vanish from every aggregate
    rep = run_coverage(divergent_config())
    count = rep.metadata["divergent"]["count"]
    assert 0 < count < 12
    assert rep.metadata["reps_effective"] == 12 - count
    assert all(row.reps_effective == 12 - count for row in rep.rows)
    assert len(rep.metadata["divergent"]["first_steps"]) == count


def test_run_coverage_all_divergent_raises():
    cfg = small_config(
        schedule=StepSchedule(50.0, 0.67),
        iters=600,
        reps=3,
        start=300,
        stride=300,
        boundaries=(BoundarySpec("gm", 0.1),),
    )
    with pytest.raises(NumericalError):
        run_coverage(cfg)


def test_run_coverage_whitens_the_replayed_sandwich():
    # replaying each repetition with run_trajectory and whitening its
    # sandwich by hand gives the report's coverage, radii and half-widths
    model = ModelSpec("linear", 3)
    cfg = small_config(model=model, reps=8, iters=1200, start=400, stride=400)
    rep = run_coverage(cfg)
    grid = [400, 800, 1200]
    covered = np.zeros((len(grid), len(KINDS)))
    radius = np.zeros_like(covered)
    halfwidth = np.zeros_like(covered)
    for r in range(cfg.reps):
        pts = run_trajectory(model, cfg.schedule, cfg.iters, grid, rng=rng_stream(0, r))
        for i, pt in enumerate(pts):
            wh = whiten(pt.sandwich, pt.xbar - model.theta_star)
            for k, spec in enumerate(cfg.boundaries):
                rad = radius_grid(spec, [pt.t], model.dim, kappa=wh.kappa)[0]
                sup = spec.norm_kind == "sup_norm"
                covered[i, k] += (wh.stat_sup if sup else wh.stat_two) <= rad
                radius[i, k] += rad / cfg.reps
                halfwidth[i, k] += rad * np.mean(wh.scale_sup if sup else wh.scale_two) / cfg.reps
    assert rep.fixed_coverage.tolist() == (covered / cfg.reps).ravel().tolist()
    assert rep.radius_mean == pytest.approx(radius.ravel(), rel=1e-12)
    assert rep.halfwidth_mean == pytest.approx(halfwidth.ravel(), rel=1e-9)


def assert_same_report(a, b):
    # coverage counts exactly, float fields to 1e-12 relative
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.t, ra.boundary_kind, ra.reps_effective) == (
            rb.t,
            rb.boundary_kind,
            rb.reps_effective,
        )
        assert ra.fixed_coverage == rb.fixed_coverage
        assert ra.uniform_coverage == rb.uniform_coverage
        for name in ("radius_mean", "halfwidth_mean"):
            x, y = getattr(ra, name), getattr(rb, name)
            assert (math.isnan(x) and math.isnan(y)) or x == pytest.approx(y, rel=1e-12)
    meta_a = {k: v for k, v in a.metadata.items() if k != "wall_time_s"}
    meta_b = {k: v for k, v in b.metadata.items() if k != "wall_time_s"}
    if "mean_final" in meta_a:
        assert meta_a.pop("mean_final") == pytest.approx(meta_b.pop("mean_final"), rel=1e-12)
    assert meta_a == meta_b


@pytest.mark.parametrize(
    "make",
    [
        lambda: run_coverage(small_config(reps=12, stride=50)),
        # d = 2: lilen takes a radius per repetition
        lambda: run_coverage(
            small_config(model=ModelSpec("linear", 2), reps=6, start=600, stride=30)
        ),
        lambda: run_coverage(divergent_config()),
        # the logistic Jacobian weight, taken per chunk, at the matched step
        # size; stride 7 is out of step with the chunk of 93 steps
        lambda: run_coverage(
            small_config(
                model=ModelSpec("logistic", 2),
                schedule=StepSchedule(16.6, 0.67),
                reps=8,
                start=100,
                stride=7,
            )
        ),
        lambda: run_gaussian_check(**GAUSSIAN),
    ],
    ids=["d1", "d2-lilen", "divergent", "logistic-d2", "gaussian"],
)
def test_tallies_do_not_depend_on_block_and_flush_sizes(monkeypatch, make):
    # the smallest time blocks (64 steps) and one grid point per flush give
    # the report of the default sizes
    default = make()
    monkeypatch.setattr(sa_engine, "_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(sa_engine, "_FLUSH_ENTRIES", 1)
    assert_same_report(make(), default)
    # so do Gaussian tiles of one repetition over 64-step blocks, and of
    # three repetitions over the whole 300-step horizon (the last tile of
    # the 40 repetitions holds one); the running means are bit-identical
    for tile_entries in (1, 3 * 300 * 2):
        monkeypatch.setattr(harness, "_TILE_ENTRIES", tile_entries)
        report = make()
        assert_same_report(report, default)
        if "mean_final" in default.metadata:
            assert report.metadata["mean_final"] == default.metadata["mean_final"]


def count_forks(monkeypatch) -> list:
    # A list that gains an entry each time os.fork is called.
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_same_bytes(report, other):
    # the same CSV columns, bit for bit, and the same metadata
    for name in CSV_COLUMNS:
        assert getattr(report, name).tobytes() == getattr(other, name).tobytes()
    assert_same_report(report, other)


@pytest.mark.parametrize(
    "cfg, divergent",
    [
        (small_config(reps=11, stride=50), False),
        # d = 2: lilen takes a radius per repetition
        (small_config(model=ModelSpec("linear", 2), reps=10, start=600, stride=30), False),
        # eta0 = 7: some repetitions diverge and the second pass leaves them out
        (dataclasses.replace(divergent_config(), reps=14), True),
    ],
    ids=["d1", "d2-lilen", "divergent"],
)
def test_run_coverage_does_not_depend_on_cpu_count(monkeypatch, cfg, divergent):
    # groups of four repetitions make three or four groups, the last one
    # partial; one, two or three processes give the same report, bit for bit
    default = run_coverage(cfg)  # one 128-repetition group
    monkeypatch.setattr(harness, "_GROUP", 4)
    forks = count_forks(monkeypatch)
    reports = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(harness, "_WORKERS", workers)
        forks.clear()
        reports.append(run_coverage(cfg))
        assert bool(forks) == (workers > 1)
    assert bool(default.metadata["divergent"]["count"]) == divergent
    for report in reports:
        assert_same_bytes(report, reports[0])
    # the groups change only the order in which the float sums are added
    assert_same_report(reports[0], default)


def test_run_coverage_reruns_divergent_repetitions_in_their_part(monkeypatch):
    # four groups of four on two processes, each part with a divergent
    # repetition: each part tallies its own groups again without it, so the
    # run forks once, and its report is the one-process report
    cfg = dataclasses.replace(divergent_config(), reps=14)
    monkeypatch.setattr(harness, "_GROUP", 4)
    monkeypatch.setattr(harness, "_WORKERS", 1)
    default = run_coverage(cfg)
    monkeypatch.setattr(harness, "_WORKERS", 2)
    forks = count_forks(monkeypatch)
    report = run_coverage(cfg)
    assert len(forks) == 1
    first_steps = report.metadata["divergent"]["first_steps"]
    assert {r // 8 for r, _ in first_steps} == {0, 1}
    assert_same_bytes(report, default)
    # one repetition per group and per process: the third part's only
    # repetition diverges, and its empty tally merges with the others
    cfg = dataclasses.replace(cfg, reps=3)
    monkeypatch.setattr(harness, "_GROUP", 1)
    monkeypatch.setattr(harness, "_WORKERS", 1)
    default = run_coverage(cfg)
    monkeypatch.setattr(harness, "_WORKERS", 3)
    report = run_coverage(cfg)
    assert report.metadata["divergent"]["first_steps"] == [(2, 1148)]
    assert_same_bytes(report, default)


def fork_failure(monkeypatch, fail):
    # Runs a three-group coverage run on three processes, with
    # fail(in_child, tt) called before each batch of grid points is
    # evaluated, tt the batch's last grid step.
    monkeypatch.setattr(harness, "_GROUP", 4)
    monkeypatch.setattr(harness, "_WORKERS", 3)
    parent = os.getpid()
    lockstep = harness.run_lockstep

    def failing_lockstep(model, sched, iters, gens, grid, visit):
        def failing_visit(lo, *batch):
            fail(os.getpid() != parent, grid[lo + len(batch[0]) - 1])
            visit(lo, *batch)

        return lockstep(model, sched, iters, gens, grid, failing_visit)

    monkeypatch.setattr(harness, "run_lockstep", failing_lockstep)
    run_coverage(small_config(reps=12, stride=250))


def test_run_coverage_raises_a_child_exception(monkeypatch):
    def fail(in_child, tt):
        if in_child:
            raise ValueError("a worker failed")

    with pytest.raises(ValueError, match="a worker failed"):
        fork_failure(monkeypatch, fail)


def test_run_coverage_names_a_killed_child(monkeypatch):
    def fail(in_child, tt):
        if in_child and tt > 500:
            os.kill(os.getpid(), signal.SIGKILL)

    match = r"repetitions 4\.\.7 ended without a result \(exit status -9\)"
    with pytest.raises(ChildProcessError, match=match):
        fork_failure(monkeypatch, fail)


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_run_coverage_parent_failure_leaves_no_child(monkeypatch, error):
    def fail(in_child, tt):
        if not in_child:
            raise error("the parent failed")

    with pytest.raises(error, match="the parent failed"):
        fork_failure(monkeypatch, fail)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_coverage_memory_does_not_grow_with_iters(monkeypatch):
    # with a fixed 10-point grid, the streamed pass holds one short time
    # block at a time, so its peak allocation does not depend on iters
    monkeypatch.setattr(sa_engine, "_BLOCK_ENTRIES", 1)

    def config(iters):
        return small_config(
            iters=iters,
            reps=40,
            start=iters // 10,
            stride=iters // 10,
            boundaries=(BoundarySpec("gm", 0.1),),
        )

    def peak(iters):
        tracemalloc.start()
        try:
            run_coverage(config(iters))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_coverage(config(100))  # lazy imports and first-call set-up
    assert peak(10_000) <= 1.25 * peak(1_000)


# ------------------------------------------------------ gaussian check


def test_gaussian_check_memory_does_not_grow_with_reps(monkeypatch):
    # the tiles hold a few repetitions at a time, so 2,000 repetitions over
    # 2,000 steps (64 MB of draws) peak far below one array of all of them;
    # one process, as tracemalloc does not see a forked child's tiles
    monkeypatch.setattr(harness, "_WORKERS", 1)
    run_gaussian_check(2, 100, 10, specs(0.05, ("gm",)))
    tracemalloc.start()
    try:
        run_gaussian_check(2, 2000, 2000, specs(0.05, ("gm",)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_gaussian_check_does_not_depend_on_cpu_count(monkeypatch):
    # 40 one-repetition tiles of five 64-step blocks, three processes not
    # dividing them: one, two or three processes give the report of one
    # tile of all 40 repetitions, bit for bit, mean_final included
    default = run_gaussian_check(**GAUSSIAN)
    monkeypatch.setattr(harness, "_TILE_ENTRIES", 1)
    forks = count_forks(monkeypatch)
    for workers in (1, 2, 3):
        monkeypatch.setattr(harness, "_WORKERS", workers)
        forks.clear()
        report = run_gaussian_check(**GAUSSIAN)
        assert len(forks) == workers - 1
        assert_same_bytes(report, default)
        assert report.metadata["mean_final"] == default.metadata["mean_final"]


@pytest.mark.parametrize("cause", ["thread", "no-fork"])
def test_gaussian_check_runs_here_when_it_cannot_fork(monkeypatch, cause):
    # a second live thread, which a forked child would not inherit, or no
    # os.fork: the tiles all run in this process, with the same report
    default = run_gaussian_check(**GAUSSIAN)
    monkeypatch.setattr(harness, "_TILE_ENTRIES", 1)
    monkeypatch.setattr(harness, "_WORKERS", 3)
    forks = count_forks(monkeypatch)
    if cause == "no-fork":
        monkeypatch.delattr(os, "fork")
        report = run_gaussian_check(**GAUSSIAN)
    else:
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            report = run_gaussian_check(**GAUSSIAN)
        finally:
            stop.set()
            thread.join()
    assert not forks
    assert_same_bytes(report, default)


@pytest.mark.parametrize("reps, workers", [(1, 1), (2, 2), (40, 3)])
def test_gaussian_check_starts_at_most_one_worker_per_tile(monkeypatch, reps, workers):
    # one-repetition tiles, and three CPUs to run them on: the tiles of the
    # first worker run here, each other worker's in a forked child
    monkeypatch.setattr(harness, "_TILE_ENTRIES", 1)
    monkeypatch.setattr(harness, "_WORKERS", 3)
    forks = count_forks(monkeypatch)
    run_gaussian_check(1, 64, reps, specs(0.1, ("gm",)))
    assert len(forks) == workers - 1


def gaussian_fork_failure(monkeypatch, fail):
    # Runs a gaussian check of twelve one-repetition tiles on three
    # processes (repetitions 0-3 here, 4-7 and 8-11 in children), with
    # fail(in_child, r) called before each draw of repetition r.
    monkeypatch.setattr(harness, "_TILE_ENTRIES", 1)
    monkeypatch.setattr(harness, "_WORKERS", 3)
    parent = os.getpid()
    stream = harness.rng_stream

    class Stream:
        def __init__(self, seed, r):
            self.r, self.gen = r, stream(seed, r)

        def standard_normal(self, out):
            fail(os.getpid() != parent, self.r)
            self.gen.standard_normal(out=out)

    monkeypatch.setattr(harness, "rng_stream", Stream)
    run_gaussian_check(1, 64, 12, specs(0.1, ("gm",)))


def test_gaussian_check_raises_a_child_exception(monkeypatch):
    def fail(in_child, r):
        if r == 9:
            raise ValueError("tile 9 failed")

    with pytest.raises(ValueError, match="tile 9 failed"):
        gaussian_fork_failure(monkeypatch, fail)


def test_gaussian_check_names_a_killed_child(monkeypatch):
    def fail(in_child, r):
        if r == 5:
            os.kill(os.getpid(), signal.SIGKILL)

    match = r"repetitions 4\.\.7 ended without a result \(exit status -9\)"
    with pytest.raises(ChildProcessError, match=match):
        gaussian_fork_failure(monkeypatch, fail)


def test_gaussian_check_stops_every_worker_when_a_tile_fails(monkeypatch):
    # the tile of repetition 2, here, raises while the children still draw:
    # the caller gets its error and every child is killed and reaped
    def fail(in_child, r):
        if in_child:
            time.sleep(0.05)
        elif r == 2:
            raise RuntimeError("tile 2 failed")

    with pytest.raises(RuntimeError, match="tile 2 failed"):
        gaussian_fork_failure(monkeypatch, fail)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_gaussian_check_interrupt_stops_every_worker(monkeypatch):
    # Ctrl-C while this process waits for children that would draw for a
    # minute reaches the caller at once, and every child is killed and reaped
    def fail(in_child, r):
        if in_child:
            time.sleep(15)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    handler = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    began = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            gaussian_fork_failure(monkeypatch, fail)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert time.perf_counter() - began < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_gaussian_check_matches_the_whitened_running_mean(monkeypatch):
    # the library compares running sums of standard normals with t r_t, in
    # blocks and tiles; the reference draws each whole path, takes the
    # running mean (a mean of N(0, v) vectors whitened with the true v) and
    # compares its norms with r_t. Five 64-step blocks and thirty
    # one-repetition tiles at d = 3, radii scaled by 0.8 so that more paths
    # miss
    monkeypatch.setattr(harness, "_TILE_ENTRIES", 1)
    unscaled = harness.bnd.radius_grid
    monkeypatch.setattr(harness.bnd, "radius_grid", lambda *a, **k: 0.8 * unscaled(*a, **k))
    kw = dict(horizon=300, reps=30, boundaries=specs(0.1), seed=5)
    report = run_gaussian_check(3, **kw)
    fixed, uniform, mean_final = gaussian_check_reference(3, radius_scale=0.8, **kw)
    assert report.fixed_coverage.tolist() == (fixed / 30).T.ravel().tolist()
    assert report.uniform_coverage.tolist() == (uniform / 30).T.ravel().tolist()
    assert report.metadata["mean_final"] == pytest.approx(mean_final.tolist(), rel=1e-12)


def test_miss_tally_add_matches_a_per_kind_loop():
    # adds of three kinds equal a naive loop over kinds, grid points and
    # repetitions of statistic <= limit: blocks at nonzero lo, repetition
    # slices, and statistics passed as transposed (m, n) views against a
    # shared (1, m) limit (as the coverage visit does) or contiguous against
    # a per-repetition (n, m) one. A nan statistic never covers, a +inf
    # limit covers every other one; repetition 0 misses nowhere, repetition
    # 8 everywhere
    rng = np.random.default_rng(0)
    n_b, n_grid, n_reps = 3, 20, 9
    adds = [(0, 6, slice(None)), (6, 5, slice(0, 4)), (6, 5, slice(4, 9)), (11, 9, slice(2, 7))]
    specs = [BoundarySpec(k, 0.1) for k in KINDS[:n_b]]
    ones = np.ones((n_b, n_grid))
    for per_rep in (False, True):
        tally = harness._MissTally(n_b, n_grid, n_reps)
        fixed = np.zeros((n_b, n_grid), dtype=np.int64)
        first_miss = np.full((n_b, n_reps), n_grid)
        for lo, m, rs in adds:
            ids = range(n_reps)[rs]
            stats = rng.random((n_b, m, len(ids)))  # kinds, grid, repetitions
            stats[rng.random(stats.shape) < 0.05] = np.nan
            limits = rng.uniform(0.8, 1.0, (n_b, m, len(ids) if per_rep else 1))
            limits[:, 1] = np.inf
            for r, value in ((0, 0.0), (8, np.nan)):
                if r in ids:
                    stats[:, :, ids.index(r)] = value
            if per_rep:
                contiguous = [np.ascontiguousarray(a.swapaxes(1, 2)) for a in (stats, limits)]
                tally.add(lo, *contiguous, rs)
            else:
                tally.add(lo, [a.T for a in stats], [lim.T for lim in limits], rs)
            for bi in range(n_b):
                for j, r in enumerate(ids):
                    for i in range(m):
                        if stats[bi, i, j] <= limits[bi, i, j if per_rep else 0]:
                            fixed[bi, lo + i] += 1
                        else:
                            first_miss[bi, r] = min(first_miss[bi, r], lo + i)
        assert first_miss[:, 0].tolist() == [n_grid] * n_b
        assert first_miss[:, 8].tolist() == [0] * n_b
        uniform = np.array([[np.sum(f > i) for i in range(n_grid)] for f in first_miss])
        assert tally.fixed.tolist() == fixed.tolist()
        assert tally.first_miss.tolist() == first_miss.tolist()
        report = tally.report(np.arange(1, n_grid + 1), specs, ones, ones, {})
        assert report.fixed_coverage.tolist() == (fixed / n_reps).T.ravel().tolist()
        assert report.uniform_coverage.tolist() == (uniform / n_reps).T.ravel().tolist()


@pytest.mark.parametrize("sizes", [(4, 4, 1), (3, 4, 4, 2)])
def test_miss_tally_merge_matches_one_part(monkeypatch, sizes):
    # the tallies of 1, 2 and 3 parts of whole groups, each filled in a
    # forked process and fed the same blocks, merge into the tally of one
    # part, bit for bit: counts (a nan statistic misses), first misses,
    # outcomes, the per-group sums (nan adds 0) and their means (nan at grid
    # index 3, where none is available)
    rng = np.random.default_rng(2)
    n_b, n_grid, n = 2, 12, sum(sizes)
    stats = rng.random((n_b, n_grid, n)) / 0.9  # covered at most 0.9 of the time
    halfwidth, radius = rng.random((2, n_b, n_grid, n))
    unavailable = rng.random((n_grid, n)) < 0.2
    unavailable[3] = True
    stats[:, unavailable] = halfwidth[:, unavailable] = radius[:, unavailable] = np.nan
    groups = np.split(np.arange(n), np.cumsum(sizes)[:-1])

    def fill(part):
        reps = slice(part[0][0], part[-1][-1] + 1)
        tally = harness._MissTally(n_b, n_grid, reps.stop - reps.start, map(len, part))
        for rows in (slice(0, 5), slice(5, n_grid)):
            tally.avail[rows] = np.count_nonzero(~np.isnan(halfwidth[0, rows, reps]), axis=1)
            tally.add(rows.start, [a[rows, reps].T for a in stats], [1.0] * n_b)
            for bi in range(n_b):
                tally.add_sums(bi, rows, halfwidth[bi, rows, reps], radius[bi, rows, reps])
        tally.outcome = np.arange(n)[reps]
        return tally

    names = ("sizes", "fixed", "avail", "first_miss", "hw_sums", "rad_sums", "outcome")
    one = fill(groups)
    forks = count_forks(monkeypatch)
    for workers in (1, 2, 3):
        monkeypatch.setattr(harness, "_WORKERS", workers)
        forks.clear()
        merged = harness._MissTally.merge(harness._fork_map(fill, groups))
        assert len(forks) == workers - 1
        for name in names:
            mine, theirs = (np.asarray(getattr(t, name)) for t in (merged, one))
            assert mine.tobytes() == theirs.tobytes(), name
        for mine, theirs in zip(merged.means(), one.means()):
            assert mine.tobytes() == theirs.tobytes()
    assert np.isnan(one.means()[0]).sum() == n_b


def test_gaussian_check_basic_properties():
    rep = run_gaussian_check(2, horizon=400, reps=200, boundaries=specs(0.1), seed=3)
    assert len(rep.rows) == 400 * len(KINDS)
    # the three CS families keep time-uniform coverage near 1 - alpha;
    # the fixed baseline holds no such guarantee and is excluded
    final = {r.boundary_kind: r for r in rep.rows if r.t == 400}
    for kind in ("lilub", "gm", "lilen"):
        assert 0.8 <= final[kind].uniform_coverage <= 1.0
    assert final["fixed"].uniform_coverage < 0.5
    mean_final = np.asarray(rep.metadata["mean_final"])
    se = math.sqrt(1.0 / (400 * 200))
    assert np.abs(mean_final).max() <= 4.0 * se


def test_gaussian_check_takes_boundary_specs():
    # a level of its own per kind at d = 2: the covered counts are the
    # reference's and each radius_mean (and half-width) is radius_grid's
    bounds = (BoundarySpec("gm", 0.05), BoundarySpec("lilen", 0.1), BoundarySpec("lilub", 0.01))
    kw = dict(horizon=300, reps=30, boundaries=bounds, seed=6)
    report = run_gaussian_check(2, **kw)
    fixed, uniform, _ = gaussian_check_reference(2, **kw)
    assert report.fixed_coverage.tolist() == (fixed / 30).T.ravel().tolist()
    assert report.uniform_coverage.tolist() == (uniform / 30).T.ravel().tolist()
    ts = np.arange(1, 301)
    radii = np.array([radius_grid(b, ts, 2) for b in bounds]).T.ravel().tolist()
    assert report.radius_mean.tolist() == report.halfwidth_mean.tolist() == radii
    # each boundary records its own level; there is no run-wide one
    config = report.metadata["config"]
    assert config["boundaries"] == [dataclasses.asdict(b) for b in bounds]
    assert "alpha" not in config


def test_gaussian_check_deterministic_and_validated():
    a = csv_text(run_gaussian_check(1, 200, 50, specs(0.05, ("lilub", "gm")), seed=9))
    b = csv_text(run_gaussian_check(1, 200, 50, specs(0.05, ("lilub", "gm")), seed=9))
    assert a == b


def test_gaussian_check_validation():
    with pytest.raises(ValueError):
        run_gaussian_check(1, 100, 10, ())
    with pytest.raises(ValueError):
        run_gaussian_check(1, 100, 10, specs(0.1, ("gm", "gm")))
    with pytest.raises(ValueError, match="boundaries must be BoundarySpec instances"):
        run_gaussian_check(1, 100, 10, ("gm",))
    with pytest.raises(ValueError):
        run_gaussian_check(1, 0, 10, specs(0.1, ("gm",)))
    with pytest.raises(ValueError, match="reps must be an integer >= 1, got True"):
        run_gaussian_check(1, 100, True, specs(0.1, ("gm",)))
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_gaussian_check(1, 100, 10, specs(0.1, ("gm",)), seed=False)
    for dim in (0, -1, 2.0, True):
        with pytest.raises(ValueError, match=f"dim must be an integer >= 1, got {dim!r}"):
            run_gaussian_check(dim, 100, 10, specs(0.1, ("gm",)))


# --------------------------------------------------------------- emission


def sample_report():
    rows = (
        ReportRow(
            t=500,
            boundary_kind="gm",
            radius_mean=0.182711207,
            fixed_coverage=0.9,
            uniform_coverage=0.9,
            halfwidth_mean=1.05678901,
            reps_effective=10,
        ),
        ReportRow(
            t=750,
            boundary_kind="gm",
            radius_mean=0.15,
            fixed_coverage=0.95,
            uniform_coverage=0.85,
            halfwidth_mean=0.9,
            reps_effective=10,
        ),
    )
    return make_report(rows, {"experiment": "coverage", "seed": 0})


def gm_rows(uniform, fixed=None, radius=0.1):
    """One gm row per uniform coverage value, at t = 1, 2, ..."""
    fixed = uniform if fixed is None else fixed
    return [
        ReportRow(t, "gm", radius, f, u, 0.1, 2)
        for t, (f, u) in enumerate(zip(fixed, uniform), start=1)
    ]


def test_report_columns_and_rows():
    rep = sample_report()
    assert rep.t.tolist() == [500, 750]
    assert rep.uniform_coverage.tolist() == [0.9, 0.85]
    # rows are built from the columns on each access
    assert rep.rows[1] == ReportRow(750, "gm", 0.15, 0.95, 0.85, 0.9, 10)
    assert rep.rows is not rep.rows
    # every column has one entry per row
    columns = {c: [1.0] for c in CSV_COLUMNS}
    columns["t"] = [1, 2]
    with pytest.raises(ValueError):
        CoverageReport(**columns, metadata={})


def test_csv_format_and_header():
    text = csv_text(sample_report())
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "500,gm,0.182711207,0.9,0.9,1.05678901,10"
    assert text.endswith("\n")


def test_csv_nine_significant_digits():
    row = ReportRow(
        t=1,
        boundary_kind="gm",
        radius_mean=math.pi,
        fixed_coverage=1.0 / 3.0,
        uniform_coverage=0.25,
        halfwidth_mean=1234567.891,
        reps_effective=3,
    )
    text = csv_text(make_report((row,)))
    assert text.strip().split("\n")[1] == "1,gm,3.14159265,0.333333333,0.25,1234567.89,3"


def test_json_round_trip():
    payload = json.loads(report_to_json(sample_report()))
    assert payload["rows"][0]["t"] == 500
    assert payload["rows"][0]["radius_mean"] == 0.182711207
    assert payload["metadata"]["experiment"] == "coverage"


def test_json_maps_nonfinite_to_null():
    rep = make_report((), {"x": math.inf, "y": math.nan, "z": 1.0})
    payload = json.loads(report_to_json(rep))
    assert payload["metadata"]["x"] is None
    assert payload["metadata"]["y"] is None
    assert payload["metadata"]["z"] == 1.0


def test_json_rows_parse_equal_to_csv_rows(tmp_path):
    # the divergent config has unavailable evaluations, so nan half-widths
    rep = run_coverage(divergent_config())
    emit_report(rep, "csv", tmp_path / "r.csv")
    emit_report(rep, "json", tmp_path / "r.json")
    with open(tmp_path / "r.csv", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = json.loads((tmp_path / "r.json").read_text())["rows"]
    assert len(csv_rows) == len(json_rows) == len(rep.t)
    for c, j in zip(csv_rows, json_rows):
        assert list(c) == list(j) == list(CSV_COLUMNS)
        for name in CSV_COLUMNS:
            value = j[name]
            if value is None:
                assert c[name] == "nan"
            elif isinstance(value, float):
                assert float(c[name]) == float(f"{value:.9g}")
            else:
                assert c[name] == str(value)


def test_emit_report_validates_and_writes(tmp_path):
    rep = sample_report()
    out = tmp_path / "r.csv"
    emit_report(rep, "csv", out)
    assert out.read_text() == csv_text(rep)
    out_json = tmp_path / "r.json"
    emit_report(rep, "json", out_json)
    assert out_json.read_text() == report_to_json(rep)
    with pytest.raises(ValueError):
        emit_report(rep, "parquet", tmp_path / "r.parquet")
    with pytest.raises(OSError) as exc:
        emit_report(rep, "csv", tmp_path / "missing" / "r.csv")
    assert "cannot write report to" in str(exc.value)
    assert str(tmp_path / "missing" / "r.csv") in str(exc.value)
    # a built report's columns are read-only: it cannot be made invalid
    with pytest.raises(ValueError, match="read-only"):
        rep.uniform_coverage[1] = 0.95


def test_report_columns_do_not_follow_the_arrays_given(tmp_path):
    # The arrays a report is built from become its read-only columns (not
    # copies), so the caller cannot change a validated report through them.
    columns = {
        "t": np.array([500, 750]),
        "boundary_kind": np.array(["gm", "gm"]),
        "radius_mean": np.array([0.2, 0.1]),
        "fixed_coverage": np.array([1.0, 1.0]),
        "uniform_coverage": np.array([1.0, 0.9]),
        "halfwidth_mean": np.array([0.3, 0.2]),
        "reps_effective": np.array([10, 10]),
    }
    rep = CoverageReport(**columns, metadata={})
    before = csv_text(rep)
    edits = [("t", 1, 1), ("boundary_kind", 1, "xx"), ("reps_effective", ..., -7)]
    for name, at, value in edits:
        with pytest.raises(ValueError, match="read-only"):
            columns[name][at] = value
        assert getattr(rep, name) is columns[name]
    emit_report(rep, "csv", tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text() == before


def test_emit_report_empty_rows_header_only(tmp_path):
    rep = make_report(())
    out = tmp_path / "empty.csv"
    emit_report(rep, "csv", out)
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


@pytest.mark.parametrize("n_rows", [0, 1, 4, 5, 6])
def test_emit_report_streams_across_chunks(monkeypatch, tmp_path, n_rows):
    # 0, 1, chunk - 1, chunk and chunk + 1 rows with a chunk of 5 rows
    rows = gm_rows([1.0 - 0.01 * i for i in range(n_rows)], radius=math.pi)
    rep = make_report(rows)
    expected = ",".join(CSV_COLUMNS) + "\n" + "".join(
        f"{r.t},gm,{r.radius_mean:.9g},{r.fixed_coverage:.9g},"
        f"{r.uniform_coverage:.9g},0.1,2\n"
        for r in rows
    )
    monkeypatch.setattr(harness, "_CSV_CHUNK", 5)
    emit_report(rep, "csv", tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text() == csv_text(rep) == expected


def test_emit_report_memory_is_a_fraction_of_the_columns(tmp_path):
    # 10,000 steps x 4 kinds. Rows were once ~335 B objects each, with the
    # whole CSV text on top (2.7 times the column bytes); now validation
    # and one chunk of formatted rows take about a quarter of them
    rep = run_gaussian_check(1, 10_000, 4, specs(0.05), seed=1)
    column_bytes = sum(getattr(rep, c).nbytes for c in CSV_COLUMNS)
    assert len(rep.t) == 40_000
    emit_report(rep, "csv", tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        emit_report(rep, "csv", tmp_path / "r.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * column_bytes
    assert (tmp_path / "r.csv").read_text() == csv_text(rep)


def test_validate_rejects_bad_reports():
    # a report is validated when built
    sample_report().validate()
    with pytest.raises(ValueError, match="gm rate 1.5 at t=1 outside"):
        make_report(gm_rows([0.9], fixed=[1.5]))
    with pytest.raises(ValueError, match="gm time-uniform coverage increased at t=2"):
        make_report(gm_rows([0.5, 0.7]))


def test_validate_rejects_nan_rate():
    for fixed, uniform in (([math.nan], [0.9]), ([0.9], [math.nan])):
        with pytest.raises(ValueError, match="gm rate nan at t=1 outside"):
            make_report(gm_rows(uniform, fixed=fixed))


def test_validate_names_the_first_offending_t():
    lilub = [ReportRow(t, "lilub", 0.1, 1.0, 1.0, 0.1, 2) for t in (1, 2, 3, 4)]
    gm = gm_rows([1.0, 0.9, 0.95, 0.99])
    gm[3] = ReportRow(4, "gm", -0.1, 0.9, 0.9, 0.1, 2)
    # interleaved step-major; gm first fails at t=3 (an increase), then t=4
    rows = [r for pair in zip(lilub, gm) for r in pair]
    with pytest.raises(ValueError, match="^gm time-uniform coverage increased at t=3$"):
        make_report(rows)
    # kinds are checked in order of first appearance
    lilub[3] = ReportRow(4, "lilub", 0.0, 1.0, 1.0, 0.1, 2)
    rows = [r for pair in zip(lilub, gm) for r in pair]
    with pytest.raises(ValueError, match="^lilub radius_mean at t=4 not positive$"):
        make_report(rows)
    # within a row the rate rules come before the increase rule
    bad = gm_rows([1.0, 1.5])
    with pytest.raises(ValueError, match="^gm rate 1.5 at t=2 outside"):
        make_report(bad)


def test_validate_allows_slack_and_nan_radius():
    # an increase within 1e-12 passes, as does a nan radius (unavailable)
    make_report(gm_rows([1.0, 0.5, 0.5 + 1e-13], radius=math.nan))
    with pytest.raises(ValueError, match="increased at t=3"):
        make_report(gm_rows([1.0, 0.5, 0.5 + 1e-11]))
