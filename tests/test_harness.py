"""Tests for the Monte Carlo coverage harness and rate exponent tables."""

import json
import math

import numpy as np
import pytest

from sacs.boundaries import KINDS, BoundarySpec
from sacs.harness import (
    CSV_COLUMNS,
    CoverageReport,
    ExperimentConfig,
    ReportRow,
    emit_report,
    fit_rate,
    rate_exponents,
    report_to_csv,
    report_to_json,
    run_coverage,
    run_gaussian_check,
)
from sacs.numerics import NumericalError, SingularMatrixError, SymMatrix
from sacs.sa_engine import RngStream, StepSchedule, default_model, run_lockstep


def small_config(**overrides):
    base = dict(
        model=default_model("linear", 1),
        schedule=StepSchedule(0.01, 0.67),
        iters=1500,
        reps=10,
        start=500,
        stride=250,
        boundaries=tuple(BoundarySpec(k, 0.1) for k in KINDS),
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


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
    model = default_model("linear", 1)
    sched = StepSchedule(0.01, 0.67)
    gens = [RngStream(17, r).generator for r in range(20)]
    ckpts = [1000, 2000, 4000, 8000, 16000]
    med = {}

    def visit(tt, x, xbar, h_sum, s_sum, alive):
        med[tt] = float(np.median(np.abs(xbar[alive, 0] - 1.0)))

    run_lockstep(model, sched, 16000, np.zeros(1), gens, ckpts, visit)
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
        small_config(subset=(1,))
    with pytest.raises(ValueError):
        small_config(iters=800, start=801)
    cfg = small_config(model=default_model("linear", 3), subset=(2, 0, 2))
    assert cfg.subset == (0, 2)


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
    a = report_to_csv(run_coverage(small_config()))
    b = report_to_csv(run_coverage(small_config()))
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
    cfg = small_config(
        schedule=StepSchedule(7.0, 0.67),
        iters=2000,
        reps=12,
        start=500,
        stride=500,
        boundaries=(BoundarySpec("gm", 0.1), BoundarySpec("fixed", 0.1)),
    )
    rep = run_coverage(cfg)
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


def test_run_coverage_subset_matches_full_in_d1_block():
    # a diagonal 2d model restricted to coordinate 0 behaves like the
    # coordinate's own run: same grid shape, valid rates
    model = default_model("linear", 2)
    rep = run_coverage(
        small_config(model=model, subset=(0,), reps=8, iters=1200, start=600, stride=300)
    )
    assert rep.metadata["config"]["subset"] == [0]
    for row in rep.rows:
        assert 0.0 <= row.uniform_coverage <= 1.0


# ------------------------------------------------------ gaussian check


def test_gaussian_check_basic_properties():
    v = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    rep = run_gaussian_check(2, v, 0.1, horizon=400, reps=200, boundaries=KINDS, seed=3)
    assert len(rep.rows) == 400 * len(KINDS)
    # the three CS families keep time-uniform coverage near 1 - alpha;
    # the fixed baseline holds no such guarantee and is excluded
    final = {r.boundary_kind: r for r in rep.rows if r.t == 400}
    for kind in ("lilub", "gm", "lilen"):
        assert 0.8 <= final[kind].uniform_coverage <= 1.0
    assert final["fixed"].uniform_coverage < 0.5
    mean_final = np.asarray(rep.metadata["mean_final"])
    se = math.sqrt(2.0 / (400 * 200))
    assert np.abs(mean_final).max() <= 4.0 * se


def test_gaussian_check_radius_scale_ceiling():
    rep = run_gaussian_check(
        1,
        SymMatrix([[1.0]]),
        0.1,
        horizon=300,
        reps=100,
        boundaries=("gm", "fixed"),
        seed=1,
        radius_scale=25.0,
    )
    for row in rep.rows:
        if row.boundary_kind == "gm":
            assert row.uniform_coverage == 1.0


def test_gaussian_check_deterministic_and_validated():
    v = SymMatrix([[1.0]])
    a = report_to_csv(run_gaussian_check(1, v, 0.05, 200, 50, ("lilub", "gm"), seed=9))
    b = report_to_csv(run_gaussian_check(1, v, 0.05, 200, 50, ("lilub", "gm"), seed=9))
    assert a == b


def test_gaussian_check_validation():
    v = SymMatrix([[1.0]])
    with pytest.raises(ValueError):
        run_gaussian_check(2, v, 0.1, 100, 10, ("gm",))
    with pytest.raises(ValueError):
        run_gaussian_check(1, v, 0.1, 100, 10, ())
    with pytest.raises(ValueError):
        run_gaussian_check(1, v, 0.1, 100, 10, ("gm", "gm"))
    with pytest.raises(ValueError):
        run_gaussian_check(1, v, 0.1, 0, 10, ("gm",))
    with pytest.raises(ValueError):
        run_gaussian_check(1, v, 0.1, 100, 10, ("gm",), radius_scale=0.0)
    with pytest.raises(SingularMatrixError):
        run_gaussian_check(2, SymMatrix(np.diag([1.0, 0.0])), 0.1, 100, 10, ("gm",))


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
    return CoverageReport(rows=rows, metadata={"experiment": "coverage", "seed": 0})


def test_csv_format_and_header():
    text = report_to_csv(sample_report())
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
    text = report_to_csv(CoverageReport(rows=(row,), metadata={}))
    assert text.strip().split("\n")[1] == "1,gm,3.14159265,0.333333333,0.25,1234567.89,3"


def test_json_round_trip():
    payload = json.loads(report_to_json(sample_report()))
    assert payload["rows"][0]["t"] == 500
    assert payload["rows"][0]["radius_mean"] == 0.182711207
    assert payload["metadata"]["experiment"] == "coverage"


def test_json_maps_nonfinite_to_null():
    rep = CoverageReport(rows=(), metadata={"x": math.inf, "y": math.nan, "z": 1.0})
    payload = json.loads(report_to_json(rep))
    assert payload["metadata"]["x"] is None
    assert payload["metadata"]["y"] is None
    assert payload["metadata"]["z"] == 1.0


def test_emit_report_validates_and_writes(tmp_path):
    rep = sample_report()
    out = tmp_path / "r.csv"
    emit_report(rep, "csv", out)
    assert out.read_text() == report_to_csv(rep)
    out_json = tmp_path / "r.json"
    emit_report(rep, "json", out_json)
    assert json.loads(out_json.read_text())["rows"]
    with pytest.raises(ValueError):
        emit_report(rep, "parquet", tmp_path / "r.parquet")
    with pytest.raises(OSError) as exc:
        emit_report(rep, "csv", tmp_path / "missing" / "r.csv")
    assert "cannot write report to" in str(exc.value)


def test_emit_report_empty_rows_header_only(tmp_path):
    rep = CoverageReport(rows=(), metadata={})
    out = tmp_path / "empty.csv"
    emit_report(rep, "csv", out)
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_validate_rejects_bad_reports():
    good = sample_report()
    good.validate()
    bad_rate = CoverageReport(
        rows=(
            ReportRow(
                t=1,
                boundary_kind="gm",
                radius_mean=0.1,
                fixed_coverage=1.5,
                uniform_coverage=0.9,
                halfwidth_mean=0.1,
                reps_effective=1,
            ),
        ),
        metadata={},
    )
    with pytest.raises(ValueError):
        bad_rate.validate()
    increasing = CoverageReport(
        rows=(
            ReportRow(
                t=1,
                boundary_kind="gm",
                radius_mean=0.1,
                fixed_coverage=0.5,
                uniform_coverage=0.5,
                halfwidth_mean=0.1,
                reps_effective=2,
            ),
            ReportRow(
                t=2,
                boundary_kind="gm",
                radius_mean=0.1,
                fixed_coverage=0.7,
                uniform_coverage=0.7,
                halfwidth_mean=0.1,
                reps_effective=2,
            ),
        ),
        metadata={},
    )
    with pytest.raises(ValueError):
        increasing.validate()
