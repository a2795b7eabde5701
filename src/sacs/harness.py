"""Experiment orchestration: coverage Monte Carlo, Gaussian-oracle checks,
rate diagnostics, and CSV/JSON report emission.

Repetitions use disjoint RNG streams (repetition r gets stream r of the
experiment seed) and execute in vectorized lockstep chunks; aggregation is
an ordered reduction over chunks, so every report is a deterministic
function of its configuration.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import boundaries as bnd
from .covariance import sandwich
from .numerics import NumericalError, SingularMatrixError, SymMatrix, whiten
from .sa_engine import (
    ModelSpec,
    RngStream,
    StepSchedule,
    run_lockstep,
    validate_rate_condition,
)

__all__ = [
    "CSV_COLUMNS",
    "ExperimentConfig",
    "ReportRow",
    "CoverageReport",
    "RateProfile",
    "rate_exponents",
    "run_coverage",
    "run_gaussian_check",
    "fit_rate",
    "report_to_csv",
    "report_to_json",
    "emit_report",
]

CSV_COLUMNS = (
    "t",
    "boundary_kind",
    "radius_mean",
    "fixed_coverage",
    "uniform_coverage",
    "halfwidth_mean",
    "reps_effective",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one coverage Monte Carlo run.

    start is the first evaluated step m and stride the evaluation spacing;
    the time-uniform grid is {m, m+stride, ...} capped at iters. subset
    restricts inference to the listed coordinates (None means all).
    """

    model: ModelSpec
    schedule: StepSchedule
    iters: int
    reps: int
    start: int = 1000
    stride: int = 10
    boundaries: tuple = ()
    seed: int = 0
    subset: tuple | None = None

    def __post_init__(self) -> None:
        for name, lo in (("iters", 1), ("reps", 1), ("start", 1), ("stride", 1)):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < lo:
                raise ValueError(f"{name} must be an integer >= {lo}, got {v!r}")
        if self.start > self.iters:
            raise ValueError(f"start ({self.start}) exceeds iters ({self.iters})")
        specs = tuple(self.boundaries)
        if not specs or not all(isinstance(b, bnd.BoundarySpec) for b in specs):
            raise ValueError("boundaries must be a nonempty sequence of BoundarySpec")
        kinds = [b.kind for b in specs]
        if len(set(kinds)) != len(kinds):
            raise ValueError("boundary kinds must be distinct within one experiment")
        object.__setattr__(self, "boundaries", specs)
        if self.subset is not None:
            idx = tuple(sorted(set(int(i) for i in self.subset)))
            if not idx or idx[0] < 0 or idx[-1] >= self.model.dim:
                raise ValueError(
                    f"subset must be nonempty coordinates in [0, {self.model.dim})"
                )
            object.__setattr__(self, "subset", idx)


@dataclass(frozen=True)
class ReportRow:
    """One (step, boundary) aggregate over effective repetitions."""

    t: int
    boundary_kind: str
    radius_mean: float
    fixed_coverage: float
    uniform_coverage: float
    halfwidth_mean: float
    reps_effective: int


@dataclass(frozen=True)
class CoverageReport:
    """Aggregated coverage rows plus run metadata.

    Row order is step-major (all boundaries at t, then t+stride, ...).
    Metadata echoes the configuration, the seed layout, divergence and
    availability accounting, and wall time; wall time never enters the
    CSV so CSV output stays byte-deterministic.
    """

    rows: tuple
    metadata: dict

    def validate(self) -> None:
        by_kind: dict[str, list[ReportRow]] = {}
        for row in self.rows:
            by_kind.setdefault(row.boundary_kind, []).append(row)
        for kind, rows in by_kind.items():
            prev = 1.0
            for row in rows:
                for rate in (row.fixed_coverage, row.uniform_coverage):
                    if not (0.0 <= rate <= 1.0):
                        raise ValueError(
                            f"{kind} rate {rate} at t={row.t} outside [0, 1]"
                        )
                if row.uniform_coverage > prev + 1e-12:
                    raise ValueError(
                        f"{kind} time-uniform coverage increased at t={row.t}"
                    )
                prev = row.uniform_coverage
                if not (row.radius_mean > 0.0 or math.isnan(row.radius_mean)):
                    raise ValueError(f"{kind} radius_mean at t={row.t} not positive")


# ---------------------------------------------------------------------------
# Rate exponents.


@dataclass(frozen=True)
class RateProfile:
    """The five error-term exponents and the optimal schedule summary.

    e2 is None for linear problems (its term is absent there). violation
    carries the failed admissibility inequality, or None when the
    configuration is admissible; exponents are reported either way.
    """

    a: float
    lam: float
    p: float
    d: int
    linear: bool
    violation: str | None
    e1: float
    e2: float | None
    e3: float
    e4: float
    e5: float
    overall: float
    a_opt: float
    r_opt: float


def rate_exponents(a: float, lam: float, p: float, d: int, linear: bool) -> RateProfile:
    """Negative error exponents of the five terms of the coupling rate.

    p is the available moment order (math.inf allowed); d the dimension.
    overall is the min over the applicable terms. a_opt and r_opt give the
    exponent-optimal step schedule and its overall rate; for p = inf the
    closed-form limits are returned exactly.
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    violation = validate_rate_condition(a, lam, p, linear)
    inv_p = 0.0 if math.isinf(p) else 1.0 / p

    e1 = 1.0
    e2 = None if linear else a * (1.0 + lam) / 2.0
    e3 = (2.0 - a) / 2.0 - inv_p / 2.0
    e4 = (1.0 + a) / 2.0
    if d == 1:
        e5 = 0.5 + (1.0 - inv_p) / 4.0
    else:
        e5 = 0.5 + (1.0 - inv_p) / (50.0 * d)
    applicable = [e1, e3, e4, e5] if linear else [e1, e2, e3, e4, e5]
    overall = min(applicable)

    if linear:
        a_opt = 0.5 if math.isinf(p) else (p - 1.0) / (2.0 * p)
        r_opt = 0.75 if math.isinf(p) else (3.0 * p - 1.0) / (4.0 * p)
    else:
        if math.isinf(p):
            a_opt = 2.0 / (2.0 + lam)
            r_opt = (1.0 + lam) / (2.0 + lam)
        else:
            a_opt = (2.0 * p - 1.0) / ((2.0 + lam) * p)
            r_opt = (1.0 + lam) * (2.0 * p - 1.0) / (2.0 * (2.0 + lam) * p)

    return RateProfile(
        a=a,
        lam=lam,
        p=p,
        d=int(d),
        linear=linear,
        violation=violation,
        e1=e1,
        e2=e2,
        e3=e3,
        e4=e4,
        e5=e5,
        overall=overall,
        a_opt=a_opt,
        r_opt=r_opt,
    )


# ---------------------------------------------------------------------------
# Coverage Monte Carlo.


def _chunk_reps(iters: int, dim: int) -> int:
    # Keep the pre-drawn data block around 20 MB per chunk.
    return max(1, min(256, int(2.5e6 / max(1, iters * dim))))


def _spec_meta(b: bnd.BoundarySpec) -> dict:
    return {"kind": b.kind, "alpha": b.alpha, "t0": b.t0, "eps_net": b.eps_net}


def _model_meta(m: ModelSpec) -> dict:
    return {
        "kind": m.kind,
        "dim": m.dim,
        "theta_star": [float(v) for v in m.theta_star],
        "noise_sd": m.noise_sd,
        "cov_halfwidth": m.cov_halfwidth,
    }


def run_coverage(cfg: ExperimentConfig) -> CoverageReport:
    """Monte Carlo time-uniform coverage of every configured boundary.

    Repetition r runs the recursion with stream r, evaluates each boundary
    at every grid step against the known theta_star, and a repetition
    counts as covering up to t only if it has missed at no grid step in
    [start, t]. Divergent repetitions are excluded from all rates and
    reported in metadata; evaluations where the sandwich estimate is
    unavailable (singular Jacobian estimate, or accumulators or sandwich
    that are not finite or not positive definite) count as misses and as
    unavailable evaluations.
    """
    wall_start = time.perf_counter()
    model, sched = cfg.model, cfg.schedule
    iters, reps, start, stride = cfg.iters, cfg.reps, cfg.start, cfg.stride
    grid = np.arange(start, iters + 1, stride, dtype=np.int64)
    n_grid = grid.size
    theta = model.theta_star
    idx = np.arange(model.dim) if cfg.subset is None else np.asarray(cfg.subset, int)
    d_eff = int(idx.size)
    specs = cfg.boundaries
    n_b = len(specs)

    # lilen is the one kind whose radius depends on the per-repetition
    # condition number; with a scalar whitening matrix kappa is identically
    # 1 and every kind shares one radius grid.
    per_rep_radius = [b.kind == "lilen" and d_eff > 1 for b in specs]
    shared_radius = [
        None if per_rep_radius[bi] else bnd.radius_grid(b, grid, d_eff, kappa=1.0)
        for bi, b in enumerate(specs)
    ]

    fixed_counts = np.zeros((n_b, n_grid), dtype=np.int64)
    unif_counts = np.zeros((n_b, n_grid), dtype=np.int64)
    avail_counts = np.zeros(n_grid, dtype=np.int64)
    hw_sums = np.zeros((n_b, n_grid))
    rep_rad_sums = np.zeros((n_b, n_grid))
    eff_total = 0
    unavailable_total = 0
    divergent: list[tuple[int, int]] = []

    d = model.dim
    chunk = _chunk_reps(iters, d)
    for lo in range(0, reps, chunk):
        hi = min(reps, lo + chunk)
        n = hi - lo
        gens = [RngStream(cfg.seed, r).generator for r in range(lo, hi)]
        stats_sup = np.full((n_grid, n), np.nan)
        stats_two = np.full((n_grid, n), np.nan)
        base_two = np.full((n_grid, n), np.nan)
        base_sup = np.full((n_grid, n), np.nan)
        rep_rad = {
            bi: np.full((n_grid, n), np.nan)
            for bi in range(n_b)
            if per_rep_radius[bi]
        }

        # visit() only copies grid states into a ring buffer of k_buf grid
        # points, and one kernel call evaluates them all. About 2,048 matrix
        # entries per call amortise the per-call overhead while keeping the
        # buffers small. The alive mask is not needed: repetitions that
        # diverge are left out of every aggregate below.
        k_buf = max(1, 2048 // (n * d * d))
        buf_xbar = np.empty((k_buf, n, d))
        buf_h = np.empty((k_buf, n, d, d))
        buf_s = np.empty((k_buf, n, d, d))

        def visit(tt, x, xbar, h_sum, s_sum, alive):
            i = (tt - start) // stride
            j = i % k_buf
            buf_xbar[j] = xbar
            buf_h[j] = h_sum
            buf_s[j] = s_sum
            if j < k_buf - 1 and i < n_grid - 1:
                return
            m = j + 1
            rows = slice(i - j, i + 1)
            ts = grid[rows].astype(float)[:, None]
            scale = ts[..., None, None]
            v, _ = sandwich(buf_h[:m] / scale, buf_s[:m] / scale)
            # Every field is nan where the sandwich or its sub-matrix is
            # unavailable.
            wh = whiten(v[..., idx[:, None], idx], buf_xbar[:m, :, idx] - theta[idx])
            stats_sup[rows] = wh.stat_sup
            stats_two[rows] = wh.stat_two
            base_two[rows] = np.mean(wh.scale_two, axis=-1)
            base_sup[rows] = np.mean(wh.scale_sup, axis=-1)
            for bi in rep_rad:
                with np.errstate(invalid="ignore"):
                    vals = bnd.radius_grid(specs[bi], ts, d_eff, kappa=wh.kappa)
                # nan kappa marks an unavailable evaluation, not an undefined
                # boundary; keep it nan rather than the grid's +inf.
                rep_rad[bi][rows] = np.where(np.isnan(wh.kappa), np.nan, vals)

        diverged_at = run_lockstep(
            model, sched, iters, np.zeros(d), gens, grid, visit
        )
        eff = diverged_at == -1
        for r in np.flatnonzero(~eff):
            divergent.append((lo + int(r), int(diverged_at[r])))
        n_eff = int(eff.sum())
        eff_total += n_eff
        avail = ~np.isnan(stats_sup)
        avail_eff = avail[:, eff].sum(axis=1)
        avail_counts += avail_eff
        unavailable_total += int(n_eff * n_grid - avail_eff.sum())

        for bi, b in enumerate(specs):
            rad = shared_radius[bi][:, None] if not per_rep_radius[bi] else rep_rad[bi]
            stat = stats_sup if b.norm_kind == "sup_norm" else stats_two
            with np.errstate(invalid="ignore"):
                covered = stat <= rad
            fixed_counts[bi] += covered[:, eff].sum(axis=1)
            miss_run = np.logical_or.accumulate(~covered, axis=0)
            unif_counts[bi] += (~miss_run)[:, eff].sum(axis=1)
            base = base_sup if b.norm_kind == "sup_norm" else base_two
            with np.errstate(invalid="ignore"):
                hw = rad * base
            hw_sums[bi] += np.nansum(hw[:, eff], axis=1)
            if per_rep_radius[bi]:
                rep_rad_sums[bi] += np.nansum(rep_rad[bi][:, eff], axis=1)

    if eff_total == 0:
        raise NumericalError("all repetitions diverged; nothing to aggregate")

    rows = []
    with np.errstate(invalid="ignore", divide="ignore"):
        safe_avail = np.where(avail_counts > 0, avail_counts, 1)
        hw_means = np.where(avail_counts > 0, hw_sums / safe_avail, np.nan)
        rep_rad_means = np.where(avail_counts > 0, rep_rad_sums / safe_avail, np.nan)
    for i, t in enumerate(grid):
        for bi, b in enumerate(specs):
            radius_mean = (
                float(shared_radius[bi][i])
                if not per_rep_radius[bi]
                else float(rep_rad_means[bi, i])
            )
            rows.append(
                ReportRow(
                    t=int(t),
                    boundary_kind=b.kind,
                    radius_mean=radius_mean,
                    fixed_coverage=float(fixed_counts[bi, i] / eff_total),
                    uniform_coverage=float(unif_counts[bi, i] / eff_total),
                    halfwidth_mean=float(hw_means[bi, i]),
                    reps_effective=eff_total,
                )
            )

    metadata = {
        "experiment": "coverage",
        "config": {
            "model": _model_meta(model),
            "eta0": sched.eta0,
            "a": sched.a,
            "iters": iters,
            "reps": reps,
            "start": start,
            "stride": stride,
            "seed": cfg.seed,
            "subset": list(idx) if cfg.subset is not None else None,
            "boundaries": [_spec_meta(b) for b in specs],
        },
        "seeds": {"seed": cfg.seed, "streams": f"0..{reps - 1}"},
        "reps_effective": eff_total,
        "divergent": {"count": len(divergent), "first_steps": divergent},
        "unavailable_evaluations": unavailable_total,
        "wall_time_s": time.perf_counter() - wall_start,
    }
    report = CoverageReport(rows=tuple(rows), metadata=metadata)
    report.validate()
    return report


def run_gaussian_check(
    d: int,
    v: SymMatrix,
    alpha: float,
    horizon: int,
    reps: int,
    boundaries,
    seed: int = 0,
    radius_scale: float = 1.0,
) -> CoverageReport:
    """Coverage of the boundaries on exact Gaussian running means.

    Simulates M_t = (1/t) sum of i.i.d. N(0, v) vectors through the
    square root of v, whitens with the TRUE v, and evaluates every listed
    boundary kind (strings; level alpha, default shape parameters) at
    every t in [1, horizon]. This isolates the boundary guarantee from
    plug-in and averaging error. radius_scale inflates every radius, for
    sanity-ceiling tests.
    """
    if v.dim != d:
        raise ValueError(f"v has dimension {v.dim}, expected {d}")
    for name, value in (("horizon", horizon), ("reps", reps)):
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if not (radius_scale > 0.0 and math.isfinite(radius_scale)):
        raise ValueError(f"radius_scale must be positive, got {radius_scale}")
    wall_start = time.perf_counter()
    kinds = tuple(boundaries)
    specs = tuple(bnd.BoundarySpec(kind, alpha) for kind in kinds)
    if not specs:
        raise ValueError("boundaries must be a nonempty sequence of kinds")
    if len(set(kinds)) != len(specs):
        raise ValueError("boundary kinds must be distinct")

    wh = whiten(v.entries)
    if not wh.ok:
        raise SingularMatrixError("covariance must be numerically positive definite")
    ts = np.arange(1, horizon + 1, dtype=np.int64)
    radii = [bnd.radius_grid(b, ts, d, kappa=wh.kappa) * radius_scale for b in specs]
    base_two = float(np.mean(wh.scale_two))
    base_sup = float(np.mean(wh.scale_sup))

    n_b = len(specs)
    fixed_counts = np.zeros((n_b, horizon), dtype=np.int64)
    unif_counts = np.zeros((n_b, horizon), dtype=np.int64)
    mean_final = np.zeros(d)

    chunk = _chunk_reps(horizon, d)
    inv_t = 1.0 / ts.astype(float)
    for lo in range(0, reps, chunk):
        hi = min(reps, lo + chunk)
        gens = [RngStream(seed, r).generator for r in range(lo, hi)]
        z = np.stack([g.standard_normal((horizon, d)) for g in gens])
        g_inc = z @ wh.root
        m_run = np.cumsum(g_inc, axis=1) * inv_t[None, :, None]
        white = m_run @ wh.inv_root
        stats = {
            "sup_norm": np.max(np.abs(white), axis=2).T,
            "two_norm": np.sqrt(np.sum(white * white, axis=2)).T,
        }
        mean_final += m_run[:, -1, :].sum(axis=0)
        for bi, b in enumerate(specs):
            covered = stats[b.norm_kind] <= radii[bi][:, None]
            fixed_counts[bi] += covered.sum(axis=1)
            miss_run = np.logical_or.accumulate(~covered, axis=0)
            unif_counts[bi] += (~miss_run).sum(axis=1)
    mean_final /= reps

    rows = []
    for i in range(horizon):
        for bi, b in enumerate(specs):
            base = base_sup if b.norm_kind == "sup_norm" else base_two
            radius = float(radii[bi][i])
            rows.append(
                ReportRow(
                    t=int(ts[i]),
                    boundary_kind=b.kind,
                    radius_mean=radius,
                    fixed_coverage=float(fixed_counts[bi, i] / reps),
                    uniform_coverage=float(unif_counts[bi, i] / reps),
                    halfwidth_mean=radius * base,
                    reps_effective=int(reps),
                )
            )
    metadata = {
        "experiment": "gaussian-check",
        "config": {
            "d": int(d),
            "v": [[float(x) for x in row] for row in v.entries],
            "alpha": alpha,
            "horizon": int(horizon),
            "reps": int(reps),
            "seed": int(seed),
            "radius_scale": radius_scale,
            "boundaries": [_spec_meta(b) for b in specs],
        },
        "seeds": {"seed": int(seed), "streams": f"0..{reps - 1}"},
        "mean_final": [float(x) for x in mean_final],
        "wall_time_s": time.perf_counter() - wall_start,
    }
    report = CoverageReport(rows=tuple(rows), metadata=metadata)
    report.validate()
    return report


def fit_rate(checkpoints, window) -> float:
    """Least-squares slope of log(error) against log(t) inside the window.

    checkpoints is a sequence of (t, error) pairs; window a (t_lo, t_hi)
    pair. Raises ValueError when fewer than 3 checkpoints fall in the
    window, when any selected error or t is nonpositive, or when all
    selected t coincide.
    """
    t_lo, t_hi = window
    pts = [(float(t), float(e)) for t, e in checkpoints if t_lo <= t <= t_hi]
    if len(pts) < 3:
        raise ValueError(
            f"degenerate window [{t_lo}, {t_hi}]: need >= 3 checkpoints, "
            f"found {len(pts)}"
        )
    if any(t <= 0.0 or e <= 0.0 for t, e in pts):
        raise ValueError("degenerate window: checkpoints must have t > 0, error > 0")
    lx = np.log([t for t, _ in pts])
    ly = np.log([e for _, e in pts])
    dx = lx - lx.mean()
    denom = float(np.sum(dx * dx))
    if denom == 0.0:
        raise ValueError("degenerate window: all checkpoints share one t")
    return float(np.sum(dx * (ly - ly.mean())) / denom)


# ---------------------------------------------------------------------------
# Emission.


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def report_to_csv(report: CoverageReport) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        lines.append(
            ",".join(
                (
                    str(row.t),
                    row.boundary_kind,
                    _fmt(row.radius_mean),
                    _fmt(row.fixed_coverage),
                    _fmt(row.uniform_coverage),
                    _fmt(row.halfwidth_mean),
                    str(row.reps_effective),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        # JSON has no inf/nan; null marks undefined values.
        return v if math.isfinite(v) else None
    return value


def report_to_json(report: CoverageReport) -> str:
    payload = {
        "rows": [
            {
                "t": row.t,
                "boundary_kind": row.boundary_kind,
                "radius_mean": _jsonable(row.radius_mean),
                "fixed_coverage": _jsonable(row.fixed_coverage),
                "uniform_coverage": _jsonable(row.uniform_coverage),
                "halfwidth_mean": _jsonable(row.halfwidth_mean),
                "reps_effective": row.reps_effective,
            }
            for row in report.rows
        ],
        "metadata": _jsonable(report.metadata),
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def emit_report(report: CoverageReport, format: str, path) -> None:
    """Write the report as CSV or JSON; validates invariants first.

    Floats are printed with 9 significant digits. I/O failures are
    re-raised as OSError naming the path.
    """
    report.validate()
    if format == "csv":
        text = report_to_csv(report)
    elif format == "json":
        text = report_to_json(report)
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise OSError(f"cannot write report to {path}: {e}") from e
