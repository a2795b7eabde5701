"""Experiment orchestration: coverage Monte Carlo, Gaussian-oracle checks,
rate diagnostics, and CSV/JSON report emission.

Repetitions use disjoint RNG streams (repetition r gets stream r of the
experiment seed). One streamed pass runs them all in vectorized lockstep and
tallies coverage by each repetition's first miss, so memory does not grow with
T, and every report is a deterministic function of its configuration. The
Gaussian-oracle check has no per-step recursion, so it instead walks long
per-repetition time blocks in tiles of a few repetitions, each array about
_TILE_ENTRIES floats (512 KB), small enough to stay in a core's L2 cache.
It compares running sums of standard normals with t times each radius and
tallies every kind in one call. Its tiles are independent and run on every
CPU the process may use; the report does not depend on how many.

A report is columnar: one array per CSV column, built straight from the
per-grid tallies, so a row costs about 68 bytes rather than a Python object
per row. ``CoverageReport.rows`` builds ``ReportRow`` objects only when
asked. CSV output is formatted and written _CSV_CHUNK rows at a time, so the
whole text never exists in memory.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import boundaries as bnd
from .covariance import sandwich
from .numerics import NumericalError, SingularMatrixError, whiten
from .sa_engine import (
    ModelSpec,
    StepSchedule,
    _time_blocks,
    rng_stream,
    run_lockstep,
)

__all__ = [
    "CSV_COLUMNS",
    "ExperimentConfig",
    "ReportRow",
    "CoverageReport",
    "RateProfile",
    "validate_rate_condition",
    "rate_exponents",
    "run_coverage",
    "run_gaussian_check",
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
    the time-uniform grid is {m, m+stride, ...} capped at iters. Inference
    covers every coordinate of theta_star.
    """

    model: ModelSpec
    schedule: StepSchedule
    iters: int
    reps: int
    start: int = 1000
    stride: int = 10
    boundaries: tuple = ()
    seed: int = 0

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


@dataclass(frozen=True, eq=False)
class CoverageReport:
    """Aggregated coverage columns plus run metadata.

    The report holds one 1-D array per CSV_COLUMNS entry, all of one
    length, in step-major row order (all boundaries at t, then t+stride,
    ...). Metadata echoes the configuration, the seed layout, divergence
    and availability accounting, and wall time; wall time never enters the
    CSV so CSV output stays byte-deterministic.
    """

    t: np.ndarray
    boundary_kind: np.ndarray
    radius_mean: np.ndarray
    fixed_coverage: np.ndarray
    uniform_coverage: np.ndarray
    halfwidth_mean: np.ndarray
    reps_effective: np.ndarray
    metadata: dict

    def __post_init__(self) -> None:
        cols = [np.asarray(getattr(self, name)) for name in CSV_COLUMNS]
        if any(c.ndim != 1 or len(c) != len(cols[0]) for c in cols):
            raise ValueError("report columns must be 1-D arrays of one length")
        for name, col in zip(CSV_COLUMNS, cols):
            object.__setattr__(self, name, col)

    @property
    def rows(self) -> tuple:
        """The report as ReportRows, built anew on every access."""
        return tuple(map(ReportRow, *(getattr(self, c).tolist() for c in CSV_COLUMNS)))

    def validate(self) -> None:
        """Raise ValueError unless, per boundary kind, every rate lies in
        [0, 1], uniform coverage does not increase from 1.0 (1e-12 slack)
        and every radius_mean is positive or nan. The message names the
        kind and the first offending t."""
        seen = np.zeros(len(self.t), dtype=bool)
        while not seen.all():
            # Kinds in order of first appearance, without sorting the column.
            kind = str(self.boundary_kind[seen.argmin()])
            mine = self.boundary_kind == kind
            seen |= mine
            at = np.flatnonzero(mine)
            fixed, unif = self.fixed_coverage[at], self.uniform_coverage[at]
            radius = self.radius_mean[at]
            prev = np.concatenate(([1.0], unif[:-1]))
            # One column per rule, in the order a row's rules are reported.
            bad = np.stack(
                [
                    ~((0.0 <= fixed) & (fixed <= 1.0)),
                    ~((0.0 <= unif) & (unif <= 1.0)),
                    unif > prev + 1e-12,
                    ~((radius > 0.0) | np.isnan(radius)),
                ],
                axis=1,
            )
            hits = np.argwhere(bad)
            if not len(hits):
                continue
            i, rule = hits[0]
            t = int(self.t[at[i]])
            if rule < 2:
                rate = float((fixed, unif)[rule][i])
                raise ValueError(f"{kind} rate {rate} at t={t} outside [0, 1]")
            if rule == 2:
                raise ValueError(f"{kind} time-uniform coverage increased at t={t}")
            raise ValueError(f"{kind} radius_mean at t={t} not positive")


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
    e1: float
    e2: float | None
    e3: float
    e4: float
    e5: float
    overall: float
    a_opt: float
    r_opt: float
    violation: str | None


def validate_rate_condition(
    a: float, lam: float, p: float, linear: bool
) -> str | None:
    """Check the moment/step-size compatibility window for the error rates.

    Linear problems admit the full band 0 < a < (p-1)/p. Nonlinear problems
    additionally need enough moments, p > (1+lambda)/lambda, and a lower
    step exponent bound a > 1/(1+lambda); since lambda <= 1 that lower
    bound is at least 1/2, so the step schedule window is subsumed.

    Returns None when the configuration is admissible, otherwise a short
    string naming the violated inequality. p may be math.inf.
    """
    if not math.isfinite(a):
        raise ValueError(f"step exponent a must be finite, got {a}")
    if not (p > 1.0):
        raise ValueError(f"moment order p must exceed 1, got {p}")
    if not (0.0 < lam <= 1.0):
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    upper = 1.0 if math.isinf(p) else (p - 1.0) / p
    if linear:
        if a <= 0.0:
            return "a <= 0"
        if a >= upper:
            return "a >= (p-1)/p"
        return None
    if p <= (1.0 + lam) / lam:
        return "p <= (1+lambda)/lambda"
    if a <= 1.0 / (1.0 + lam):
        return "a <= 1/(1+lambda)"
    if a >= upper:
        return "a >= (p-1)/p"
    return None


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
        e1=e1,
        e2=e2,
        e3=e3,
        e4=e4,
        e5=e5,
        overall=overall,
        a_opt=a_opt,
        r_opt=r_opt,
        violation=violation,
    )


# ---------------------------------------------------------------------------
# Coverage Monte Carlo.


_FLUSH_ENTRIES = 2**14  # matrix entries per flush; fewer let the tally dominate


class _MissTally:
    """Coverage tallies of n_b boundaries on n_grid grid points, fed all
    boundaries on a block of grid points at a time: per-grid covered counts
    (fixed) and, per boundary and repetition, the first grid index missed
    (n_grid if none). Threads may add at once for disjoint repetition slices.
    """

    def __init__(self, n_b: int, n_grid: int, n_reps: int) -> None:
        self.fixed = np.zeros((n_b, n_grid), dtype=np.int64)
        self.first_miss = np.full((n_b, n_reps), n_grid, dtype=np.int64)
        self._lock = threading.Lock()

    def add(self, lo: int, covered: np.ndarray, rs: slice = slice(None)) -> None:
        """Tally covered, (n_b, m, n) bool, at grid indices lo .. lo+m-1
        for the n repetitions in the slice rs."""
        counts = np.count_nonzero(covered, axis=2)
        first = np.where(covered.all(axis=1), self.fixed.shape[1], lo + covered.argmin(axis=1))
        miss = self.first_miss[:, rs]
        np.minimum(miss, first, out=miss)
        # numpy releases the GIL inside a large +=, so two threads adding to
        # the shared counts could lose an update; integer adds commute.
        with self._lock:
            self.fixed[:, lo : lo + covered.shape[1]] += counts

    def uniform(self) -> np.ndarray:
        """(n_b, n_grid) counts of repetitions with no miss up to each index."""
        n_grid = self.fixed.shape[1]
        misses = [np.bincount(f, minlength=n_grid + 1)[:n_grid] for f in self.first_miss]
        return self.first_miss.shape[1] - np.cumsum(misses, axis=1)


def _columns(ts, specs, radius, fixed_counts, unif_counts, n_eff, halfwidth) -> dict:
    """Step-major report columns from (n_b, n_grid) arrays, one per
    boundary, at the grid steps ts, with coverage rates over n_eff
    repetitions."""
    return {
        "t": np.repeat(ts, len(specs)),
        "boundary_kind": np.tile([b.kind for b in specs], len(ts)),
        "radius_mean": radius.T.ravel(),
        "fixed_coverage": (fixed_counts / n_eff).T.ravel(),
        "uniform_coverage": (unif_counts / n_eff).T.ravel(),
        "halfwidth_mean": halfwidth.T.ravel(),
        "reps_effective": np.full(len(ts) * len(specs), n_eff),
    }


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
    d = model.dim
    specs = cfg.boundaries
    n_b = len(specs)

    # lilen is the one kind whose radius depends on the per-repetition
    # condition number; with a scalar whitening matrix kappa is identically
    # 1 and every kind shares one radius grid.
    per_rep_radius = [b.kind == "lilen" and d > 1 for b in specs]
    shared_radius = [
        None if per_rep_radius[bi] else bnd.radius_grid(b, grid, d, kappa=1.0)
        for bi, b in enumerate(specs)
    ]

    def simulate(rep_ids):
        # One lockstep pass over the listed repetitions: their first divergent
        # steps, misses, per-grid available counts, half-width and radius sums.
        n = len(rep_ids)
        gens = [rng_stream(cfg.seed, int(r)) for r in rep_ids]
        tally = _MissTally(n_b, n_grid, n)
        avail = np.zeros(n_grid, dtype=np.int64)
        hw_sums = np.zeros((n_b, n_grid))
        rad_sums = np.zeros((n_b, n_grid))

        # visit() only copies grid states into a ring buffer of k_buf grid
        # points; one kernel call evaluates and tallies them all. Divergent
        # repetitions are tallied too: a second pass leaves them out.
        k_buf = max(1, _FLUSH_ENTRIES // (n * d * d))
        buf_xbar = np.empty((k_buf, n, d))
        buf_h = np.empty((k_buf, n, d, d))
        buf_s = np.empty((k_buf, n, d, d))

        def visit(tt, x, xbar, h_sum, s_sum):
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
            # Every field is nan where the sandwich is unavailable; a nan
            # statistic never covers.
            wh = whiten(v, buf_xbar[:m] - theta)
            avail[rows] = np.count_nonzero(~np.isnan(wh.stat_sup), axis=1)
            base_sup = np.mean(wh.scale_sup, axis=-1)
            base_two = np.mean(wh.scale_two, axis=-1)
            covered = np.empty((n_b, m, n), dtype=bool)
            for bi, b in enumerate(specs):
                if per_rep_radius[bi]:
                    with np.errstate(invalid="ignore"):
                        vals = bnd.radius_grid(b, ts, d, kappa=wh.kappa)
                    # nan kappa marks an unavailable evaluation, not an
                    # undefined boundary; keep it nan rather than +inf.
                    rad = np.where(np.isnan(wh.kappa), np.nan, vals)
                    rad_sums[bi, rows] = np.nansum(rad, axis=1)
                else:
                    rad = shared_radius[bi][rows, None]
                sup = b.norm_kind == "sup_norm"
                with np.errstate(invalid="ignore"):
                    np.less_equal(wh.stat_sup if sup else wh.stat_two, rad, out=covered[bi])
                    hw_sums[bi, rows] = np.nansum(rad * (base_sup if sup else base_two), axis=1)
            tally.add(i - j, covered)

        diverged_at = run_lockstep(model, sched, iters, gens, grid, visit)
        return diverged_at, tally, avail, hw_sums, rad_sums

    diverged_at, tally, avail_counts, hw_sums, rep_rad_sums = simulate(range(reps))
    eff = diverged_at == -1
    divergent = [(int(r), int(diverged_at[r])) for r in np.flatnonzero(~eff)]
    eff_total = int(eff.sum())
    if eff_total == 0:
        raise NumericalError("all repetitions diverged; nothing to aggregate")
    if divergent:
        # Divergence is known only once a pass ends. The tallies are taken
        # again over the effective repetitions rather than corrected by
        # subtraction, which would leave rounding error in the float sums.
        _, tally, avail_counts, hw_sums, rep_rad_sums = simulate(np.flatnonzero(eff))
    fixed_counts, unif_counts = tally.fixed, tally.uniform()
    unavailable_total = eff_total * n_grid - int(avail_counts.sum())

    with np.errstate(invalid="ignore", divide="ignore"):
        safe_avail = np.where(avail_counts > 0, avail_counts, 1)
        hw_means = np.where(avail_counts > 0, hw_sums / safe_avail, np.nan)
        rep_rad_means = np.where(avail_counts > 0, rep_rad_sums / safe_avail, np.nan)
    radius = np.array(
        [rep_rad_means[bi] if per_rep_radius[bi] else shared_radius[bi] for bi in range(n_b)]
    )
    columns = _columns(grid, specs, radius, fixed_counts, unif_counts, eff_total, hw_means)

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
            "boundaries": [_spec_meta(b) for b in specs],
        },
        "seeds": {"seed": cfg.seed, "streams": f"0..{reps - 1}"},
        "reps_effective": eff_total,
        "divergent": {"count": len(divergent), "first_steps": divergent},
        "unavailable_evaluations": unavailable_total,
        "wall_time_s": time.perf_counter() - wall_start,
    }
    report = CoverageReport(**columns, metadata=metadata)
    report.validate()
    return report


_TILE_ENTRIES = 2**16  # floats per array of one repetition tile (512 KB)
# threads that run the tiles: one per CPU this process may use
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _run_tiles(walk, n_tiles: int) -> None:
    """Run every tile index in range(n_tiles) on min(_WORKERS, n_tiles)
    threads, each calling walk once with an iterator over its share. The
    iterators take the next index from one shared counter, so a thread
    slowed by other load never leaves the rest idle. Once a thread raises or
    the wait is interrupted, no thread starts another tile; the error is
    raised when the running tiles end. numpy's errstate does not reach the
    threads, so walk enters any it needs itself."""
    # Imported here: at module level it would add to every CLI start.
    from concurrent.futures import ThreadPoolExecutor

    counter = itertools.count()  # unlike a generator, safe to share between threads
    stop = threading.Event()

    def work():
        try:
            walk(itertools.takewhile(lambda k: k < n_tiles and not stop.is_set(), counter))
        except BaseException:
            stop.set()
            raise

    n_workers = min(_WORKERS, n_tiles)
    with ThreadPoolExecutor(n_workers) as pool:
        futures = [pool.submit(work) for _ in range(n_workers)]
        try:
            for f in futures:
                f.result()
        except BaseException:
            stop.set()
            raise


def run_gaussian_check(
    v,
    alpha: float,
    horizon: int,
    reps: int,
    boundaries,
    seed: int = 0,
) -> CoverageReport:
    """Coverage of the boundaries on exact Gaussian running means.

    Evaluates every listed boundary kind (strings; level alpha, default
    shape parameters) at every t in [1, horizon] on the running mean of
    N(0, v) vectors z_s v^{1/2}, v a (d, d) array and the z_s i.i.d.
    standard normal, whitened with the TRUE v. That is S_t / t, S_t the sum
    of the z_s, so |S_t| is compared with t r_t (squared, for the two norm).
    This isolates the boundary guarantee from plug-in and averaging error.

    The horizon is cut into time blocks of at most _TILE_ENTRIES / d steps
    (the whole horizon when it fits), and the repetitions into tiles of
    _TILE_ENTRIES // (steps * d) repetitions (at least one), steps the
    length of the first block. A tile makes its repetitions' generators,
    then walks every block in turn: it draws their normals, carries their
    running sums across blocks and tallies every kind in one call, so
    every array holds at most about _TILE_ENTRIES floats. Tiles run on as
    many threads as the process has CPUs, at most one per tile. Every
    operation is per repetition and each stream is drawn in time order, so
    the report does not depend on the tile or block sizes or on the number
    of threads.

    Raises ValueError unless v is a nonempty square matrix that is finite
    and exactly symmetric, and SingularMatrixError unless it is
    numerically positive definite.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] == 0:
        raise ValueError(f"v must be a nonempty square matrix, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("v must have finite entries")
    if not np.array_equal(v, v.T):
        raise ValueError("v must be exactly symmetric")
    d = v.shape[0]
    for name, value in (("horizon", horizon), ("reps", reps)):
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    wall_start = time.perf_counter()
    kinds = tuple(boundaries)
    specs = tuple(bnd.BoundarySpec(kind, alpha) for kind in kinds)
    if not specs:
        raise ValueError("boundaries must be a nonempty sequence of kinds")
    if len(set(kinds)) != len(specs):
        raise ValueError("boundary kinds must be distinct")

    wh = whiten(v)
    if not wh.ok:
        raise SingularMatrixError("covariance must be numerically positive definite")
    ts = np.arange(1, horizon + 1, dtype=np.int64)
    radii = np.array([bnd.radius_grid(b, ts, d, kappa=wh.kappa) for b in specs])
    base = {"sup_norm": float(np.mean(wh.scale_sup)), "two_norm": float(np.mean(wh.scale_two))}
    limits = [(r * ts) ** 2 if b.norm_kind == "two_norm" else r * ts for r, b in zip(radii, specs)]

    tally = _MissTally(len(specs), horizon, reps)
    total = np.zeros((reps, d))
    blocks = list(_time_blocks(horizon, d, _TILE_ENTRIES))
    tile = max(1, _TILE_ENTRIES // (blocks[0][1] * d))

    def walk(ks):
        # One loop over a thread's tiles keeps each tile's arrays until the
        # next tile's replace them. Freed all at once, they let malloc hand
        # their pages back, and faulting them in again cost more than the
        # draws (7.7e5 page faults against 2.4e3 on gauss-d2).
        for k in ks:
            rs = slice(k * tile, min((k + 1) * tile, reps))
            gens = [rng_stream(seed, r) for r in range(rs.start, rs.stop)]
            for t0, n_t in blocks:
                z = np.empty((rs.stop - rs.start, n_t, d))
                for zr, gen in zip(z, gens):
                    gen.standard_normal(out=zr)
                # Adding the running total to the block's first draw keeps the
                # summation order of one cumsum over the whole horizon.
                z[:, 0] += total[rs]
                np.cumsum(z, axis=1, out=z)
                total[rs] = z[:, -1]
                # Norms one column at a time: numpy reduces a short last axis slowly.
                sup, two = np.abs(z[..., 0]), z[..., 0] ** 2
                for col in np.moveaxis(z[..., 1:], -1, 0):
                    np.maximum(sup, np.abs(col), out=sup)
                    two += col**2
                stats = {"sup_norm": sup, "two_norm": two}
                lims = [lim[t0 : t0 + n_t] for lim in limits]
                covered = np.array([stats[b.norm_kind] <= lim for b, lim in zip(specs, lims)])
                tally.add(t0, covered.transpose(0, 2, 1), rs)

    _run_tiles(walk, -(-reps // tile))

    halfwidth = np.array([r * base[b.norm_kind] for r, b in zip(radii, specs)])
    columns = _columns(ts, specs, radii, tally.fixed, tally.uniform(), int(reps), halfwidth)
    metadata = {
        "experiment": "gaussian-check",
        "config": {
            "d": d,
            "v": v.tolist(),
            "alpha": alpha,
            "horizon": int(horizon),
            "reps": int(reps),
            "seed": int(seed),
            "boundaries": [_spec_meta(b) for b in specs],
        },
        "seeds": {"seed": int(seed), "streams": f"0..{reps - 1}"},
        "mean_final": np.mean((total @ wh.root) / horizon, axis=0).tolist(),
        "wall_time_s": time.perf_counter() - wall_start,
    }
    report = CoverageReport(**columns, metadata=metadata)
    report.validate()
    return report


# ---------------------------------------------------------------------------
# Emission.


_CSV_CHUNK = 2**10  # rows formatted into one piece of CSV text
_CSV_ROW = "{},{},{:.9g},{:.9g},{:.9g},{:.9g},{}\n".format


def _csv_pieces(report: CoverageReport):
    """Yield the CSV text of the report: the header, then _CSV_CHUNK rows
    at a time, so the whole text never has to exist at once."""
    yield ",".join(CSV_COLUMNS) + "\n"
    cols = [getattr(report, c) for c in CSV_COLUMNS]
    for lo in range(0, len(report.t), _CSV_CHUNK):
        yield "".join(map(_CSV_ROW, *(c[lo : lo + _CSV_CHUNK].tolist() for c in cols)))


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
    cols = [_jsonable(getattr(report, c)) for c in CSV_COLUMNS]
    payload = {
        "rows": [dict(zip(CSV_COLUMNS, row)) for row in zip(*cols)],
        "metadata": _jsonable(report.metadata),
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def emit_report(report: CoverageReport, format: str, path) -> None:
    """Write the report as CSV or JSON; validates invariants first.

    Floats are printed with 9 significant digits. CSV is written a piece
    at a time. I/O failures are re-raised as OSError naming the path.
    """
    report.validate()
    if format == "csv":
        pieces = _csv_pieces(report)
    elif format == "json":
        pieces = (report_to_json(report),)
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    try:
        with open(path, "w") as fh:
            fh.writelines(pieces)
    except OSError as e:
        raise OSError(f"cannot write report to {path}: {e}") from e
