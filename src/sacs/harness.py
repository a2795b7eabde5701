"""Experiment orchestration: coverage Monte Carlo, Gaussian-oracle checks,
rate diagnostics, and CSV/JSON report emission.

Both runners take a tuple of BoundarySpecs and give repetition r stream r
of the experiment seed. They cut their work into one contiguous part per
CPU (_fork_map) and tally each part in a _MissTally: per-grid counts, each
repetition's first miss, so memory does not grow with T, and float sums per
group of consecutive repetitions. The parts' tallies merge exactly and the
float sums are added in group order, so every report is a deterministic
function of its configuration on any CPU count. The coverage run streams
its repetitions in vectorized lockstep, one pass per part over groups of
_GROUP repetitions (two if one diverges), and evaluates each batch of grid
states that run_lockstep hands over with one call of each batched kernel.
The Gaussian-oracle check has no per-step recursion, so it instead walks
long per-repetition time blocks in tiles of a few repetitions, each array
about _TILE_ENTRIES floats (512 KB), small enough to stay in a core's L2
cache, and tallies running sums of standard normals against t times each
radius in the one compare that both runners share, _MissTally.add.

A report is columnar: one array per CSV column, built by the tally and
validated when built, so a row costs about 68 bytes rather than a Python
object per row. ``CoverageReport.rows`` builds ``ReportRow`` namedtuples
only when asked. All four CLI subcommands write one CSV dialect through
write_csv (a float to 9 significant digits, None blank, a bool 0 or 1),
formatted and written _CSV_CHUNK rows at a time, so the whole text never
exists in memory.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import threading
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import boundaries as bnd
from .covariance import NumericalError, _check_counts, sandwich, whiten
from .sa_engine import (
    ModelSpec,
    StepSchedule,
    _check_seeds,
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
    "rate_exponents",
    "run_coverage",
    "run_gaussian_check",
    "report_to_json",
    "emit_report",
    "write_csv",
]

def _distinct_specs(specs) -> tuple:
    """specs as a tuple. Raises ValueError unless it holds at least one
    BoundarySpec and no boundary kind twice."""
    specs = tuple(specs)
    if not specs:
        raise ValueError("boundaries must name at least one boundary kind")
    if not all(isinstance(b, bnd.BoundarySpec) for b in specs):
        raise ValueError("boundaries must be BoundarySpec instances")
    if len({b.kind for b in specs}) != len(specs):
        raise ValueError("boundary kinds must be distinct")
    return specs


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one coverage Monte Carlo run. Every field is
    required; `sacs coverage` holds the command's defaults.

    start is the first evaluated step m and stride the evaluation spacing;
    the time-uniform grid is {m, m+stride, ...} capped at iters. Inference
    covers every coordinate of theta_star.
    """

    model: ModelSpec
    schedule: StepSchedule
    iters: int
    reps: int
    start: int
    stride: int
    boundaries: tuple
    seed: int

    def __post_init__(self) -> None:
        _check_counts(iters=self.iters, reps=self.reps, start=self.start, stride=self.stride)
        _check_seeds(seed=self.seed)
        if self.start > self.iters:
            raise ValueError(f"start ({self.start}) exceeds iters ({self.iters})")
        object.__setattr__(self, "boundaries", _distinct_specs(self.boundaries))


@dataclass(frozen=True, eq=False)
class CoverageReport:
    """Aggregated coverage columns plus run metadata.

    The report holds one 1-D array per CSV_COLUMNS entry, all of one
    length, in step-major row order (all boundaries at t, then t+stride,
    ...). Metadata echoes the configuration, the seed layout, divergence
    and availability accounting, and wall time; wall time never enters the
    CSV so CSV output stays byte-deterministic. Construction raises the
    ValueError of validate() for an invalid report, then marks the column
    arrays read-only (no copy), so a valid report cannot be edited later.
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
        self.validate()
        for col in cols:
            col.setflags(write=False)

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


# The CSV columns: every CoverageReport field but the metadata, in order.
CSV_COLUMNS = tuple(f.name for f in fields(CoverageReport) if f.name != "metadata")

# One (step, boundary) aggregate over effective repetitions.
ReportRow = namedtuple("ReportRow", CSV_COLUMNS)


# ---------------------------------------------------------------------------
# Rate exponents.


# The five error-term exponents and the optimal schedule summary, its
# fields in the rates table's column order. e2 is None for linear problems
# (its term is absent there). violation names the first admissibility
# inequality that fails (rate_exponents), or is None when the configuration
# is admissible; exponents are reported either way.
RateProfile = namedtuple(
    "RateProfile", "a lam p d linear e1 e2 e3 e4 e5 overall a_opt r_opt violation"
)


def rate_exponents(a: float, lam: float, p: float, dim: int, linear: bool) -> RateProfile:
    """Negative error exponents of the five terms of the coupling rate, and
    the admissibility verdict of the step exponent a.

    p is the available moment order (math.inf allowed); dim the dimension d.
    overall is the min over the applicable terms. a_opt and r_opt give the
    exponent-optimal step schedule and its overall rate; for p = inf the
    closed-form limits are returned exactly.

    Linear problems admit the full band 0 < a < (p-1)/p. Nonlinear problems
    additionally need enough moments, p > (1+lambda)/lambda, and a lower
    step exponent bound a > 1/(1+lambda); since lambda <= 1 that lower
    bound is at least 1/2, so the step schedule window is subsumed.
    violation names the first of these inequalities that fails, in that
    order, or is None. Raises ValueError for a bad dim, a non-finite a,
    p <= 1 or lambda outside (0, 1].
    """
    _check_counts(dim=dim)
    if not math.isfinite(a):
        raise ValueError(f"step exponent a must be finite, got {a}")
    if not (p > 1.0):
        raise ValueError(f"moment order p must exceed 1, got {p}")
    if not (0.0 < lam <= 1.0):
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    upper = 1.0 if math.isinf(p) else (p - 1.0) / p
    if linear and a <= 0.0:
        violation = "a <= 0"
    elif not linear and p <= (1.0 + lam) / lam:
        violation = "p <= (1+lambda)/lambda"
    elif not linear and a <= 1.0 / (1.0 + lam):
        violation = "a <= 1/(1+lambda)"
    elif a >= upper:
        violation = "a >= (p-1)/p"
    else:
        violation = None
    inv_p = 0.0 if math.isinf(p) else 1.0 / p

    e1 = 1.0
    e2 = None if linear else a * (1.0 + lam) / 2.0
    e3 = (2.0 - a) / 2.0 - inv_p / 2.0
    e4 = (1.0 + a) / 2.0
    if dim == 1:
        e5 = 0.5 + (1.0 - inv_p) / 4.0
    else:
        e5 = 0.5 + (1.0 - inv_p) / (50.0 * dim)
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
        d=int(dim),
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


_GROUP = 128  # consecutive repetition indices whose float sums are kept together
# CPUs this process may use: a run uses at most one process on each
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


class _MissTally:
    """Coverage tallies of n_b boundaries on n_grid grid points over n_reps
    repetitions. add(), both runners' one coverage compare, takes every
    boundary's statistic and limit on a block of grid points: per grid the
    covered count (fixed; the runner sets avail), per boundary and
    repetition the first grid index missed (n_grid if none). add_sums()
    keeps the half-width and radius sums per group of consecutive
    repetitions (of the given sizes). outcome is a row per repetition.
    merge() joins the tallies of a run's parts; the float sums stay per
    group until means() adds them in group order.
    """

    def __init__(self, n_b: int, n_grid: int, n_reps: int, sizes=()) -> None:
        self.sizes = list(sizes)
        ends = itertools.accumulate(self.sizes)
        self.spans = [slice(hi - n, hi) for n, hi in zip(self.sizes, ends)]
        self.fixed = np.zeros((n_b, n_grid), dtype=np.int64)
        self.avail = np.zeros(n_grid, dtype=np.int64)
        self.first_miss = np.full((n_b, n_reps), n_grid, dtype=np.int64)
        self.hw_sums, self.rad_sums = np.zeros((2, len(self.sizes), n_b, n_grid))
        self.outcome = None

    def add(self, lo: int, stats, limits, rs: slice = slice(None)) -> None:
        """Tally each boundary's (n, m) statistic, of the n repetitions in rs
        at grid indices lo .. lo+m-1, as covered where it is at most its
        limit, which broadcasts against it. A nan statistic never covers."""
        covered = np.array([np.less_equal(s, lim) for s, lim in zip(stats, limits)])
        first = np.where(covered.all(axis=2), self.fixed.shape[1], lo + covered.argmin(axis=2))
        self.first_miss[:, rs] = np.minimum(self.first_miss[:, rs], first)
        self.fixed[:, lo : lo + covered.shape[2]] += np.count_nonzero(covered, axis=1)

    def add_sums(self, bi: int, rows: slice, halfwidth, radius=None) -> None:
        """Add boundary bi's (m, n_reps) half-widths, and radii if given, at
        the grid rows to each group's sums; a nan (unavailable) adds 0."""
        for sums, values in ((self.hw_sums, halfwidth), (self.rad_sums, radius)):
            if values is not None:
                values = np.where(np.isnan(values), 0.0, values)
                for g, rs in enumerate(self.spans):
                    np.sum(values[:, rs], axis=1, out=sums[g, bi, rows])

    @classmethod
    def merge(cls, parts) -> _MissTally:
        """One tally of the parts' repetitions and groups, in order."""
        merged = cls(*parts[0].fixed.shape, 0, [n for p in parts for n in p.sizes])
        merged.fixed = sum(p.fixed for p in parts)
        merged.avail = sum(p.avail for p in parts)
        for name, axis in (("first_miss", 1), ("hw_sums", 0), ("rad_sums", 0), ("outcome", 0)):
            setattr(merged, name, np.concatenate([getattr(p, name) for p in parts], axis))
        return merged

    def means(self):
        """(n_b, n_grid) means of the half-widths and radii over the available
        evaluations, the groups' sums added in group order; nan (0 / 0) where
        none was available."""
        hw, rad = (sum(s[1:], s[0]) for s in (self.hw_sums, self.rad_sums))
        with np.errstate(invalid="ignore"):
            return hw / self.avail, rad / self.avail

    def report(self, ts, specs, radius, halfwidth, metadata) -> CoverageReport:
        """The step-major report at the grid steps ts: radius and halfwidth
        hold one (n_grid,) row per boundary, and coverage rates are over
        this tally's repetitions."""
        n_eff, n_grid = self.first_miss.shape[1], len(ts)
        misses = [np.bincount(f, minlength=n_grid + 1)[:n_grid] for f in self.first_miss]
        uniform = n_eff - np.cumsum(misses, axis=1)
        return CoverageReport(
            t=np.repeat(ts, len(specs)),
            boundary_kind=np.tile([b.kind for b in specs], n_grid),
            radius_mean=np.asarray(radius).T.ravel(),
            fixed_coverage=(self.fixed / n_eff).T.ravel(),
            uniform_coverage=(uniform / n_eff).T.ravel(),
            halfwidth_mean=np.asarray(halfwidth).T.ravel(),
            reps_effective=np.full(n_grid * len(specs), n_eff),
            metadata=metadata,
        )


def _fork_map(fn, items) -> list:
    """[fn(part) for part in parts], items (groups of repetition indices)
    cut into min(_WORKERS, len(items)) contiguous parts, or one when the
    process cannot fork or runs a second thread, which a forked child would
    not inherit. fn(parts[0]) runs here, each other part in a forked child
    that pickles its result or exception into a pipe. The exception is
    raised here; a child that ends without a result raises
    ChildProcessError naming its repetitions and exit status. On any
    failure or interrupt here, every child left is killed and reaped first."""
    k = min(_WORKERS, len(items)) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    parts = [items[i * len(items) // k : (i + 1) * len(items) // k] for i in range(k)]
    # Imported here: signal would add to every CLI start.
    import pickle
    import signal

    children = []
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    try:
                        out = fn(part)
                    except BaseException as e:
                        out = e
                    with open(w, "wb") as fh:
                        pickle.dump(out, fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children.append((pid, open(r, "rb"), part))
        results = [fn(parts[0])]
        while children:
            pid, fh, part = children[0]
            with fh:
                out = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code:
                raise ChildProcessError(
                    f"the process for repetitions {part[0][0]}..{part[-1][-1]} ended "
                    f"without a result (exit status {code})"
                )
            out = pickle.loads(out)
            if isinstance(out, BaseException):
                raise out
            results.append(out)
        return results
    finally:
        for pid, fh, _ in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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

    Repetitions run in groups of _GROUP consecutive indices, cut by
    _fork_map into parts of whole groups, one lockstep pass (two if one
    diverges) and one _MissTally each. The merged tally keeps the
    half-width and radius sums per group and adds them in group order, so
    the report does not depend on the CPU count.
    """
    wall_start = time.perf_counter()
    model, sched = cfg.model, cfg.schedule
    iters, reps, start, stride = cfg.iters, cfg.reps, cfg.start, cfg.stride
    grid = np.arange(start, iters + 1, stride, dtype=np.int64)
    theta, d, specs = model.theta_star, model.dim, cfg.boundaries
    n_grid, n_b = grid.size, len(specs)

    # A kind that reads kappa has a radius that depends on the per-repetition
    # condition number (None here); with a scalar whitening matrix kappa is
    # identically 1 and every kind shares one radius grid.
    shared_radius = [
        None if b.reads_kappa and d > 1 else bnd.radius_grid(b, grid, d) for b in specs
    ]

    def simulate(groups):
        # The tally of one lockstep pass over the repetitions of the listed
        # groups, its outcome their first divergent steps (-1 for none).
        ids = np.concatenate(groups)
        gens = [rng_stream(cfg.seed, int(r)) for r in ids]
        tally = _MissTally(n_b, n_grid, len(gens), map(len, groups))

        def visit(lo, xbar, h_hat, s_hat):
            # One kernel call evaluates and tallies a batch of grid points,
            # divergent repetitions too: a second pass leaves them out.
            rows = slice(lo, lo + len(xbar))
            v = sandwich(h_hat, s_hat)
            # Every field is nan where the sandwich is unavailable.
            wh = whiten(v, xbar - theta)
            tally.avail[rows] = np.count_nonzero(~np.isnan(wh.stat_sup), axis=1)
            stats = {"sup_norm": wh.stat_sup, "two_norm": wh.stat_two}
            base = {"sup_norm": np.mean(wh.scale_sup, -1), "two_norm": np.mean(wh.scale_two, -1)}
            ts = grid[rows].astype(float)[:, None]
            # (m, 1) shared radii, or (m, R) ones that are nan where kappa is
            radii = [
                bnd.radius_grid(b, ts, d, kappa=wh.kappa) if r is None else r[rows, None]
                for b, r in zip(specs, shared_radius)
            ]
            for bi, (b, rad, r) in enumerate(zip(specs, radii, shared_radius)):
                tally.add_sums(bi, rows, rad * base[b.norm_kind], rad if r is None else None)
            tally.add(lo, [stats[b.norm_kind].T for b in specs], [rad.T for rad in radii])

        outcome = run_lockstep(model, sched, iters, gens, grid, visit)
        if (outcome != -1).any():
            # Divergence is known only once a pass ends. The part's groups are
            # tallied again without their divergent repetitions rather than
            # corrected by subtraction, which would leave rounding error in
            # the float sums. Each repetition keeps its group.
            eff = ids[outcome == -1]
            kept = [k for g in groups if len(k := g[np.isin(g, eff)])]
            tally = simulate(kept) if kept else _MissTally(n_b, n_grid, 0)
        tally.outcome = outcome  # all of the part's repetitions, for the metadata
        return tally

    groups = [np.arange(lo, min(lo + _GROUP, reps)) for lo in range(0, reps, _GROUP)]
    tally = _MissTally.merge(_fork_map(simulate, groups))
    eff = tally.outcome == -1
    divergent = [(int(r), int(tally.outcome[r])) for r in np.flatnonzero(~eff)]
    eff_total = int(eff.sum())
    if eff_total == 0:
        raise NumericalError("all repetitions diverged; nothing to aggregate")
    hw_means, rep_rad_means = tally.means()
    radius = [rep_rad_means[bi] if r is None else r for bi, r in enumerate(shared_radius)]

    metadata = {
        "experiment": "coverage",
        "config": {
            "model": {**asdict(model), "theta_star": theta.tolist()},
            "eta0": sched.eta0,
            "a": sched.a,
            "iters": iters,
            "reps": reps,
            "start": start,
            "stride": stride,
            "seed": cfg.seed,
            "boundaries": [asdict(b) for b in specs],
        },
        "seeds": {"seed": cfg.seed, "streams": f"0..{reps - 1}"},
        "reps_effective": eff_total,
        "divergent": {"count": len(divergent), "first_steps": divergent},
        "unavailable_evaluations": eff_total * n_grid - int(tally.avail.sum()),
        "wall_time_s": time.perf_counter() - wall_start,
    }
    return tally.report(grid, specs, radius, hw_means, metadata)


_TILE_ENTRIES = 2**16  # floats per array of one repetition tile (512 KB)


def _gaussian_inputs(dim: int, horizon: int, reps: int, boundaries, seed) -> tuple:
    """run_gaussian_check's boundaries as a tuple, or the ValueError that
    run_gaussian_check raises for its arguments."""
    _check_counts(dim=dim, horizon=horizon, reps=reps)
    _check_seeds(seed=seed)
    return _distinct_specs(boundaries)


def run_gaussian_check(
    dim: int, horizon: int, reps: int, boundaries, seed: int = 0
) -> CoverageReport:
    """Coverage of the boundaries on exact Gaussian running means.

    Evaluates every BoundarySpec in boundaries (the specs that
    ExperimentConfig.boundaries holds) at every t in [1, horizon] on the
    running mean S_t / t of i.i.d. standard normal vectors z_s of length
    dim, S_t the sum of the z_s. That is the running mean of N(0, v)
    vectors whitened with the TRUE v, for any v, so the condition number
    is 1 and the half-width is the radius: |S_t| is compared with t r_t
    (squared, for the two norm). This isolates the boundary guarantee from
    plug-in and averaging error.

    The horizon is cut into time blocks of at most _TILE_ENTRIES / dim steps
    (the whole horizon when it fits), and the repetitions into tiles of
    _TILE_ENTRIES // (steps * dim) repetitions (at least one), steps the
    length of the first block. A tile makes its repetitions' generators,
    then walks every block in turn: it draws their normals, carries their
    running sums across blocks and tallies every kind in one call, so
    every array holds at most about _TILE_ENTRIES floats. _fork_map cuts
    the tiles into parts, one _MissTally each, whose outcome is the final
    running sums. Every operation is per repetition, each stream is drawn
    in time order and the parts' counts are integers, so the report does
    not depend on the tile or block sizes or on the number of processes.

    Raises ValueError unless dim, horizon and reps are integers >= 1 and
    the boundaries are BoundarySpecs of distinct kinds.
    """
    wall_start = time.perf_counter()
    specs = _gaussian_inputs(dim, horizon, reps, boundaries, seed)
    ts = np.arange(1, horizon + 1, dtype=np.int64)
    radii = np.array([bnd.radius_grid(b, ts, dim) for b in specs])
    limits = [(r * ts) ** 2 if b.norm_kind == "two_norm" else r * ts for r, b in zip(radii, specs)]

    blocks = list(_time_blocks(horizon, dim, _TILE_ENTRIES))
    tile = max(1, _TILE_ENTRIES // (blocks[0][1] * dim))
    tiles = [range(lo, min(lo + tile, reps)) for lo in range(0, reps, tile)]

    def walk(part):
        # The tally of the repetitions of part's tiles, their final running
        # sums its outcome. One loop over the tiles keeps each tile's arrays
        # until the next tile's replace them. Freed all at once, they let
        # malloc hand their pages back, and faulting them in again cost more
        # than the draws (7.7e5 page faults against 2.4e3 on gauss-d2).
        lo, n = part[0].start, part[-1].stop - part[0].start
        tally = _MissTally(len(specs), horizon, n)
        total = tally.outcome = np.zeros((n, dim))
        for tile_reps in part:
            rs = slice(tile_reps.start - lo, tile_reps.stop - lo)
            gens = [rng_stream(seed, r) for r in tile_reps]
            for t0, n_t in blocks:
                z = np.empty((len(tile_reps), n_t, dim))
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
                tally.add(t0, [stats[b.norm_kind] for b in specs], lims, rs)
        return tally

    tally = _MissTally.merge(_fork_map(walk, tiles))
    metadata = {
        "experiment": "gaussian-check",
        "config": {
            "d": int(dim),
            "horizon": int(horizon),
            "reps": int(reps),
            "seed": int(seed),
            "boundaries": [asdict(b) for b in specs],
        },
        "seeds": {"seed": int(seed), "streams": f"0..{reps - 1}"},
        "mean_final": np.mean(tally.outcome / horizon, axis=0).tolist(),
        "wall_time_s": time.perf_counter() - wall_start,
    }
    return tally.report(ts, specs, radii, radii, metadata)


# ---------------------------------------------------------------------------
# Emission.


_CSV_CHUNK = 2**10  # rows formatted into one piece of CSV text


def _cell(x) -> str:
    """A CSV cell: None is blank, a bool 0 or 1, a float to 9 digits."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


def _csv_pieces(header, columns):
    """Yield the CSV text of the columns under the header: the header line,
    then _CSV_CHUNK rows at a time, so the whole text never has to exist at
    once. A float array's cells are printed to 9 significant digits, any
    other array's with str, and any other sequence's through _cell."""
    yield ",".join(header) + "\n"
    arrays = [isinstance(c, np.ndarray) for c in columns]
    floats = [a and c.dtype.kind == "f" for a, c in zip(arrays, columns)]
    row = (",".join("{:.9g}" if f else "{}" for f in floats) + "\n").format
    for lo in range(0, len(columns[0]) if columns else 0, _CSV_CHUNK):
        chunks = [c[lo : lo + _CSV_CHUNK] for c in columns]
        cells = [c.tolist() if a else map(_cell, c) for a, c in zip(arrays, chunks)]
        yield "".join(map(row, *cells))


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


def _write(pieces, path) -> None:
    """Write the text pieces to the file at path, or to stdout when path is
    None. I/O failures are re-raised as OSError naming the path."""
    if path is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(path, "w") as fh:
            fh.writelines(pieces)
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e


def write_csv(header, columns, path) -> None:
    """Write the columns (arrays or sequences of one length) under the
    header as CSV, a piece at a time, to the file at path or to stdout when
    path is None. Every command's CSV is written here: a None cell is
    blank, a bool 0 or 1 and a float printed to 9 significant digits."""
    _write(_csv_pieces(header, columns), path)


def emit_report(report: CoverageReport, format: str, path) -> None:
    """Write the report, valid since it was built, as CSV (write_csv) or
    JSON. I/O failures are re-raised as OSError naming the path."""
    if format == "csv":
        write_csv(CSV_COLUMNS, [getattr(report, c) for c in CSV_COLUMNS], path)
    elif format == "json":
        _write((report_to_json(report),), path)
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
