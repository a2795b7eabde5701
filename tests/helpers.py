"""Helpers shared by the test modules, including reference oracles that
the library itself does not need: the Gaussian mixture martingale and the
gm volume objective behind lambda_star, a log-log rate fit, and the
Gaussian check's coverage computed the long way; a report's whole CSV
text, which the library only ever streams to a file; a per-step view
of run_lockstep's batched visits; run_lockstep's per-step loop; and the
symmetric square root that whiten forms but does not return.
"""

import math

import numpy as np

from sacs import sa_engine
from sacs.boundaries import radius_grid
from sacs.covariance import pd_eigh
from sacs.harness import CSV_COLUMNS, CoverageReport, _csv_pieces
from sacs.sa_engine import rng_stream


def per_point(fn, eval_times):
    """A run_lockstep visit that calls fn(t, xbar, h_hat, s_hat) for each
    step t of a batch, with that step's (R, d) and (R, d, d) arrays."""
    eval_times = list(eval_times)

    def visit(lo, *batch):
        for i, t in enumerate(eval_times[lo : lo + len(batch[0])]):
            fn(t, *(a[i] for a in batch))

    return visit


def lockstep_reference(model, schedule, T, gens, eval_times, visit):
    """run_lockstep the long way, for a bit-for-bit comparison: every state
    is updated at every step, from the gradient and Jacobian of each step,
    and copied into the visit buffers at each evaluation step, the sums
    divided by t there. It reads sa_engine's block and flush sizes, so its
    batches are run_lockstep's."""
    n_reps = len(gens)
    d = model.dim
    ev = [int(t) for t in eval_times]
    k = max(1, min(len(ev), sa_engine._FLUSH_ENTRIES // max(1, n_reps * d * d)))
    bufs = [np.empty((k, n_reps, d)), *np.empty((2, k, n_reps, d, d))]
    i = 0
    covs = []
    for gen in gens:
        bits = type(gen.bit_generator)(0)
        bits.state = gen.bit_generator.state
        covs.append(np.random.Generator(bits))
    for gen in gens:
        gen.bit_generator.advance(T * d)
    x = np.zeros((n_reps, d))
    xbar = np.zeros((n_reps, d))
    h_sum = np.zeros((n_reps, d, d))
    s_sum = np.zeros((n_reps, d, d))
    diverged_at = np.full(n_reps, -1, dtype=np.int64)
    for t0, b in sa_engine._time_blocks(T, n_reps * d, sa_engine._BLOCK_ENTRIES):
        xs = np.empty((b, n_reps, d))
        ys = np.empty((b, n_reps))
        for r, (cov, gen) in enumerate(zip(covs, gens)):
            xs[:, r], ys[:, r] = sa_engine.sample_data_block(model, cov, b, gen)
        etas = sa_engine.step_size(schedule, np.arange(t0, t0 + b))
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for j in range(b):
                tt = t0 + j + 1
                xv, y = xs[j], ys[j]
                z = np.add.reduce(xv * x, axis=1)
                jac = xv[:, :, None] * xv[:, None, :]
                if model.kind == "linear":
                    g = -(y - z)[:, None] * xv
                else:
                    s = sa_engine._sigmoid(z)
                    g = (s - y)[:, None] * xv
                    jac = (s * (1.0 - s))[:, None, None] * jac
                h_sum += jac
                s_sum += g[:, :, None] * g[:, None, :]
                x = x - etas[j] * g
                xbar = xbar + (x - xbar) / tt
                if not math.isfinite(x.sum()):
                    newly = (diverged_at == -1) & ~np.isfinite(x).all(axis=1)
                    diverged_at[newly] = tt
                if i < len(ev) and ev[i] == tt:
                    for buf, state in zip(bufs, (xbar, h_sum / tt, s_sum / tt)):
                        buf[i % k] = state
                    i += 1
                    if i % k == 0 or i == len(ev):
                        lo = (i - 1) // k * k
                        visit(lo, *(buf[: i - lo] for buf in bufs))
    return diverged_at


def sym_root(v):
    """The symmetric square root of stacked positive definite matrices v,
    (..., k, k), from numpy's eigh: q diag(sqrt(w)) q'."""
    w, q = np.linalg.eigh(np.asarray(v, dtype=float))
    return (q * np.sqrt(w)[..., None, :]) @ np.swapaxes(q, -1, -2)


def make_report(rows, metadata=None):
    """A CoverageReport holding the given ReportRows, in order, as columns."""
    columns = {c: np.array([getattr(row, c) for row in rows]) for c in CSV_COLUMNS}
    return CoverageReport(**columns, metadata={} if metadata is None else metadata)


def csv_text(report) -> str:
    """The CSV text emit_report writes for the report, as one string."""
    return "".join(_csv_pieces(report))


def gm_mixture_martingale(t: float, sum_g, v, sigma) -> float:
    """Closed-form value of the Gaussian mixture martingale at time t.

    For the running sum s of mean-zero increments with common covariance
    v, a (d, d) array, the mixture over Gaussian weights with mixing
    covariance sigma, another, is

        exp( s' (t v + sigma^{-1})^{-1} s / 2 )
        / sqrt( det(sigma) det(t v + sigma^{-1}) ).

    Equals 1 at t=0 and has expectation 1 in t under the Gaussian law.
    Used by property tests of the gm boundary's derivation.
    """
    if not (t >= 0.0):
        raise ValueError(f"t must be >= 0, got {t}")
    s = np.asarray(sum_g, dtype=float)
    v, sigma = np.asarray(v, dtype=float), np.asarray(sigma, dtype=float)
    if s.shape != v.shape[:1] or sigma.shape != v.shape:
        raise ValueError("dimension mismatch between sum_g, v, and sigma")

    ws, qs, ok = pd_eigh(sigma)
    if not ok:
        raise ValueError("mixing covariance must be positive definite")
    sigma_inv = (qs / ws) @ qs.T
    log_det_sigma = float(np.sum(np.log(ws)))

    wa, qa, ok = pd_eigh(t * v + sigma_inv)
    if not ok:
        raise ValueError("t*v + sigma^{-1} must be positive definite")
    a_inv_s = (qa / wa) @ (qa.T @ s)
    quad = 0.5 * float(s @ a_inv_s)
    log_norm = 0.5 * (log_det_sigma + float(np.sum(np.log(wa))))
    return math.exp(quad - log_norm)


def gm_volume_objective(lam: float, d: int, alpha: float) -> float:
    """Confidence region volume profile (up to constants) in the mixing weight.

    The per-axis profile ((1+lam)/lam) * (log(1+lam) + 2 log(1/alpha)),
    raised to the power d/2: the gm boundary scales every axis of the
    mixing covariance by the same lam, so the region volume is the d-th
    power of the one-dimensional profile. The unique minimizer over
    lam > 0 is lambda_star(alpha) for every d (stationarity reduces to
    lam - log(1+lam) = 2 log(1/alpha), which is d-free), and the minimum
    value is (1 + lambda_star)^{d/2}.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lam must be a positive real, got {lam}")
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    profile = ((1.0 + lam) / lam) * (math.log1p(lam) + 2.0 * math.log(1.0 / alpha))
    return profile ** (d / 2.0)


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


def gaussian_check_reference(d, horizon, reps, boundaries, seed=0, radius_scale=1.0):
    """The covered counts and mean_final of run_gaussian_check, the long way.

    Each repetition draws its whole path of standard normal d-vectors,
    takes the running mean and compares its sup and two norms with each
    kind's radius. Returns the fixed and time-uniform covered counts,
    (len(boundaries), horizon) integer arrays, and the repetitions' mean of
    the final running mean.
    """
    ts = np.arange(1, horizon + 1)
    radii = [radius_grid(b, ts, d) * radius_scale for b in boundaries]
    fixed = np.zeros((len(boundaries), horizon), dtype=np.int64)
    uniform = np.zeros_like(fixed)
    finals = []
    for r in range(reps):
        z = rng_stream(seed, r).standard_normal((horizon, d))
        mean = np.cumsum(z, axis=0) / ts[:, None]
        stats = {
            "sup_norm": np.max(np.abs(mean), axis=1),
            "two_norm": np.sqrt(np.sum(mean * mean, axis=1)),
        }
        covered = np.array([stats[b.norm_kind] <= rad for b, rad in zip(boundaries, radii)])
        fixed += covered
        uniform += np.logical_and.accumulate(covered, axis=1)
        finals.append(mean[-1])
    return fixed, uniform, np.mean(finals, axis=0)
