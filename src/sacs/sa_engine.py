"""Stochastic approximation engine with linear and logistic regression oracles.

Implements the recursion x_{t+1} = x_t - eta_t * G(x_t, xi_{t+1}) together
with iterate averaging, running Jacobian and outer-product accumulators, and
deterministic multi-stream data generation. ``run_lockstep`` advances many
independent repetitions in vectorized lockstep and is the one execution
path: it powers both ``run_trajectory`` and the coverage harness, handing
them the averaged iterate and the accumulators' running means at the
evaluation steps in batches for the batched kernels. Its step loop holds
only the gradient, the iterate and its average; the accumulators, the
divergence screen and the batches are made per chunk.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import covariance
from .numerics import NumericalError, _check_counts

__all__ = [
    "DivergenceError",
    "StepSchedule",
    "ModelSpec",
    "TrajectoryPoint",
    "step_size",
    "rng_stream",
    "sample_data_block",
    "run_lockstep",
    "run_trajectory",
]

# The two data laws, by kind: (noise_sd, cov_halfwidth).
_DATA_LAWS = {"linear": (4.0, 10.0), "logistic": (0.0, 0.5)}
MODEL_KINDS = tuple(_DATA_LAWS)


class DivergenceError(NumericalError):
    """An iterate left the finite floats. Carries the first divergent step."""

    def __init__(self, t: int) -> None:
        super().__init__(t)
        self.t = t

    def __str__(self) -> str:
        return f"iterate diverged at step {self.t}"


@dataclass(frozen=True)
class StepSchedule:
    """Polynomially decaying step size eta_t = eta0 * (t+1)**(-a).

    The index shift keeps the first step finite; eta_0 equals eta0. The
    exponent window (1/2, 1) is enforced strictly. eta0 = 0 is allowed and
    freezes the dynamics, which is occasionally useful in tests.
    """

    eta0: float
    a: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta0) and self.eta0 >= 0.0):
            raise ValueError(f"eta0 must be a finite nonnegative real, got {self.eta0}")
        if not (0.5 < self.a < 1.0):
            raise ValueError(f"step exponent must satisfy 1/2 < a < 1, got {self.a}")


def step_size(s: StepSchedule, t):
    """Step size at step t (0-based): eta0 * (t+1)**(-a).

    t may be an integer or an integer array; the result has its shape.
    """
    return s.eta0 * (np.asarray(t, dtype=float) + 1.0) ** (-s.a)


@dataclass(frozen=True)
class ModelSpec:
    """Data-generating model of a built-in regression oracle, named by its
    kind ("linear" or "logistic") and covariate dimension d.

    Both have theta_star = (1, ..., d). linear: covariates uniform on
    [-10, 10]^d, response X'theta_star plus N(0, 16) noise. logistic:
    covariates uniform on [-0.5, 0.5]^d, Bernoulli response with mean
    sigmoid(X'theta_star). The law's fields follow from (kind, dim), which
    alone decide equality and the hash:

    theta_star:     true parameter, the root the recursion targets (read-only).
    noise_sd:       additive response noise s.d. (linear only).
    cov_halfwidth:  covariates are uniform on [-cov_halfwidth, cov_halfwidth]^d.
    """

    kind: str
    dim: int
    theta_star: np.ndarray = field(init=False, compare=False)
    noise_sd: float = field(init=False, compare=False)
    cov_halfwidth: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        _check_counts(dim=self.dim)
        theta = np.arange(1.0, self.dim + 1.0)
        theta.setflags(write=False)
        object.__setattr__(self, "theta_star", theta)
        noise_sd, cov_halfwidth = _DATA_LAWS[self.kind]
        object.__setattr__(self, "noise_sd", noise_sd)
        object.__setattr__(self, "cov_halfwidth", cov_halfwidth)


def _check_seeds(**seeds) -> None:
    """Raise ValueError unless every named seed is an integer in [0, 2**64)."""
    for name, value in seeds.items():
        is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not is_int or not (0 <= value < 2**64):
            raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Generator of stream `stream` of seed `seed`.

    It is ``default_rng(SeedSequence(seed, spawn_key=(stream,)))``, so
    distinct streams are statistically independent and each (seed, stream)
    pair reproduces the identical draw sequence within one build. Both must
    be integers in [0, 2**64).
    """
    _check_seeds(seed=seed, stream=stream)
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(stream),))
    return np.random.default_rng(ss)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Overflow-safe logistic function: exp only ever sees -|z| <= 0.
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def sample_data_block(
    model: ModelSpec, gen: np.random.Generator, n: int, resp=None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n observations at once; returns (covariates (n, d), responses (n,)).

    Canonical draw order, relied on for reproducibility: the full covariate
    block is consumed from the generator first, then the response block
    (normal noise for linear, uniforms for the Bernoulli comparison).
    resp, if given, draws the responses instead of gen; run_lockstep passes
    the generator itself, advanced past all covariates of a longer block.
    """
    resp = gen if resp is None else resp
    hw = model.cov_halfwidth
    xs = gen.uniform(-hw, hw, size=(n, model.dim))
    if model.kind == "linear":
        ys = xs @ model.theta_star + resp.normal(0.0, model.noise_sd, size=n)
    else:
        ys = (resp.random(n) < _sigmoid(xs @ model.theta_star)).astype(float)
    return xs, ys


_BLOCK_ENTRIES = 2**20  # floats per array of one streamed time block (8 MB)
_FLUSH_ENTRIES = 2**14  # matrix entries per visited batch; fewer let the visits dominate


def _time_blocks(T: int, width: int, entries: int):
    """Yield (start, length) of blocks of about entries / width steps
    covering steps 0..T-1. They start at multiples of 64 and never end with
    one step, so that a blocked BLAS product equals the product over all T
    rows bit for bit: BLAS rounds a row by its place in a row group (d >= 4)
    and takes another path for a single row."""
    step = min(T, max(64, entries // max(width, 1) // 64 * 64))
    t0 = 0
    while t0 < T:
        b = min(step, T - t0)
        b += T - t0 - b == 1
        yield t0, b
        t0 += b


def _gradient(model: ModelSpec, x: np.ndarray, xs: np.ndarray, ys: np.ndarray, g=None, w=None):
    # Stochastic gradient G(x, xi) (R, d) and the weight w (R,) of its Jacobian
    # w XX' per repetition, written to g and w if given; x: (R, d) iterates,
    # xs: (R, d) covariates, ys: (R,) responses. Linear: G = (x'X - y) X, the
    # squared-loss gradient, so x - eta*G descends, with w = 1 (returned as
    # None). Logistic: G = (sigmoid(x'X) - y) X, the log-loss gradient, with
    # w = sigmoid'(x'X). Gradients have mean zero at theta_star; Jacobians are symmetric PSD.
    z = np.add.reduce(xs * x, axis=1)
    if model.kind == "linear":
        return np.multiply((z - ys)[:, None], xs, out=g), None
    s = _sigmoid(z)
    return np.multiply((s - ys)[:, None], xs, out=g), np.multiply(s, 1.0 - s, out=w)


def run_lockstep(model, schedule, T, gens, eval_times, visit) -> np.ndarray:
    """Advance len(gens) independent repetitions through T steps in lockstep.

    Every repetition starts at x_0 = 0. Data are drawn in time blocks:
    covariates from a copy of gens[r], and responses from gens[r] advanced
    past them by T*d draws. Each block so holds the rows of
    sample_data_block(model, gens[r], T), and results depend neither on the
    block size nor on how callers chunk the generator list; gens[r] ends in
    the state that call leaves it in. Only the gradient, x and xbar are
    computed per step, into chunks of c = max(1, min(_FLUSH_ENTRIES //
    (R d), b // 16)) steps, b the first block's length; the rest takes one
    call per chunk, and the running sums one add per step.
    visit(lo, xbar, h_hat, s_hat) gets the states at the steps in
    eval_times (ascending, within [1, T]) in batches of k = max(1,
    min(len(eval_times), _FLUSH_ENTRIES // (R d^2))) steps, the last one
    partial: at the m steps t from eval_times[lo] on, the averaged iterates
    (m, R, d) and the running means h_sum / t and s_sum / t (m, R, d, d),
    t a float, valid until visit returns. This is the one owner of
    visit's errstate, the recursion's: overflow, invalid and underflow
    ignored. visit sets its own only to raise a warning.

    Divergent repetitions are frozen (their rows turn nan) rather than
    raising, so surviving repetitions finish; their rows still reach visit.
    Returns diverged_at: per-repetition first divergent step, -1 if none.
    """
    n_reps = len(gens)
    d = model.dim
    ev = [int(t) for t in eval_times]
    if ev and not (1 <= ev[0] and ev[-1] <= T and all(a < b for a, b in zip(ev, ev[1:]))):
        raise ValueError("eval_times must be strictly ascending within [1, T]")
    k = max(1, min(len(ev), _FLUSH_ENTRIES // max(1, n_reps * d * d)))
    xbars, hats = np.empty((k, n_reps, d)), np.empty((2, k, n_reps, d, d))
    i = 0

    covs = []
    for gen in gens:
        # A generator of gen's type set to its state draws its stream, at
        # under half the cost of copy.deepcopy; seed 0 is a placeholder.
        bits = type(gen.bit_generator)(0)
        bits.state = gen.bit_generator.state
        covs.append(np.random.Generator(bits))
    for gen in gens:
        gen.bit_generator.advance(T * d)
    blocks = list(_time_blocks(T, n_reps * d, _BLOCK_ENTRIES))
    c = max(1, min(_FLUSH_ENTRIES // max(1, n_reps * d), blocks[0][1] // 16 if blocks else 1))
    # A chunk's covariates, responses, states, gradients and logistic weights.
    xc, xk, xbk, gk = np.empty((4, c, n_reps, d))
    yc = np.empty((c, n_reps))
    wk = np.empty((c, n_reps)) if model.kind == "logistic" else [None] * c
    acc = np.empty((2, c, n_reps, d, d))
    x, xbar = np.zeros((2, n_reps, d))
    sums = np.zeros((2, n_reps, d, d))  # h_sum and s_sum after the last chunk
    diverged_at = np.full(n_reps, -1, dtype=np.int64)

    for t0, b in blocks:
        # Repetition-major, so that each repetition's rows are one run.
        xs = np.empty((n_reps, b, d))
        ys = np.empty((n_reps, b))
        for r, (cov, gen) in enumerate(zip(covs, gens)):
            xs[r], ys[r] = sample_data_block(model, cov, b, gen)
        etas = step_size(schedule, np.arange(t0, t0 + b))
        # nan rows from already-diverged repetitions flow through harmlessly.
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for j0 in range(0, b, c):
                t = t0 + j0  # steps taken before this chunk
                n = min(c, b - j0)
                np.copyto(xc[:n], xs[:, j0 : j0 + n].swapaxes(0, 1))
                np.copyto(yc[:n], ys[:, j0 : j0 + n].T)
                steps = zip(range(t + 1, t + n + 1), etas[j0 : j0 + n], xc, yc, xk, xbk, gk, wk)
                for tt, eta, xv, y, xo, xbo, go, wo in steps:
                    g, _ = _gradient(model, x, xv, y, go, wo)
                    x = np.subtract(x, eta * g, out=xo)
                    xbar = np.add(xbar, (x - xbar) / tt, out=xbo)
                jac, outer = acc[:, :n]
                # einsum beats a broadcast; its +0 for a -0 product cannot reach sums from +0.
                np.einsum("...i,...j->...ij", xc[:n], xc[:n], out=jac)
                if model.kind == "logistic":
                    jac *= wk[:n, :, None, None]
                np.einsum("...i,...j->...ij", gk[:n], gk[:n], out=outer)
                # np.cumsum, adding one entry's terms at a time, is slower.
                running = acc[:, :n].swapaxes(0, 1)  # (n, 2, R, d, d), step by step
                np.add(sums, running[0], out=running[0])
                for prev, cur in zip(running, running[1:]):
                    np.add(prev, cur, out=cur)
                sums[...] = running[-1]
                if not np.isfinite(xk[:n]).all():
                    bad = ~np.isfinite(xk[:n]).all(axis=2)
                    newly = (diverged_at == -1) & bad.any(axis=0)
                    diverged_at[newly] = t + 1 + bad[:, newly].argmax(axis=0)
                end = bisect.bisect_right(ev, t + n, i)
                while i < end:
                    # The chunk's evaluation steps that fit the open batch.
                    m = min(end - i, k - i % k)
                    rows = np.subtract(ev[i : i + m], t + 1)
                    at = slice(i % k, i % k + m)
                    xbars[at] = xbk[rows]
                    np.divide(acc[:, rows], (rows + t + 1.0)[:, None, None, None], out=hats[:, at])
                    i += m
                    if i % k == 0 or i == len(ev):
                        lo = (i - 1) // k * k
                        visit(lo, xbars[: i - lo], *hats[:, : i - lo])
        # Free this block before the next is drawn, so one block is live.
        del xs, ys
    return diverged_at


@dataclass(frozen=True)
class TrajectoryPoint:
    """Checkpoint record: averaged iterate, normalized accumulators, the
    sandwich covariance estimate when available, and the error norm.

    h_hat, s_hat and sandwich are plain (d, d) arrays; h_hat and s_hat may
    hold inf after the accumulators overflow. sandwich is symmetrized,
    (v + v^T) / 2, and is None when h_hat failed the invertibility guard or
    the sandwich is not finite.
    """

    t: int
    xbar: np.ndarray
    h_hat: np.ndarray
    s_hat: np.ndarray
    sandwich: np.ndarray | None
    err_norm: float


def run_trajectory(
    model: ModelSpec,
    schedule: StepSchedule,
    T: int,
    checkpoints,
    rng: np.random.Generator | None = None,
) -> tuple[TrajectoryPoint, ...]:
    """Run one trajectory from x_0 = 0 for T steps and record the listed
    checkpoints.

    checkpoints must be strictly ascending integers within [1, T]. This is
    run_lockstep with a single repetition drawing from rng (default
    rng_stream(0, 0)), so the trace is a deterministic function of (model,
    schedule, T, seed, stream) and equals that repetition's path in the
    coverage harness.

    Raises DivergenceError if the iterate leaves the finite floats.
    """
    if isinstance(T, bool) or not isinstance(T, (int, np.integer)) or T < 0:
        raise ValueError(f"T must be a nonnegative integer, got {T!r}")
    if rng is None:
        rng = rng_stream(0, 0)
    checkpoints = [int(t) for t in checkpoints]
    trace: list[TrajectoryPoint] = []

    def visit(lo, xbar, h_hat, s_hat):
        # One sandwich call per batch of checkpoints, of the one repetition,
        # on copies that the points keep: run_lockstep reuses its buffers.
        ts = checkpoints[lo : lo + len(xbar)]
        h_hat, s_hat = h_hat[:, 0].copy(), s_hat[:, 0].copy()
        v, ok = covariance.sandwich(h_hat, s_hat)
        ok &= np.isfinite(v).all(axis=(1, 2))
        sym = 0.5 * (v + np.swapaxes(v, 1, 2))
        for t, xb, h, s, vs, good in zip(ts, xbar[:, 0].copy(), h_hat, s_hat, sym, ok):
            err = math.hypot(*(xb - model.theta_star))
            trace.append(TrajectoryPoint(t, xb, h, s, vs if good else None, err))

    diverged_at = run_lockstep(model, schedule, T, [rng], checkpoints, visit)
    if diverged_at[0] != -1:
        raise DivergenceError(int(diverged_at[0]))
    return tuple(trace)
