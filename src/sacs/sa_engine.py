"""Stochastic approximation engine with linear and logistic regression oracles.

Implements the recursion x_{t+1} = x_t - eta_t * G(x_t, xi_{t+1}) together
with iterate averaging, running Jacobian and outer-product accumulators, and
deterministic multi-stream data generation. ``run_lockstep`` advances many
independent repetitions in vectorized lockstep and is the one execution
path: it powers both ``run_trajectory`` and the coverage harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import covariance
from .numerics import NumericalError, SymMatrix

__all__ = [
    "DivergenceError",
    "StepSchedule",
    "ModelSpec",
    "RngStream",
    "TrajectoryPoint",
    "step_size",
    "validate_rate_condition",
    "default_model",
    "sample_data_block",
    "run_lockstep",
    "run_trajectory",
]

MODEL_KINDS = ("linear", "logistic")


class DivergenceError(NumericalError):
    """An iterate left the finite floats. Carries the first divergent step."""

    def __init__(self, t: int) -> None:
        super().__init__(f"iterate diverged at step {t}")
        self.t = t


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


@dataclass(frozen=True)
class ModelSpec:
    """Data-generating model for the built-in regression oracles.

    kind:           "linear" or "logistic".
    dim:            covariate dimension d.
    theta_star:     true parameter, the root the recursion targets.
    noise_sd:       additive response noise s.d. (linear only).
    cov_halfwidth:  covariates are uniform on [-cov_halfwidth, cov_halfwidth]^d.
    """

    kind: str
    dim: int
    theta_star: np.ndarray
    noise_sd: float = 0.0
    cov_halfwidth: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        theta = np.array(self.theta_star, dtype=float, copy=True)
        if theta.shape != (self.dim,) or not np.all(np.isfinite(theta)):
            raise ValueError("theta_star must be a finite vector of length dim")
        theta.setflags(write=False)
        object.__setattr__(self, "theta_star", theta)
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0.0):
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        if not (math.isfinite(self.cov_halfwidth) and self.cov_halfwidth > 0.0):
            raise ValueError(
                f"cov_halfwidth must be finite and positive, got {self.cov_halfwidth}"
            )


def default_model(kind: str, dim: int = 1) -> ModelSpec:
    """Reference models: theta_star = (1, ..., d) with the standard data laws.

    linear:   covariates uniform on [-10, 10]^d, noise N(0, 16).
    logistic: covariates uniform on [-0.5, 0.5]^d, Bernoulli response.
    """
    theta = np.arange(1.0, dim + 1.0)
    if kind == "linear":
        return ModelSpec("linear", dim, theta, noise_sd=4.0, cov_halfwidth=10.0)
    if kind == "logistic":
        return ModelSpec("logistic", dim, theta, noise_sd=0.0, cov_halfwidth=0.5)
    raise ValueError(f"kind must be one of {MODEL_KINDS}, got {kind!r}")


class RngStream:
    """One named substream of a seeded generator family.

    Stream r of seed s is ``default_rng(SeedSequence(s, spawn_key=(r,)))``,
    so distinct streams are statistically independent and each (seed,
    stream) pair reproduces the identical draw sequence within one build.
    The underlying generator is created lazily and is stateful: reuse of a
    stream object continues where previous draws left off.
    """

    __slots__ = ("seed", "stream", "_gen")

    def __init__(self, seed: int = 0, stream: int = 0) -> None:
        for name, value in (("seed", seed), ("stream", stream)):
            if not isinstance(value, (int, np.integer)) or not (0 <= value < 2**64):
                raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
            self._gen = np.random.default_rng(ss)
        return self._gen

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Overflow-safe logistic function, branch by sign.
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sample_data_block(
    model: ModelSpec, gen: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n observations at once; returns (covariates (n, d), responses (n,)).

    Canonical draw order, relied on for reproducibility: the full covariate
    block is consumed from the generator first, then the response block
    (normal noise for linear, uniforms for the Bernoulli comparison).
    """
    hw = model.cov_halfwidth
    xs = gen.uniform(-hw, hw, size=(n, model.dim))
    if model.kind == "linear":
        ys = xs @ model.theta_star + gen.normal(0.0, model.noise_sd, size=n)
    else:
        ys = (gen.random(n) < _sigmoid(xs @ model.theta_star)).astype(float)
    return xs, ys


def _grad_batch(model: ModelSpec, x: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # Stochastic gradient G(x, xi) per repetition; x: (R, d) iterates,
    # xs: (R, d) covariates, ys: (R,) responses. Linear: G = -(y - x'X) X,
    # the squared-loss gradient, so x - eta*G descends. Logistic:
    # G = (sigmoid(x'X) - y) X, the log-loss gradient. Both have mean zero
    # at theta_star.
    if model.kind == "linear":
        resid = ys - np.sum(xs * x, axis=1)
        return -resid[:, None] * xs
    s = _sigmoid(np.sum(xs * x, axis=1))
    return (s - ys)[:, None] * xs


def _jac_batch(model: ModelSpec, x: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # Per-sample Jacobian of the gradient in x, evaluated at x: (R, d, d).
    # XX' (linear) or sigmoid'(x'X) XX' (logistic), symmetric PSD.
    outer = xs[:, :, None] * xs[:, None, :]
    if model.kind == "linear":
        return outer
    s = _sigmoid(np.sum(xs * x, axis=1))
    return (s * (1.0 - s))[:, None, None] * outer


def run_lockstep(model, schedule, T, x0, gens, eval_times, visit) -> np.ndarray:
    """Advance len(gens) independent repetitions through T steps in lockstep.

    Each repetition r consumes its own generator gens[r] in the canonical
    block order of sample_data_block (covariate block, then response
    block), so repetition results do not depend on how callers chunk the
    generator list. visit(t, x, xbar, h_sum, s_sum, alive) is called at
    each t in eval_times (ascending, within [1, T]) with live internal
    arrays of shape (R, d) / (R, d, d); callees must copy what they keep
    and must not mutate.

    Divergent repetitions are frozen (their rows turn nan and are dropped
    from alive) rather than raising, so surviving repetitions finish.
    Returns diverged_at: per-repetition first divergent step, -1 if none.
    """
    n_reps = len(gens)
    d = model.dim
    xs = np.empty((n_reps, T, d))
    ys = np.empty((n_reps, T))
    for r, gen in enumerate(gens):
        xs[r], ys[r] = sample_data_block(model, gen, T)

    x = np.tile(np.asarray(x0, dtype=float), (n_reps, 1))
    xbar = np.zeros((n_reps, d))
    h_sum = np.zeros((n_reps, d, d))
    s_sum = np.zeros((n_reps, d, d))
    alive = np.ones(n_reps, dtype=bool)
    diverged_at = np.full(n_reps, -1, dtype=np.int64)

    ev = [int(t) for t in eval_times]
    if ev and not (1 <= ev[0] and ev[-1] <= T and all(a < b for a, b in zip(ev, ev[1:]))):
        raise ValueError("eval_times must be strictly ascending within [1, T]")
    k = 0

    etas = step_size(schedule, np.arange(T))

    for t in range(T):
        tt = t + 1
        # nan rows from already-diverged repetitions flow through harmlessly.
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            xt = xs[:, t, :]
            g = _grad_batch(model, x, xt, ys[:, t])
            h_sum += _jac_batch(model, x, xt)
            s_sum += g[:, :, None] * g[:, None, :]
            x = x - etas[t] * g
            xbar = xbar + (x - xbar) / tt
        newly = alive & ~np.isfinite(x).all(axis=1)
        if newly.any():
            diverged_at[newly] = tt
            alive[newly] = False
        if k < len(ev) and ev[k] == tt:
            visit(tt, x, xbar, h_sum, s_sum, alive)
            k += 1
    return diverged_at


@dataclass(frozen=True)
class TrajectoryPoint:
    """Checkpoint record: averaged iterate, normalized accumulators, the
    sandwich covariance estimate when available, and the error norm.

    h_hat and s_hat are plain (d, d) arrays, since they may hold inf after
    the accumulators overflow. sandwich is None exactly when singular is
    True: h_hat failed the invertibility guard or the sandwich is not finite.
    """

    t: int
    xbar: np.ndarray
    h_hat: np.ndarray
    s_hat: np.ndarray
    sandwich: SymMatrix | None
    singular: bool
    err_norm: float


def run_trajectory(
    model: ModelSpec,
    schedule: StepSchedule,
    T: int,
    checkpoints,
    x0=None,
    rng: RngStream | None = None,
) -> tuple[TrajectoryPoint, ...]:
    """Run one trajectory for T steps and record the listed checkpoints.

    checkpoints must be strictly ascending integers within [1, T]. This is
    run_lockstep with a single repetition, so the trace is a deterministic
    function of (model, schedule, T, x0, seed, stream) and equals that
    repetition's path in the coverage harness.

    Raises DivergenceError if the iterate leaves the finite floats.
    """
    if not isinstance(T, (int, np.integer)) or T < 0:
        raise ValueError(f"T must be a nonnegative integer, got {T!r}")
    x0 = np.zeros(model.dim) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (model.dim,) or not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be a finite vector of length dim")
    if rng is None:
        rng = RngStream(0, 0)
    theta = model.theta_star
    trace: list[TrajectoryPoint] = []

    def visit(tt, x, xbar, h_sum, s_sum, alive):
        if not alive[0]:
            return
        h_hat = h_sum[0] / tt
        s_hat = s_sum[0] / tt
        v, ok = covariance.sandwich(h_hat, s_hat)
        singular = not (ok and np.isfinite(v).all())
        trace.append(
            TrajectoryPoint(
                t=tt,
                xbar=xbar[0].copy(),
                h_hat=h_hat,
                s_hat=s_hat,
                sandwich=None if singular else SymMatrix(v),
                singular=singular,
                err_norm=math.hypot(*(xbar[0] - theta)),
            )
        )

    diverged_at = run_lockstep(model, schedule, T, x0, [rng.generator], checkpoints, visit)
    if diverged_at[0] != -1:
        raise DivergenceError(int(diverged_at[0]))
    return tuple(trace)
