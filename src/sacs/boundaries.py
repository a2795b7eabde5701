"""Confidence sequence radii.

Four region families for the whitened averaged-iterate statistic, all in
units of the estimated sandwich covariance:

  lilub   iterated-logarithm boundary, sup norm membership
  gm      Gaussian-mixture boundary, two norm membership
  lilen   iterated-logarithm boundary via epsilon-nets, two norm membership
  fixed   fixed-time per-coordinate normal interval, sup norm membership
          (baseline only, no time-uniform guarantee)

The first three hold uniformly over time at level alpha; the fixed-time
baseline is pointwise and is included for contrast. A region is the set of
centred vectors whose whitened statistic (covariance.whiten) has norm at most
the radius (radius_grid). Radii are strict about their domain: where an
iterated logarithm is undefined the radius is +inf, the whole space, rather
than extrapolated. The special functions the radii need live here too: the
gm mixing weight (lambda_star, a Newton root), the normal quantile (stdlib)
and the epsilon-net packing constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import _check_counts

__all__ = [
    "KINDS",
    "NORM_BY_KIND",
    "BoundarySpec",
    "lambda_star",
    "radius_grid",
]

# Iterated-logarithm arguments below this are treated as out of domain.
_LOGLOG_MIN = math.e + 1e-12

# The paper's boundary shapes: the gm mixture's time offset and the lilen
# epsilon-net.
_GM_T0 = 100.0
_LILEN_EPS_NET = 0.5


@dataclass(frozen=True)
class BoundarySpec:
    """One boundary family at its level alpha."""

    kind: str
    alpha: float

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}; choose from {KINDS}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.alpha / 2.0 == 0.0:
            # The fixed baseline's quantile level; only 5e-324 gets here.
            raise ValueError(f"alpha / 2 underflows to 0 at alpha = {self.alpha}")

    @property
    def norm_kind(self) -> str:
        return NORM_BY_KIND[self.kind]

    @property
    def reads_kappa(self) -> bool:
        return _KIND_TABLE[self.kind][2]


def lambda_star(alpha: float) -> float:
    """Volume-optimal mixing weight for the gm boundary.

    The positive root of f(lam) = lam - log(1 + lam) - c, c = -2 log(alpha)
    (2 log(1/alpha) would overflow for subnormal alpha). It minimizes the
    region volume ((1 + lam)/lam * (log(1 + lam) + c))^{d/2} over lam > 0
    for every d, and equals -W_{-1}(-alpha^2 / e) - 1.

    Newton's method from lam = 2c + 2, right of the root: f is convex and
    increasing there and f' concave, so the exact iterates descend and
    each step is shorter than the last. The loop stops once a step is at
    most 1e-15 lam, or no shorter than the last (rounding noise: as alpha
    nears 1, lam - log1p(lam) cancels), or after 100 steps. No alpha tried
    in (0, 1) needed more than 30.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    c = -2.0 * math.log(alpha)
    lam, last = 2.0 * c + 2.0, math.inf
    for _ in range(100):
        # f'(lam) = lam / (1 + lam)
        step = (lam - math.log1p(lam) - c) * (1.0 + lam) / lam
        lam -= step
        if step <= 1e-15 * lam or step >= last:
            break
        last = step
    return lam


# ---------------------------------------------------------------------------
# Radius formulas, one per family, each called by radius_grid as (ts, d, alpha,
# kappa) with ts a checked float array. They return +inf where undefined.


def _loglog_or_inf(u: np.ndarray) -> np.ndarray:
    out = np.full(np.shape(u), np.inf)
    ok = np.asarray(u) >= _LOGLOG_MIN
    out[ok] = np.log(np.log(np.asarray(u)[ok]))
    return out


def _lilub_grid(ts: np.ndarray, d: int, alpha: float, kappa) -> np.ndarray:
    radicand = _loglog_or_inf(2.0 * ts) + 0.72 * (math.log(10.4 * d) - math.log(alpha))
    with np.errstate(invalid="ignore"):
        out = 1.7 * np.sqrt(radicand / ts)
    out[~(radicand > 0.0)] = np.inf
    return out


def _gm_grid(ts: np.ndarray, d: int, alpha: float, kappa) -> np.ndarray:
    ls = lambda_star(alpha)
    drift = 1.0 + _GM_T0 / (ts * ls)
    growth = d * np.log1p(ts * ls / _GM_T0) - 2.0 * math.log(alpha)
    return np.sqrt(drift * growth / ts)


def _c_d_constant(d: int) -> float:
    # Packing constant d 2^d Gamma((d+1)/2) / pi^((d-1)/2), in log space so
    # that moderate dimensions do not overflow intermediates.
    log_c = (
        math.log(d)
        + d * math.log(2.0)
        + math.lgamma((d + 1) / 2.0)
        - (d - 1) / 2.0 * math.log(math.pi)
    )
    return math.exp(log_c)


def _lilen_grid(ts: np.ndarray, d: int, alpha: float, kappa) -> np.ndarray:
    ts, kappa = np.broadcast_arrays(ts, np.asarray(kappa, dtype=float))
    radicand = (
        1.4 * _loglog_or_inf(2.0 * ts * kappa)
        + (math.log(5.2 * _c_d_constant(d)) - math.log(alpha))
        + (d - 1) * np.log(3.0 * np.sqrt(kappa) / _LILEN_EPS_NET)
    )
    with np.errstate(invalid="ignore"):
        out = (2.0 / (1.0 - _LILEN_EPS_NET)) * np.sqrt(radicand / ts)
    out[radicand <= 0.0] = np.inf
    return out


def _fixed_grid(ts: np.ndarray, d: int, alpha: float, kappa) -> np.ndarray:
    # Imported on first use: statistics pulls in decimal and fractions,
    # about 5 ms that every CLI start would otherwise pay.
    from statistics import NormalDist

    # The lower tail: 1 - alpha/2 would round to 1 for alpha below 1.1e-16.
    return -NormalDist().inv_cdf(float(alpha) / 2.0) / np.sqrt(ts)


# One row per family, the one place a kind is defined: (membership norm of
# the whitened statistic, radius formula, whether the formula reads kappa).
_KIND_TABLE = {
    "lilub": ("sup_norm", _lilub_grid, False),
    "gm": ("two_norm", _gm_grid, False),
    "lilen": ("two_norm", _lilen_grid, True),
    "fixed": ("sup_norm", _fixed_grid, False),
}
KINDS = tuple(_KIND_TABLE)
NORM_BY_KIND = {kind: norm for kind, (norm, _, _) in _KIND_TABLE.items()}


def radius_grid(spec: BoundarySpec, ts, d: int, kappa=1.0) -> np.ndarray:
    """Radii of one boundary over an array of finite steps ts >= 1.

    The families, in whitened units (l* = lambda_star(alpha), t0 = 100,
    eps = 0.5, C_d = d 2^d Gamma((d+1)/2) / pi^((d-1)/2)):

      lilub  1.7 sqrt((loglog(2t) + 0.72 log(10.4 d / alpha)) / t)
      gm     sqrt((1 + t0/(t l*)) (d log(1 + t l*/t0) + 2 log(1/alpha)) / t)
      lilen  (2/(1-eps)) sqrt((1.4 loglog(2 t kappa) + log(5.2 C_d / alpha)
             + (d-1) log(3 sqrt(kappa) / eps)) / t)
      fixed  z_{1 - alpha/2} / sqrt(t), pointwise only (z the standard
             normal quantile)

    kappa >= 1 is the condition number of the covariance used for
    whitening; only lilen reads it, and a nan kappa (an unavailable
    evaluation) passes the domain check and gives a nan lilen radius: nan
    in, nan out. ts and kappa broadcast against each other.
    Entries where an iterated logarithm or its radicand is undefined come
    back as +inf: the region is the whole space there. alpha enters as
    -log(alpha), never as 1/alpha, so a subnormal alpha gives finite radii.
    """
    _check_counts(d=d)
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts) & (ts >= 1.0)):
        raise ValueError("every t must be finite and >= 1")
    if np.any(np.asarray(kappa) < 1.0):
        raise ValueError("kappa must be >= 1")
    return _KIND_TABLE[spec.kind][1](ts, d, spec.alpha, kappa)
