"""Confidence sequence radii, membership evaluation, and related objectives.

Four region families for the whitened averaged-iterate statistic, all in
units of the estimated sandwich covariance:

  lilub   iterated-logarithm boundary, sup norm membership
  gm      Gaussian-mixture boundary, two norm membership
  lilen   iterated-logarithm boundary via epsilon-nets, two norm membership
  fixed   fixed-time per-coordinate normal interval, sup norm membership
          (baseline only, no time-uniform guarantee)

The first three hold uniformly over time at level alpha; the fixed-time
baseline is pointwise and is included for contrast. Radii are strict about
their domain: where an iterated logarithm is undefined the boundary is
reported undefined rather than extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    NumericalError,
    SingularMatrixError,
    SymMatrix,
    c_d_constant,
    lambert_w_m1,
    normal_quantile,
    pd_eigh,
    whiten,
)

__all__ = [
    "KINDS",
    "NORM_BY_KIND",
    "UndefinedBoundaryError",
    "BoundarySpec",
    "CsEvaluation",
    "lambda_star",
    "radius_lil_ub",
    "radius_gm",
    "radius_lil_en",
    "radius_fixed",
    "radius_grid",
    "evaluate",
    "gm_mixture_martingale",
    "gm_volume_objective",
]

KINDS = ("lilub", "gm", "lilen", "fixed")

# Membership norm for the whitened statistic, fixed per family.
NORM_BY_KIND = {
    "lilub": "sup_norm",
    "gm": "two_norm",
    "lilen": "two_norm",
    "fixed": "sup_norm",
}

# Iterated-logarithm arguments below this are treated as out of domain.
_LOGLOG_MIN = math.e + 1e-12


class UndefinedBoundaryError(NumericalError):
    """The boundary formula is undefined at the requested arguments."""


@dataclass(frozen=True)
class BoundarySpec:
    """One boundary family with its level and shape parameters.

    t0 only affects the gm family, eps_net only the lilen family; both
    carry defaults so specs for the other kinds can ignore them.
    """

    kind: str
    alpha: float
    t0: float = 100.0
    eps_net: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (math.isfinite(self.t0) and self.t0 >= 1.0):
            raise ValueError(f"t0 must be >= 1, got {self.t0}")
        if not (0.0 < self.eps_net < 1.0):
            raise ValueError(f"eps_net must lie in (0, 1), got {self.eps_net}")

    @property
    def norm_kind(self) -> str:
        return NORM_BY_KIND[self.kind]


@dataclass(frozen=True)
class CsEvaluation:
    """Outcome of one membership evaluation at one step."""

    t: int
    radius: float
    norm_kind: str
    whitened_stat: float | None
    covered: bool | None
    halfwidths: np.ndarray


def lambda_star(alpha: float) -> float:
    """Volume-optimal mixing weight for the gm boundary.

    lambda_star = -W_{-1}(-alpha^2 / e) - 1, the unique positive stationary
    point of gm_volume_objective. Strictly positive for alpha in (0, 1).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return -lambert_w_m1(-(alpha * alpha) / math.e) - 1.0


# ---------------------------------------------------------------------------
# Radius formulas. The *_grid helpers are vectorized over t (and kappa where
# applicable) and return +inf where the formula is undefined; the public
# scalar functions turn +inf into UndefinedBoundaryError.


def _loglog_or_inf(u: np.ndarray) -> np.ndarray:
    out = np.full(np.shape(u), np.inf)
    ok = np.asarray(u) >= _LOGLOG_MIN
    out[ok] = np.log(np.log(np.asarray(u)[ok]))
    return out


def _lilub_grid(ts: np.ndarray, d: int, alpha: float) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    radicand = _loglog_or_inf(2.0 * ts) + 0.72 * math.log(10.4 * d / alpha)
    with np.errstate(invalid="ignore"):
        out = 1.7 * np.sqrt(radicand / ts)
    out[~(radicand > 0.0)] = np.inf
    return out


def _gm_grid(ts: np.ndarray, d: int, alpha: float, t0: float) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    ls = lambda_star(alpha)
    drift = 1.0 + t0 / (ts * ls)
    growth = d * np.log1p(ts * ls / t0) + 2.0 * math.log(1.0 / alpha)
    return np.sqrt(drift * growth / ts)


def _lilen_grid(ts, d: int, alpha: float, eps_net: float, kappa) -> np.ndarray:
    ts, kappa = np.broadcast_arrays(
        np.asarray(ts, dtype=float), np.asarray(kappa, dtype=float)
    )
    radicand = (
        1.4 * _loglog_or_inf(2.0 * ts * kappa)
        + math.log(5.2 * c_d_constant(d) / alpha)
        + (d - 1) * np.log(3.0 * np.sqrt(kappa) / eps_net)
    )
    with np.errstate(invalid="ignore"):
        out = (2.0 / (1.0 - eps_net)) * np.sqrt(radicand / ts)
    out[~(radicand > 0.0)] = np.inf
    return out


def _fixed_grid(ts: np.ndarray, alpha: float) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    return normal_quantile(1.0 - alpha / 2.0) / np.sqrt(ts)


def _check_t_d_alpha(t: float, d: int, alpha: float) -> None:
    if not t >= 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def radius_lil_ub(t: float, d: int, alpha: float) -> float:
    """Iterated-logarithm radius 1.7 sqrt((loglog(2t) + 0.72 log(10.4 d / alpha)) / t).

    Pairs with sup norm membership. Undefined where loglog(2t) does not
    exist or the radicand is nonpositive (only possible for enormous
    alpha); raises UndefinedBoundaryError there.
    """
    _check_t_d_alpha(t, d, alpha)
    val = float(_lilub_grid(np.array([t]), d, alpha)[0])
    if not math.isfinite(val):
        raise UndefinedBoundaryError(
            f"lilub radius undefined at t={t} (iterated logarithm domain)"
        )
    return val


def radius_gm(t: float, d: int, alpha: float, t0: float = 100.0) -> float:
    """Gaussian-mixture radius sqrt((1 + t0/(t l*)) (d log(1 + t l*/t0) + 2 log(1/alpha)) / t).

    l* = lambda_star(alpha). Pairs with two norm membership; defined for
    all t >= 1.
    """
    _check_t_d_alpha(t, d, alpha)
    if not (math.isfinite(t0) and t0 >= 1.0):
        raise ValueError(f"t0 must be >= 1, got {t0}")
    return float(_gm_grid(np.array([t]), d, alpha, t0)[0])


def radius_lil_en(
    t: float, d: int, alpha: float, eps_net: float = 0.5, kappa: float = 1.0
) -> float:
    """Epsilon-net iterated-logarithm radius.

    (2/(1-eps)) sqrt((1.4 loglog(2 t kappa) + log(5.2 C_d / alpha)
    + (d-1) log(3 sqrt(kappa) / eps)) / t), where C_d = c_d_constant(d)
    and kappa is the condition number of the covariance used for
    whitening. Pairs with two norm membership. Raises
    UndefinedBoundaryError where the iterated logarithm is undefined.
    """
    _check_t_d_alpha(t, d, alpha)
    if not (0.0 < eps_net < 1.0):
        raise ValueError(f"eps_net must lie in (0, 1), got {eps_net}")
    if not (math.isfinite(kappa) and kappa >= 1.0):
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    val = float(_lilen_grid(np.array([t]), d, alpha, eps_net, kappa)[0])
    if not math.isfinite(val):
        raise UndefinedBoundaryError(
            f"lilen radius undefined at t={t}, kappa={kappa} "
            f"(iterated logarithm domain)"
        )
    return val


def radius_fixed(t: float, alpha: float) -> float:
    """Fixed-time per-coordinate radius z_{1 - alpha/2} / sqrt(t).

    Pointwise normal interval in whitened units; no time-uniform
    guarantee. Pairs with sup norm membership (per-coordinate check).
    """
    _check_t_d_alpha(t, 1, alpha)
    return float(_fixed_grid(np.array([t]), alpha)[0])


def radius_grid(spec: BoundarySpec, ts, d: int, kappa=1.0) -> np.ndarray:
    """Vectorized radii of one boundary over an array of steps.

    Bulk counterpart of the scalar radius functions for Monte Carlo use:
    entries where the formula is undefined come back as +inf (the region
    is trivially the whole space there) instead of raising. ts and kappa
    broadcast against each other; kappa is ignored except by lilen.
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    ts = np.asarray(ts, dtype=float)
    if spec.kind == "lilub":
        return _lilub_grid(ts, d, spec.alpha)
    if spec.kind == "gm":
        return _gm_grid(ts, d, spec.alpha, spec.t0)
    if spec.kind == "lilen":
        return _lilen_grid(ts, d, spec.alpha, spec.eps_net, kappa)
    return _fixed_grid(ts, spec.alpha)


def evaluate(
    spec: BoundarySpec,
    v_hat: SymMatrix,
    t: int,
    xbar_minus_xstar=None,
    subset=None,
) -> CsEvaluation:
    """Evaluate one boundary at step t against a sandwich estimate.

    subset selects coordinates for inference; the sub-matrix of v_hat is
    extracted first and all quantities (dimension, condition number,
    whitening) refer to it. When the centered vector xbar_minus_xstar is
    given, the whitened statistic in the family's norm is compared to the
    radius; otherwise whitened_stat and covered are None.

    halfwidths are the per-coordinate half-widths of the region's
    bounding box: radius * sqrt(v_ii) for two norm regions, and
    radius * (1-norm of row i of the sub-matrix square root) for sup norm
    regions.

    Raises SingularMatrixError when the selected sub-matrix is not
    numerically PD, and UndefinedBoundaryError where the radius is.
    """
    if not isinstance(t, (int, np.integer)) or t < 1:
        raise ValueError(f"t must be a positive integer, got {t!r}")
    d_full = v_hat.dim
    if subset is None:
        idx = np.arange(d_full)
    else:
        idx = np.asarray(sorted(set(int(i) for i in subset)), dtype=int)
        if idx.size == 0 or idx[0] < 0 or idx[-1] >= d_full:
            raise ValueError(f"subset must be nonempty coordinates in [0, {d_full})")
    vec = None
    if xbar_minus_xstar is not None:
        vec = np.asarray(xbar_minus_xstar, dtype=float)
        if vec.shape != (d_full,):
            raise ValueError(
                f"xbar_minus_xstar must have shape ({d_full},), got {vec.shape}"
            )
        vec = vec[idx]

    wh = whiten(v_hat.entries[np.ix_(idx, idx)], vec)
    if not wh.ok:
        raise SingularMatrixError(
            f"sandwich sub-matrix is numerically singular or indefinite at t={t}"
        )
    radius = float(radius_grid(spec, [t], int(idx.size), kappa=wh.kappa)[0])
    if not math.isfinite(radius):
        raise UndefinedBoundaryError(f"{spec.kind} radius undefined at t={t}")
    two = spec.norm_kind == "two_norm"
    halfwidths = radius * (wh.scale_two if two else wh.scale_sup)

    whitened_stat = None
    covered = None
    if vec is not None:
        whitened_stat = float(wh.stat_two if two else wh.stat_sup)
        covered = bool(whitened_stat <= radius)

    return CsEvaluation(
        t=int(t),
        radius=radius,
        norm_kind=spec.norm_kind,
        whitened_stat=whitened_stat,
        covered=covered,
        halfwidths=halfwidths,
    )


def gm_mixture_martingale(t: float, sum_g, v: SymMatrix, sigma: SymMatrix) -> float:
    """Closed-form value of the Gaussian mixture martingale at time t.

    For the running sum s of mean-zero increments with common covariance
    v, the mixture over Gaussian weights with mixing covariance sigma is

        exp( s' (t v + sigma^{-1})^{-1} s / 2 )
        / sqrt( det(sigma) det(t v + sigma^{-1}) ).

    Equals 1 at t=0 and has expectation 1 in t under the Gaussian law.
    Used by property tests of the gm boundary's derivation.
    """
    if not (t >= 0.0):
        raise ValueError(f"t must be >= 0, got {t}")
    s = np.asarray(sum_g, dtype=float)
    if s.shape != (v.dim,) or sigma.dim != v.dim:
        raise ValueError("dimension mismatch between sum_g, v, and sigma")

    ws, qs, ok = pd_eigh(sigma.entries)
    if not ok:
        raise SingularMatrixError("mixing covariance must be positive definite")
    sigma_inv = (qs / ws) @ qs.T
    log_det_sigma = float(np.sum(np.log(ws)))

    wa, qa, ok = pd_eigh(t * v.entries + sigma_inv)
    if not ok:
        raise SingularMatrixError("t*v + sigma^{-1} must be positive definite")
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
