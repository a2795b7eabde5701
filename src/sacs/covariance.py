"""Streaming plug-in estimation of the limiting sandwich covariance.

The averaged iterate is asymptotically normal with covariance
H^{-1} S H^{-1}, where H is the mean Jacobian of the gradient field at the
root and S the gradient noise second moment. Both are estimated by the
running means accumulated inside SaState; this module normalizes them and
forms the sandwich, guarding against the (legitimate, early-t) case of a
singular Jacobian estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .numerics import SymMatrix, pd_eigh

if TYPE_CHECKING:
    from .sa_engine import SaState

__all__ = [
    "SANDWICH_RTOL",
    "PluginEstimate",
    "plugin_estimate",
    "sandwich",
    "sandwich_from_moments",
    "plugin_rate_exponent",
]

# Relative invertibility guard: h_hat with min eigenvalue at or below this
# fraction of the max is flagged singular and no sandwich is produced.
SANDWICH_RTOL = 1e-8


@dataclass(frozen=True)
class PluginEstimate:
    """Normalized accumulators plus the sandwich when it is trustworthy.

    sandwich is None exactly when singular_flag is True, i.e. when h_hat
    failed the relative invertibility guard.
    """

    t: int
    h_hat: SymMatrix
    s_hat: SymMatrix
    sandwich: SymMatrix | None
    singular_flag: bool


def sandwich(h, s):
    """Batched sandwich h^{-1} s h^{-1} over stacked (..., d, d) moments.

    The inverse goes through the eigendecomposition of h (lower triangle);
    the guard requires h to be finite with its smallest eigenvalue above
    SANDWICH_RTOL times the largest (in particular positive definite).
    Returns (v, ok), with v nan wherever the guard fails (ok False).
    Overflow in the product leaves inf or nan entries in v rather than
    raising.
    """
    w, q, ok = pd_eigh(h, SANDWICH_RTOL)
    with np.errstate(over="ignore", invalid="ignore"):
        h_inv = (q / w[..., None, :]) @ np.swapaxes(q, -1, -2)
        return h_inv @ s @ h_inv, ok


def sandwich_from_moments(
    h_hat: SymMatrix, s_hat: SymMatrix
) -> tuple[SymMatrix | None, bool]:
    """Form h_hat^{-1} s_hat h_hat^{-1}, or flag singularity.

    Single-matrix form of sandwich(). Returns (sandwich, singular_flag).
    """
    v, ok = sandwich(h_hat.entries, s_hat.entries)
    if not ok:
        return None, True
    return SymMatrix(v), False


def plugin_estimate(st: "SaState") -> PluginEstimate:
    """Plug-in covariance estimate from a recursion state with t >= 1."""
    if st.t < 1:
        raise ValueError(f"plug-in estimate needs t >= 1, got t={st.t}")
    h_hat = SymMatrix(st.h_sum.entries / st.t)
    s_hat = SymMatrix(st.s_sum.entries / st.t)
    v_hat, singular = sandwich_from_moments(h_hat, s_hat)
    return PluginEstimate(
        t=st.t, h_hat=h_hat, s_hat=s_hat, sandwich=v_hat, singular_flag=singular
    )


def plugin_rate_exponent(p_bar: float, a: float) -> float:
    """Almost-sure convergence rate exponent of the plug-in estimates.

    Both the Jacobian estimate and the sandwich converge at rate
    t^{-min(1 - 1/p_bar, a/2)} (up to logarithmic factors), where p_bar is
    the moment order available for the per-sample Jacobians. p_bar may be
    math.inf.
    """
    if not (p_bar > 1.0):
        raise ValueError(f"p_bar must exceed 1, got {p_bar}")
    if not (0.0 < a < 1.0):
        raise ValueError(f"step exponent must lie in (0, 1), got {a}")
    first = 1.0 if math.isinf(p_bar) else 1.0 - 1.0 / p_bar
    return min(first, a / 2.0)
