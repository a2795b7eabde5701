"""Streaming plug-in estimation of the limiting sandwich covariance.

The averaged iterate is asymptotically normal with covariance
H^{-1} S H^{-1}, where H is the mean Jacobian of the gradient field at the
root and S the gradient noise second moment. Both are estimated by the
running means of the accumulators that run_lockstep keeps; this module
forms the sandwich from them, guarding against the (legitimate, early-t)
case of a singular Jacobian estimate.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import pd_eigh

__all__ = [
    "SANDWICH_RTOL",
    "sandwich",
    "plugin_rate_exponent",
]

# Relative invertibility guard: h_hat with min eigenvalue at or below this
# fraction of the max is flagged singular and no sandwich is produced.
SANDWICH_RTOL = 1e-8


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
