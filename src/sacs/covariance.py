"""Streaming plug-in estimation of the limiting sandwich covariance.

The averaged iterate is asymptotically normal with covariance
H^{-1} S H^{-1}, where H is the mean Jacobian of the gradient field at the
root and S the gradient noise second moment. Both are estimated by the
running means of the accumulators that run_lockstep keeps; this module
forms the sandwich from them, guarding against the (legitimate, early-t)
case of a singular Jacobian estimate.
"""

from __future__ import annotations

import numpy as np

from .numerics import _matmul, pd_eigh

__all__ = [
    "SANDWICH_RTOL",
    "sandwich",
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
        h_inv = _matmul(q / w[..., None, :], np.swapaxes(q, -1, -2))
        return _matmul(_matmul(h_inv, s), h_inv), ok
