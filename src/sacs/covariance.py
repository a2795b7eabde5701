"""Plug-in sandwich covariance and the whitening kernel built on it.

The averaged iterate is asymptotically normal with covariance
H^{-1} S H^{-1}, where H is the mean Jacobian of the gradient field at the
root and S the gradient noise second moment. Both are estimated by the
running means of the accumulators that run_lockstep keeps; sandwich forms
the plug-in estimate from them, guarding against the (legitimate, early-t)
case of a singular Jacobian estimate, and whiten turns it into the
whitened statistics and half-width scales the boundaries are read in.
Both rest on one batched eigendecomposition with the positive-definiteness
rule (pd_eigh, numpy's eigh), which is everything the package needs from
linear algebra. Matrices are plain (..., k, k) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "PD_RTOL",
    "SANDWICH_RTOL",
    "pd_eigh",
    "sandwich",
    "Whitening",
    "whiten",
]

# Relative eigenvalue floor below which a nominally PD matrix is treated as
# numerically singular when it is whitened.
PD_RTOL = 1e-12

# Relative invertibility guard: h_hat with min eigenvalue at or below this
# fraction of the max is flagged singular and no sandwich is produced.
SANDWICH_RTOL = 1e-8


class NumericalError(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


def _check_counts(**counts) -> None:
    """Raise ValueError unless every named count is an integer >= 1."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _matmul(a, b):
    """a @ b, as the broadcast product a * b when the inner dimension is 1.

    With one term per entry the values are those of @ (up to the sign of a
    zero), and for (..., 1, 1) stacks the broadcast product is many times
    cheaper than the batched matmul loop.
    """
    return a * b if a.shape[-1] == 1 else a @ b


def pd_eigh(a, rtol: float = PD_RTOL):
    """Batched symmetric eigendecomposition with the positive-definiteness rule.

    a has shape (..., k, k); only its lower triangle is read. Returns
    (w, q, ok): eigenvalues ascending along the last axis of w, matching
    orthonormal columns in q, and ok marking the entries that are finite,
    have a positive largest eigenvalue and a smallest eigenvalue above
    rtol times the largest. Entries that fail are masked, not raised: their
    w and q are nan, so everything computed from them is nan too.

    This is the one place the package decides whether a matrix may be
    inverted; callers pick the relative tolerance.
    """
    a = np.asarray(a, dtype=float)
    finite = np.isfinite(a).all(axis=(-2, -1))
    if a.shape[-1] == 1:
        # A 1x1 matrix is its own eigenvalue. Skipping LAPACK makes each d=1
        # evaluation several times cheaper; everything built on (w, q) then
        # reduces to the scalar closed form.
        w = a[..., 0].copy()
        q = np.ones_like(a)
    else:
        w, q = np.linalg.eigh(np.where(finite[..., None, None], a, np.eye(a.shape[-1])))
    ok = finite & (w[..., -1] > 0.0) & (w[..., 0] > rtol * w[..., -1])
    if not ok.all():
        w[~ok] = np.nan
        q[~ok] = np.nan
    return w, q, ok


def sandwich(h, s):
    """Batched sandwich h^{-1} s h^{-1} over stacked (..., d, d) moments.

    The inverse goes through the eigendecomposition of h (lower triangle);
    the guard requires h to be finite with its smallest eigenvalue above
    SANDWICH_RTOL times the largest (in particular positive definite).
    Returns v, all nan wherever the guard fails. Overflow in the product
    leaves inf or nan entries in v rather than raising.
    """
    w, q, _ = pd_eigh(h, SANDWICH_RTOL)
    with np.errstate(over="ignore", invalid="ignore"):
        h_inv = _matmul(q / w[..., None, :], np.swapaxes(q, -1, -2))
        return _matmul(_matmul(h_inv, s), h_inv)


@dataclass(frozen=True)
class Whitening:
    """Whitening quantities of stacked covariances V, batch shape (...).

    With root the symmetric square root of V: scale_two = sqrt(diag V) and
    scale_sup the row 1-norms of root (the per-coordinate half-widths of
    the unit two-norm and sup-norm regions), kappa the condition number,
    and stat_sup and stat_two the norms of root^{-1} @ delta. Every field
    is nan where V is unavailable.
    """

    kappa: np.ndarray
    scale_two: np.ndarray
    scale_sup: np.ndarray
    stat_sup: np.ndarray
    stat_two: np.ndarray


def whiten(v, delta) -> Whitening:
    """Whiten stacked covariances v of shape (..., k, k) and the vectors
    delta in one batched call.

    delta broadcasts against v's batch shape with a trailing axis of
    length k. Entries of v that are not finite or not numerically
    positive definite (relative floor PD_RTOL) are masked as unavailable.
    """
    v = np.asarray(v, dtype=float)
    w, q, ok = pd_eigh(v)
    qt = np.swapaxes(q, -1, -2)
    rw = np.sqrt(w)
    diag = np.where(ok[..., None], np.diagonal(v, axis1=-2, axis2=-1), np.nan)
    # Finite but extreme entries may overflow; the result is inf or nan and
    # reads as unavailable or uncovered, never as an error.
    with np.errstate(over="ignore", invalid="ignore"):
        root = _matmul(q * rw[..., None, :], qt)
        inv_root = _matmul(q / rw[..., None, :], qt)
        white = _matmul(inv_root, np.asarray(delta, dtype=float)[..., None])[..., 0]
        stat_sup = np.max(np.abs(white), axis=-1)
        stat_two = np.sqrt(np.sum(white * white, axis=-1))
    return Whitening(
        kappa=w[..., -1] / w[..., 0],
        scale_two=np.sqrt(diag),
        scale_sup=np.sum(np.abs(root), axis=-1),
        stat_sup=stat_sup,
        stat_two=stat_two,
    )
