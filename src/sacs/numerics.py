"""Numerical kernels for small dense symmetric problems.

Everything the rest of the package needs from linear algebra and special
functions lives here: a thin symmetric matrix wrapper, the batched
eigendecomposition with the positive-definiteness rule and the whitening
kernel built on it (numpy's eigh), the lower branch of the Lambert W
function, the inverse normal CDF (stdlib) and a geometric constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "SingularMatrixError",
    "SymMatrix",
    "PD_RTOL",
    "pd_eigh",
    "Whitening",
    "whiten",
    "lambert_w_m1",
    "c_d_constant",
    "normal_quantile",
]

# Relative eigenvalue floor below which a nominally PD matrix is treated as
# numerically singular when it is whitened.
PD_RTOL = 1e-12


class NumericalError(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


class SingularMatrixError(NumericalError):
    """A matrix required to be positive definite was singular or indefinite."""


class SymMatrix:
    """Dense symmetric matrix with a defensive constructor.

    The constructor copies its input, checks shape and finiteness, and
    symmetrizes via (A + A^T) / 2 so downstream code never sees asymmetry
    introduced by accumulated round-off. The stored array is frozen.
    """

    __slots__ = ("_a",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=float, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] == 0:
            raise ValueError("matrix must have at least one row")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        self._a = a

    @classmethod
    def identity(cls, dim: int) -> "SymMatrix":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, values) -> "SymMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @property
    def entries(self) -> np.ndarray:
        """Read-only view of the symmetrized entries."""
        return self._a

    @property
    def dim(self) -> int:
        return self._a.shape[0]

    def __repr__(self) -> str:
        return f"SymMatrix({self._a.tolist()!r})"


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
    w[~ok] = np.nan
    q[~ok] = np.nan
    return w, q, ok


@dataclass(frozen=True)
class Whitening:
    """Whitening quantities of stacked covariances V, batch shape (...).

    Every field is nan where ok is False. root and inv_root are the
    symmetric square root of V and its inverse, scale_two = sqrt(diag V)
    and scale_sup the row 1-norms of root (the per-coordinate half-widths
    of the unit two-norm and sup-norm regions), kappa the condition number.
    stat_sup and stat_two are the norms of inv_root @ delta, or None when
    no delta was given.
    """

    ok: np.ndarray
    kappa: np.ndarray
    root: np.ndarray
    inv_root: np.ndarray
    scale_two: np.ndarray
    scale_sup: np.ndarray
    stat_sup: np.ndarray | None
    stat_two: np.ndarray | None


def whiten(v, delta=None) -> Whitening:
    """Whiten stacked covariances v of shape (..., k, k) in one batched call.

    delta, if given, broadcasts against v's batch shape with a trailing
    axis of length k. Entries of v that are not finite or not numerically
    positive definite (relative floor PD_RTOL) are masked as unavailable.
    """
    v = np.asarray(v, dtype=float)
    w, q, ok = pd_eigh(v)
    qt = np.swapaxes(q, -1, -2)
    rw = np.sqrt(w)
    diag = np.where(ok[..., None], np.diagonal(v, axis1=-2, axis2=-1), np.nan)
    stat_sup = stat_two = None
    # Finite but extreme entries may overflow; the result is inf or nan and
    # reads as unavailable or uncovered, never as an error.
    with np.errstate(over="ignore", invalid="ignore"):
        root = (q * rw[..., None, :]) @ qt
        inv_root = (q / rw[..., None, :]) @ qt
        if delta is not None:
            white = (inv_root @ np.asarray(delta, dtype=float)[..., None])[..., 0]
            stat_sup = np.max(np.abs(white), axis=-1)
            stat_two = np.sqrt(np.sum(white * white, axis=-1))
    return Whitening(
        ok=ok,
        kappa=w[..., -1] / w[..., 0],
        root=root,
        inv_root=inv_root,
        scale_two=np.sqrt(diag),
        scale_sup=np.sum(np.abs(root), axis=-1),
        stat_sup=stat_sup,
        stat_two=stat_two,
    )


# ---------------------------------------------------------------------------
# Lambert W, lower real branch.

_BRANCH_POINT = -math.exp(-1.0)


def _wexp(z: float) -> float:
    return z * math.exp(z)


def lambert_w_m1(x: float) -> float:
    """Lower real branch W_{-1}(x) of w * exp(w) = x on [-1/e, 0).

    Strategy: h(w) = w exp(w) is strictly decreasing on (-inf, -1], so the
    root is bracketed and bisection alone would already be safe. A short
    bisection narrows the asymptotic starting point
    ``log(-x) - log(-log(-x))`` (Corless, Gonnet, Hare, Jeffrey and Knuth,
    "On the Lambert W function", Adv. Comput. Math. 5, 1996, eq. 4.19),
    then Halley iterations (ibid., eq. 5.9) polish to full precision. Every
    Halley step is clamped to the bracket, so the iteration cannot escape.

    Raises ValueError outside [-1/e, 0) and NumericalError if the final
    residual ``|w exp(w) - x|`` exceeds ``1e-12 * |x|``.
    """
    x = float(x)
    if not (-math.inf < x < 0.0) or x < _BRANCH_POINT:
        raise ValueError(f"lambert_w_m1 requires -1/e <= x < 0, got {x}")
    if x == _BRANCH_POINT:
        return -1.0

    # Bracket [lo, hi] with h(lo) >= x >= h(hi); h decreasing left of -1.
    hi = -1.0
    lo = min(math.log(-x) - math.log(-math.log(-x)), -2.0)
    while _wexp(lo) < x:
        lo = 2.0 * lo

    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _wexp(mid) >= x:
            lo = mid
        else:
            hi = mid

    w = 0.5 * (lo + hi)
    for _ in range(4):
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            break
        # Halley update for f(w) = w e^w - x.
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        if denom == 0.0 or not math.isfinite(denom):
            break
        w_next = w - f / denom
        if not (lo <= w_next <= hi):
            w_next = 0.5 * (lo + hi)
        w = w_next

    if abs(_wexp(w) - x) > 1e-12 * abs(x):
        raise NumericalError(f"lambert_w_m1 failed to converge at x={x}")
    return w


# ---------------------------------------------------------------------------
# Geometry constants.


def c_d_constant(d: int) -> float:
    """Dimensional packing constant d * 2^d * Gamma((d+1)/2) / pi^((d-1)/2).

    Grows super-exponentially; evaluated in log space via lgamma so that
    moderate dimensions do not overflow intermediates.
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    log_c = (
        math.log(d)
        + d * math.log(2.0)
        + math.lgamma((d + 1) / 2.0)
        - (d - 1) / 2.0 * math.log(math.pi)
    )
    return math.exp(log_c)


# ---------------------------------------------------------------------------
# Inverse normal CDF.


def normal_quantile(p: float) -> float:
    """Quantile function of the standard normal distribution (stdlib)."""
    # Imported on first use: statistics pulls in decimal and fractions,
    # about 5 ms that every CLI start would otherwise pay.
    from statistics import NormalDist

    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"normal_quantile requires 0 < p < 1, got {p}")
    return NormalDist().inv_cdf(p)
