"""Tests for the numerical kernels: the eigen/whitening kernel, and the
special functions inside the radius formulas (the normal quantile of the
fixed radius and the packing constant of lilen).

Reference values were frozen from independent oracles (mpmath at 40
digits, scipy.special, scipy.stats) before the implementation existed.
scipy and numpy.linalg.eigvalsh / slogdet appear here as oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sacs.boundaries import BoundarySpec, _c_d_constant, radius_grid
from sacs.covariance import _matmul, pd_eigh, sandwich, whiten

from helpers import sym_root


def random_pd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.5 * np.eye(d)


# ------------------------------------------------- eigh kernel


def test_pd_eigh_frozen_2x2():
    w, q, ok = pd_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert ok
    assert w == pytest.approx([1.0, 3.0], rel=1e-13)
    # eigenvectors are (1,-1)/sqrt2 and (1,1)/sqrt2 up to sign
    assert abs(q[0, 0] * q[1, 0]) == pytest.approx(0.5, rel=1e-12)
    assert q[0, 1] * q[1, 1] == pytest.approx(0.5, rel=1e-12)


def test_pd_eigh_scalar_and_zero():
    w, q, ok = pd_eigh(np.array([[7.0]]))
    assert ok and w[0] == 7.0 and q[0, 0] == 1.0
    # the zero matrix is not positive definite: masked, not raised
    w, q, ok = pd_eigh(np.zeros((3, 3)))
    assert not ok
    assert np.isnan(w).all() and np.isnan(q).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_pd_eigh_matches_numpy_oracle(d, seed):
    # a stack of four PD matrices, decomposed in one call
    rng = np.random.default_rng(seed)
    m = np.stack([random_pd(rng, d) for _ in range(4)])
    w, q, ok = pd_eigh(m)
    assert ok.all()
    scale = float(np.abs(m).max())
    assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-10 * scale)
    # reconstruction and orthonormality
    rec = (q * w[:, None, :]) @ np.swapaxes(q, -1, -2)
    assert np.allclose(rec, m, atol=1e-10 * scale)
    assert np.allclose(np.swapaxes(q, -1, -2) @ q, np.eye(d), atol=1e-12)
    assert np.all(np.diff(w, axis=-1) >= 0)


# ------------------------------------------------- product helper


def test_matmul_broadcasts_a_length_one_inner_dimension():
    # with one term per entry the broadcast product a * b equals a @ b in
    # value; it can give -0 where @ gives +0 (0 + (-0) is +0), which
    # array_equal treats as equal and no statistic can see, since every one
    # goes through abs, squares and <=
    vals = np.array([0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan, 1e308, -1e308, 1e-308])
    a = np.broadcast_to(vals[:, None, None, None], (10, 10, 1, 1))
    b = np.broadcast_to(vals[None, :, None, None], (10, 10, 1, 1))
    rng = np.random.default_rng(0)
    with np.errstate(over="ignore", invalid="ignore"):
        for x, y in ((a, b), (a, b[..., [0, 0, 0]]), (rng.standard_normal((4, 3, 1)), b[:4, :1])):
            got, want = _matmul(x, y), np.matmul(x, y)
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
def test_matmul_calls_matmul_above_inner_dimension_one(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 3, d, d))
    b = rng.standard_normal((5, 3, d, 2))
    assert np.array_equal(_matmul(a, b), a @ b, equal_nan=True)


# ------------------------------------------------- whitening kernel


def test_whiten_frozen_2x2():
    # the inverse root of [[2, 1], [1, 2]] is [[r0, r1], [r1, r0]] with
    # r0 = 0.78867... and r1 = -0.21132...: delta = e_0 and e_1 read a
    # column each, r0 in the sup norm and |(r0, r1)| in the two norm, and
    # delta = (1, 1) the row sums r0 + r1
    v = np.array([[2.0, 1.0], [1.0, 2.0]])
    r0, r1 = 0.7886751345948129, -0.21132486540518713
    wh = whiten(np.stack([v] * 3), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert wh.stat_sup == pytest.approx([r0, r0, r0 + r1], rel=1e-12)
    two = [math.hypot(r0, r1)] * 2 + [math.sqrt(2.0) * (r0 + r1)]
    assert wh.stat_two == pytest.approx(two, rel=1e-12)
    assert wh.scale_two == pytest.approx(np.full((3, 2), math.sqrt(2.0)), rel=1e-12)
    assert wh.scale_sup == pytest.approx(np.full((3, 2), math.sqrt(3.0)), rel=1e-12)
    assert np.abs(sym_root(v)).sum(axis=-1) == pytest.approx([math.sqrt(3.0)] * 2, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_whiten_inv_root_whitens(d, seed):
    # delta = root(m) z whitens back to z: the statistics are the norms of
    # z, so whiten applies the inverse of the symmetric root (the sup norm
    # tells it from any other root)
    rng = np.random.default_rng(seed)
    m = np.stack([random_pd(rng, d) for _ in range(3)])
    z = np.concatenate([np.eye(d), rng.standard_normal((2, d))])[:, None, :]
    wh = whiten(m, (sym_root(m) @ z[..., None])[..., 0])
    assert np.abs(wh.stat_sup - np.abs(z).max(axis=-1)).max() < 1e-8
    assert np.abs(wh.stat_two - np.linalg.norm(z, axis=-1)).max() < 1e-8


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_whiten_root_squares_back(d, seed):
    # the reference root squares back to m, and whiten's half-width scales
    # are its row 1-norms (sup) and sqrt(diag m) (two)
    rng = np.random.default_rng(seed)
    m = np.stack([random_pd(rng, d) for _ in range(3)])
    r = sym_root(m)
    scale = float(np.abs(m).max())
    assert np.abs(r @ r - m).max() < 1e-9 * scale
    wh = whiten(m, np.zeros(d))
    assert np.abs(wh.scale_sup - np.abs(r).sum(axis=-1)).max() < 1e-9 * math.sqrt(scale)
    assert np.array_equal(wh.scale_two, np.sqrt(np.diagonal(m, axis1=-2, axis2=-1)))


def test_whiten_rejects_non_pd():
    good = np.eye(2)
    bad = [
        np.diag([1.0, 0.0]),
        -np.eye(2),
        # eigenvalue ratio below the relative guard counts as singular
        np.diag([1.0, 1e-13]),
        np.array([[1.0, np.inf], [np.inf, 1.0]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
    ]
    wh = whiten(np.stack([good] + bad), np.zeros((len(bad) + 1, 2)))
    assert wh.kappa[0] == 1.0 and wh.stat_sup[0] == 0.0 and wh.stat_two[0] == 0.0
    assert wh.scale_two[0].tolist() == wh.scale_sup[0].tolist() == [1.0, 1.0]
    for field in (wh.kappa, wh.stat_sup, wh.stat_two, wh.scale_two, wh.scale_sup):
        assert np.isnan(field[1:]).all()


def test_whiten_scales_without_delta():
    # d = 1: both half-width scales are sqrt(v), so a half-width is the
    # radius in units of the standard deviation; delta moves only the
    # statistics
    v = np.array([[[4.0]], [[0.25]]])
    for delta in (np.zeros((2, 1)), np.array([[3.0], [-1.0]])):
        wh = whiten(v, delta)
        assert wh.scale_two[:, 0].tolist() == wh.scale_sup[:, 0].tolist() == [2.0, 0.5]
        stat = (np.abs(delta[:, 0]) / [2.0, 0.5]).tolist()
        assert wh.stat_sup.tolist() == wh.stat_two.tolist() == stat


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.1, max_value=10.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_whiten_scalar_invariance(d, c, seed):
    # (v, delta) -> (c^2 v, c delta) leaves both statistics and kappa, and
    # so every radius and membership decision, unchanged
    rng = np.random.default_rng(seed)
    v = np.stack([random_pd(rng, d) for _ in range(3)])
    delta = rng.standard_normal((3, d))
    base = whiten(v, delta)
    scaled = whiten(c * c * v, c * delta)
    for name in ("stat_two", "stat_sup", "kappa"):
        assert getattr(scaled, name) == pytest.approx(getattr(base, name), rel=1e-9), name


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
def test_whiten_diagonal_affine_invariance(d, seed):
    # (v, delta) -> (D v D, D delta) for an invertible diagonal D leaves the
    # two-norm statistic unchanged; gm's radius ignores kappa, so its
    # membership decision is unchanged too
    rng = np.random.default_rng(seed)
    v = np.stack([random_pd(rng, d) for _ in range(3)])
    delta = rng.standard_normal((3, d))
    diag = rng.uniform(0.2, 5.0, size=(3, d))
    base = whiten(v, delta)
    mapped = whiten(diag[:, :, None] * v * diag[:, None, :], diag * delta)
    assert mapped.stat_two == pytest.approx(base.stat_two, rel=1e-8)


def test_log_det_and_cond():
    w, _, _ = pd_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert float(np.sum(np.log(w))) == pytest.approx(math.log(3.0), rel=1e-13)
    assert whiten(np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros(2)).kappa == pytest.approx(
        3.0, rel=1e-12
    )
    assert whiten(np.eye(4), np.zeros(4)).kappa == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_log_det_matches_slogdet(d, seed):
    # gm_mixture_martingale takes its log-determinants from the eigenvalues
    m = random_pd(np.random.default_rng(seed), d)
    sign, ld = np.linalg.slogdet(m)
    w, _, _ = pd_eigh(m)
    assert sign == 1.0
    assert float(np.sum(np.log(w))) == pytest.approx(ld, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_d1_closed_form_matches_eigh_path(seed):
    # d = 1 skips LAPACK; embedding the same moments as the first block of a
    # block-diagonal 3x3 and restricting to subset [0] goes through eigh
    rng = np.random.default_rng(seed)
    n = 8
    h = rng.uniform(0.5, 50.0, n)
    s = rng.uniform(0.5, 500.0, n)
    delta = rng.standard_normal(n)
    h3 = np.zeros((n, 3, 3))
    s3 = np.zeros((n, 3, 3))
    h3[:, 0, 0], s3[:, 0, 0] = h, s
    h3[:, 1:, 1:] = np.stack([random_pd(rng, 2) for _ in range(n)])
    s3[:, 1:, 1:] = np.stack([random_pd(rng, 2) for _ in range(n)])

    v1 = sandwich(h[:, None, None], s[:, None, None])
    v3 = sandwich(h3, s3)
    closed = whiten(v1, delta[:, None])
    eig = whiten(v3[:, :1, :1], delta[:, None])
    full = whiten(v3, np.stack([delta, np.zeros(n), np.zeros(n)], axis=-1))
    assert np.isfinite(v1).all() and np.isfinite(v3).all()
    for wh in (closed, eig):
        assert not np.isnan(wh.kappa).any() and not np.isnan(wh.stat_sup).any()
    assert np.allclose(closed.stat_sup, np.abs(delta) / np.sqrt(s / h**2), rtol=1e-12)
    for ref in (eig, full):
        for got, want in (
            (closed.stat_sup, ref.stat_sup),
            (closed.stat_two, ref.stat_two),
            (closed.scale_two[:, 0], ref.scale_two[:, 0]),
            (closed.scale_sup[:, 0], ref.scale_sup[:, 0]),
        ):
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.array_equal(closed.kappa, np.ones(n))


# ------------------------------------------------- normal quantile
# The fixed radius at t = 1 is the quantile z_p at p = 1 - alpha / 2.


def quantile(p):
    return float(radius_grid(BoundarySpec("fixed", 2.0 * (1.0 - p)), [1.0], 1)[0])


@pytest.mark.parametrize(
    "p,expected",
    [
        (0.975, 1.959963984540054),
        (0.9, 1.2815515655446004),
        (0.95, 1.6448536269514722),
        (0.995, 2.5758293035489004),
        (0.84135, 1.0000217133229992),
    ],
)
def test_normal_quantile_frozen(p, expected):
    # scipy.stats.norm.ppf oracle; contract tolerance is 1e-9 absolute
    assert quantile(p) == pytest.approx(expected, abs=1e-12)


def test_normal_quantile_median_and_domain():
    # alpha = 1 - 2^-53 puts the lower-tail level alpha/2 at 1/2 - 2^-54,
    # exactly, whose quantile is -2^-54 sqrt(2 pi) to first order; the
    # upper-tail level 1 - alpha/2 would round to 1/2 and give radius 0
    r = radius_grid(BoundarySpec("fixed", 1.0 - 2.0**-53), [1.0], 1)[0]
    assert r == pytest.approx(2.0**-54 * math.sqrt(2.0 * math.pi), rel=1e-12)
    for alpha in (0.0, 1.0, -0.1, 1.1, math.nan, 5e-324):
        with pytest.raises(ValueError):
            BoundarySpec("fixed", alpha)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.5 + 1e-10, max_value=1.0 - 1e-10))
def test_normal_quantile_roundtrip(p):
    x = quantile(p)
    assert 0.5 * math.erfc(-x / math.sqrt(2.0)) == pytest.approx(p, abs=1e-12)


# ------------------------------------------------- covering constant


@pytest.mark.parametrize(
    "d,expected",
    [
        (1, 2.0),
        (2, 4.0),
        (3, 24.0 / math.pi),
        (4, 15.278874536821952),
        (5, 32.42277876554809),
        (10, 3104.433033816543),
        (20, 449824105.92174745),
    ],
)
def test_c_d_constant_frozen(d, expected):
    assert _c_d_constant(d) == pytest.approx(expected, rel=1e-12)


def test_c_d_constant_domain():
    # the lilen radius, the constant's one user, rejects d < 1
    for d in (0, -1):
        with pytest.raises(ValueError):
            radius_grid(BoundarySpec("lilen", 0.05), [10.0], d)
