"""Tests for the numerical kernels.

Reference values were frozen from independent oracles (mpmath at 40
digits, scipy.special, scipy.stats) before the implementation existed.
scipy and numpy.linalg.eigvalsh / slogdet appear here as oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sacs.boundaries import BoundarySpec, evaluate
from sacs.covariance import sandwich
from sacs.numerics import (
    SingularMatrixError,
    SymMatrix,
    c_d_constant,
    lambert_w_m1,
    normal_quantile,
    pd_eigh,
    whiten,
)


def random_pd(rng, d):
    a = rng.standard_normal((d, d))
    return SymMatrix(a @ a.T + 0.5 * np.eye(d))


# ---------------------------------------------------------------- SymMatrix


def test_symmatrix_symmetrizes_and_freezes():
    m = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
    assert m.entries[0, 1] == m.entries[1, 0] == 1.0
    assert m.dim == 2
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_symmatrix_rejects_bad_input():
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        SymMatrix([[math.nan]])
    with pytest.raises(ValueError):
        SymMatrix([[math.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        SymMatrix(np.zeros((0, 0)))


def test_symmatrix_constructors():
    assert np.array_equal(SymMatrix.identity(3).entries, np.eye(3))
    d = SymMatrix.diagonal([1.0, 4.0])
    assert np.array_equal(d.entries, np.diag([1.0, 4.0]))


# ------------------------------------------------- eigh kernel


def test_sym_eig_frozen_2x2():
    w, q, ok = pd_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert ok
    assert w == pytest.approx([1.0, 3.0], rel=1e-13)
    # eigenvectors are (1,-1)/sqrt2 and (1,1)/sqrt2 up to sign
    assert abs(q[0, 0] * q[1, 0]) == pytest.approx(0.5, rel=1e-12)
    assert q[0, 1] * q[1, 1] == pytest.approx(0.5, rel=1e-12)


def test_sym_eig_scalar_and_zero():
    w, q, ok = pd_eigh(np.array([[7.0]]))
    assert ok and w[0] == 7.0 and q[0, 0] == 1.0
    # the zero matrix is not positive definite: masked, not raised
    w, q, ok = pd_eigh(np.zeros((3, 3)))
    assert not ok
    assert np.isnan(w).all() and np.isnan(q).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_sym_eig_matches_numpy_oracle(d, seed):
    # a stack of four PD matrices, decomposed in one call
    rng = np.random.default_rng(seed)
    m = np.stack([random_pd(rng, d).entries for _ in range(4)])
    w, q, ok = pd_eigh(m)
    assert ok.all()
    scale = float(np.abs(m).max())
    assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-10 * scale)
    # reconstruction and orthonormality
    rec = (q * w[:, None, :]) @ np.swapaxes(q, -1, -2)
    assert np.allclose(rec, m, atol=1e-10 * scale)
    assert np.allclose(np.swapaxes(q, -1, -2) @ q, np.eye(d), atol=1e-12)
    assert np.all(np.diff(w, axis=-1) >= 0)


# ------------------------------------------------- whitening kernel


def test_inv_sqrt_frozen_2x2():
    wh = whiten(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 0.0]))
    r = wh.inv_root
    assert r[0, 0] == pytest.approx(0.7886751345948129, rel=1e-12)
    assert r[0, 1] == pytest.approx(-0.21132486540518713, rel=1e-12)
    assert r[1, 0] == pytest.approx(r[0, 1], rel=1e-12)
    assert r[1, 1] == pytest.approx(r[0, 0], rel=1e-12)
    # the statistics are the norms of inv_root @ delta = first column
    assert wh.stat_sup == pytest.approx(0.7886751345948129, rel=1e-12)
    assert wh.stat_two == pytest.approx(math.hypot(r[0, 0], r[0, 1]), rel=1e-12)
    assert wh.scale_two == pytest.approx([math.sqrt(2.0)] * 2, rel=1e-12)
    assert wh.scale_sup == pytest.approx([math.sqrt(3.0)] * 2, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_inv_sqrt_whitens(d, seed):
    rng = np.random.default_rng(seed)
    m = np.stack([random_pd(rng, d).entries for _ in range(3)])
    w = whiten(m).inv_root
    assert np.abs(w @ m @ w - np.eye(d)).max() < 1e-8


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_sqrt_m_squares_back(d, seed):
    rng = np.random.default_rng(seed)
    m = np.stack([random_pd(rng, d).entries for _ in range(3)])
    r = whiten(m).root
    scale = float(np.abs(m).max())
    assert np.abs(r @ r - m).max() < 1e-9 * scale


def test_inv_sqrt_rejects_non_pd():
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
    assert wh.ok.tolist() == [True] + [False] * len(bad)
    assert wh.kappa[0] == 1.0 and wh.stat_sup[0] == 0.0 and wh.stat_two[0] == 0.0
    for field in (wh.kappa, wh.stat_sup, wh.stat_two, wh.scale_two, wh.root):
        assert np.isnan(field[1:]).all()
    with pytest.raises(SingularMatrixError):
        evaluate(BoundarySpec("gm", 0.1), SymMatrix(bad[0]), 10)


def test_log_det_and_cond():
    w, _, _ = pd_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert float(np.sum(np.log(w))) == pytest.approx(math.log(3.0), rel=1e-13)
    assert whiten(np.array([[2.0, 1.0], [1.0, 2.0]])).kappa == pytest.approx(3.0, rel=1e-12)
    assert whiten(np.eye(4)).kappa == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_log_det_matches_slogdet(d, seed):
    # gm_mixture_martingale takes its log-determinants from the eigenvalues
    m = random_pd(np.random.default_rng(seed), d)
    sign, ld = np.linalg.slogdet(m.entries)
    w, _, _ = pd_eigh(m.entries)
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
    h3[:, 1:, 1:] = np.stack([random_pd(rng, 2).entries for _ in range(n)])
    s3[:, 1:, 1:] = np.stack([random_pd(rng, 2).entries for _ in range(n)])

    v1, ok1 = sandwich(h[:, None, None], s[:, None, None])
    v3, ok3 = sandwich(h3, s3)
    closed = whiten(v1, delta[:, None])
    eig = whiten(v3[:, :1, :1], delta[:, None])
    full = whiten(v3, np.stack([delta, np.zeros(n), np.zeros(n)], axis=-1))
    assert ok1.all() and ok3.all() and closed.ok.all() and eig.ok.all()
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


# --------------------------------------------------------- Lambert W


def test_lambert_w_m1_frozen_points():
    # oracle: mpmath.lambertw(x, -1) at 40 digits
    assert lambert_w_m1(-1.0 / math.e) == -1.0
    assert lambert_w_m1(-2.0 * math.exp(-2.0)) == pytest.approx(-2.0, abs=2e-12)
    assert lambert_w_m1(-0.05**2 / math.e) == pytest.approx(-9.211968062068254, rel=1e-13)
    assert lambert_w_m1(-0.2) == pytest.approx(-2.5426413577735264, rel=1e-13)
    assert lambert_w_m1(-1e-8) == pytest.approx(-21.488183944009797, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-17.0, max_value=-1.1))
def test_lambert_w_m1_inverts_w_exp_w(w_true):
    x = w_true * math.exp(w_true)
    w = lambert_w_m1(x)
    assert w * math.exp(w) == pytest.approx(x, rel=1e-11)
    assert w <= -1.0


def test_lambert_w_m1_domain():
    for x in (0.0, 0.5, -1.5 / math.e, -2.0):
        with pytest.raises(ValueError):
            lambert_w_m1(x)


# ------------------------------------------------- normal quantile


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
    assert normal_quantile(p) == pytest.approx(expected, abs=1e-12)
    assert normal_quantile(1.0 - p) == pytest.approx(-expected, abs=1e-12)


def test_normal_quantile_median_and_domain():
    assert normal_quantile(0.5) == 0.0
    for p in (0.0, 1.0, -0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            normal_quantile(p)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
def test_normal_quantile_roundtrip(p):
    x = normal_quantile(p)
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
    assert c_d_constant(d) == pytest.approx(expected, rel=1e-12)


def test_c_d_constant_domain():
    for d in (0, -1):
        with pytest.raises(ValueError):
            c_d_constant(d)
