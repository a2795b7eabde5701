"""Tests for the confidence sequence boundary families.

Frozen radius values were computed from the closed forms with mpmath at
40 digits before the implementation existed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sacs.boundaries import (
    KINDS,
    NORM_BY_KIND,
    BoundarySpec,
    lambda_star,
    radius_grid,
)
from sacs import boundaries
from sacs.covariance import whiten

from helpers import gm_mixture_martingale, gm_volume_objective, sym_root


def radius(kind, t, d, alpha, kappa=1.0):
    """One radius through radius_grid, as a float (+inf where undefined)."""
    return float(radius_grid(BoundarySpec(kind, alpha), [t], d, kappa)[0])


# ----------------------------------------------------------- lambda_star


def test_lambda_star_frozen_values():
    # oracle: -mpmath.lambertw(-alpha^2/e, -1) - 1 at 40 digits
    assert lambda_star(0.05) == pytest.approx(8.211968062068254, rel=1e-12)
    assert lambda_star(0.1) == pytest.approx(6.638352067993812, rel=1e-12)
    assert lambda_star(0.01) == pytest.approx(11.756371222495419, rel=1e-12)
    assert lambda_star(0.5) == pytest.approx(2.6926345288896958, rel=1e-12)


def test_lambda_star_closed_form_point():
    # alpha = sqrt(2/e) puts the Lambert argument at -2e^-2, whose branch
    # value is exactly -2, so lambda_star = 1
    assert lambda_star(math.sqrt(2.0 / math.e)) == pytest.approx(1.0, abs=1e-10)


def test_lambda_star_monotone_decreasing_in_alpha():
    alphas = np.linspace(0.01, 0.99, 60)
    vals = [lambda_star(a) for a in alphas]
    assert all(u > v for u, v in zip(vals, vals[1:]))
    assert all(v > 0.0 for v in vals)


def test_lambda_star_domain():
    for a in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            lambda_star(a)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_lambda_star_solves_root_equation(alpha):
    # lam - log1p(lam) = -2 log(alpha), to the rounding of its terms
    lam = lambda_star(alpha)
    c = -2.0 * math.log(alpha)
    assert math.isfinite(lam) and lam > 0.0
    assert abs(lam - math.log1p(lam) - c) <= 1e-15 * (lam + c)


@pytest.mark.parametrize(
    "alpha,expected",
    # oracle: -mpmath.lambertw(-alpha^2/e, -1) - 1 at 40 digits; 1/alpha
    # overflows at the subnormal 5e-324, and alpha^2/e underflows at both
    [(1e-170, 789.55166262685623), (5e-324, 1496.1914901349234)],
)
def test_lambda_star_tiny_alpha(alpha, expected):
    lam = lambda_star(alpha)
    assert lam == pytest.approx(expected, rel=1e-12)
    assert lam - math.log1p(lam) == pytest.approx(-2.0 * math.log(alpha), rel=1e-15)


@pytest.mark.parametrize("alpha", [1.0 - 1e-15, 1.0 - 2.0**-53])
def test_lambda_star_near_one_stops_before_the_step_cap(monkeypatch, alpha):
    # each Newton step calls log1p once; lam - log1p(lam) cancels here, so
    # the iterates end in rounding noise, and must stop there before the
    # 100-step cap. Near 0, lam - log1p(lam) = lam^2/2, so lam = sqrt(2c).
    steps = []
    log1p = math.log1p
    monkeypatch.setattr(math, "log1p", lambda x: steps.append(x) or log1p(x))
    lam = lambda_star(alpha)
    assert len(steps) < 100
    assert lam == pytest.approx(math.sqrt(-4.0 * math.log(alpha)), rel=1e-7)


# -------------------------------------------------------------- radii


@pytest.mark.parametrize("alpha", [1e-17, 1e-310])
def test_radius_finite_at_tiny_alpha(alpha):
    # 1 - alpha/2 rounds to 1 below alpha = 1.1e-16, and 1/alpha overflows
    # for subnormal alpha; the radii must use neither form
    ts = [2.0, 100.0, 1e6]
    for kind in KINDS:
        for d, kappa in ((1, 1.0), (3, 4.0)):
            r = radius_grid(BoundarySpec(kind, alpha), ts, d, kappa)
            assert np.all(np.isfinite(r) & (r > 0.0)), (kind, d)
            assert np.all(np.diff(r) < 0.0), (kind, d)
    # the fixed radius at t = 1 is the upper alpha/2 normal quantile
    z = radius_grid(BoundarySpec("fixed", alpha), [1.0], 1)[0]
    assert 0.5 * math.erfc(z / math.sqrt(2.0)) == pytest.approx(alpha / 2.0, rel=1e-9)


def test_radius_frozen_values():
    assert radius("lilub", 100, 1, 0.05) == pytest.approx(0.3990627054803708, rel=1e-12)
    assert radius("lilub", 100, 2, 0.05) == pytest.approx(0.41674218581564854, rel=1e-12)
    assert radius("gm", 100, 1, 0.05) == pytest.approx(0.3035122413028551, rel=1e-12)
    assert radius("lilen", 100, 1, 0.05, kappa=1.0) == pytest.approx(
        1.1079265743684903, rel=1e-12
    )
    assert radius("fixed", 100, 1, 0.05) == pytest.approx(0.19599639845400538, rel=1e-12)


def test_radius_gm_t0_equals_t_identity():
    # at t = t0 = 100 the drift and growth terms collapse
    t = 100
    for d, alpha in ((1, 0.1), (3, 0.05)):
        ls = lambda_star(alpha)
        direct = math.sqrt(
            (1.0 + 1.0 / ls) * (d * math.log1p(ls) + 2.0 * math.log(1.0 / alpha)) / t
        )
        assert radius("gm", t, d, alpha) == pytest.approx(direct, rel=1e-13)


def test_radius_lil_en_d1_drops_net_term():
    # for d = 1 the epsilon-net term vanishes for every kappa
    for kappa in (1.0, 7.5):
        val = radius("lilen", 200, 1, 0.1, kappa)
        direct = (2.0 / 0.5) * math.sqrt(
            (1.4 * math.log(math.log(400.0 * kappa)) + math.log(5.2 * 2.0 / 0.1)) / 200.0
        )
        assert val == pytest.approx(direct, rel=1e-13)


def test_radius_lil_en_diverges_as_net_degenerates(monkeypatch):
    # the formula at a net radius eps near 1, in place of the paper's 0.5
    base = radius("lilen", 100, 2, 0.1)
    monkeypatch.setattr(boundaries, "_LILEN_EPS_NET", 1.0 - 1e-9)
    assert radius("lilen", 100, 2, 0.1) > 1e6 * base


def test_radius_fixed_alpha_limits():
    # alpha near 0.3173 makes z about 1; alpha near 1 sends the radius to 0
    assert radius("fixed", 1, 1, 0.3173) == pytest.approx(1.0, abs=1e-3)
    assert radius("fixed", 1, 1, 0.9999) < 1e-3


def test_radii_decrease_in_t():
    ts = np.unique(np.logspace(0.5, 5, 200).astype(int))
    ts = ts[ts >= 2]
    for kind in KINDS:
        spec = BoundarySpec(kind, 0.05)
        vals = radius_grid(spec, ts, 2)
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) < 0.0)


def test_radius_undefined_cases():
    # 2t below e leaves the iterated logarithm undefined: the region is everything
    assert radius("lilub", 1, 1, 0.05) == math.inf
    assert radius("lilen", 1, 1, 0.05, kappa=1.0) == math.inf
    # gm and fixed are defined from t = 1
    assert math.isfinite(radius("gm", 1, 1, 0.05))
    assert math.isfinite(radius("fixed", 1, 1, 0.05))


def test_radius_grid_matches_scalars_and_infs():
    ts = np.array([1, 2, 10, 1000])
    grid = radius_grid(BoundarySpec("lilub", 0.05), ts, 2)
    assert grid[0] == np.inf
    for i in (1, 2, 3):
        assert grid[i] == radius("lilub", int(ts[i]), 2, 0.05)
    # kappa = 2 pushes 2*t*kappa above e already at t = 1
    grid = radius_grid(BoundarySpec("lilen", 0.05), ts, 3, kappa=2.0)
    for i in range(4):
        assert grid[i] == radius("lilen", int(ts[i]), 3, 0.05, kappa=2.0)
    assert radius_grid(BoundarySpec("lilen", 0.05), ts, 3, kappa=1.0)[0] == np.inf


def test_radius_grid_broadcasts_kappa():
    ts = np.array([100, 100, 100])
    kap = np.array([1.0, 2.0, 4.0])
    grid = radius_grid(BoundarySpec("lilen", 0.1), ts, 2, kappa=kap)
    # radius grows with the condition number
    assert grid[0] < grid[1] < grid[2]
    # a nan kappa marks an unavailable evaluation and passes the domain check
    grid = radius_grid(BoundarySpec("lilen", 0.1), ts, 2, kappa=[2.0, np.nan, 1.0])
    assert grid[0] == radius("lilen", 100, 2, 0.1, kappa=2.0) and grid[2] < grid[0]
    # and gives a nan radius, not +inf (the whole space)
    assert np.isnan(grid[1])


def test_radius_domain_errors():
    for kind in KINDS:
        with pytest.raises(ValueError):
            radius(kind, 0, 1, 0.05)
        with pytest.raises(ValueError):
            radius(kind, 10, 0, 0.05)
        # a bool is not a count, though Python counts it as an int
        with pytest.raises(ValueError, match="d must be an integer >= 1, got True"):
            radius(kind, 10, True, 0.05)
        with pytest.raises(ValueError):
            radius(kind, 10, 1, 0.05, kappa=0.5)
        with pytest.raises(ValueError):
            radius(kind, 10, 1, 1.5)
        with pytest.raises(ValueError):
            radius(kind, 10, 1, 0.0)
    with pytest.raises(ValueError):
        radius_grid(BoundarySpec("lilub", 0.05), [10, 0.5], 1)
    with pytest.raises(ValueError):
        radius_grid(BoundarySpec("lilen", 0.05), [10, 10], 2, kappa=[1.0, 0.5])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_radius_grid_rejects_non_finite_t(kind, bad):
    # a radius at t = inf would be nan (lilub, gm, lilen) or 0 (fixed),
    # neither +inf nor a finite radius
    for d in (1, 3):
        with pytest.raises(ValueError, match="finite and >= 1"):
            radius_grid(BoundarySpec(kind, 0.1), [10.0, bad], d)


def test_boundary_spec_validation():
    for kwargs in (
        {"kind": "unknown", "alpha": 0.1},
        {"kind": "gm", "alpha": 0.0},
        {"kind": "gm", "alpha": 1.0},
    ):
        with pytest.raises(ValueError):
            BoundarySpec(**kwargs)
    # alpha / 2, the fixed baseline's tail level, underflows to 0 there
    with pytest.raises(ValueError, match="alpha"):
        BoundarySpec("gm", 5e-324)


def test_norm_pairing():
    assert NORM_BY_KIND == {
        "lilub": "sup_norm",
        "gm": "two_norm",
        "lilen": "two_norm",
        "fixed": "sup_norm",
    }
    for kind in KINDS:
        assert BoundarySpec(kind, 0.1).norm_kind == NORM_BY_KIND[kind]


def test_ordering_and_ratio_band():
    # lilen is widest and gm stays within [1.5, 3] of fixed on a log grid
    ts = np.unique(np.logspace(3, 5, 500).astype(int))
    rads = {k: radius_grid(BoundarySpec(k, 0.05), ts, 2) for k in KINDS}
    assert np.all(rads["lilen"] > rads["gm"])
    assert np.all(rads["lilen"] > rads["lilub"])
    assert np.all(rads["lilen"] > rads["fixed"])
    ratio = rads["gm"] / rads["fixed"]
    assert ratio.min() >= 1.5 and ratio.max() <= 3.0


# ------------------------------------------------------------ membership


def test_membership_flips_at_radius():
    # a region is {delta : |whiten(v, delta)| <= radius} in the kind's norm;
    # delta = r (1 -+ 1e-9) root(v) e_0 has whitened norm r (1 -+ 1e-9)
    v = np.array([[2.0, 1.0], [1.0, 2.0]])
    root = sym_root(v)
    for kind in KINDS:
        r = radius(kind, 500, 2, 0.1, kappa=3.0)
        delta = np.stack([r * (1.0 - 1e-9) * root[:, 0], r * (1.0 + 1e-9) * root[:, 0]])
        wh = whiten(np.stack([v, v]), delta)
        assert wh.kappa == pytest.approx([3.0, 3.0], rel=1e-12)
        stat = wh.stat_sup if NORM_BY_KIND[kind] == "sup_norm" else wh.stat_two
        assert (stat <= r).tolist() == [True, False], kind
        assert stat[0] == pytest.approx(r * (1.0 - 1e-9), rel=1e-12)


def test_evaluate_d1_halfwidth_equals_radius():
    # d = 1, v = 1: a half-width is radius * scale in the kind's norm, and
    # the scale is 1, so the half-width is the radius; delta = 0 is covered
    wh = whiten(np.array([[1.0]]), np.zeros(1))
    for kind in KINDS:
        spec = BoundarySpec(kind, 0.05)
        r = radius(kind, 100, 1, 0.05, kappa=float(wh.kappa))
        sup = spec.norm_kind == "sup_norm"
        stat = wh.stat_sup if sup else wh.stat_two
        scale = wh.scale_sup if sup else wh.scale_two
        assert stat == 0.0 and stat <= r
        assert r * scale[0] == pytest.approx(r, rel=1e-12)
        assert spec.norm_kind == NORM_BY_KIND[kind]


def test_evaluate_without_vector_reports_no_membership():
    # every caller whitens a centred vector, so delta is required: without
    # one there is no Whitening, and no membership to read off it
    with pytest.raises(TypeError, match="delta"):
        whiten(np.eye(2))


# ---------------------------------------------------- mixture martingale


def test_martingale_is_one_at_time_zero():
    v = np.array([[2.0, 1.0], [1.0, 2.0]])
    sigma = np.array(np.eye(2) / 400.0)
    assert gm_mixture_martingale(0.0, np.zeros(2), v, sigma) == pytest.approx(1.0, rel=1e-10)


def test_martingale_diffuse_prior_vanishes():
    val = gm_mixture_martingale(10.0, np.array([3.0]), np.array([[1.0]]), np.array([[1e12]]))
    assert val < 1e-5


def test_martingale_d1_closed_form():
    # d=1 with sigma = 1/400: exp(s^2 / (2(tv+400))) / sqrt((tv+400)/400)
    t, s, vv = 50.0, 4.0, 1.0
    direct = math.exp(s * s / (2.0 * (t * vv + 400.0))) / math.sqrt((t * vv + 400.0) / 400.0)
    got = gm_mixture_martingale(t, np.array([s]), np.array([[vv]]), np.array([[1.0 / 400.0]]))
    assert got == pytest.approx(direct, rel=1e-12)


def test_martingale_mc_mean_one_and_no_drift():
    # sample mean near 1 at both checkpoints, no significant upward drift
    rng = np.random.default_rng(99)
    n, v = 2000, 1.0
    z = rng.standard_normal((n, 200))
    sums = np.cumsum(z, axis=1)
    sig = np.array([[1.0 / 400.0]])
    vals = {
        t: np.array(
            [gm_mixture_martingale(t, sums[i, t - 1 : t], np.array([[v]]), sig) for i in range(n)]
        )
        for t in (100, 200)
    }
    for t, vt in vals.items():
        se = vt.std(ddof=1) / math.sqrt(n)
        assert abs(vt.mean() - 1.0) <= 3.0 * se
    diff = vals[200] - vals[100]
    se = diff.std(ddof=1) / math.sqrt(n)
    assert diff.mean() <= 3.0 * se


def test_martingale_validation():
    v = np.eye(2)
    with pytest.raises(ValueError):
        gm_mixture_martingale(-1.0, np.zeros(2), v, v)
    with pytest.raises(ValueError):
        gm_mixture_martingale(1.0, np.zeros(3), v, v)
    with pytest.raises(ValueError, match="positive definite"):
        gm_mixture_martingale(1.0, np.zeros(2), v, np.array(np.diag([1.0, 0.0])))


# ------------------------------------------------------ volume objective


def test_volume_objective_minimized_at_lambda_star():
    grid = np.logspace(-2, 3, 400)
    for alpha in (0.05, 0.1):
        ls = lambda_star(alpha)
        best = gm_volume_objective(ls, 1, alpha)
        assert all(gm_volume_objective(g, 1, alpha) >= best * (1.0 - 1e-12) for g in grid)


def test_volume_objective_d1_identity():
    # at the optimum the d=1 objective squares to 1 + lambda_star
    for alpha in (0.01, 0.05, 0.2):
        ls = lambda_star(alpha)
        assert gm_volume_objective(ls, 1, alpha) ** 2 == pytest.approx(1.0 + ls, rel=1e-10)


def test_volume_objective_minimum_value_every_d():
    # the minimizer is d-free and the minimum is (1 + lambda_star)^{d/2}
    for d in (1, 2, 5):
        for alpha in (0.01, 0.1):
            ls = lambda_star(alpha)
            assert gm_volume_objective(ls, d, alpha) == pytest.approx(
                (1.0 + ls) ** (d / 2.0), rel=1e-10
            )


def test_volume_objective_diverges_at_zero():
    assert gm_volume_objective(1e-8, 1, 0.1) > 1e3


def test_volume_objective_domain():
    for lam, d, alpha in ((0.0, 1, 0.1), (-1.0, 1, 0.1), (1.0, 0, 0.1), (1.0, 1, 1.0)):
        with pytest.raises(ValueError):
            gm_volume_objective(lam, d, alpha)
