"""Tests for the streaming plug-in covariance estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sacs.covariance import SANDWICH_RTOL, sandwich
from sacs.sa_engine import (
    ModelSpec,
    StepSchedule,
    rng_stream,
    run_lockstep,
    run_trajectory,
    sample_data_block,
)

from helpers import lockstep_reference, per_point


def test_single_datum_estimate():
    # after one linear step from x0 = 0: h_hat = X^2, s_hat = (yX)^2
    model = ModelSpec("linear", 1)
    (xv,), (y,) = sample_data_block(model, rng_stream(2, 0), 1)
    (pt,) = run_trajectory(model, StepSchedule(0.01, 0.67), 1, [1], rng=rng_stream(2, 0))
    assert pt.h_hat[0, 0] == xv[0] ** 2
    assert pt.s_hat[0, 0] == (y * xv[0]) ** 2
    # d = 1 sandwich is s / h^2
    expected = (y * xv[0]) ** 2 / xv[0] ** 4
    assert pt.sandwich[0, 0] == pytest.approx(expected, rel=1e-14)


def test_plugin_estimate_normalizes_by_t():
    # each checkpoint divides the accumulators of the same stream by t, as
    # the per-step reference does with the sums it keeps
    model = ModelSpec("linear", 2)
    sched = StepSchedule(0.01, 0.67)
    means = {}

    def visit(tt, xbar, h_hat, s_hat):
        means[tt] = (h_hat[0].copy(), s_hat[0].copy())

    lockstep_reference(model, sched, 40, [rng_stream(5, 0)], [4, 40], per_point(visit, [4, 40]))
    trace = run_trajectory(model, sched, 40, [4, 40], rng=rng_stream(5, 0))
    for pt in trace:
        h_hat, s_hat = means[pt.t]
        assert np.array_equal(pt.h_hat, h_hat)
        assert np.array_equal(pt.s_hat, s_hat)
        h_inv = np.linalg.inv(pt.h_hat)
        assert pt.sandwich == pytest.approx(h_inv @ pt.s_hat @ h_inv, rel=1e-9)


def test_singular_flag_cases():
    # a sandwich whose h fails the guard is nan in every entry
    v = sandwich(np.array([[[0.0]], [[-1.0]], [[4.0]]]), np.ones((3, 1, 1)))
    assert np.isnan(v[:2]).all() and v[2, 0, 0] == 1.0 / 16.0
    # eigenvalue ratio at the guard: 9e-9 <= 1e-8 singular, 2e-8 fine
    h = np.stack([np.diag([1.0, 9e-9]), np.diag([1.0, 2e-8])])
    v = sandwich(h, np.stack([np.eye(2)] * 2))
    assert np.isnan(v[0]).all() and np.isfinite(v[1]).all()
    assert SANDWICH_RTOL == 1e-8


def test_plugin_estimate_singular_passthrough():
    # at t = 1 the d = 2 Jacobian estimate is the rank-one X X'
    model = ModelSpec("linear", 2)
    (pt,) = run_trajectory(model, StepSchedule(0.01, 0.67), 1, [1], rng=rng_stream(3, 0))
    assert pt.sandwich is None


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.1, max_value=50.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sandwich_scale_equivariance(d, c, seed):
    # G -> c G maps (h, s) -> (c h, c^2 s) and leaves the sandwich fixed
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    h = a @ a.T + 0.5 * np.eye(d)
    b = rng.standard_normal((d, d))
    s = b @ b.T + 0.1 * np.eye(d)
    base = sandwich(h, s)
    scaled = sandwich(c * h, c * c * s)
    assert np.abs(scaled - base).max() <= 1e-9 * np.abs(base).max()


def test_sandwich_is_exactly_symmetric():
    model = ModelSpec("linear", 3)
    sched = StepSchedule(0.01, 0.67)
    trace = run_trajectory(model, sched, 200, [50, 100, 200], rng=rng_stream(3, 0))
    for pt in trace:
        assert np.array_equal(pt.sandwich, pt.sandwich.T)


def test_jacobian_estimate_accuracy_improves_with_t():
    # median |h_hat - 100/3| over 200 repetitions shrinks from t=1e3 to t=1e5
    model = ModelSpec("linear", 1)
    sched = StepSchedule(0.01, 0.67)
    reps = 200
    errs = {}
    for start in range(0, reps, 100):
        gens = [rng_stream(31, r) for r in range(start, start + 100)]
        chunk_errs = {}

        def visit(tt, xbar, h_hat, s_hat):
            chunk_errs[tt] = np.abs(h_hat[:, 0, 0] - 100.0 / 3.0)

        ev = [1000, 100_000]
        run_lockstep(model, sched, 100_000, gens, ev, per_point(visit, ev))
        for tt, v in chunk_errs.items():
            errs.setdefault(tt, []).append(v)

    med_lo = np.median(np.concatenate(errs[1000]))
    med_hi = np.median(np.concatenate(errs[100_000]))
    assert med_hi < med_lo
