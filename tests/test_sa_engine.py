"""Tests for the stochastic approximation recursion engine."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sacs import sa_engine
from sacs.covariance import NumericalError
from sacs.harness import rate_exponents
from sacs.sa_engine import (
    DivergenceError,
    ModelSpec,
    StepSchedule,
    _gradient,
    rng_stream,
    run_lockstep,
    run_trajectory,
    sample_data_block,
    step_size,
)

from helpers import lockstep_reference, per_point


# ------------------------------------------------------------- schedule


def test_step_size_values():
    assert step_size(StepSchedule(0.5, 0.67), 0) == 0.5
    # frozen: 0.5 * 1000**(-0.67)
    assert step_size(StepSchedule(0.5, 0.67), 999) == pytest.approx(
        0.0048861861047790524, rel=1e-15
    )
    # eta0 * 4**(-3/4) = eta0 * 2**(-3/2)
    assert step_size(StepSchedule(1.0, 0.75), 3) == pytest.approx(2.0**-1.5, rel=1e-15)
    assert step_size(StepSchedule(0.0, 0.8), 17) == 0.0
    # an array of steps gives the same values elementwise
    s = StepSchedule(0.5, 0.67)
    assert np.array_equal(step_size(s, np.arange(5)), [step_size(s, t) for t in range(5)])


def test_step_schedule_validation():
    for eta0, a in ((-1.0, 0.7), (math.nan, 0.7), (1.0, 0.5), (1.0, 1.0), (1.0, 0.2)):
        with pytest.raises(ValueError):
            StepSchedule(eta0, a)


def test_step_size_decreasing():
    s = StepSchedule(2.0, 0.6)
    vals = [step_size(s, t) for t in range(200)]
    assert all(u > v for u, v in zip(vals, vals[1:]))


# ------------------------------------------------------- rate condition


@pytest.mark.parametrize(
    "a,lam,p,linear,expected",
    [
        (0.67, 1.0, math.inf, True, None),
        (0.45, 1.0, 10.0, True, None),
        (0.9, 1.0, 10.0, True, "a >= (p-1)/p"),
        (0.0, 1.0, 10.0, True, "a <= 0"),
        (-0.1, 1.0, math.inf, True, "a <= 0"),
        (0.6, 1.0, math.inf, False, None),
        (0.6, 1.0, 2.0, False, "p <= (1+lambda)/lambda"),
        (0.4, 1.0, 2.0, False, "p <= (1+lambda)/lambda"),
        (0.5, 1.0, 10.0, False, "a <= 1/(1+lambda)"),
        (0.7, 0.5, 4.0, False, None),
        (0.8, 0.5, 4.0, False, "a >= (p-1)/p"),
        (0.7, 0.5, 3.0, False, "p <= (1+lambda)/lambda"),
    ],
)
def test_validate_rate_condition(a, lam, p, linear, expected):
    assert rate_exponents(a, lam, p, 1, linear).violation == expected


def test_validate_rate_condition_domain():
    for p in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            rate_exponents(0.7, 1.0, p, 1, True)
    for lam in (0.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            rate_exponents(0.7, lam, 10.0, 1, False)
    for a in (math.nan, math.inf, -math.inf):
        for linear in (True, False):
            with pytest.raises(ValueError, match="step exponent a"):
                rate_exponents(a, 1.0, 10.0, 1, linear)


# ---------------------------------------------------------------- models


def test_default_models():
    # a model is its kind and dimension; both kinds have theta_star = (1, ..., d)
    lin = ModelSpec("linear", 3)
    assert np.array_equal(lin.theta_star, [1.0, 2.0, 3.0])
    assert lin.noise_sd == 4.0 and lin.cov_halfwidth == 10.0
    logi = ModelSpec("logistic", 2)
    assert np.array_equal(logi.theta_star, [1.0, 2.0])
    assert logi.noise_sd == 0.0 and logi.cov_halfwidth == 0.5
    with pytest.raises(ValueError, match="read-only"):
        lin.theta_star[0] = 5.0


def test_model_spec_validation():
    with pytest.raises(ValueError, match="kind must be one of"):
        ModelSpec("probit", 1)
    for dim in (0, -1, 1.5):
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            ModelSpec("linear", dim)
    with pytest.raises(ValueError, match="dim must be an integer >= 1, got True"):
        ModelSpec("linear", True)


# ------------------------------------------------------------ rng streams


def test_rng_stream_reproducible_and_distinct():
    a = rng_stream(12, 3).uniform(size=8)
    b = rng_stream(12, 3).uniform(size=8)
    c = rng_stream(12, 4).uniform(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # the stream layout: stream r of seed s is spawn key (r,) of s
    ss = np.random.SeedSequence(12, spawn_key=(3,))
    assert np.array_equal(a, np.random.default_rng(ss).uniform(size=8))


def test_rng_stream_validation():
    for seed, stream in ((-1, 0), (0, -1), (2**64, 0), (1.5, 0), (True, 0), (0, False)):
        with pytest.raises(ValueError, match=r"must be an integer in \[0, 2\*\*64\)"):
            rng_stream(seed, stream)


# ------------------------------------------------------------- sampling


def test_sample_linear_moments():
    model = ModelSpec("linear", 1)
    xs, ys = sample_data_block(model, rng_stream(5, 0), 1_000_000)
    assert np.abs(xs).max() <= 10.0
    # E[y] = 0, sd(y) = sqrt(100/3 + 16); tolerance is 3 standard errors
    assert abs(ys.mean()) < 3.0 * math.sqrt(100.0 / 3.0 + 16.0) / 1000.0
    # E[X^2] = 100/3, var(X^2) = 2000 - (100/3)^2
    se = math.sqrt((2000.0 - (100.0 / 3.0) ** 2) / 1_000_000)
    assert (xs**2).mean() == pytest.approx(100.0 / 3.0, abs=3.0 * se)


def test_sample_logistic_moments():
    model = ModelSpec("logistic", 1)
    xs, ys = sample_data_block(model, rng_stream(6, 0), 200_000)
    assert np.abs(xs).max() <= 0.5
    assert set(np.unique(ys)) <= {0.0, 1.0}
    # E[y] = E[sigmoid(X)] = 1/2 by symmetry of the covariate law
    assert abs(ys.mean() - 0.5) < 3.0 * 0.5 / math.sqrt(200_000)


def test_sigmoid_matches_the_masked_form():
    # bit for bit the two-branch form with boolean masks, including at the
    # signed zeros, infinities and smallest subnormals; a nan stays a nan
    # (its sign bit may differ)
    def masked(z):
        out = np.empty_like(z)
        pos = z >= 0.0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    edges = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324]
    z = np.concatenate([np.linspace(-800.0, 800.0, 2_000_001), edges])
    assert sa_engine._sigmoid(z).tobytes() == masked(z).tobytes()
    assert np.isnan(sa_engine._sigmoid(np.array([np.nan, -np.nan]))).all()


# ------------------------------------------------------------- oracles


def grad(model, x, xv, y):
    # the batched oracle on a single (iterate, datum) pair
    return _gradient(model, np.atleast_2d(x), np.atleast_2d(xv), np.array([y]))[0][0]


def jacs(model, x, xs):
    # the Jacobians w XX' of a batch, from the oracle's weight w (1 for
    # linear), as run_lockstep builds them; they do not read the response
    _, w = _gradient(model, x, xs, np.zeros(len(xs)))
    outer = xs[:, :, None] * xs[:, None, :]
    return outer if w is None else w[:, None, None] * outer


def jac(model, x, xv):
    return jacs(model, np.atleast_2d(x), np.atleast_2d(xv))[0]


def test_grad_oracle_values():
    lin = ModelSpec("linear", 1)
    # residual 5 - 2*1 = 3, gradient -3*2
    assert grad(lin, [1.0], [2.0], 5.0)[0] == -6.0
    # at the root the residual is minus the response noise, drawn after
    # the covariates with s.d. noise_sd
    model = ModelSpec("linear", 2)
    xs, ys = sample_data_block(model, rng_stream(3, 0), 1)
    gen = rng_stream(3, 0)
    assert np.array_equal(gen.uniform(-10.0, 10.0, size=(1, 2)), xs)
    noise = gen.normal(0.0, 4.0)
    got = grad(model, model.theta_star, xs[0], ys[0])
    assert got == pytest.approx(-noise * xs[0], rel=1e-12, abs=1e-12)
    # logistic gradient vanishes when y equals the predicted probability
    logi = ModelSpec("logistic", 1)
    y = 1.0 / (1.0 + math.exp(-0.4 * 0.3))
    assert grad(logi, [0.3], [0.4], y) == pytest.approx([0.0], abs=1e-15)


def test_jac_oracle_values():
    lin = ModelSpec("linear", 1)
    assert jac(lin, [0.0], [3.0])[0, 0] == 9.0
    # sigmoid'(0) * X^2 = 0.25 * 4
    assert jac(ModelSpec("logistic", 1), [0.0], [2.0])[0, 0] == 1.0
    # one row per repetition: a stack of outer products, each symmetric
    xs = np.array([[1.0, 2.0], [-3.0, 0.5]])
    j = jacs(ModelSpec("linear", 2), np.zeros((2, 2)), xs)
    assert np.array_equal(j, xs[:, :, None] * xs[:, None, :])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["linear", "logistic"]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_jacobian_is_gradient_derivative(kind, dim, seed):
    # central differences of the gradient reproduce the Jacobian columnwise
    model = ModelSpec(kind, dim)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=dim)
    (xv,), (y,) = sample_data_block(model, rng_stream(seed, 7), 1)
    j = jac(model, x, xv)
    h = 1e-5
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        num = (grad(model, x + e, xv, y) - grad(model, x - e, xv, y)) / (2.0 * h)
        assert np.abs(num - j[:, k]).max() < 1e-6 * max(1.0, np.abs(j).max())


# ------------------------------------------------- per-step recursion state


def every_step(model, sched, T, seed):
    """One repetition through run_lockstep, its state copied after every step."""
    states = []

    def visit(tt, xbar, h_hat, s_hat):
        states.append((xbar[0].copy(), h_hat[0].copy(), s_hat[0].copy()))

    gens = [rng_stream(seed, 0)]
    steps = range(1, T + 1)
    diverged_at = run_lockstep(model, sched, T, gens, steps, per_point(visit, steps))
    return states, int(diverged_at[0])


def iterates(xbars):
    """The raw iterates x_t = t xbar_t - (t-1) xbar_{t-1} of the averages
    xbar_1, xbar_2, ... (xbar_0 = 0), to rounding."""
    prev = np.zeros_like(xbars[0])
    for t, xbar in enumerate(xbars, start=1):
        yield t * xbar - (t - 1) * prev
        prev = xbar


def test_sa_step_frozen_dynamics():
    model = ModelSpec("linear", 1)
    states, _ = every_step(model, StepSchedule(0.0, 0.7), 5, 0)
    xbars = [xbar for xbar, _, _ in states]
    for x, xbar in zip(iterates(xbars), xbars):
        assert np.array_equal(x, [0.0]) and np.array_equal(xbar, [0.0])
    # the data are still consumed and accumulated: h_sum_1 < h_sum_5
    assert 0.0 < states[0][1][0, 0] < 5 * states[-1][1][0, 0]


def test_sa_step_averaging_identity():
    # t*xbar_t - (t-1)*xbar_{t-1} recovers x_t, the recursion's iterate
    # taken here one datum at a time; x_0 is excluded from the mean
    model = ModelSpec("linear", 2)
    sched = StepSchedule(0.01, 0.67)
    states, _ = every_step(model, sched, 30, 11)
    xs, ys = sample_data_block(model, rng_stream(11, 0), 30)
    x = np.zeros(2)
    for t, lhs in enumerate(iterates([xbar for xbar, _, _ in states]), start=1):
        x = x - step_size(sched, t - 1) * grad(model, x, xs[t - 1], ys[t - 1])
        assert np.abs(lhs - x).max() <= 1e-9 * (1.0 + np.abs(x).max())


def test_sa_step_accumulators_one_step():
    # the first step reads the head of the stream's canonical data block
    model = ModelSpec("linear", 1)
    xs, ys = sample_data_block(model, rng_stream(2, 0), 3)
    states, _ = every_step(model, StepSchedule(0.01, 0.67), 3, 2)
    # at t = 1 the average is the iterate and the means are the sums
    xbar, h_hat, s_hat = states[0]
    g = -ys[0] * xs[0, 0]
    assert h_hat[0, 0] == xs[0, 0] ** 2
    assert s_hat[0, 0] == g**2
    assert xbar[0] == -0.01 * g


def test_sa_step_divergence_raises():
    # the reported step is the first one whose iterate is not finite
    model = ModelSpec("linear", 1)
    states, diverged_at = every_step(model, StepSchedule(1e150, 0.67), 50, 0)
    finite = [bool(np.isfinite(x).all()) for x in iterates([xbar for xbar, _, _ in states])]
    assert diverged_at == finite.index(False) + 1 >= 1


# ---------------------------------------------------------- trajectories


def test_run_trajectory_deterministic():
    model = ModelSpec("linear", 2)
    sched = StepSchedule(0.01, 0.67)
    a = run_trajectory(model, sched, 300, [100, 300], rng=rng_stream(7, 3))
    b = run_trajectory(model, sched, 300, [100, 300], rng=rng_stream(7, 3))
    assert len(a) == len(b) == 2
    for pa, pb in zip(a, b):
        assert pa.t == pb.t
        assert np.array_equal(pa.xbar, pb.xbar)
        assert np.array_equal(pa.h_hat, pb.h_hat)
        assert pa.err_norm == pb.err_norm


def test_run_trajectory_empty_and_validation():
    model = ModelSpec("linear", 1)
    sched = StepSchedule(0.01, 0.67)
    assert run_trajectory(model, sched, 0, []) == ()
    for bad in ([0], [5, 5], [5, 3], [11]):
        with pytest.raises(ValueError):
            run_trajectory(model, sched, 10, bad)
    with pytest.raises(ValueError):
        run_trajectory(model, sched, -1, [])
    with pytest.raises(ValueError, match="T must be a nonnegative integer, got True"):
        run_trajectory(model, sched, True, [1])


def test_run_trajectory_divergence():
    # the error carries the step that run_lockstep reports for the same stream
    model = ModelSpec("linear", 1)
    sched = StepSchedule(1e150, 0.67)
    with pytest.raises(DivergenceError) as exc:
        run_trajectory(model, sched, 100, [100], rng=rng_stream(0, 0))
    gens = [rng_stream(0, 0)]
    diverged_at = run_lockstep(model, sched, 100, gens, [], None)
    assert exc.value.t == diverged_at[0] >= 1
    assert str(exc.value) == f"iterate diverged at step {exc.value.t}"


@pytest.mark.parametrize(
    "error",
    [NumericalError("no result"), DivergenceError(5)],
    ids=lambda e: type(e).__name__,
)
def test_public_exceptions_survive_pickling(error):
    # a forked worker's exception reaches the caller through pickle
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert (str(copy), copy.args, vars(copy)) == (str(error), error.args, vars(error))


def test_run_trajectory_converges_to_root():
    # 30 repetitions at T = 20000 all land within 0.1 of theta_star
    model = ModelSpec("linear", 1)
    sched = StepSchedule(0.01, 0.67)
    errs = []
    for r in range(30):
        (pt,) = run_trajectory(model, sched, 20_000, [20_000], rng=rng_stream(123, r))
        errs.append(pt.err_norm)
    assert max(errs) < 0.1


@pytest.mark.parametrize(
    "kind, dim", [("linear", 1), ("linear", 2), ("linear", 3), ("logistic", 2), ("linear", 8)]
)
@pytest.mark.parametrize("block_entries", [None, 1])
def test_lockstep_matches_chunked_runs(monkeypatch, kind, dim, block_entries):
    # repetition r's trace must depend neither on how generators are batched
    # nor on the time blocks its data are drawn in. block_entries = 1 gives
    # the shortest blocks, 64 steps, which do not divide T; d = 8 is where
    # BLAS rounds xs @ theta_star by a row's place in its row group.
    model = ModelSpec(kind, dim)
    sched = StepSchedule(0.01, 0.67)
    T = 129

    def final_state(gen_lists):
        parts = []
        for gens in gen_lists:
            seen = {}

            def visit(tt, xbar, h_hat, s_hat):
                seen["state"] = (xbar.copy(), h_hat.copy(), s_hat.copy())

            run_lockstep(model, sched, T, gens, [T], per_point(visit, [T]))
            parts.append(seen["state"])
        return [np.concatenate(arrays) for arrays in zip(*parts)]

    reference = final_state([[rng_stream(42, r) for r in range(3)]])
    if block_entries is not None:
        monkeypatch.setattr(sa_engine, "_BLOCK_ENTRIES", block_entries)
        # a block never ends with a single step, so the last one takes 65
        assert list(sa_engine._time_blocks(T, dim, block_entries)) == [(0, 64), (64, 65)]
    gens = [rng_stream(42, r) for r in range(3)]
    for a, b in zip(reference, final_state([[g] for g in gens])):
        assert np.array_equal(a, b)
    # each generator ends where one unblocked draw of T rows leaves it
    for r, gen in enumerate(gens):
        direct = rng_stream(42, r)
        sample_data_block(model, direct, T)
        assert gen.bit_generator.state == direct.bit_generator.state


def test_lockstep_holds_one_data_block(monkeypatch):
    # 50 repetitions in blocks of 320 steps: the peak allocation of a
    # 2,000-step run stays near one block's covariates and responses,
    # rather than two blocks at each boundary
    monkeypatch.setattr(sa_engine, "_BLOCK_ENTRIES", 2**14)
    model, sched, n_reps, T = ModelSpec("linear", 1), StepSchedule(0.01, 0.67), 50, 2000
    block = max(b for _, b in sa_engine._time_blocks(T, n_reps, 2**14))
    assert block == 320 and T > 5 * block
    block_bytes = block * n_reps * (model.dim + 1) * 8

    def run(gens):
        run_lockstep(model, sched, T, gens, [], lambda *a: None)

    run([rng_stream(3, r) for r in range(n_reps)])  # first-call set-up
    gens = [rng_stream(4, r) for r in range(n_reps)]
    tracemalloc.start()
    try:
        run(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block_bytes


@pytest.mark.parametrize("n_reps, dim, T", [(256, 1, 5000), (30, 3, 6000)])
def test_lockstep_chunk_scratch_is_small(n_reps, dim, T):
    # at the benchmark's shapes (default block and flush sizes, 4096- and
    # 6000-step blocks), a run holds under 2 MB beyond one data block's
    # covariates and responses: the chunks' arrays stay cache-sized
    model, sched = ModelSpec("linear", dim), StepSchedule(0.01, 0.67)
    block = max(b for _, b in sa_engine._time_blocks(T, n_reps * dim, sa_engine._BLOCK_ENTRIES))
    block_bytes = block * n_reps * (dim + 1) * 8
    run_lockstep(model, sched, 100, [rng_stream(3, r) for r in range(n_reps)], [], None)
    gens = [rng_stream(4, r) for r in range(n_reps)]
    tracemalloc.start()
    try:
        run_lockstep(model, sched, T, gens, [], None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - block_bytes < 2 * 2**20


EVAL_TIMES = {
    "every": range(1, 301),
    "stride": range(7, 301, 3),
    "sparse": [1, 2, 63, 64, 65, 128, 200, 299, 300],
    "single": [150],
}


@pytest.mark.parametrize(
    "kind, dim, diverging, eval_times",
    [
        ("linear", 1, False, "every"),
        ("linear", 1, True, "stride"),
        ("linear", 2, False, "sparse"),
        ("linear", 2, True, "single"),
        ("linear", 3, False, "stride"),
        ("linear", 3, True, "every"),
        ("linear", 5, False, "single"),
        ("linear", 5, True, "sparse"),
        ("linear", 9, False, "every"),
        ("linear", 9, True, "stride"),
        ("logistic", 1, False, "sparse"),
        ("logistic", 1, True, "every"),
        ("logistic", 2, False, "stride"),
        ("logistic", 2, True, "single"),
    ],
)
def test_lockstep_matches_the_per_step_reference(monkeypatch, kind, dim, diverging, eval_times):
    # run_lockstep's chunks give the states of the per-step loop bit for
    # bit: every visited batch, its lo, the first divergent steps and the
    # generators' end states. Besides the default sizes, 64-step blocks
    # with chunks of 3 or 4 steps and batches of 1 or 3 put the chunk edges
    # out of step with the block and batch edges. Diverging: linear
    # at eta0 = 1e3 turns nan near step 100; logistic at eta0 = 1e10 with
    # covariates up to 1e150 overflows x'X (d = 2) or saturates the
    # sigmoid (d = 1).
    if diverging and kind == "logistic":
        monkeypatch.setitem(sa_engine._DATA_LAWS, "logistic", (0.0, 1e150))
    model = ModelSpec(kind, dim)
    sched = StepSchedule({"linear": 1e3, "logistic": 1e10}[kind] if diverging else 0.05, 0.67)
    ev, n_reps, T = list(EVAL_TIMES[eval_times]), 3, 300

    def run(lockstep):
        gens = [rng_stream(8, r) for r in range(n_reps)]
        seen = []

        def visit(lo, *batch):
            seen.append((lo, [a.copy() for a in batch]))

        diverged_at = lockstep(model, sched, T, gens, ev, visit)
        return seen, diverged_at, [g.bit_generator.state for g in gens]

    for flush in (None, 3 * n_reps * dim**2, 3 * n_reps * dim):
        if flush is not None:
            monkeypatch.setattr(sa_engine, "_BLOCK_ENTRIES", 1)
            monkeypatch.setattr(sa_engine, "_FLUSH_ENTRIES", flush)
        (got, div, states), (want, div_ref, states_ref) = run(run_lockstep), run(lockstep_reference)
        assert [lo for lo, _ in got] == [lo for lo, _ in want]
        for (_, batch), (_, batch_ref) in zip(got, want):
            for a, b in zip(batch, batch_ref):
                assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
        assert div.tolist() == div_ref.tolist()
        assert states == states_ref
    assert (div != -1).any() == (diverging and (kind, dim) != ("logistic", 1))


@pytest.mark.parametrize("k", [1, 3, 100])
def test_lockstep_visits_batches_of_k_steps(monkeypatch, k):
    # buffers of k steps (all L = 7 when k >= L) give ceil(L / k) visits at
    # lo = 0, k, 2k, ..., whose states are those of one-step batches
    model, sched, n_reps = ModelSpec("linear", 2), StepSchedule(0.01, 0.67), 3
    ev = [2, 3, 5, 8, 13, 21, 34]

    def batches(size):
        monkeypatch.setattr(sa_engine, "_FLUSH_ENTRIES", size * n_reps * model.dim**2)
        seen = []

        def visit(lo, *batch):
            assert [a.shape[1:] for a in batch] == [(3, 2), (3, 2, 2), (3, 2, 2)]
            seen.append((lo, [a.copy() for a in batch]))

        run_lockstep(model, sched, 40, [rng_stream(9, r) for r in range(n_reps)], ev, visit)
        return seen

    got, steps = batches(k), batches(1)
    size = min(k, len(ev))
    assert [lo for lo, _ in got] == list(range(0, len(ev), size))
    assert [len(batch[0]) for _, batch in got] == [min(size, len(ev) - lo) for lo, _ in got]
    assert [len(batch[0]) for _, batch in steps] == [1] * len(ev)
    for i in range(3):
        a = np.concatenate([batch[i] for _, batch in got])
        b = np.concatenate([batch[i] for _, batch in steps])
        assert a.tobytes() == b.tobytes()


def test_lockstep_freezes_divergent_reps():
    # one exploding schedule: every repetition freezes to nan, none raises
    model = ModelSpec("linear", 1)
    sched = StepSchedule(1e150, 0.67)
    gens = [rng_stream(1, r) for r in range(4)]
    seen = {}

    def visit(tt, xbar, h_hat, s_hat):
        seen["xbar"] = xbar.copy()

    diverged_at = run_lockstep(model, sched, 60, gens, [60], per_point(visit, [60]))
    assert np.all(diverged_at >= 1)
    assert not np.isfinite(seen["xbar"]).any()


def test_lockstep_divergent_steps_match_single_runs():
    # the golden divergent config (6 of 20 repetitions diverge, at different
    # steps): each repetition reports the first divergent step it reports
    # when run alone, including after another repetition has turned nan
    model = ModelSpec("linear", 1)
    sched = StepSchedule(7.0, 0.67)
    T = 1000
    together = run_lockstep(model, sched, T, [rng_stream(0, r) for r in range(20)], [], None)
    alone = [run_lockstep(model, sched, T, [rng_stream(0, r)], [], None)[0] for r in range(20)]
    assert together.tolist() == alone
    assert np.count_nonzero(together != -1) == 6
    assert len(set(together[together != -1].tolist())) > 1


def test_lockstep_rejects_bad_eval_times():
    model = ModelSpec("linear", 1)
    sched = StepSchedule(0.01, 0.67)
    gens = [rng_stream(0, 0)]
    for bad in ([0], [3, 2], [7]):
        with pytest.raises(ValueError):
            run_lockstep(model, sched, 5, gens, bad, lambda *a: None)


def test_non_integral_steps_are_rejected_not_truncated():
    # 2.5 and 9.99 once ran as steps 2 and 9, and inf raised OverflowError
    model = ModelSpec("linear", 1)
    sched = StepSchedule(0.01, 0.67)
    for bad in ([2.5, 7.9], np.array([3.0, 9.99]), [1, math.inf], [math.nan]):
        with pytest.raises(ValueError, match="must be integers"):
            run_trajectory(model, sched, 10, bad)
        with pytest.raises(ValueError, match="must be integers"):
            run_lockstep(model, sched, 10, [rng_stream(0, 0)], bad, lambda *a: None)
    # integral values of any numeric type are the steps they name
    ints = run_trajectory(model, sched, 10, [3, 9])
    for same in (np.array([3, 9], dtype=np.int64), np.array([3.0, 9.0]), range(3, 10, 6)):
        pts = run_trajectory(model, sched, 10, same)
        assert [p.t for p in pts] == [3, 9] and all(type(p.t) is int for p in pts)
        assert all(np.array_equal(a.xbar, b.xbar) for a, b in zip(pts, ints))


def test_l2_decay_probe():
    # mean squared error of the raw iterate, scaled by the step size, stays
    # bounded between the two checkpoints (within a factor of 2). The
    # iterate x_t = t xbar_t - (t-1) xbar_{t-1} is recovered from the
    # averages at t - 1 and t.
    model = ModelSpec("linear", 1)
    sched = StepSchedule(0.01, 0.67)
    reps, T = 200, 10_000
    gens = [rng_stream(77, r) for r in range(reps)]
    xbars, ratios = {}, {}

    def visit(tt, xbar, h_hat, s_hat):
        xbars[tt] = xbar[:, 0].copy()
        if tt - 1 in xbars:
            x = tt * xbars[tt] - (tt - 1) * xbars[tt - 1]
            ratios[tt] = float(np.mean((x - 1.0) ** 2)) / step_size(sched, tt - 1)

    ev = [999, 1000, 9999, 10_000]
    diverged_at = run_lockstep(model, sched, T, gens, ev, per_point(visit, ev))
    assert np.all(diverged_at == -1)
    assert 0.0 < ratios[10_000] <= 2.0 * ratios[1000]
