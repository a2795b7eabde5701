"""Acceptance gate: every shipped guarantee at desk scale, one line each.

Each test prints one ``[acceptance] criterion N (...): PASS/FAIL`` line
(run pytest with -s to see them live) and then asserts. Criteria that
share a Monte Carlo run reuse module-scoped fixtures so the gate stays
fast. Criterion 2's logistic configuration gives its recursion the
same effective step as the linear one; see the logistic test's docstring.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from sacs.boundaries import BoundarySpec, lambda_star, radius_grid
from sacs.covariance import sandwich
from sacs.harness import ExperimentConfig, rate_exponents, run_coverage, run_gaussian_check
from sacs.sa_engine import ModelSpec, StepSchedule, rng_stream, run_lockstep

from helpers import gm_mixture_martingale, gm_volume_objective, per_point, sym_root

CS_KINDS = ("lilub", "gm", "lilen")
LINEAR_ETA0 = 0.01


def curvature(model):
    """H = E[psi'(theta* X) X^2] for d = 1, X ~ U[-hw, hw], by Gauss-Legendre.

    psi' is 1 for the linear model and sigmoid' for the logistic one, so
    H is the per-sample Jacobian of the mean gradient at the root.
    """
    nodes, weights = np.polynomial.legendre.leggauss(40)
    xs = model.cov_halfwidth * nodes
    if model.kind == "linear":
        slope = np.ones_like(xs)
    else:
        s = 1.0 / (1.0 + np.exp(-model.theta_star[0] * xs))
        slope = s * (1.0 - s)
    return float(np.sum(weights * slope * xs**2) / 2.0)


# Matched-step rule: the logistic recursion gets the linear fixture's
# effective step eta0 * H = 0.01 * 100/3 = 1/3. The logistic curvature is
# H = 0.0201, so eta0 = 1 / (3 H) = 16.6.
MATCHED_STEP = LINEAR_ETA0 * curvature(ModelSpec("linear", 1))
LOGISTIC_ETA0 = MATCHED_STEP / curvature(ModelSpec("logistic", 1))


def record(n, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {n} ({desc}): {status}{suffix}")
    return ok


def uniform_at_end(report, kind):
    rows = [r for r in report.rows if r.boundary_kind == kind]
    return rows[-1].uniform_coverage


@pytest.fixture(scope="module")
def linear_coverage_report():
    cfg = ExperimentConfig(
        model=ModelSpec("linear", 1),
        schedule=StepSchedule(LINEAR_ETA0, 0.67),
        iters=20_000,
        reps=500,
        start=1000,
        stride=1,
        boundaries=tuple(BoundarySpec(k, 0.05) for k in ("lilub", "gm", "lilen", "fixed")),
        seed=0,
    )
    return run_coverage(cfg)


@pytest.fixture(scope="module")
def logistic_coverage_report():
    cfg = ExperimentConfig(
        model=ModelSpec("logistic", 1),
        schedule=StepSchedule(LOGISTIC_ETA0, 0.67),
        iters=20_000,
        reps=500,
        start=1000,
        stride=1,
        boundaries=tuple(BoundarySpec(k, 0.05) for k in ("lilub", "gm", "lilen", "fixed")),
        seed=0,
    )
    return run_coverage(cfg)


def test_criterion_1_gaussian_oracle_coverage():
    threshold = 0.90 - 2.0 * math.sqrt(0.1 * 0.9 / 2000.0)
    start = time.perf_counter()
    worst = 1.0
    details = []
    specs = tuple(BoundarySpec(kind, 0.1) for kind in CS_KINDS)
    for d in (1, 2):
        rep = run_gaussian_check(d, horizon=10_000, reps=2000, boundaries=specs, seed=0)
        for kind in CS_KINDS:
            cov = uniform_at_end(rep, kind)
            worst = min(worst, cov)
            details.append(f"d={d} {kind} {cov:.4f}")
    elapsed = time.perf_counter() - start
    ok = worst >= threshold and elapsed < 300.0
    assert record(
        1,
        "gaussian-oracle uniform coverage",
        ok,
        f"min {worst:.4f} vs {threshold:.4f}, {elapsed:.0f}s",
    ), details


def test_criterion_2_linear_plugin_coverage(linear_coverage_report):
    threshold = 0.95 - 0.02
    covs = {k: uniform_at_end(linear_coverage_report, k) for k in CS_KINDS}
    ok = all(c >= threshold for c in covs.values())
    assert record(
        2,
        "plug-in uniform coverage, linear",
        ok,
        ", ".join(f"{k}={v:.3f}" for k, v in covs.items()) + f" vs {threshold:.2f}",
    )


def test_criterion_2_logistic_plugin_coverage(logistic_coverage_report):
    """Plug-in uniform coverage for the nonlinear model at the matched step.

    The guarantee is asymptotic in the starting time: it holds once the
    averaged iterate has left its transient. The step scale therefore
    follows the matched-step rule (LOGISTIC_ETA0 = 1 / (3 H) = 16.6, the
    linear fixture's effective step 1/3), chosen without looking at
    coverage. At the CLI default eta0 = 0.5 the drift sum_s eta_s H is
    only 0.27 at t = 1000 and 0.77 at t = 2e4, reaching 3 near t ~ 1e6:
    over 50 repetitions the mean averaged iterate is 0.18 at t = 1000 and
    0.44 at t = 2e4 against theta* = 1, the median whitened error is -3.7
    plug-in standard errors at t = 1000 and -11.5 at t = 2e4, and every
    time-uniform family covers 0.000-0.54. The plug-in curvature is
    accurate there (0.0206 against 0.0201); only the centre is biased.
    test_logistic_default_step_still_biased keeps that finding checked.
    """
    threshold = 0.95 - 0.03
    covs = {k: uniform_at_end(logistic_coverage_report, k) for k in CS_KINDS}
    ok = all(c >= threshold for c in covs.values())
    assert record(
        2,
        "plug-in uniform coverage, logistic",
        ok,
        ", ".join(f"{k}={v:.3f}" for k, v in covs.items()) + f" vs {threshold:.2f}",
    )


def test_logistic_default_step_still_biased():
    """At eta0 = 0.5 the averaged iterate is still far below theta* at t = 1000.

    The linearised recursion x_s - theta* = -theta* exp(-D(s)), with drift
    D(s) = H sum_{u<=s} eta_u, predicts E[xbar_t] - theta* =
    -(theta*/t) sum_s exp(-D(s)) = -0.82 at t = 1000 from x0 = 0. The
    check asks for at least half that bias, three Monte Carlo standard
    errors clear of it.
    """
    model = ModelSpec("logistic", 1)
    sched = StepSchedule(0.5, 0.67)
    t, reps = 1000, 50
    theta = model.theta_star[0]
    drift = curvature(model) * np.cumsum(sched.eta0 * np.arange(1.0, t + 1.0) ** (-sched.a))
    predicted = -theta * float(np.mean(np.exp(-drift)))
    seen = {}

    def visit(tt, xbar, h_hat, s_hat):
        seen["bias"] = xbar[:, 0] - theta

    gens = [rng_stream(0, r) for r in range(reps)]
    diverged_at = run_lockstep(model, sched, t, gens, [t], per_point(visit, [t]))
    bias = seen["bias"]
    mean = float(bias.mean())
    se = float(bias.std(ddof=1)) / math.sqrt(bias.size)
    ok = bool(np.all(diverged_at == -1)) and mean + 3.0 * se < 0.5 * predicted
    assert record(
        2,
        "logistic eta0=0.5 still biased at t=1000",
        ok,
        f"mean xbar-theta* {mean:.3f} +- {se:.3f}, predicted {predicted:.3f}",
    )


def test_criterion_3_fixed_time_baseline_fails(linear_coverage_report):
    cov = uniform_at_end(linear_coverage_report, "fixed")
    ok = cov < 0.90
    assert record(3, "fixed-time baseline under-covers", ok, f"uniform {cov:.3f} < 0.90")


def test_criterion_4_ordering_and_width_ratio():
    ts = np.arange(1000, 100_001, dtype=np.int64)
    rads = {
        kind: radius_grid(BoundarySpec(kind, 0.05), ts, 1)
        for kind in ("lilub", "gm", "lilen", "fixed")
    }
    widest = bool(
        np.all(rads["lilen"] > rads["gm"])
        and np.all(rads["lilen"] > rads["lilub"])
        and np.all(rads["lilen"] > rads["fixed"])
    )
    ratio = rads["gm"] / rads["fixed"]
    lo, hi = float(ratio.min()), float(ratio.max())
    ok = widest and lo >= 1.5 and hi <= 3.0
    assert record(
        4, "lilen widest, gm/fixed in [1.5, 3]", ok, f"ratio [{lo:.3f}, {hi:.3f}]"
    )


def test_criterion_5_exponent_golden_values():
    lin_inf = rate_exponents(0.7, 1.0, math.inf, 1, linear=True)
    non_inf = rate_exponents(0.7, 1.0, math.inf, 1, linear=False)
    lin_10 = rate_exponents(0.45, 1.0, 10.0, 1, linear=True)
    ok = (
        lin_inf.a_opt == 0.5
        and lin_inf.r_opt == 0.75
        and non_inf.a_opt == 2.0 / 3.0
        and non_inf.r_opt == 2.0 / 3.0
        and lin_10.a_opt == 0.45
        and lin_10.r_opt == 0.725
    )
    assert record(5, "exponent calculator goldens exact", ok)


def test_criterion_6_plugin_limits():
    model = ModelSpec("linear", 1)
    sched = StepSchedule(0.01, 0.67)
    reps, T = 50, 100_000
    h_vals, v_vals = [], []

    def visit(tt, xbar, h_hat, s_hat):
        v, ok = sandwich(h_hat, s_hat)
        h_vals.extend(h_hat[:, 0, 0])
        v_vals.extend(v[ok, 0, 0])

    for lo in range(0, reps, 25):
        gens = [rng_stream(0, r) for r in range(lo, lo + 25)]
        run_lockstep(model, sched, T, gens, [T], per_point(visit, [T]))

    h_med = float(np.median(h_vals))
    v_med = float(np.median(v_vals))
    ok = abs(h_med - 100.0 / 3.0) <= 0.05 * (100.0 / 3.0) and abs(v_med - 0.48) <= 0.048
    assert record(
        6,
        "plug-in limits at T=1e5",
        ok,
        f"median h {h_med:.3f} vs 33.333, median sandwich {v_med:.4f} vs 0.48",
    )


def test_criterion_7_lambda_star_grid_optimality():
    grid = np.logspace(-2, 3, 400)
    ok = True
    for d in (1, 2, 5):
        for alpha in (0.01, 0.05, 0.1):
            best = gm_volume_objective(lambda_star(alpha), d, alpha)
            ok = ok and all(gm_volume_objective(float(g), d, alpha) >= best for g in grid)
    assert record(7, "lambda_star optimal on 400-pt grid", ok)


def test_criterion_8_martingale_mean_one():
    v = np.array([[2.0, 1.0], [1.0, 2.0]])
    # mixing covariance v^{-1}/400: a concentrated prior keeps the MC
    # variance of the martingale small enough for a 3 stderr check
    inv_v = np.linalg.inv(v)
    sigma = np.array(inv_v / 400.0)
    sq = sym_root(v)
    n_paths, horizon = 10_000, 200
    rng = np.random.default_rng(2024)
    z = rng.standard_normal((n_paths, horizon, 2))
    sums = np.cumsum(z @ sq, axis=1)
    ok = True
    details = []
    for t in (50, 100, 200):
        vals = np.array(
            [gm_mixture_martingale(t, sums[i, t - 1], v, sigma) for i in range(n_paths)]
        )
        se = vals.std(ddof=1) / math.sqrt(n_paths)
        ok = ok and abs(vals.mean() - 1.0) <= 3.0 * se
        details.append(f"t={t}: {vals.mean():.4f} +- {se:.4f}")
    assert record(8, "mixture martingale mean 1", ok, "; ".join(details))


def test_criterion_9_byte_identical_cli(tmp_path):
    invocations = {
        "coverage": [
            "coverage",
            "--iters",
            "1200",
            "--reps",
            "8",
            "--start",
            "600",
            "--stride",
            "200",
            "--seed",
            "5",
        ],
        "gaussian-check": [
            "gaussian-check",
            "--dim",
            "2",
            "--horizon",
            "300",
            "--reps",
            "40",
            "--seed",
            "5",
        ],
        "rates": ["rates", "--grid", "0.51:0.95:12", "--p", "10", "--linear"],
        "run": ["run", "--iters", "2048", "--seed", "5"],
    }
    ok = True
    for name, args in invocations.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}.csv"
            res = subprocess.run(
                [sys.executable, "-m", "sacs", *args, "--out", str(out)],
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert res.returncode == 0, (name, res.stderr)
            outs.append(out.read_bytes())
        ok = ok and outs[0] == outs[1]
    assert record(9, "byte-identical CSV per subcommand", ok)
