"""End-to-end tests of the command line interface via subprocess."""

import csv
import hashlib
import json
import math
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from sacs import cli, harness
from sacs.cli import main

RUN = [sys.executable, "-m", "sacs"]


def run_cli(*args, **kwargs):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=600, **kwargs
    )


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------- coverage


def test_coverage_small_run(tmp_path):
    out = tmp_path / "cov.csv"
    res = run_cli(
        "coverage",
        "--model",
        "linear",
        "--iters",
        "1200",
        "--reps",
        "8",
        "--start",
        "600",
        "--stride",
        "300",
        "--alpha",
        "0.1",
        "--out",
        str(out),
    )
    assert res.returncode == 0, res.stderr
    rows = read_rows(out)
    # grid {600, 900, 1200} x 4 default kinds
    assert len(rows) == 12
    assert set(r["boundary_kind"] for r in rows) == {"lilub", "gm", "lilen", "fixed"}
    assert [r["t"] for r in rows[:4]] == ["600"] * 4
    for r in rows:
        assert 0.0 <= float(r["uniform_coverage"]) <= 1.0
        assert r["reps_effective"] == "8"


def test_coverage_json_format(tmp_path):
    out = tmp_path / "cov.json"
    res = run_cli(
        "coverage",
        "--iters",
        "800",
        "--reps",
        "4",
        "--start",
        "400",
        "--stride",
        "400",
        "--boundaries",
        "gm",
        "--format",
        "json",
        "--out",
        str(out),
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["metadata"]["experiment"] == "coverage"
    assert payload["metadata"]["config"]["eta0"] == 0.01
    assert len(payload["rows"]) == 2


def test_coverage_logistic_default_eta0(tmp_path):
    out = tmp_path / "cov.json"
    res = run_cli(
        "coverage",
        "--model",
        "logistic",
        "--iters",
        "600",
        "--reps",
        "4",
        "--start",
        "600",
        "--stride",
        "100",
        "--boundaries",
        "gm",
        "--format",
        "json",
        "--out",
        str(out),
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(out.read_text())["metadata"]["config"]["eta0"] == 0.5


# At these large steps some iterates stay finite while their gradient
# outer-product sums overflow. Such evaluations must be reported as
# unavailable, without a warning, instead of aborting the whole run.
STRICT = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}
OVERFLOW_ARGS = ("--iters", "3000", "--reps", "6", "--start", "2", "--stride", "1")


def test_coverage_overflowing_sums_count_as_unavailable(tmp_path):
    out = tmp_path / "cov.json"
    res = run_cli(
        "coverage", "--dim", "3", "--eta0", "2", *OVERFLOW_ARGS,
        "--format", "json", "--out", str(out), env=STRICT,
    )  # fmt: skip
    assert res.returncode == 0, res.stderr
    meta = json.loads(out.read_text())["metadata"]
    assert meta["unavailable_evaluations"] > 0
    assert meta["reps_effective"] + meta["divergent"]["count"] == 6


def test_coverage_all_diverged_exit_3(tmp_path):
    res = run_cli(
        "coverage", "--dim", "2", "--eta0", "5", *OVERFLOW_ARGS,
        "--out", str(tmp_path / "cov.csv"), env=STRICT,
    )  # fmt: skip
    assert res.returncode == 3
    assert "all repetitions diverged" in res.stderr


# ------------------------------------------------------------ gaussian-check


def test_gaussian_check_identity(tmp_path):
    out = tmp_path / "g.csv"
    res = run_cli(
        "gaussian-check",
        "--dim",
        "2",
        "--horizon",
        "200",
        "--reps",
        "40",
        "--boundaries",
        "gm,fixed",
        "--out",
        str(out),
    )
    assert res.returncode == 0, res.stderr
    rows = read_rows(out)
    assert len(rows) == 400
    assert rows[0]["t"] == "1"


def test_gaussian_check_tiny_alpha(tmp_path):
    # alpha^2 / e underflows to 0 here; the gm radius still exists
    out = tmp_path / "g.csv"
    res = run_cli(
        "gaussian-check",
        "--dim",
        "1",
        "--horizon",
        "100",
        "--reps",
        "10",
        "--alpha",
        "1e-170",
        "--boundaries",
        "gm",
        "--out",
        str(out),
    )
    assert res.returncode == 0, res.stderr
    rows = read_rows(out)
    assert len(rows) == 100
    assert all(0.0 < float(r["radius_mean"]) < math.inf for r in rows)
    assert all(r["uniform_coverage"] == "1" for r in rows)


def test_gaussian_check_fixed_at_tiny_alpha(tmp_path):
    # 1 - alpha/2 rounds to 1 at alpha = 1e-17; alpha/2 underflows at 5e-324
    args = ["gaussian-check", "--dim", "1", "--horizon", "100", "--reps", "10"]
    out = tmp_path / "g.csv"
    res = run_cli(*args, "--alpha", "1e-17", "--boundaries", "fixed", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert all(0.0 < float(r["radius_mean"]) < math.inf for r in read_rows(out))
    res = run_cli(*args, "--alpha", "5e-324", "--out", str(out))
    assert res.returncode == 2
    assert "alpha" in res.stderr


def test_gaussian_check_requires_dim_for_identity(tmp_path):
    res = run_cli("gaussian-check", "--out", str(tmp_path / "g.csv"))
    assert res.returncode == 2
    assert "dim" in res.stderr


# ------------------------------------------------------------------- rates


def test_rates_single_row_stdout():
    res = run_cli("rates", "--a", "0.45", "--p", "10", "--linear")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "a,lambda,p,d,linear,e1,e2,e3,e4,e5,overall,a_opt,r_opt,violation"
    assert lines[1] == "0.45,1,10,1,1,1,,0.725,0.725,0.725,0.725,0.45,0.725,"


def test_rates_inf_p_and_nonlinear():
    res = run_cli("rates", "--a", "0.7", "--nonlinear", "--lambda", "1.0")
    assert res.returncode == 0, res.stderr
    row = res.stdout.strip().split("\n")[1].split(",")
    assert row[2] == "inf"
    assert row[6] == "0.7"  # e2 = a (1 + lambda) / 2 with lambda = 1
    assert row[11] == "0.666666667" and row[12] == "0.666666667"


def test_rates_p_inf_spellings(capsys):
    tables = []
    for p in ("inf", "INF", " Infinity ", "1e400"):
        assert main(["rates", "--a", "0.7", "--nonlinear", "--p", p]) == 0
        tables.append(capsys.readouterr().out)
    assert len(set(tables)) == 1 and ",inf," in tables[0]


@pytest.mark.parametrize(
    "profile",
    [
        harness.rate_exponents(0.45, 1.0, 10.0, 1, linear=True),
        harness.rate_exponents(0.6, 0.5, 10.0, 3, linear=False),
    ],
    ids=["linear-admissible", "nonlinear-violation"],
)
def test_rate_profile_is_the_rates_row(capsys, profile):
    # the table's header is the profile's fields, lam written as lambda, and
    # its row is the profile's values in that order
    kind = "--linear" if profile.linear else "--nonlinear"
    argv = ["rates", "--a", repr(profile.a), "--lambda", repr(profile.lam)]
    assert main([*argv, "--p", repr(profile.p), "--dim", str(profile.d), kind]) == 0
    header, row = csv.reader(capsys.readouterr().out.splitlines())
    assert header == ["lambda" if n == "lam" else n for n in harness.RateProfile._fields]
    assert (profile.e2 is None) == profile.linear
    assert (profile.violation is None) == profile.linear
    for value, cell in zip(profile, row, strict=True):
        if value is None or isinstance(value, str):
            assert cell == (value or "")
        elif isinstance(value, bool):
            assert cell == str(int(value))
        else:
            assert float(cell) == float(f"{value:.9g}")


def test_rates_grid_and_out(tmp_path):
    out = tmp_path / "rates.csv"
    res = run_cli(
        "rates", "--grid", "0.55:0.95:9", "--p", "10", "--linear", "--out", str(out)
    )
    assert res.returncode == 0, res.stderr
    rows = read_rows(out)
    assert len(rows) == 9
    assert rows[0]["a"] == "0.55" and rows[-1]["a"] == "0.95"
    assert rows[-1]["violation"] == "a >= (p-1)/p"
    # stdout path prints the identical table
    res2 = run_cli("rates", "--grid", "0.55:0.95:9", "--p", "10", "--linear")
    assert res2.stdout == out.read_text()


def test_rates_requires_a_or_grid():
    res = run_cli("rates", "--linear")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_rates_takes_a_or_grid_not_both():
    # one of them would go unused
    res = run_cli("rates", "--a", "0.7", "--grid", "0.6:0.8:3", "--linear")
    assert res.returncode == 2 and not res.stdout
    assert "argument --grid: not allowed with argument --a" in res.stderr


def test_rates_rejects_bad_p():
    res = run_cli("rates", "--a", "0.7", "--p", "0.5", "--linear")
    assert res.returncode == 2


def test_rates_rejects_non_finite_a():
    res = run_cli("rates", "--a", "nan", "--linear")
    assert res.returncode == 2 and not res.stdout
    assert "step exponent a must be finite" in res.stderr


def test_rates_grid_steps_are_bounded(tmp_path):
    # checked before the grid is built: 10^12 steps would not fit in memory
    res = run_cli("rates", "--grid", "0.5:0.9:1000000000000", "--linear")
    assert res.returncode == 2 and not res.stdout
    assert "--grid takes at most 100000 steps" in res.stderr
    assert "Traceback" not in res.stderr
    out = tmp_path / "rates.csv"
    res = run_cli("rates", "--grid", "0.5:0.9:100001", "--linear", "--out", str(out))
    assert res.returncode == 2 and not out.exists()


def test_rates_parse_errors_name_the_option():
    res = run_cli("rates", "--grid", "0.5:0.9:x", "--linear")
    assert res.returncode == 2
    assert "--grid must look like A_LO:A_HI:STEPS, got '0.5:0.9:x'" in res.stderr
    res = run_cli("rates", "--a", "0.7", "--p", "abc", "--linear")
    assert res.returncode == 2
    assert "argument --p: invalid float value: 'abc'" in res.stderr


# --------------------------------------------------------------------- run


def test_run_trace_dyadic(tmp_path):
    out = tmp_path / "trace.csv"
    res = run_cli("run", "--iters", "512", "--out", str(out))
    assert res.returncode == 0, res.stderr
    rows = read_rows(out)
    assert [int(r["t"]) for r in rows] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    for r in rows:
        assert float(r["err_norm"]) >= 0.0
        if r["singular"] == "0":
            assert r["vhat_0_0"] != ""
        else:
            assert r["vhat_0_0"] == ""


def test_run_trace_every_k(tmp_path):
    out = tmp_path / "trace.csv"
    res = run_cli("run", "--iters", "1000", "--checkpoints", "every:300", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert [int(r["t"]) for r in read_rows(out)] == [300, 600, 900, 1000]


def test_run_trace_dim2_columns(tmp_path):
    out = tmp_path / "trace.csv"
    res = run_cli("run", "--dim", "2", "--iters", "64", "--out", str(out))
    assert res.returncode == 0, res.stderr
    with open(out) as fh:
        header = fh.readline().strip().split(",")
    assert header == [
        "t",
        "err_norm",
        "singular",
        "xbar_0",
        "xbar_1",
        "hhat_0_0",
        "hhat_0_1",
        "hhat_1_1",
        "shat_0_0",
        "shat_0_1",
        "shat_1_1",
        "vhat_0_0",
        "vhat_0_1",
        "vhat_1_1",
    ]


def test_run_zero_iters_writes_the_header_alone(tmp_path):
    # no checkpoint, so the trace has columns but no rows
    out = tmp_path / "trace.csv"
    assert main(["run", "--iters", "0", "--out", str(out)]) == 0
    assert out.read_text() == "t,err_norm,singular,xbar_0,hhat_0_0,shat_0_0,vhat_0_0\n"


def test_run_trace_overflowing_sums_marked_singular(tmp_path):
    # Same overflow as the coverage case above, on one trajectory: the
    # iterate stays finite, the accumulators do not. Those checkpoints are
    # written as singular with blank vhat_* instead of aborting the trace.
    out = tmp_path / "trace.csv"
    res = run_cli(
        "run", "--dim", "3", "--eta0", "2", "--iters", "3000",
        "--checkpoints", "every:1", "--out", str(out), env=STRICT,
    )  # fmt: skip
    assert res.returncode == 0, res.stderr
    rows = read_rows(out)
    assert len(rows) == 3000
    vhat = [c for c in rows[0] if c.startswith("vhat_")]
    assert any(r["singular"] == "1" for r in rows)
    for r in rows:
        blank = [r[c] == "" for c in vhat]
        assert all(blank) if r["singular"] == "1" else not any(blank)
        assert math.isfinite(float(r["err_norm"]))


def test_run_bad_checkpoint_spec(tmp_path):
    res = run_cli("run", "--iters", "100", "--checkpoints", "weekly", "--out", str(tmp_path / "t.csv"))
    assert res.returncode == 2


# ------------------------------------------------------------- exit codes


def test_unknown_subcommand_exit_2():
    res = run_cli("frobnicate")
    assert res.returncode == 2


def test_bad_boundary_kind_exit_2(tmp_path):
    res = run_cli(
        "coverage",
        "--iters",
        "100",
        "--reps",
        "2",
        "--boundaries",
        "banana",
        "--out",
        str(tmp_path / "x.csv"),
    )
    assert res.returncode == 2
    assert "unknown boundary kind" in res.stderr


@pytest.mark.parametrize("command", ["coverage", "gaussian-check"])
@pytest.mark.parametrize(
    "kinds, message",
    [
        ("gm,banana", "unknown boundary kind 'banana'"),
        ("gm,gm", "boundary kinds must be distinct"),
        (",", "at least one boundary kind"),
    ],
    ids=["unknown", "repeated", "empty"],
)
def test_bad_boundaries_exit_2_before_out(monkeypatch, capsys, command, kinds, message):
    # A bad --boundaries list is a configuration error, reported before an
    # unusable --out would exit 4.
    forbid_simulation(monkeypatch)
    args = [command, "--dim", "1", "--boundaries", kinds, "--out", "/no/such/dir/x.csv"]
    assert main(args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["gaussian-check", "--dim", "2", "--horizon", "0"], "horizon must be an integer >= 1, got 0"),
        (["gaussian-check", "--dim", "2", "--reps", "0"], "reps must be an integer >= 1, got 0"),
        (["gaussian-check", "--dim", "0"], "dim must be an integer >= 1, got 0"),
        (["gaussian-check", "--dim", "-1"], "dim must be an integer >= 1, got -1"),
        (["coverage", "--iters", "0"], "iters must be an integer >= 1, got 0"),
        (["coverage", "--dim", "0"], "dim must be an integer >= 1, got 0"),
        (["coverage", "--seed", "-1"], "seed must be an integer in [0, 2**64), got -1"),
        (
            ["gaussian-check", "--dim", "1", "--seed", "-1"],
            "seed must be an integer in [0, 2**64), got -1",
        ),
        (["rates", "--linear", "--a", "0.7", "--dim", "0"], "dim must be an integer >= 1, got 0"),
    ],
    ids=[
        "horizon", "reps", "dim", "negative-dim", "iters", "coverage-dim", "coverage-seed",
        "gaussian-seed", "rates-dim",
    ],
)  # fmt: skip
def test_bad_sizes_exit_2_before_out(monkeypatch, capsys, args, message):
    # A count below 1 or a seed outside [0, 2**64) is a configuration error
    # too.
    forbid_simulation(monkeypatch)
    assert main([*args, "--out", "/no/such/dir/x.csv"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["coverage", "gaussian-check"])
def test_boundary_shape_is_not_a_cli_option(capsys, command):
    # Both commands take --alpha and --boundaries only: the boundary shapes
    # (gm's t0 and lilen's eps_net) are the paper's, fixed in boundaries.
    args = [command, "--dim", "2", "--t0", "50", "--out", "x.csv"]
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(args)
    assert exc.value.code == 2
    assert "unrecognized arguments: --t0 50" in capsys.readouterr().err


def test_benchmark_argv_parses():
    # bench/ runs these command lines through sacs.cli.main, with --seed and
    # --out added, so a cut to the CLI must keep every one of them valid.
    bench = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "workloads.py"))
    workloads = [*bench["WORKLOADS"].values(), *bench["TINY"].values()]
    assert workloads
    for wl in workloads:
        args = cli.build_parser().parse_args([*wl.argv, "--seed", "0", "--out", "x.csv"])
        assert (args.command, args.seed, args.out) == (wl.argv[0], 0, "x.csv")


def test_bad_step_exponent_exit_2(tmp_path):
    res = run_cli(
        "coverage",
        "--iters",
        "100",
        "--reps",
        "2",
        "--a",
        "1.5",
        "--out",
        str(tmp_path / "x.csv"),
    )
    assert res.returncode == 2


def test_unwritable_out_exit_4():
    res = run_cli("rates", "--a", "0.7", "--linear", "--out", "/nonexistent-dir/x.csv")
    assert res.returncode == 4
    assert "i/o error" in res.stderr


def test_lost_worker_exit_4(monkeypatch, capsys, tmp_path):
    # A forked part that ends without a result fails the run with one line
    # and exit 4, like any other failed I/O, not with a traceback.
    monkeypatch.setattr(harness, "_WORKERS", 2)
    parent, lockstep = os.getpid(), harness.run_lockstep

    def dying_lockstep(*args):
        if os.getpid() != parent:
            os._exit(9)
        return lockstep(*args)

    monkeypatch.setattr(harness, "run_lockstep", dying_lockstep)
    out = tmp_path / "c.csv"
    args = ["coverage", "--iters", "300", "--reps", "200", "--start", "100", "--stride", "100"]
    assert main([*args, "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "i/o error: the process for repetitions 128..199 ended without a result "
        "(exit status 9)\n"
    )
    assert not out.exists()


def cap_address_space():
    # Run in the child before exec: with at most 4 GiB of address space the
    # first allocation fails on any host, whatever its overcommit policy.
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32))


@pytest.mark.parametrize(
    "args",
    [
        ["coverage", "--iters", "1000000000000", "--reps", "1"],
        ["gaussian-check", "--dim", "1", "--horizon", "1000000000000", "--reps", "1"],
        ["run", "--iters", "1000000000000", "--checkpoints", "every:1"],
    ],
    ids=lambda args: args[0],
)
def test_impossible_sizes_exit_2(tmp_path, args):
    # Sizes whose first array or list needs terabytes are a configuration
    # error: one line and exit 2, not a MemoryError traceback.
    out = tmp_path / "x.csv"
    res = run_cli(*args, "--out", str(out), preexec_fn=cap_address_space)
    assert res.returncode == 2
    assert res.stderr == "error: the run does not fit in memory; reduce its sizes\n"
    assert not out.exists()


SIMULATING_COMMANDS = pytest.mark.parametrize(
    "args",
    [
        ["coverage", "--iters", "200", "--reps", "2", "--start", "100"],
        ["gaussian-check", "--dim", "1", "--horizon", "100", "--reps", "2"],
        ["run", "--iters", "100"],
    ],
    ids=lambda args: args[0],
)


def forbid_simulation(monkeypatch):
    def fail(*a, **k):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr(harness, "run_coverage", fail)
    monkeypatch.setattr(harness, "run_gaussian_check", fail)
    monkeypatch.setattr(cli, "run_trajectory", fail)


@SIMULATING_COMMANDS
def test_unusable_out_exit_4_before_simulating(monkeypatch, capsys, args):
    forbid_simulation(monkeypatch)
    assert main([*args, "--out", "/no/such/dir/c.csv"]) == 4
    assert "/no/such/dir" in capsys.readouterr().err


@SIMULATING_COMMANDS
def test_out_directory_exit_4_before_simulating(monkeypatch, capsys, tmp_path, args):
    forbid_simulation(monkeypatch)
    assert main([*args, "--out", str(tmp_path)]) == 4
    assert "is a directory" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    args = [
        "coverage",
        "--iters",
        "900",
        "--reps",
        "6",
        "--start",
        "300",
        "--stride",
        "300",
        "--seed",
        "11",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


GOLDEN_CSV_SHA256 = [
    (
        "coverage --dim 1 --iters 800 --reps 20 --start 100 --stride 1 --seed 3",
        "c4ab7daf382943c828c9ddcfd4f0583951b36c616ff8ceedf161abd53b034e68",
    ),
    (
        "coverage --dim 3 --iters 1500 --reps 12 --start 500 --stride 50 "
        "--boundaries lilub,gm,lilen,fixed --seed 5",
        "02144bb14c98b8c24a16ea4531c3d5c6a2542e3c1decc7bea7bb9dfe8abbcc79",
    ),
    # 6 of the 20 repetitions diverge
    (
        "coverage --dim 1 --eta0 7 --iters 1000 --reps 20 --start 20 --stride 10",
        "176b7fe620f7396081f00268d5ea951c38b4a3c36daffe198c13d520789c1316",
    ),
    (
        "gaussian-check --dim 2 --horizon 500 --reps 60 --seed 2",
        "9368b2134cfe1554f84bc63303703bf285b4003403ccaa3e7e77db50d759314e",
    ),
    # 7,604 rows, written in several chunks of harness._CSV_CHUNK rows
    (
        "coverage --dim 1 --iters 2000 --reps 10 --start 100 --stride 1 --seed 7",
        "92a29fab9cb0deb0a96663eba624d4f273efefa969f13b1437207a0d528ab696",
    ),
    # a trace, whose vhat columns are the symmetrized sandwich
    (
        "run --dim 2 --iters 3000 --checkpoints every:500 --seed 3",
        "c06767c81d4f1ea8fcf45d1210aecc38f62fa090b856841e2f0cbfe2733ce3be",
    ),
    # a trace at every step, its 2,000 checkpoints in two of run_lockstep's
    # batches (1,820 and 180 steps at d = 3)
    (
        "run --dim 3 --iters 2000 --checkpoints every:1 --seed 1",
        "8984e54eca9610a264ab9618f6e520dc2055aeae18fba715a92552c71799fae7",
    ),
    # two time blocks (32,768 + 7,232 steps) and an odd repetition count
    (
        "gaussian-check --dim 2 --horizon 40000 --reps 7 --seed 5",
        "00117534fa697d706b945c0c50c3622b45968f568f799e32a81e1786f32e048e",
    ),
    # two time blocks (13,056 + 1,944 steps), with run_lockstep's chunk,
    # batch and block edges out of step
    (
        "coverage --dim 2 --iters 15000 --reps 40 --start 7 --stride 3 --seed 11",
        "57821d01744a59585effa8e898e2429c0f09e5c0a1501f826f06db40645f47bb",
    ),
    # the logistic Jacobian weight, at the matched step size
    (
        "coverage --model logistic --dim 2 --eta0 16.6 --iters 3000 --reps 20 "
        "--start 100 --stride 7 --seed 2",
        "66653424a1fae7d5cf60cb3b481b99744aae2ea117fbf8b42d86b6921af1c1f3",
    ),
    # a logistic trace: its hhat, shat and vhat columns carry the Jacobian
    # weight, at checkpoints out of step with run_lockstep's chunks
    (
        "run --model logistic --dim 2 --eta0 16.6 --iters 3000 --checkpoints every:7 --seed 4",
        "52034e4512388803531f57774b5d80da8a362db249ccc731154dcb22c3a6ce41",
    ),
    # d = 5: BLAS row groups, which run_lockstep's time blocks align to, and
    # lilen radii per repetition past d = 3
    (
        "coverage --dim 5 --iters 3000 --reps 12 --start 500 --stride 50 --seed 2",
        "e104f3a3bceeb76af52a3444da687e24eb944868d4f2b9648a12691eb422634c",
    ),
    # d = 1 and d = 3 Gaussian checks, one at its own alpha: standard normal
    # walks against the radii at kappa = 1
    (
        "gaussian-check --dim 1 --horizon 300 --reps 50 --seed 4",
        "99adea3315f09010e6e3c32f139064ac4d89ad19efec5df2f33ee00a860a7da3",
    ),
    (
        "gaussian-check --dim 3 --horizon 400 --reps 30 --alpha 0.1 --seed 6",
        "a4706b53a3797de32f6a08a55cbe29a1c5404d6873b3b374e54d583025097706",
    ),
]


@pytest.mark.parametrize("args, digest", GOLDEN_CSV_SHA256)
def test_golden_csv_digests(tmp_path, args, digest):
    """The sha256 of the CSVs of fourteen small runs stays fixed.

    The digests pin the output bits, so a change meant to keep them (a
    faster kernel, another block size) cannot alter them silently. They
    were taken with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64 with AVX-512;
    another numpy or BLAS build may round differently and then needs
    digests of its own.
    """
    out = tmp_path / "out.csv"
    res = run_cli(*args.split(), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_golden_json_digest(tmp_path):
    """The sha256 of a coverage report's JSON, less its wall_time_s line,
    stays fixed: the metadata (model, boundary specs as kind and alpha,
    divergence and availability counts) and the rows, with null for
    undefined values. Accumulator overflow at these settings leaves
    evaluations unavailable. Taken on the same build as GOLDEN_CSV_SHA256."""
    out = tmp_path / "out.json"
    res = run_cli(
        "coverage", "--dim", "3", "--eta0", "2", "--iters", "3000", "--reps", "6",
        "--start", "2", "--stride", "1", "--format", "json", "--out", str(out),
    )  # fmt: skip
    assert res.returncode == 0, res.stderr
    text, n = re.subn(r'\n *"wall_time_s": [^\n]*', "", out.read_text())
    assert n == 1
    assert '"t0"' not in text and '"eps_net"' not in text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7a3301105dc478d55586cb9d3a3d3d35579acc54fe31f1ca222b63c8d20c7f0a"
    )


def test_golden_rates_digests(tmp_path):
    """The sha256 of three multi-row rates tables stays fixed: a linear one
    on stdout, a nonlinear one with a finite p and lambda < 1 in a file,
    whose cells include every exponent, blanks, flags and violations, and a
    nonlinear d = 4 one, whose e5 takes the d >= 2 branch and whose rows
    are admissible or fail either bound on a."""
    res = run_cli("rates", "--grid", "0.55:0.95:9", "--p", "10", "--linear")
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
        "47b5fd1d2de7426832b9a0ab7b196e5a955c24e89b501c9910d133022674b20c"
    )
    out = tmp_path / "rates.csv"
    res = run_cli(
        "rates", "--grid", "0.6:0.95:8", "--nonlinear", "--lambda", "0.5", "--p", "4",
        "--out", str(out),
    )  # fmt: skip
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "cecb6c7a497946d814a2775b93614673687acc864ffadb7e4f30557152548598"
    )
    res = run_cli(
        "rates", "--grid", "0.3:0.99:50", "--nonlinear", "--lambda", "0.5", "--p", "10",
        "--dim", "4",
    )  # fmt: skip
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
        "546b606c0d1e839c929fd2e9659e868a55226ff186be6810ab448e68a65ae707"
    )


@pytest.mark.parametrize("workers", [None, 1, 3], ids=["subprocess", "main-1", "main-3"])
def test_golden_multi_group_digest(monkeypatch, tmp_path, workers):
    """300 repetitions are three groups of harness._GROUP, whose half-width
    sums are added in group order, so the report's sha256 is the same from
    the CLI on this machine's CPUs and from main on one or three processes.
    Taken on the same build as GOLDEN_CSV_SHA256."""
    args = "coverage --dim 2 --iters 400 --reps 300 --start 50 --stride 10 --seed 9".split()
    out = tmp_path / "out.csv"
    if workers is None:
        res = run_cli(*args, "--out", str(out))
        assert res.returncode == 0, res.stderr
    else:
        monkeypatch.setattr(harness, "_WORKERS", workers)
        assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "e937e2599db35533b8b8db6cb6d12977fa3e8b4c2c583a42b2572efb3fa5dfd9"
    )


# ------------------------------------------------------------ dependencies


def test_commands_run_with_numpy_alone(tmp_path):
    # numpy is the one runtime dependency: with the test-only packages made
    # unimportable, every command runs at a tiny size and exits 0
    script = (
        "import json, sys\n"
        "sys.modules.update(dict.fromkeys(('scipy', 'hypothesis', 'pytest')))\n"
        "from sacs.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    if main(argv):\n"
        "        sys.exit(f'{argv[0]} failed')\n"
    )
    commands = [
        ["coverage", "--iters", "300", "--reps", "4", "--start", "100", "--stride", "100"],
        ["gaussian-check", "--dim", "2", "--horizon", "50", "--reps", "4"],
        ["rates", "--a", "0.45", "--p", "10", "--linear"],
        ["run", "--iters", "64"],
    ]
    argvs = [argv + ["--out", str(tmp_path / f"{i}.csv")] for i, argv in enumerate(commands)]
    res = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert res.returncode == 0, res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0.csv", "1.csv", "2.csv", "3.csv"]
