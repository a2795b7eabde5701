"""Command line interface.

Subcommands:
  coverage        Monte Carlo time-uniform coverage for the built-in models
  gaussian-check  boundary coverage on exact Gaussian running means
  rates           error-exponent table for a step schedule (stdout or CSV)
  run             single-trajectory checkpoint trace

Exit codes: 0 success, 2 configuration or validation error, 3 numerical
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import harness
from .boundaries import KINDS, BoundarySpec
from .numerics import NumericalError
from .sa_engine import StepSchedule, default_model, rng_stream, run_trajectory

__all__ = ["build_parser", "main"]

_DEFAULT_ETA0 = {"linear": 0.01, "logistic": 0.5}


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("linear", "logistic"), default="linear")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--a", type=float, default=0.67)
    p.add_argument(
        "--eta0",
        type=float,
        default=None,
        help="initial step size (default: 0.01 linear, 0.5 logistic)",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sacs",
        description=(
            "Anytime-valid confidence sequences for averaged stochastic "
            "approximation iterates."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser(
        "coverage", help="Monte Carlo time-uniform coverage for a built-in model"
    )
    _add_model_args(c)
    c.add_argument("--alpha", type=float, default=0.05)
    c.add_argument("--iters", type=int, default=20000)
    c.add_argument("--reps", type=int, default=500)
    c.add_argument("--start", type=int, default=1000)
    c.add_argument("--stride", type=int, default=10)
    c.add_argument("--boundaries", default="lilub,gm,lilen,fixed")
    c.add_argument("--t0", type=float, default=100.0)
    c.add_argument("--eps-net", dest="eps_net", type=float, default=0.5)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--out", required=True)

    g = sub.add_parser(
        "gaussian-check", help="boundary coverage on exact Gaussian running means"
    )
    g.add_argument("--dim", type=int, default=None)
    g.add_argument(
        "--cov",
        default="identity",
        help="'identity' or a file: first line d, then d rows of d reals",
    )
    g.add_argument("--alpha", type=float, default=0.05)
    g.add_argument("--horizon", type=int, default=10000)
    g.add_argument("--reps", type=int, default=1000)
    g.add_argument("--boundaries", default="lilub,gm,lilen,fixed")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    r = sub.add_parser("rates", help="error-exponent table for a step schedule")
    r.add_argument("--a", type=float, default=None)
    r.add_argument("--lambda", dest="lam", type=float, default=1.0)
    r.add_argument("--p", default="inf", help="moment order, a real > 1 or 'inf'")
    r.add_argument("--dim", type=int, default=1)
    kind = r.add_mutually_exclusive_group(required=True)
    kind.add_argument("--linear", action="store_true")
    kind.add_argument("--nonlinear", action="store_true")
    r.add_argument("--grid", default=None, help="A_LO:A_HI:STEPS grid over a")
    r.add_argument("--out", default=None, help="CSV path (default: stdout)")

    t = sub.add_parser("run", help="single-trajectory checkpoint trace")
    _add_model_args(t)
    t.add_argument("--iters", type=int, default=20000)
    t.add_argument(
        "--checkpoints", default="dyadic", help="'dyadic' or 'every:K' (K a step count)"
    )
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True)
    return p


def _parse_kinds(text: str) -> tuple[str, ...]:
    kinds = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not kinds:
        raise ValueError("--boundaries must name at least one boundary kind")
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown boundary kind {kind!r}; choose from {KINDS}")
    if len(set(kinds)) != len(kinds):
        raise ValueError("--boundaries must not repeat a kind")
    return kinds


def _check_out(path: str) -> None:
    """Raise OSError if path is a directory or its directory does not exist
    or is not writable, so an unusable --out fails before the simulation
    rather than after it. The file itself is neither created nor truncated
    here."""
    if Path(path).is_dir():
        raise OSError(f"cannot write {path}: it is a directory")
    parent = Path(path).parent
    if not (parent.is_dir() and os.access(parent, os.W_OK)):
        raise OSError(f"cannot write {path}: {parent} is not a writable directory")


def _schedule(args) -> StepSchedule:
    eta0 = args.eta0 if args.eta0 is not None else _DEFAULT_ETA0[args.model]
    return StepSchedule(eta0=eta0, a=args.a)


def _cmd_coverage(args) -> int:
    model = default_model(args.model, args.dim)
    specs = tuple(
        BoundarySpec(kind, args.alpha, t0=args.t0, eps_net=args.eps_net)
        for kind in _parse_kinds(args.boundaries)
    )
    cfg = harness.ExperimentConfig(
        model=model,
        schedule=_schedule(args),
        iters=args.iters,
        reps=args.reps,
        start=args.start,
        stride=args.stride,
        boundaries=specs,
        seed=args.seed,
    )
    _check_out(args.out)
    report = harness.run_coverage(cfg)
    harness.emit_report(report, args.format, args.out)
    return 0


def _read_cov(path: str) -> np.ndarray:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"covariance file {path} is empty")
    try:
        d = int(lines[0])
    except ValueError:
        raise ValueError(f"covariance file {path}: first line must be the dimension")
    if d < 1 or len(lines) != d + 1:
        raise ValueError(f"covariance file {path}: expected {d} matrix rows")
    rows = []
    for k, ln in enumerate(lines[1:], 1):
        try:
            rows.append([float(tok) for tok in ln.split()])
        except ValueError as e:
            raise ValueError(f"covariance file {path}: matrix row {k}: {e}") from None
        if len(rows[-1]) != d:
            raise ValueError(f"covariance file {path}: matrix row {k} needs {d} entries")
    a = np.array(rows)
    if not np.isfinite(a).all():
        raise ValueError(f"covariance file {path}: entries must be finite")
    # Tolerate round-off in printed digits, not a different upper triangle.
    if np.max(np.abs(a - a.T)) > 1e-9 * np.max(np.abs(a)):
        raise ValueError(f"covariance file {path}: matrix is not symmetric")
    return 0.5 * (a + a.T)


def _cmd_gaussian_check(args) -> int:
    if args.cov == "identity":
        if args.dim is None:
            raise ValueError("--dim is required when --cov is 'identity'")
        v = np.eye(args.dim)
    else:
        v = _read_cov(args.cov)
        if args.dim is not None and args.dim != len(v):
            raise ValueError(f"--dim {args.dim} disagrees with file dimension {len(v)}")
    kinds = _parse_kinds(args.boundaries)
    _check_out(args.out)
    report = harness.run_gaussian_check(
        v, args.alpha, args.horizon, args.reps, kinds, seed=args.seed
    )
    harness.emit_report(report, "csv", args.out)
    return 0


def _profile_csv(profiles) -> str:
    names = [f.name for f in dataclasses.fields(harness.RateProfile)]

    def fmt(x) -> str:
        if x is None:
            return ""
        if isinstance(x, bool):
            return str(int(x))
        if isinstance(x, float):
            return "inf" if math.isinf(x) else format(x, ".9g")
        return str(x)

    lines = [",".join("lambda" if n == "lam" else n for n in names)]
    for pr in profiles:
        lines.append(",".join(fmt(getattr(pr, n)) for n in names))
    return "\n".join(lines) + "\n"


def _cmd_rates(args) -> int:
    p = float(args.p)
    if args.grid is not None:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise ValueError("--grid must look like A_LO:A_HI:STEPS")
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
        if steps < 1:
            raise ValueError("--grid needs at least one step")
        a_values = np.linspace(lo, hi, steps)
    elif args.a is not None:
        a_values = [args.a]
    else:
        raise ValueError("either --a or --grid is required")
    profiles = [
        harness.rate_exponents(float(a), args.lam, p, args.dim, args.linear)
        for a in a_values
    ]
    text_out = _profile_csv(profiles)
    if args.out is None:
        sys.stdout.write(text_out)
    else:
        try:
            Path(args.out).write_text(text_out)
        except OSError as e:
            raise OSError(f"cannot write table to {args.out}: {e}") from e
    return 0


def _checkpoint_list(spec: str, iters: int) -> list[int]:
    if spec == "dyadic":
        out = [2**k for k in range(iters.bit_length())]
    elif spec.startswith("every:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad checkpoint spec {spec!r}")
        if k < 1:
            raise ValueError("checkpoint interval must be >= 1")
        out = list(range(k, iters + 1, k))
    else:
        raise ValueError(f"--checkpoints must be 'dyadic' or 'every:K', got {spec!r}")
    if iters >= 1 and out[-1:] != [iters]:
        out.append(iters)
    return out


def _trace_csv(trace, dim: int) -> str:
    cols = ["t", "err_norm", "singular"]
    cols += [f"xbar_{i}" for i in range(dim)]
    upper = [(i, j) for i in range(dim) for j in range(i, dim)]
    for name in ("hhat", "shat", "vhat"):
        cols += [f"{name}_{i}_{j}" for i, j in upper]
    lines = [",".join(cols)]
    for pt in trace:
        vals = [str(pt.t), format(pt.err_norm, ".9g"), str(int(pt.sandwich is None))]
        vals += [format(x, ".9g") for x in pt.xbar]
        for mat in (pt.h_hat, pt.s_hat):
            vals += [format(mat[i, j], ".9g") for i, j in upper]
        if pt.sandwich is None:
            vals += ["" for _ in upper]
        else:
            vals += [format(pt.sandwich[i, j], ".9g") for i, j in upper]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    model = default_model(args.model, args.dim)
    if args.iters < 0:
        raise ValueError(f"--iters must be >= 0, got {args.iters}")
    checkpoints = _checkpoint_list(args.checkpoints, args.iters)
    schedule, rng = _schedule(args), rng_stream(args.seed, 0)
    _check_out(args.out)
    trace = run_trajectory(model, schedule, args.iters, checkpoints, rng=rng)
    text = _trace_csv(trace, model.dim)
    try:
        Path(args.out).write_text(text)
    except OSError as e:
        raise OSError(f"cannot write trace to {args.out}: {e}") from e
    return 0


_COMMANDS = {
    "coverage": _cmd_coverage,
    "gaussian-check": _cmd_gaussian_check,
    "rates": _cmd_rates,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4
