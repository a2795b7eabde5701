"""Command line interface.

Subcommands:
  coverage        Monte Carlo time-uniform coverage for the built-in models
  gaussian-check  boundary coverage on exact Gaussian running means
  rates           error-exponent table for a step schedule (stdout or CSV)
  run             single-trajectory checkpoint trace

Exit codes: 0 success, 2 configuration or validation error, 3 numerical
failure, 4 I/O error (a worker process lost without a result included).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import harness
from .boundaries import KINDS, BoundarySpec
from .covariance import NumericalError
from .sa_engine import MODEL_KINDS, ModelSpec, StepSchedule, rng_stream, run_trajectory

__all__ = ["build_parser", "main"]

_DEFAULT_ETA0 = {"linear": 0.01, "logistic": 0.5}


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=MODEL_KINDS, default="linear")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--a", type=float, default=0.67)
    p.add_argument(
        "--eta0",
        type=float,
        default=None,
        help="initial step size (default: 0.01 linear, 0.5 logistic)",
    )


def _add_boundary_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--boundaries", default=",".join(KINDS))


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
    _add_boundary_args(c)
    c.add_argument("--iters", type=int, default=20000)
    c.add_argument("--reps", type=int, default=500)
    c.add_argument("--start", type=int, default=1000)
    c.add_argument("--stride", type=int, default=10)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--out", required=True)

    g = sub.add_parser(
        "gaussian-check", help="boundary coverage on exact Gaussian running means"
    )
    g.add_argument("--dim", type=int, required=True)
    _add_boundary_args(g)
    g.add_argument("--horizon", type=int, default=10000)
    g.add_argument("--reps", type=int, default=1000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    r = sub.add_parser("rates", help="error-exponent table for a step schedule")
    a_or_grid = r.add_mutually_exclusive_group(required=True)
    a_or_grid.add_argument("--a", type=float)
    a_or_grid.add_argument("--grid", help="A_LO:A_HI:STEPS grid over a")
    r.add_argument("--lambda", dest="lam", type=float, default=1.0)
    r.add_argument(
        "--p", type=float, default="inf", help="moment order, a real > 1 or 'inf'"
    )
    r.add_argument("--dim", type=int, default=1)
    kind = r.add_mutually_exclusive_group(required=True)
    kind.add_argument("--linear", action="store_true")
    kind.add_argument("--nonlinear", action="store_true")
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


def _specs(args) -> tuple:
    # --boundaries's kinds at --alpha; BoundarySpec and the harness check them.
    kinds = (tok.strip() for tok in args.boundaries.split(","))
    return tuple(BoundarySpec(kind, args.alpha) for kind in kinds if kind)


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
    cfg = harness.ExperimentConfig(
        model=ModelSpec(args.model, args.dim),
        schedule=_schedule(args),
        iters=args.iters,
        reps=args.reps,
        start=args.start,
        stride=args.stride,
        boundaries=_specs(args),
        seed=args.seed,
    )
    _check_out(args.out)
    report = harness.run_coverage(cfg)
    harness.emit_report(report, args.format, args.out)
    return 0


def _cmd_gaussian_check(args) -> int:
    specs = _specs(args)
    # The inputs are checked before --out, as for coverage: a bad one exits 2.
    harness._gaussian_inputs(args.dim, args.horizon, args.reps, specs, args.seed)
    _check_out(args.out)
    report = harness.run_gaussian_check(args.dim, args.horizon, args.reps, specs, seed=args.seed)
    harness.emit_report(report, "csv", args.out)
    return 0


def _cell(x) -> str:
    """A CSV cell: None is blank, a bool 0 or 1, a float to 9 digits."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


def _csv(rows) -> str:
    return "".join(",".join(map(_cell, row)) + "\n" for row in rows)


def _write(text: str, path) -> None:
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e


def _profile_csv(profiles) -> str:
    names = [f.name for f in dataclasses.fields(harness.RateProfile)]
    header = ["lambda" if n == "lam" else n for n in names]
    return _csv([header, *map(dataclasses.astuple, profiles)])


def _cmd_rates(args) -> int:
    if args.grid is not None:
        try:
            lo, hi, steps = args.grid.split(":")
            lo, hi, steps = float(lo), float(hi), int(steps)
        except ValueError:
            raise ValueError(
                f"--grid must look like A_LO:A_HI:STEPS, got {args.grid!r}"
            ) from None
        if steps < 1:
            raise ValueError("--grid needs at least one step")
        a_values = np.linspace(lo, hi, steps)
    else:
        a_values = [args.a]
    profiles = [
        harness.rate_exponents(float(a), args.lam, args.p, args.dim, args.linear)
        for a in a_values
    ]
    _write(_profile_csv(profiles), args.out)
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
    rows = [cols]
    for pt in trace:
        row = [pt.t, pt.err_norm, pt.sandwich is None, *pt.xbar]
        for mat in (pt.h_hat, pt.s_hat, pt.sandwich):
            row += [None if mat is None else mat[i, j] for i, j in upper]
        rows.append(row)
    return _csv(rows)


def _cmd_run(args) -> int:
    model = ModelSpec(args.model, args.dim)
    if args.iters < 0:
        raise ValueError(f"--iters must be >= 0, got {args.iters}")
    checkpoints = _checkpoint_list(args.checkpoints, args.iters)
    schedule, rng = _schedule(args), rng_stream(args.seed, 0)
    _check_out(args.out)
    trace = run_trajectory(model, schedule, args.iters, checkpoints, rng=rng)
    _write(_trace_csv(trace, model.dim), args.out)
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
