"""Monte Carlo coverage experiment for the built-in regression models.

Runs the averaged SA recursion under a chosen model, evaluates every
boundary family on the plug-in sandwich estimate over a step grid, and
prints a per-family summary (uniform coverage at the end of the grid,
radius shrinkage across it). The full row table goes to --out as CSV.

Desk scale by default; the full-scale run is
    python scripts/coverage_experiment.py --iters 150000 --reps 1000
and takes a few minutes per model.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sacs import (  # noqa: E402
    BoundarySpec,
    ExperimentConfig,
    StepSchedule,
    default_model,
    emit_report,
    run_coverage,
)

DEFAULT_ETA0 = {"linear": 0.01, "logistic": 0.5}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--model", choices=("linear", "logistic"), default="linear")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--a", type=float, default=0.67)
    p.add_argument("--eta0", type=float, default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--iters", type=int, default=20000)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--start", type=int, default=1000)
    p.add_argument("--stride", type=int, default=100)
    p.add_argument("--kinds", default="lilub,gm,lilen,fixed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV path (default: no file)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    eta0 = DEFAULT_ETA0[args.model] if args.eta0 is None else args.eta0
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    cfg = ExperimentConfig(
        model=default_model(args.model, args.dim),
        schedule=StepSchedule(eta0=eta0, a=args.a),
        iters=args.iters,
        reps=args.reps,
        start=args.start,
        stride=args.stride,
        boundaries=tuple(BoundarySpec(kind=k, alpha=args.alpha) for k in kinds),
        seed=args.seed,
    )

    t_start = time.perf_counter()
    report = run_coverage(cfg)
    elapsed = time.perf_counter() - t_start

    meta = report.metadata
    print(
        f"{args.model} d={args.dim}: {args.reps} reps x {args.iters} steps, "
        f"eta_t = {eta0} * (t+1)^(-{args.a}), alpha = {args.alpha} "
        f"[{elapsed:.1f}s]"
    )
    divergent = meta["divergent"]["count"]
    if divergent:
        print(f"  excluded {divergent} divergent repetition(s)")

    by_kind: dict[str, list] = {}
    for row in report.rows:
        by_kind.setdefault(row.boundary_kind, []).append(row)
    print(f"  {'kind':<6} {'uniform@end':>12} {'fixed@end':>10} {'radius@start':>13} {'radius@end':>11}")
    for kind in kinds:
        rows = by_kind[kind]
        first, last = rows[0], rows[-1]
        print(
            f"  {kind:<6} {last.uniform_coverage:>12.3f} {last.fixed_coverage:>10.3f}"
            f" {first.radius_mean:>13.4g} {last.radius_mean:>11.4g}"
        )
    target = 1.0 - args.alpha
    print(f"  nominal level: {target:.3f} (time-uniform kinds should sit at or above it)")

    if args.out is not None:
        emit_report(report, "csv", args.out)
        print(f"  wrote {len(report.rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
