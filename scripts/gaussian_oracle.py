"""Boundary calibration check on exact Gaussian running means.

Removes the SA recursion and the plug-in estimate from the picture: the
target process is the running mean of i.i.d. N(0, v) vectors, whose
normalized deviation is exactly what the boundaries are calibrated for.
Every time-uniform family should then cover at or above 1 - alpha over
the whole horizon, and the fixed-time baseline should visibly fail.

Covariance configs swept: identity d=1, identity d=2, and a correlated
2x2 with condition number 3.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sacs import run_gaussian_check  # noqa: E402

CONFIGS = (
    ("identity d=1", np.eye(1)),
    ("identity d=2", np.eye(2)),
    ("correlated d=2", np.array([[2.0, 1.0], [1.0, 2.0]])),
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--horizon", type=int, default=10000)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--kinds", default="lilub,gm,lilen,fixed")
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    target = 1.0 - args.alpha
    print(
        f"Gaussian oracle: {args.reps} paths to t = {args.horizon}, "
        f"alpha = {args.alpha} (target {target:.2f})"
    )

    worst = 1.0
    for label, v in CONFIGS:
        report = run_gaussian_check(v, args.alpha, args.horizon, args.reps, kinds, seed=args.seed)
        end = slice(-len(kinds), None)
        cov_by_kind = dict(
            zip(report.boundary_kind[end].tolist(), report.uniform_coverage[end].tolist())
        )
        parts = []
        for kind in kinds:
            cov = cov_by_kind[kind]
            parts.append(f"{kind}={cov:.3f}")
            if kind != "fixed":
                worst = min(worst, cov)
        print(f"  {label:<15} uniform@end: {', '.join(parts)}")

    status = "OK" if worst >= target else "LOW"
    print(f"worst time-uniform coverage {worst:.3f} vs target {target:.2f}: {status}")
    return 0 if worst >= target else 1


if __name__ == "__main__":
    raise SystemExit(main())
