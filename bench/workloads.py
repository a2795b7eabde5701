"""The benchmark's workloads: fixed sacs CLI invocations and what their
outputs must satisfy. The seed is not part of a workload; the benchmark
passes it through as --seed.

Every workload uses the CLI's default linear step size (eta0 = 0.01).
The known overflow abort at --dim 3 --eta0 2 is a correctness item with
its own regression test, not a performance workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALPHA = 0.05
KINDS = ("lilub", "gm", "lilen", "fixed")
TIME_UNIFORM = ("lilub", "gm", "lilen")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # sacs CLI arguments without --seed and --out
    steps: int  # reps x iters (coverage) or reps x horizon (gaussian-check)
    grid: range  # evaluated steps; the CSV has len(grid) x len(KINDS) rows
    # Kinds whose radius_mean does not depend on the seed. lilen's radius
    # depends on each repetition's estimated condition number when d > 1.
    ref_kinds: tuple[str, ...] = KINDS
    # Time-uniform coverage this code reaches at this size, for the kinds
    # where it is below 1 - ALPHA. The guarantee is asymptotic: with the
    # default eta0 the plug-in is still biased early on, most at d = 3.
    # Measured once per workload with many more repetitions (see each entry).
    levels: dict = field(default_factory=dict)


def coverage(name, dim, iters, reps, start, stride, levels=None) -> Workload:
    argv = (
        "coverage", "--model", "linear", "--dim", str(dim), "--iters", str(iters),
        "--reps", str(reps), "--start", str(start), "--stride", str(stride),
        "--alpha", str(ALPHA), "--boundaries", ",".join(KINDS),
    )  # fmt: skip
    ref_kinds = KINDS if dim == 1 else tuple(k for k in KINDS if k != "lilen")
    grid = range(start, iters + 1, stride)
    return Workload(name, argv, reps * iters, grid, ref_kinds, levels or {})


def gaussian(name, dim, horizon, reps) -> Workload:
    argv = (
        "gaussian-check", "--dim", str(dim), "--horizon", str(horizon),
        "--reps", str(reps), "--alpha", str(ALPHA), "--boundaries", ",".join(KINDS),
    )  # fmt: skip
    return Workload(name, argv, reps * horizon, range(1, horizon + 1))


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance config: four 125-rep chunks of the per-step Python
        # recursion, 76,004 d=1 visits, a 3.6 MB CSV and no Jacobi solves.
        coverage("cov-d1", dim=1, iters=20000, reps=500, start=1000, stride=1),
        # Evaluation-bound: 30,060 Jacobi solves and per-rep lilen radii;
        # recursion and draws are under 1% of the time.
        # Levels: 420/450 (lilub) and 378/450 (gm) over seeds 7 and 11.
        coverage("cov-d3", dim=3, iters=6000, reps=30, start=1000, stride=10,
                 levels={"lilub": 0.93, "gm": 0.84}),
        # No recursion and no plug-in: vectorised draws, cumsum, whitening,
        # prefix reductions and 40,000 emitted rows.
        gaussian("gauss-d2", dim=2, horizon=10000, reps=4000),
    )
}

# Small versions of the same three shapes, for the benchmark's self-test.
TINY = {
    w.name: w
    for w in (
        # Levels: gm 1789/2000 (seed 3).
        coverage("tiny-cov-d1", dim=1, iters=2000, reps=40, start=100, stride=1,
                 levels={"gm": 0.89}),
        # Levels: lilub 520/600 and gm 413/600 (seed 3).
        coverage("tiny-cov-d3", dim=3, iters=1500, reps=20, start=500, stride=50,
                 levels={"lilub": 0.86, "gm": 0.68}),
        gaussian("tiny-gauss-d2", dim=2, horizon=500, reps=200),
    )
}
