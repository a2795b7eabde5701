"""Capture the seed-independent radius_mean reference of every workload.

    python3 bench/capture_reference.py

Runs each workload (and its tiny self-test version) once through the CLI
and stores radius_mean, exactly as printed, at up to ~200 grid steps per
workload (the first ten, every k-th and the last) for the kinds whose
radius does not depend on the seed. The benchmark compares later outputs
against bench/reference.json to RADIUS_RTOL.
"""

import json
import shutil
import sys

from run import REFERENCE, WORK, run_child
from workloads import TINY, WORKLOADS


def main() -> int:
    work = WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = {}
    for wl in (*WORKLOADS.values(), *TINY.values()):
        sample, csv_path, _ = run_child(wl, 0, "ref", work, timeout=170)
        if not sample.ok:
            print(f"{wl.name}: {sample.failure}", file=sys.stderr)
            return 1
        lines = csv_path.read_text().splitlines()
        col = {name: i for i, name in enumerate(lines[0].split(","))}
        n = len(wl.grid)
        keep = sorted({*range(min(n, 10)), *range(0, n, max(1, n // 200)), n - 1})
        ts = [wl.grid[i] for i in keep]
        radius = {}
        for ln in lines[1:]:
            r = ln.split(",")
            radius[(int(r[col["t"]]), r[col["boundary_kind"]])] = r[col["radius_mean"]]
        out[wl.name] = {
            "t": ts,
            "radius_mean": {k: [radius[(t, k)] for t in ts] for k in wl.ref_kinds},
        }
        print(f"{wl.name}: {len(ts)} steps x {len(wl.ref_kinds)} kinds")
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in out.items())
    REFERENCE.write_text("{\n" + body + "\n}\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
