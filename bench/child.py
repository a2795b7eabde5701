"""One benchmark sample: a fresh interpreter that runs `sacs.cli.main` once.

    python3 bench/child.py --launched <monotonic s> --meta <file>
        [--trace <spans file>] [--setup-only] -- <sacs CLI arguments>

Writes to --meta a JSON object with the set-up time (launch to just
before cli.main), the wall time of cli.main, its return code and the
process's peak resident memory. With --trace, public sacs functions are
wrapped first and the spans are written to that file at the end. With
--setup-only, everything up to the cli.main call happens and the call is
skipped.
"""

import argparse
import json
import resource
import sys
import time

import sacs.cli

import spans


def versions() -> dict:
    """Python, numpy and BLAS versions, and the BLAS thread count in effect."""
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    out = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
    }
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                out["blas_threads"] = getter()
                break
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    rec = None
    if args.trace is not None:
        rec = spans.Recorder()
        spans.install(rec)
    meta = {"setup_s": time.monotonic() - args.launched}
    if not args.setup_only:
        start = time.perf_counter()
        if rec is None:
            code = sacs.cli.main(argv)
        else:
            code = rec.span("cli.main", sacs.cli.main, argv)
        meta["wall_s"] = time.perf_counter() - start
        meta["returncode"] = code
    meta["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    meta["csv_columns"] = list(sacs.harness.CSV_COLUMNS)
    if args.setup_only:
        meta["versions"] = versions()
    if rec is not None:
        rec.dump(args.trace)
    with open(args.meta, "w") as fh:
        json.dump(meta, fh)
    return meta.get("returncode", 0)


if __name__ == "__main__":
    sys.exit(main())
