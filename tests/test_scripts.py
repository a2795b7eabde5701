"""Every experiment script in scripts/ imports, parses its arguments and
runs once at tiny scale."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))

# Tiny arguments per script, and the exit codes that count as a run.
TINY_RUNS = {
    "coverage_experiment.py": (
        ["--iters", "300", "--reps", "4", "--start", "100", "--stride", "100"],
        (0,),
    ),
    # 1 is the script's "LOW" verdict, which 20 paths may well reach
    "gaussian_oracle.py": (["--horizon", "200", "--reps", "20"], (0, 1)),
}


def run_script(script, *args):
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, timeout=120
    )


def test_scripts_found():
    assert SCRIPTS
    assert sorted(TINY_RUNS) == [p.name for p in SCRIPTS]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_runs(script):
    res = run_script(script, "--help")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage:")


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_tiny_run(script, tmp_path):
    args, codes = TINY_RUNS[script.name]
    out = tmp_path / "out.csv"
    if script.name == "coverage_experiment.py":
        args = [*args, "--out", str(out)]
    res = run_script(script, *args)
    assert res.returncode in codes, res.stderr
    if script.name == "gaussian_oracle.py":
        assert "worst time-uniform coverage" in res.stdout
    else:
        # grid 100, 200, 300 times four kinds
        assert f"wrote 12 rows to {out}" in res.stdout
        assert len(out.read_text().splitlines()) == 13
