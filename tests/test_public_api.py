"""The package namespace re-exports exactly the library modules' public names."""

import dataclasses
import importlib
import inspect

import sacs
from sacs import boundaries, covariance, harness, numerics, sa_engine

MODULES = (numerics, sa_engine, covariance, boundaries, harness)

# Scalar radii duplicated radius_grid; the oracles now live in tests/helpers.py.
# Plain arrays and generators replaced SymMatrix and RngStream; whiten and
# radius_grid replaced the scalar evaluate path; CSV is only streamed. The
# Lambert W solver gave way to a Newton root in lambda_star, and the radius
# formulas' special functions are private to boundaries.
REMOVED = (
    "radius_lil_ub",
    "radius_gm",
    "radius_lil_en",
    "radius_fixed",
    "gm_mixture_martingale",
    "gm_volume_objective",
    "plugin_rate_exponent",
    "fit_rate",
    "SymMatrix",
    "RngStream",
    "evaluate",
    "CsEvaluation",
    "UndefinedBoundaryError",
    "report_to_csv",
    "lambert_w_m1",
    "normal_quantile",
    "c_d_constant",
)


def test_all_is_the_union_of_the_modules():
    union = {name for m in MODULES for name in m.__all__}
    assert set(sacs.__all__) == union | {"__version__"}
    assert len(sacs.__all__) == len(set(sacs.__all__))


def test_every_exported_name_resolves():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(sacs, name) is getattr(m, name), name
    assert isinstance(sacs.__version__, str)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in sacs.__all__
        assert not hasattr(sacs, name), name
        assert not any(hasattr(m, name) for m in MODULES), name


def test_numerics_is_only_the_eigen_kernel():
    assert numerics.__all__ == [
        "NumericalError",
        "SingularMatrixError",
        "PD_RTOL",
        "pd_eigh",
        "Whitening",
        "whiten",
    ]


def test_names_the_benchmark_tracer_binds():
    # bench/spans.py binds run_lockstep's arguments by name and wraps the
    # run_lockstep that harness looks up; bench/spans.py and bench/child.py
    # read a report's rows, CSV_COLUMNS and sacs.covariance
    params = inspect.signature(sa_engine.run_lockstep).parameters
    assert {"model", "T", "gens", "visit"} <= set(params)
    assert harness.run_lockstep is sa_engine.run_lockstep
    assert isinstance(harness.CSV_COLUMNS, tuple)
    assert isinstance(harness.CoverageReport.rows, property)
    assert importlib.import_module("sacs.covariance") is covariance


def test_no_parameter_that_only_tests_set():
    # every caller started the recursion at 0, used every coordinate and
    # the unscaled radii, and read singularity off the missing sandwich
    def params(fn):
        return set(inspect.signature(fn).parameters)

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert "x0" not in params(sa_engine.run_lockstep)
    assert "x0" not in params(sa_engine.run_trajectory)
    assert "radius_scale" not in params(harness.run_gaussian_check)
    assert "subset" not in fields(harness.ExperimentConfig)
    assert "singular" not in fields(sa_engine.TrajectoryPoint)
