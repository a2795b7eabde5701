"""The package namespace re-exports exactly the library modules' public names."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import sacs
from sacs import boundaries, covariance, harness, sa_engine

MODULES = (covariance, sa_engine, boundaries, harness)

# Scalar radii duplicated radius_grid; the oracles now live in tests/helpers.py.
# Plain arrays and generators replaced SymMatrix and RngStream; whiten and
# radius_grid replaced the scalar evaluate path; CSV is only streamed. The
# Lambert W solver gave way to a Newton root in lambda_star, and the radius
# formulas' special functions are private to boundaries. A model is its
# kind and dimension. The eigen and whitening kernels joined the sandwich
# in covariance.
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
    "default_model",
    "numerics",
    "validate_rate_condition",
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


def test_covariance_is_the_pd_rule_sandwich_and_whitening():
    assert covariance.__all__ == [
        "NumericalError",
        "PD_RTOL",
        "SANDWICH_RTOL",
        "pd_eigh",
        "sandwich",
        "Whitening",
        "whiten",
    ]


def test_names_the_benchmark_tracer_binds():
    # bench/spans.py binds run_lockstep's arguments by name and wraps the
    # run_lockstep that harness looks up; bench/spans.py and bench/child.py
    # read a report's rows and CSV_COLUMNS; the tracer imports every module
    # its WRAPPED table names
    params = inspect.signature(sa_engine.run_lockstep).parameters
    assert {"model", "T", "gens", "visit"} <= set(params)
    assert harness.run_lockstep is sa_engine.run_lockstep
    assert isinstance(harness.CSV_COLUMNS, tuple)
    assert isinstance(harness.CoverageReport.rows, property)
    spans = ast.parse((Path(__file__).parents[1] / "bench" / "spans.py").read_text())
    (wrapped,) = [
        node.value
        for node in spans.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]
    ]
    modules = {module for module, _, _ in ast.literal_eval(wrapped)}
    assert modules
    for module in sorted(modules):
        assert importlib.import_module(module).__name__ == module


def test_no_parameter_that_only_tests_set():
    # every caller started the recursion at 0, used every coordinate and
    # the unscaled radii, read singularity off the missing sandwich, gave
    # each boundary its level in its BoundarySpec and the paper's shape,
    # ran the Gaussian check on the identity covariance, whitened a
    # vector, built each model on its kind's fixed data law and read five
    # whitening fields
    def params(fn):
        return inspect.signature(fn).parameters

    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert "x0" not in params(sa_engine.run_lockstep)
    assert "x0" not in params(sa_engine.run_trajectory)
    gaussian = ["dim", "horizon", "reps", "boundaries", "seed"]
    assert list(params(harness.run_gaussian_check)) == gaussian
    assert "subset" not in fields(harness.ExperimentConfig)
    assert "singular" not in fields(sa_engine.TrajectoryPoint)
    assert fields(boundaries.BoundarySpec) == ["kind", "alpha"]
    assert params(covariance.whiten)["delta"].default is inspect.Parameter.empty
    model = sa_engine.ModelSpec("linear", 1)
    assert [f.name for f in dataclasses.fields(model) if f.init] == ["kind", "dim"]
    with pytest.raises(ValueError):
        dataclasses.replace(model, cov_halfwidth=1.0)
    whitening = ["kappa", "scale_two", "scale_sup", "stat_sup", "stat_two"]
    assert fields(covariance.Whitening) == whitening
