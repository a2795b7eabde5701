"""Anytime-valid confidence sequences for averaged stochastic approximation.

The package simulates averaged SA recursions (built-in linear and logistic
regression oracles), estimates the limiting sandwich covariance online, and
evaluates time-uniform confidence sequence boundaries against it, with a
Monte Carlo harness and CLI for coverage experiments.
"""

from . import boundaries, covariance, harness, sa_engine
from .boundaries import *  # noqa: F401,F403
from .covariance import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .sa_engine import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *covariance.__all__,
    *sa_engine.__all__,
    *boundaries.__all__,
    *harness.__all__,
]
