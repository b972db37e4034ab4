"""hhverify: numerical verification of trapezoid/midpoint-type integral
inequalities whose hypotheses are quasi-convex derivative magnitudes."""

__version__ = "0.1.0"

from .corpus import SmoothFunction, builtin_corpus, make_power_family
from .errors import ConfigError, DomainError, ParameterError
from .identities import check_identity
from .means import application_check, arithmetic_mean
from .numerics import Interval, QuadratureResult, integrate
from .quasiconvex import QuasiConvexityCertificate, check_quasi_convex
from .bounds import THEOREMS, check_bound, defect, rhs_bound
from .search import best_exponent, worst_case_alpha
from .runner import RunConfig, run

__all__ = [
    "__version__",
    "ConfigError", "DomainError", "Interval", "ParameterError",
    "QuadratureResult", "QuasiConvexityCertificate", "RunConfig",
    "SmoothFunction", "THEOREMS", "application_check",
    "arithmetic_mean", "best_exponent", "builtin_corpus",
    "check_bound", "check_identity", "check_quasi_convex",
    "defect", "integrate",
    "make_power_family", "rhs_bound", "run", "worst_case_alpha",
]
