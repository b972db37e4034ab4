"""hhverify: numerical verification of trapezoid/midpoint-type integral
inequalities whose hypotheses are quasi-convex derivative magnitudes."""

__version__ = "0.1.0"

from .corpus import SmoothFunction, builtin_corpus, make_power_family
from .errors import (ConfigError, DomainError, ParameterError,
                     QuadratureError)
from .identities import IdentityReport, check_identity
from .means import (ApplicationVerdict, application_check, arithmetic_mean,
                    generalized_log_mean)
from .numerics import Interval, QuadratureResult, integrate
from .quasiconvex import QuasiConvexityCertificate, check_quasi_convex
from .bounds import BoundReport, THEOREMS, check_bound, defect, rhs_bound
from .search import (SearchResult, best_exponent, tightness_ratio,
                     worst_case_alpha)
from .runner import RunConfig, RunReport, run

__all__ = [
    "__version__",
    "ApplicationVerdict", "BoundReport", "ConfigError", "DomainError",
    "IdentityReport", "Interval", "ParameterError", "QuadratureError",
    "QuadratureResult", "QuasiConvexityCertificate", "RunConfig", "RunReport",
    "SearchResult", "SmoothFunction", "THEOREMS", "application_check",
    "arithmetic_mean", "best_exponent", "builtin_corpus",
    "check_bound", "check_identity", "check_quasi_convex",
    "defect", "generalized_log_mean", "integrate",
    "make_power_family", "rhs_bound", "run", "tightness_ratio",
    "worst_case_alpha",
]
