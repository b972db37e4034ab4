"""Exception types shared across the package, and the status vocabulary of
a report record: every check module builds its records from these."""

import math

OVERFLOW_NOTE = "overflow: a side is not a finite double at this instance"

STATUSES = ("pass", "fail", "refuted_hypothesis", "non_converged")


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ParameterError(ValueError):
    """A required parameter is missing, superfluous, or out of range."""


class ConfigError(ValueError):
    """A run configuration is invalid; the message names the offending field."""


class QuadratureError(RuntimeError):
    """An integral required by a check did not converge."""


def status(decided: bool, certified: bool, passed: bool) -> str:
    """Every record's status: no verdict, then a refuted hypothesis, then pass or fail."""
    if not decided:
        return "non_converged"
    if not certified:
        return "refuted_hypothesis"
    return "pass" if passed else "fail"


def failure_note(err: Exception) -> str:
    """The note of a record whose check raised: overflow, or the error itself."""
    return OVERFLOW_NOTE if isinstance(err, OverflowError) else str(err)


def check_tolerance(name: str, value: float, positive: bool = False) -> None:
    """Raise DomainError naming ``name`` unless value is finite and >= 0
    (> 0 if ``positive``): a NaN or infinite tolerance decides nothing."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        rule = "positive" if positive else "non-negative"
        raise DomainError(f"{name} must be a finite {rule} tolerance, got {value}")
