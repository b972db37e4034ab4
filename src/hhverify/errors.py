"""Exception types shared across the package, and the status vocabulary of
a report record: the checks build their records from it, a run's summary
counts them and the exit code reads that summary."""

import math
from collections import Counter

OVERFLOW_NOTE = "overflow: a side is not a finite double at this instance"

STATUSES = ("pass", "fail", "refuted_hypothesis", "non_converged")


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ParameterError(ValueError):
    """A required parameter is missing, superfluous, or out of range."""


class ConfigError(ValueError):
    """A run configuration is invalid; the message names the offending field."""


def status(decided: bool, certified: bool, passed: bool) -> str:
    """Every record's status: no verdict, then a refuted hypothesis, then pass or fail."""
    if not decided:
        return "non_converged"
    if not certified:
        return "refuted_hypothesis"
    return "pass" if passed else "fail"


def summary(records) -> dict:
    """A report's summary: the number of records in each status."""
    counts = Counter(record["status"] for record in records)
    return {"total": sum(counts.values()), **{s: counts[s] for s in STATUSES}}


def exit_code(summary: dict) -> int:
    """0 all pass; 2 any fail or refuted hypothesis; 3 any non-convergence."""
    if summary["fail"] or summary["refuted_hypothesis"]:
        return 2
    if summary["non_converged"]:
        return 3
    return 0


def failure_note(err: Exception) -> str:
    """The note of a record whose check raised: overflow, or the error itself."""
    return OVERFLOW_NOTE if isinstance(err, OverflowError) else str(err)


def check_tolerance(name: str, value: float, positive: bool = False) -> None:
    """Raise DomainError naming ``name`` unless value is finite and >= 0
    (> 0 if ``positive``): a NaN or infinite tolerance decides nothing."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        rule = "positive" if positive else "non-negative"
        raise DomainError(f"{name} must be a finite {rule} tolerance, got {value}")
