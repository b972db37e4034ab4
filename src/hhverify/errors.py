"""Exception types shared across the package, and the note of an overflow."""

OVERFLOW_NOTE = "overflow: a side is not a finite double at this instance"


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ParameterError(ValueError):
    """A required parameter is missing, superfluous, or out of range."""


class ConfigError(ValueError):
    """A run configuration is invalid; the message names the offending field."""


class QuadratureError(RuntimeError):
    """An integral required by a check did not converge."""
