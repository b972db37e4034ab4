"""Each config rule is stated once, by the library code that reads the
value.  For every field with such an owner, RunConfig.validate rejects a
boundary value exactly when the owning check rejects it; a value of a type
the field does not take is the config's own rule and is rejected by type."""

import math
from dataclasses import fields
from itertools import product

import pytest

from hhverify.bounds import certify_hypothesis, check_bound, validate_exponent
from hhverify.corpus import builtin_corpus
from hhverify.errors import ConfigError, DomainError, ParameterError
from hhverify.identities import check_identity
from hhverify.numerics import Interval, check_budget
from hhverify.runner import _TYPE_CHECKS, RunConfig
from hhverify.search import best_exponent, worst_case_alpha

VALUES = (0, 14, 15, 1, 1.0000001, 5e-324, 1e308, math.inf, -math.inf, math.nan,
          10 ** 18, 10 ** 400)
# Reversed and equal pairs among them, and integers whose difference is beyond double range.
PAIRS = tuple(product(VALUES, repeat=2)) + ((-10 ** 308, 10 ** 308),)
X4 = {f.name: f for f in builtin_corpus()}["x^4"]
UNIT = Interval(0.0, 1.0)
TYPES = {f.name: f.type for f in fields(RunConfig)}


def _alpha_search(**arguments):
    """worst_case_alpha's argument checks: a zero budget fails the last of
    them, after the range and interval checks, before any work."""
    arguments = {"interval": Interval(1.0, 2.0), "alpha_range": (0.01, 1.0), **arguments}
    try:
        worst_case_alpha("ME1", quad_budget=0, **arguments)
    except DomainError as err:
        if not str(err).startswith("quad_budget "):
            raise


# Field -> (its boundary values, the owning check, which raises to reject).
# quad_tol must be positive; residual_tol, margin_tol and qc_tol may be 0.
OWNERS = {
    "quad_tol": (VALUES, lambda tol: check_bound("ME1", X4, UNIT, quad_tol=tol, quad_budget=15)),
    "residual_tol": (VALUES, lambda tol: check_identity("L1", X4, UNIT, residual_tol=tol)),
    "margin_tol": (VALUES, lambda tol: check_bound("ME1", X4, UNIT, margin_tol=tol)),
    "qc_tol": (VALUES, lambda tol: certify_hypothesis(4, X4, UNIT, tol)),
    "quad_budget": (VALUES, lambda budget: check_budget("quad_budget", budget)),
    "p_grid": ([(v,) for v in VALUES], lambda grid: [validate_exponent("ME2", p) for p in grid]),
    "q_grid": ([(v,) for v in VALUES], lambda grid: [validate_exponent("ME3", q) for q in grid]),
    "alpha_grid": ([(v,) for v in VALUES] + list(PAIRS), builtin_corpus),
    "intervals": ([(pair,) for pair in PAIRS], lambda grid: [Interval(*iv) for iv in grid]),
    "sin_domain": (PAIRS, lambda pair: builtin_corpus(sin_domain=Interval(*pair))),
    "search_p_interval": (PAIRS, lambda pair: best_exponent("ME2", X4, Interval(*pair),
                                                            (1.01, 50.0))),
    "search_alpha_interval": (PAIRS, lambda pair: _alpha_search(interval=Interval(*pair))),
    "search_p_range": (PAIRS, lambda pair: best_exponent("ME2", X4, Interval(0.0, 1.0), pair)),
    "search_alpha_range": (PAIRS, lambda pair: _alpha_search(alpha_range=pair)),
}


def _config_error(field, value):
    try:
        RunConfig(**{field: value}).validate()
    except ConfigError as err:
        return str(err)
    return None


def _owner_rejects(check, value):
    try:
        check(value)
    except (DomainError, ParameterError):
        return True
    return False


@pytest.mark.parametrize("field", OWNERS)
def test_a_config_rejects_a_value_exactly_when_its_owner_does(field):
    values, check = OWNERS[field]
    is_typed, expected = _TYPE_CHECKS[TYPES[field]]
    drifted = []
    for value in values:
        error = _config_error(field, value)
        if not is_typed(value):
            assert error == f"{field}: must be {expected}, got {value!r}"
            continue
        if (error is not None) != _owner_rejects(check, value):
            drifted.append((value, error))
        elif error is not None:
            assert error.startswith(f"{field}: ") and "\n" not in error, error
    assert drifted == []
