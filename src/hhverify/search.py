"""Tightness searches over rule instances.

best_exponent minimizes a Holder-parameterized right-hand side over p,
and worst_case_alpha maximizes the tightness ratio over the power
family's parameter: the ``ratio`` of check_bound's record on each member
(left side over right side, 1 meaning the inequality is attained), under
the caller's margin_tol, read without certifying the member.  The right
side's factor c(p) is nondecreasing in p (see bounds), so
best_exponent's minimum is the range's left end, found by one
evaluation.  worst_case_alpha scans a coarse seed grid and runs
golden-section inside the bracket around its best point; an objective
that vanishes on the whole seed grid is reported as degenerate, and a
member whose record has no sides ends the search without an objective,
with that record's note.  Both searches return their report record.
RANGE_RULES holds the rules on their ranges and on worst_case_alpha's
interval; a run's config is checked against them.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .bounds import (DEFAULT_MARGIN_TOL, EXP_HOLDER_P, THEOREMS, _sides, rhs_bound,
                     validate_exponent)
from .corpus import SmoothFunction, make_power_family
from .errors import (OVERFLOW_NOTE, DomainError, ParameterError, check_tolerance, status,
                     value_at)
from .numerics import DEFAULT_QUAD_BUDGET, DEFAULT_QUAD_TOL, Interval, check_budget

EXPONENT_SEARCH_TAGS = tuple(tag for tag, spec in THEOREMS.items()
                             if spec.exponent_kind == EXP_HOLDER_P)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_DEGENERATE_OBJECTIVE = 1e-14
# worst_case_alpha's seed grid and its golden-section tolerance.
_SEED_POINTS = 33
_PARAM_TOL = 1e-6
RATIO_INFINITE_NOTE = "ratio infinite: the right side vanishes against a positive left side"
# The rule each search range and worst_case_alpha's interval (a, b) meet, as errors state it.
RANGE_RULES = {
    "p_range": (lambda lo, hi: 1.0 < lo < hi < math.inf, "finite 1 < lo < hi"),
    "alpha_range": (lambda lo, hi: 0.0 < lo < hi <= 1.0, "0 < lo < hi <= 1"),
    "interval": (lambda a, b: a > 0.0, "a > 0"),
}


def _check_range(name: str, lo: float, hi: float) -> None:
    admits, rule = RANGE_RULES[name]
    if not admits(lo, hi):
        raise ParameterError(f"{name} must satisfy {rule}, got ({lo}, {hi})")


def _golden_section(fn: Callable[[float], float], lo: float, hi: float,
                    tol: float) -> tuple[float, int]:
    """Maximize fn on [lo, hi]; returns (argmax, iterations)."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    iters = 0
    while hi - lo > tol and iters < 200:
        iters += 1
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
    return 0.5 * (lo + hi), iters


def _search_record(search: str, tag: str, function: Optional[str], interval: Interval,
                   search_range: tuple[float, float], exponent: Optional[float],
                   objective: Optional[float], parameters: list[float],
                   iterations: Optional[int], note: str) -> dict:
    """The record of a search's outcome.  A search without an objective
    (None, with no parameters and no iterations) is non-converged, ``note``
    saying why.  An infinite objective is worst_case_alpha's tightness
    ratio, check_bound's refutation signal rather than an overflow: that
    record keeps its result and says so."""
    if objective == math.inf:
        note = "; ".join(filter(None, (note, RATIO_INFINITE_NOTE)))
    converged = objective is not None
    return {
        "kind": "search",
        "search": search,
        "theorem": tag,
        "function": function,
        "interval": [interval.a, interval.b],
        "range": [search_range[0], search_range[1]],
        "exponent": exponent,
        "objective": objective,
        "parameters": parameters,
        "iterations": iterations,
        "converged": converged,
        "status": status(converged, True, True),
        "note": note,
    }


def best_exponent(tag: str, f: SmoothFunction, interval: Interval,
                  p_range: tuple[float, float]) -> dict:
    """The search record minimizing the Holder-parameterized right-hand
    side of the tag over p.

    The right side is (w^n / D) c(p) Mn, n the derivative order, with c(p)
    nondecreasing in p, so p_range[0] is an exact argmin (also when
    Mn = 0): one closed-form evaluation, no quadrature.  A right side that
    is not a finite double leaves no objective, with OVERFLOW_NOTE.
    """
    if tag not in EXPONENT_SEARCH_TAGS:
        raise ParameterError(
            f"exponent search applies to {', '.join(EXPONENT_SEARCH_TAGS)}, got {tag!r}")
    lo, hi = float(p_range[0]), float(p_range[1])
    _check_range("p_range", lo, hi)
    rhs = value_at(rhs_bound, tag, f, interval, lo)
    outcome = (rhs, [lo], 1, "") if math.isfinite(rhs) else (None, [], None, OVERFLOW_NOTE)
    return _search_record("best_exponent", tag, f.name, interval, p_range, None, *outcome)


def worst_case_alpha(tag: str, interval: Interval,
                     alpha_range: tuple[float, float],
                     exponent: Optional[float] = None,
                     quad_tol: float = DEFAULT_QUAD_TOL,
                     quad_budget: int = DEFAULT_QUAD_BUDGET,
                     margin_tol: float = DEFAULT_MARGIN_TOL) -> dict:
    """The search record maximizing the tightness ratio of the tag over the
    power family's parameter on a strictly positive interval: the ratio
    of check_bound's record, ``margin_tol`` deciding its degenerate cases.
    A member without sides, or an integrand not finite inside the interval
    (the quadrature's DomainError), ends the search without an objective,
    with its note.  A tolerance or budget no quadrature admits raises
    DomainError naming it before the first evaluation."""
    lo, hi = float(alpha_range[0]), float(alpha_range[1])
    _check_range("alpha_range", lo, hi)
    _check_range("interval", interval.a, interval.b)
    validate_exponent(tag, exponent)
    check_tolerance("margin_tol", margin_tol)
    check_tolerance("quad_tol", quad_tol, positive=True)
    check_budget("quad_budget", quad_budget)

    def ratio(alpha: float) -> float:
        sides = _sides(tag, make_power_family(alpha), interval, exponent,
                       quad_tol, quad_budget, margin_tol)
        if sides["ratio"] is None:
            raise DomainError(sides["note"])
        return sides["ratio"]

    step = (hi - lo) / (_SEED_POINTS - 1)
    seed = [lo + i * step for i in range(_SEED_POINTS - 1)] + [hi]
    try:
        values = [ratio(a) for a in seed]
        top = max(values)
        if top <= _DEGENERATE_OBJECTIVE:
            mid = 0.5 * (lo + hi)
            outcome = (ratio(mid), [mid], _SEED_POINTS,
                       "degenerate objective (identically zero)")
        else:
            k = values.index(top)
            best, iters = _golden_section(ratio, seed[max(0, k - 1)],
                                          seed[min(_SEED_POINTS - 1, k + 1)], _PARAM_TOL)
            # An edge maximum leaves golden section within _PARAM_TOL of the range
            # boundary; the boundary itself is a valid and possibly better point,
            # whose value the seed scan already holds.
            objective, alpha = max([(ratio(best), best), (values[0], lo), (values[-1], hi)],
                                   key=lambda candidate: candidate[0])
            outcome = objective, [alpha], _SEED_POINTS + iters + 2, ""
    except DomainError as err:  # a member without sides, or a non-finite integrand
        outcome = None, [], None, str(err)
    return _search_record("worst_case_alpha", tag, None, interval, alpha_range, exponent,
                          *outcome)
