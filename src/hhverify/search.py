"""Tightness searches over rule instances.

tightness_ratio measures how much of a bound is actually used
(left side over right side, 1 meaning the inequality is attained).
best_exponent minimizes a Holder-parameterized right-hand side over p,
and worst_case_alpha maximizes the tightness ratio over the power
family's parameter.  The right side's factor c(p) is nondecreasing in p
(see bounds), so best_exponent's minimum is the range's left end, found
by one evaluation.  worst_case_alpha scans a coarse seed grid and runs
golden-section inside the bracket around its best point; an objective
that vanishes on the whole seed grid is reported as degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bounds import (DEFAULT_MARGIN_TOL, EXP_HOLDER_P, THEOREMS, bound_ratio,
                     rhs_bound, rule_lhs, validate_exponent)
from .corpus import SmoothFunction, make_power_family
from .errors import ParameterError
from .numerics import DEFAULT_QUAD_BUDGET, DEFAULT_QUAD_TOL, Interval

EXPONENT_SEARCH_TAGS = tuple(tag for tag, spec in THEOREMS.items()
                             if spec.exponent_kind == EXP_HOLDER_P)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_DEGENERATE_OBJECTIVE = 1e-14
# worst_case_alpha's seed grid and its golden-section tolerance.
_SEED_POINTS = 33
_PARAM_TOL = 1e-6


@dataclass(frozen=True)
class SearchResult:
    objective: float
    parameters: tuple[float, ...]
    iterations: int
    converged: bool
    note: str = ""


def tightness_ratio(tag: str, f: SmoothFunction, interval: Interval,
                    exponent: Optional[float] = None,
                    quad_tol: float = DEFAULT_QUAD_TOL,
                    quad_budget: int = DEFAULT_QUAD_BUDGET) -> float:
    """lhs/rhs for one rule instance; 0 when both sides vanish, infinity
    when only the right side does (a refutation signal, not an error)."""
    exponent = validate_exponent(tag, exponent)
    lhs = rule_lhs(tag, f, interval, quad_tol, quad_budget)
    rhs = rhs_bound(tag, f, interval, exponent)
    return bound_ratio(lhs, rhs, DEFAULT_MARGIN_TOL)


def _golden_section(fn: Callable[[float], float], lo: float, hi: float,
                    tol: float) -> tuple[float, int]:
    """Minimize fn on [lo, hi]; returns (argmin, iterations)."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    iters = 0
    while hi - lo > tol and iters < 200:
        iters += 1
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
    return 0.5 * (lo + hi), iters


def best_exponent(tag: str, f: SmoothFunction, interval: Interval,
                  p_range: tuple[float, float]) -> SearchResult:
    """Minimize the Holder-parameterized right-hand side of the tag over p.

    The right side is (w^k / D) c(p) Mn with c(p) nondecreasing in p, so
    p_range[0] is an exact argmin (also when Mn = 0): one closed-form
    evaluation, no quadrature.
    """
    if tag not in EXPONENT_SEARCH_TAGS:
        raise ParameterError(
            f"exponent search applies to {', '.join(EXPONENT_SEARCH_TAGS)}, got {tag!r}")
    lo, hi = float(p_range[0]), float(p_range[1])
    if not (1.0 < lo < hi):
        raise ParameterError(f"p range must satisfy 1 < lo < hi, got ({lo}, {hi})")
    return SearchResult(objective=rhs_bound(tag, f, interval, lo), parameters=(lo,),
                        iterations=1, converged=True)


def worst_case_alpha(tag: str, interval: Interval,
                     alpha_range: tuple[float, float],
                     exponent: Optional[float] = None,
                     quad_tol: float = DEFAULT_QUAD_TOL,
                     quad_budget: int = DEFAULT_QUAD_BUDGET) -> SearchResult:
    """Maximize the tightness ratio of the tag over the power family's
    parameter on a strictly positive interval."""
    lo, hi = float(alpha_range[0]), float(alpha_range[1])
    if not (0.0 < lo < hi <= 1.0):
        raise ParameterError(f"alpha range must satisfy 0 < lo < hi <= 1, got ({lo}, {hi})")
    if not interval.a > 0.0:
        raise ParameterError(
            f"alpha search needs a strictly positive interval, got [{interval.a}, {interval.b}]")
    validate_exponent(tag, exponent)

    def neg_ratio(alpha: float) -> float:
        f = make_power_family(alpha, domain=interval)
        return -tightness_ratio(tag, f, interval, exponent, quad_tol, quad_budget)

    seed = np.linspace(lo, hi, _SEED_POINTS)
    values = np.array([neg_ratio(a) for a in seed])
    if float(np.max(np.abs(values))) <= _DEGENERATE_OBJECTIVE:
        mid = 0.5 * (lo + hi)
        return SearchResult(objective=-neg_ratio(mid), parameters=(mid,),
                            iterations=_SEED_POINTS, converged=True,
                            note="degenerate objective (identically zero)")
    k = int(np.argmin(values))
    best, iters = _golden_section(neg_ratio, float(seed[max(0, k - 1)]),
                                  float(seed[min(_SEED_POINTS - 1, k + 1)]), _PARAM_TOL)
    # An edge maximum leaves golden section within _PARAM_TOL of the range
    # boundary; the boundary itself is a valid and possibly better point,
    # whose value the seed scan already holds.
    candidates = [best, lo, hi]
    candidate_values = [neg_ratio(best), float(values[0]), float(values[-1])]
    k = int(np.argmin(candidate_values))
    return SearchResult(objective=-candidate_values[k], parameters=(candidates[k],),
                        iterations=_SEED_POINTS + iters + 2, converged=True)
