"""Tightness searches over rule instances.

best_exponent minimizes a Holder-parameterized right-hand side over p,
and worst_case_alpha maximizes the tightness ratio over the power
family's parameter: the ``ratio`` of check_bound's record on each member
(left side over right side, 1 meaning the inequality is attained), under
the caller's margin_tol.  The right side's factor c(p) is nondecreasing
in p (see bounds), so best_exponent's minimum is the range's left end,
found by one evaluation.  worst_case_alpha scans a coarse seed grid and
runs golden-section inside the bracket around its best point; an
objective that vanishes on the whole seed grid is reported as
degenerate, and a member whose record has no sides ends the search
without an objective, with that record's note.  Both searches return
their report record.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .bounds import (DEFAULT_MARGIN_TOL, EXP_HOLDER_P, THEOREMS, check_bound, rhs_bound,
                     validate_exponent)
from .corpus import SmoothFunction, make_power_family
from .errors import DomainError, ParameterError, check_tolerance, failure_note, status
from .numerics import DEFAULT_QUAD_BUDGET, DEFAULT_QUAD_TOL, Interval, check_budget

EXPONENT_SEARCH_TAGS = tuple(tag for tag, spec in THEOREMS.items()
                             if spec.exponent_kind == EXP_HOLDER_P)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_DEGENERATE_OBJECTIVE = 1e-14
# worst_case_alpha's seed grid and its golden-section tolerance.
_SEED_POINTS = 33
_PARAM_TOL = 1e-6
RATIO_INFINITE_NOTE = "ratio infinite: the right side vanishes against a positive left side"


def _argmin(values: list[float]) -> int:
    """Index of the first NaN, else of the first smallest value."""
    return min(range(len(values)), key=lambda i: (values[i] == values[i], values[i]))


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


def _search_record(search: str, tag: str, function: Optional[str], interval: Interval,
                   search_range: tuple[float, float], exponent: Optional[float],
                   run_search: Callable[[], tuple]) -> dict:
    """The search record of ``run_search()``, which returns the objective,
    the parameters, the iterations and a note.  A search that raises or
    whose objective overflowed is non-converged, with no objective; an
    ArithmeticError carries the note of a bound record without sides.
    worst_case_alpha's objective is a tightness ratio, whose infinity is not
    an overflow but check_bound's refutation signal: that record keeps its
    result and says so."""
    converged = True
    try:
        objective, parameters, iterations, note = run_search()
        if search == "worst_case_alpha" and objective == math.inf:
            note = "; ".join(filter(None, (note, RATIO_INFINITE_NOTE)))
        elif not math.isfinite(objective):
            raise OverflowError
    except (ArithmeticError, DomainError) as err:
        objective, parameters, iterations, converged = None, (), None, False
        note = failure_note(err)
    return {
        "kind": "search",
        "search": search,
        "theorem": tag,
        "function": function,
        "interval": [interval.a, interval.b],
        "range": [search_range[0], search_range[1]],
        "exponent": exponent,
        "objective": objective,
        "parameters": list(parameters),
        "iterations": iterations,
        "converged": converged,
        "status": status(converged, True, True),
        "note": note,
    }


def best_exponent(tag: str, f: SmoothFunction, interval: Interval,
                  p_range: tuple[float, float]) -> dict:
    """The search record minimizing the Holder-parameterized right-hand
    side of the tag over p.

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
    return _search_record("best_exponent", tag, f.name, interval, p_range, None,
                          lambda: (rhs_bound(tag, f, interval, lo), (lo,), 1, ""))


def worst_case_alpha(tag: str, interval: Interval,
                     alpha_range: tuple[float, float],
                     exponent: Optional[float] = None,
                     quad_tol: float = DEFAULT_QUAD_TOL,
                     quad_budget: int = DEFAULT_QUAD_BUDGET,
                     margin_tol: float = DEFAULT_MARGIN_TOL) -> dict:
    """The search record maximizing the tightness ratio of the tag over the
    power family's parameter on a strictly positive interval: the ratio
    of check_bound's record, ``margin_tol`` deciding its degenerate cases.
    A tolerance or budget no quadrature admits raises DomainError naming it
    before the first evaluation."""
    lo, hi = float(alpha_range[0]), float(alpha_range[1])
    if not (0.0 < lo < hi <= 1.0):
        raise ParameterError(f"alpha range must satisfy 0 < lo < hi <= 1, got ({lo}, {hi})")
    if not interval.a > 0.0:
        raise ParameterError(
            f"alpha search needs a strictly positive interval, got [{interval.a}, {interval.b}]")
    validate_exponent(tag, exponent)
    check_tolerance("margin_tol", margin_tol)
    check_tolerance("quad_tol", quad_tol, positive=True)
    check_budget("quad_budget", quad_budget)

    def neg_ratio(alpha: float) -> float:
        record = check_bound(tag, make_power_family(alpha, domain=interval), interval,
                             exponent, quad_tol, quad_budget, margin_tol)
        if record["ratio"] is None:
            raise ArithmeticError(record["note"])
        return -record["ratio"]

    def search() -> tuple:
        step = (hi - lo) / (_SEED_POINTS - 1)
        seed = [lo + i * step for i in range(_SEED_POINTS - 1)] + [hi]
        values = [neg_ratio(a) for a in seed]
        if all(abs(v) <= _DEGENERATE_OBJECTIVE for v in values):
            mid = 0.5 * (lo + hi)
            return (-neg_ratio(mid), (mid,), _SEED_POINTS,
                    "degenerate objective (identically zero)")
        k = _argmin(values)
        best, iters = _golden_section(neg_ratio, seed[max(0, k - 1)],
                                      seed[min(_SEED_POINTS - 1, k + 1)], _PARAM_TOL)
        # An edge maximum leaves golden section within _PARAM_TOL of the range
        # boundary; the boundary itself is a valid and possibly better point,
        # whose value the seed scan already holds.
        candidates = [best, lo, hi]
        candidate_values = [neg_ratio(best), values[0], values[-1]]
        k = _argmin(candidate_values)
        return -candidate_values[k], (candidates[k],), _SEED_POINTS + iters + 2, ""

    return _search_record("worst_case_alpha", tag, None, interval, alpha_range, exponent,
                          search)
