"""Special-means applications of the bound rules.

For positive a < b the arithmetic mean is A(a,b) = (a+b)/2 and the
generalized logarithmic mean is the three-case expression

    L_p(a,b) = (b^(p+1) - a^(p+1)) / ((p+1)(b-a))     p != -1, 0
             = (b - a) / (ln b - ln a)                p == -1
             = (1/e) * (b^b / a^a)^(1/(b-a))          p == 0

The main branch carries no 1/p-th root: L_p(a,b) is then exactly the
average of x^p over [a,b], which is what the mean identities below need.

Applying each bound rule to the power-family member f with
f''''(x) = x^alpha and clearing denominators rewrites the rule as a mean
inequality (tags A3_1..A3_6).  Two variants are evaluated per tag:

  * "derived": the source bound rule multiplied through by 12*P
    (trapezoid side) or 24*P (midpoint side) with
    P = (alpha+1)...(alpha+4).  The right side is that factor times
    rhs_bound of the source rule on the family member; the left side is
    the cleared defect in mean form;
  * "paper":   the coefficients exactly as printed in the source
    inequalities, transcribed verbatim, typos included.

A refuted printed coefficient is surfaced in the verdict note rather than
silently corrected.  A side that overflows a double is never compared:
the record does not pass, is non-converged and carries OVERFLOW_NOTE.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from .bounds import (CORRECTION_DIVISOR, DEFAULT_MARGIN_TOL, LHS_MIDPOINT_CORRECTED,
                     LHS_TRAPEZOID_CORRECTED, THEOREMS, endpoint_derivative_max, rule_scale,
                     validate_exponent, within_margin)
from .corpus import make_power_family
from .errors import OVERFLOW_NOTE, DomainError, ParameterError, check_tolerance, status
# integrate is not called here; perfbench's tracer patches it under this name.
from .numerics import Interval, integrate

# Bound rule that each application clears into a mean inequality.
APPLICATION_SOURCE = {"A3_1": "ME1", "A3_2": "ME2", "A3_3": "ME3",
                      "A3_4": "ME4", "A3_5": "ME5", "A3_6": "ME6"}
APPLICATION_TAGS = tuple(APPLICATION_SOURCE)
APPLICATION_VARIANTS = ("paper", "derived")

# The divisor printed in each application's right side, in place of the
# source rule's D; the width power and the factor c(p) are the rule's.
_PRINTED_DIVISOR = {"A3_1": 60.0, "A3_2": 2.0, "A3_3": 60.0,
                    "A3_4": 16.0, "A3_5": 8.0, "A3_6": 16.0}

_SPECIAL_CASE_TOL = 1e-12
REFUTED_NOTE = "printed coefficient refuted at this instance"


def arithmetic_mean(a: float, b: float) -> float:
    return 0.5 * (a + b)


def generalized_log_mean(a: float, b: float, p: float) -> float:
    """The three-case generalized logarithmic mean of 0 < a < b.

    Exponents within 1e-12 of the removable points route to the special
    cases; p exactly 1 returns (a+b)/2, the algebraically identical but
    numerically stable form of the main branch.
    """
    if not 0.0 < a < b:
        raise DomainError(f"means require 0 < a < b, got ({a}, {b})")
    return _lp(a, b, p)


def _lp(a: float, b: float, p: float) -> float:
    """generalized_log_mean on arguments the caller has validated."""
    if abs(p + 1.0) <= _SPECIAL_CASE_TOL:
        return (b - a) / (math.log(b) - math.log(a))
    if abs(p) <= _SPECIAL_CASE_TOL:
        return math.exp((b * math.log(b) - a * math.log(a)) / (b - a) - 1.0)
    if p == 1.0:
        return arithmetic_mean(a, b)
    return (b ** (p + 1.0) - a ** (p + 1.0)) / ((p + 1.0) * (b - a))


def _trapezoid_side_lhs(a: float, b: float, alpha: float, middle_coeff: float) -> float:
    """|12*A(a^(alpha+4), b^(alpha+4)) - 12*L_(alpha+4) - (b-a)^2 * middle_coeff * L_(alpha+2)|."""
    return abs(
        12.0 * arithmetic_mean(a ** (alpha + 4.0), b ** (alpha + 4.0))
        - 12.0 * _lp(a, b, alpha + 4.0)
        - (b - a) ** 2 * middle_coeff * _lp(a, b, alpha + 2.0)
    )


def _midpoint_side_lhs_derived(a: float, b: float, alpha: float) -> float:
    """|24*A(a,b)^(alpha+4) - 24*L_(alpha+4) + (b-a)^2*(alpha+3)(alpha+4)*L_(alpha+2)|."""
    return abs(
        24.0 * arithmetic_mean(a, b) ** (alpha + 4.0)
        - 24.0 * _lp(a, b, alpha + 4.0)
        + (b - a) ** 2 * (alpha + 3.0) * (alpha + 4.0) * _lp(a, b, alpha + 2.0)
    )


def _or_none(side, *args) -> Optional[float]:
    """side(*args), or None when a double overflows on the way."""
    try:
        return side(*args)
    except OverflowError:
        return None


# The left sides by key: the derived one of each source defect, and the
# printed one, which every tag shares.  The printed middle term carries
# (alpha+3)(alpha+4)(alpha+4), and the midpoint-side tags keep the leading
# 12 and the minus sign: transcribed verbatim, typos included.
_LHS = {
    LHS_TRAPEZOID_CORRECTED: lambda a, b, alpha: _trapezoid_side_lhs(
        a, b, alpha, (alpha + 3.0) * (alpha + 4.0)),
    LHS_MIDPOINT_CORRECTED: _midpoint_side_lhs_derived,
    "paper": lambda a, b, alpha: _trapezoid_side_lhs(
        a, b, alpha, (alpha + 3.0) * (alpha + 4.0) * (alpha + 4.0)),
}


def application_rows(instances: Sequence[tuple[str, str, Optional[float]]],
                     intervals: Sequence[tuple[float, float]], alphas: Sequence[float],
                     margin_tol: float = DEFAULT_MARGIN_TOL) -> Iterator[dict]:
    """Every (theorem, variant, exponent) instance at every (a, b) and alpha.

    Yields one application record per instance; a side that is not a
    finite double leaves it non-converged.  Instances vary fastest, then
    alpha, then the interval.  P, the left sides, max(a^alpha, b^alpha) and
    the member's endpoint maximum of each derivative order are computed once
    per (a, b, alpha), and each instance's rule scale once per (a, b), as
    every instance or alpha there uses them; each is the expression a lone
    instance evaluates, so a record is bit for bit the one-instance one.
    The derived right side is 12P or 24P times rhs_bound of the source rule
    on the member: its rule scale times Mn, the member's endpoint maximum.
    The printed one divides by the printed divisor, and its power-mean max
    terms collapse to max(a^alpha, b^alpha) since a, b > 0.
    Arguments are validated before the first row.
    """
    for theorem, variant, _ in instances:
        if theorem not in APPLICATION_TAGS:
            raise ParameterError(
                f"unknown application tag {theorem!r}, expected one of {', '.join(APPLICATION_TAGS)}")
        if variant not in APPLICATION_VARIANTS:
            raise ParameterError(f"variant must be 'paper' or 'derived', got {variant!r}")
    grid = []
    for a, b in intervals:
        if not 0.0 < a < b:
            raise DomainError(f"means require 0 < a < b, got ({a}, {b})")
        grid.append(Interval(a, b))
    check_tolerance("margin_tol", margin_tol)
    # One member per alpha: the right sides read its derivatives at the ends, never its domain.
    members = [make_power_family(alpha) for alpha in alphas]
    # Per instance: its fields, its source rule and its left side's key.
    plan = []
    for theorem, variant, exponent in instances:
        source = THEOREMS[APPLICATION_SOURCE[theorem]]
        exponent = validate_exponent(source.tag, exponent)
        plan.append((theorem, variant, exponent, source,
                     "paper" if variant == "paper" else source.lhs_kind))
    lhs_keys = {key for _, _, _, _, key in plan}
    orders = {source.derivative_order for _, _, _, source, key in plan if key != "paper"}

    for (a, b), interval in zip(intervals, grid):
        # Each instance's rule scale, with its printed divisor or its rule's D.
        scales = [_or_none(rule_scale, source, b - a, exponent,
                           _PRINTED_DIVISOR[theorem] if key == "paper" else source.divisor)
                  for theorem, _, exponent, source, key in plan]
        for alpha, member in zip(alphas, members):
            pprod = (alpha + 1.0) * (alpha + 2.0) * (alpha + 3.0) * (alpha + 4.0)
            lhs_of = {key: _or_none(_LHS[key], a, b, alpha) for key in lhs_keys}
            power_max = max(a ** alpha, b ** alpha)
            endpoint_max = {n: _or_none(endpoint_derivative_max, member, interval, n)
                            for n in orders}
            for (theorem, variant, exponent, source, key), scale in zip(plan, scales):
                lhs = lhs_of[key]
                m = power_max if key == "paper" else endpoint_max[source.derivative_order]
                if lhs is None or scale is None or m is None:  # a side overflowed
                    lhs = rhs = math.nan
                elif key == "paper":
                    rhs = scale * pprod * m
                else:
                    rhs = CORRECTION_DIVISOR[key] * pprod * (scale * m)
                finite = math.isfinite(lhs) and math.isfinite(rhs)
                passed = finite and within_margin(lhs, rhs, margin_tol)
                note = ""
                if not finite:
                    note = OVERFLOW_NOTE
                elif not passed:
                    note = REFUTED_NOTE if key == "paper" else "derived inequality violated"
                yield {"kind": "application", "theorem": theorem, "variant": variant,
                       "a": a, "b": b, "alpha": alpha, "exponent": exponent,
                       "lhs": lhs, "rhs": rhs, "pass": passed,
                       "status": status(finite, True, passed), "note": note}


def application_check(theorem: str, variant: str, a: float, b: float, alpha: float,
                      exponent: Optional[float] = None,
                      margin_tol: float = DEFAULT_MARGIN_TOL) -> dict:
    """The application record of one mean inequality instance in the requested
    variant: ``application_rows`` with one instance, interval and alpha."""
    return next(application_rows([(theorem, variant, exponent)], [(a, b)], [alpha],
                                 margin_tol))
