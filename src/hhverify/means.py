"""Special-means applications of the bound rules.

For positive a < b the arithmetic mean is A(a,b) = (a+b)/2 and the
paper's generalized logarithmic mean is the three-case expression

    L_p(a,b) = (b^(p+1) - a^(p+1)) / ((p+1)(b-a))     p != -1, 0
             = (b - a) / (ln b - ln a)                p == -1
             = (1/e) * (b^b / a^a)^(1/(b-a))          p == 0

The main branch carries no 1/p-th root: L_p(a,b) is then exactly the
average of x^p over [a,b], which is what the mean identities below need.
The sides need only L_(alpha+2) and L_(alpha+4), so the code evaluates
the main branch alone, at p > 1.

Applying each bound rule to the power-family member f with
f''''(x) = x^alpha and clearing denominators rewrites the rule as a mean
inequality (tags A3_1..A3_6).  Two variants are evaluated per tag:

  * "derived": the source bound rule multiplied through by |D|*P, D the
    signed divisor of its defect's derivative term in bounds.DEFECTS (-12
    on the trapezoid side, +24 on the midpoint side), P = (alpha+1)...(alpha+4).
    The right side is that factor times rhs_bound of the source rule on
    the family member; the left side is the cleared defect in mean form,
    read off the same DEFECTS entry (where it samples f, |D| and the sign
    of D), with the middle coefficient (alpha+3)(alpha+4);
  * "paper":   the coefficients exactly as printed in the source
    inequalities, transcribed verbatim, typos included: every tag's left
    side is the cleared corrected trapezoid with the middle coefficient
    (alpha+3)(alpha+4)(alpha+4).

A refuted printed coefficient is surfaced in the verdict note rather than
silently corrected.  A side that overflows a double is never compared:
the record does not pass, is non-converged and carries OVERFLOW_NOTE.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from .bounds import (DEFAULT_MARGIN_TOL, DEFECTS, LHS_TRAPEZOID_CORRECTED, THEOREMS,
                     endpoint_derivative_max, rule_scale, validate_exponent, within_margin)
from .corpus import make_power_family
from .errors import OVERFLOW_NOTE, DomainError, ParameterError, check_tolerance, status, value_at
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

REFUTED_NOTE = "printed coefficient refuted at this instance"


def arithmetic_mean(a: float, b: float) -> float:
    return 0.5 * (a + b)


def _lp(a: float, b: float, p: float) -> float:
    """L_p(a, b) by its main branch: the average of x^p over [a, b], 0 < a < b."""
    return (b ** (p + 1.0) - a ** (p + 1.0)) / ((p + 1.0) * (b - a))


def _cleared_lhs(kind: str, middle: float, a: float, b: float, alpha: float) -> float:
    """|D|*S - |D|*L_(alpha+4) + sign(D)*(b-a)^2*middle*L_(alpha+2): the defect
    ``kind`` of bounds.DEFECTS on the member, cleared by its |D| and P, with
    S = A(a,b)^(alpha+4) if it samples the midpoint, else A(a^(alpha+4), b^(alpha+4))."""
    midpoint, divisor, _ = DEFECTS[kind]
    cleared = abs(divisor)
    s = (arithmetic_mean(a, b) ** (alpha + 4.0) if midpoint
         else arithmetic_mean(a ** (alpha + 4.0), b ** (alpha + 4.0)))
    return abs(cleared * s - cleared * _lp(a, b, alpha + 4.0)
               + divisor / cleared * ((b - a) ** 2 * middle * _lp(a, b, alpha + 2.0)))


def application_rows(instances: Sequence[tuple[str, str, Optional[float]]],
                     intervals: Sequence[tuple[float, float]], alphas: Sequence[float],
                     margin_tol: float = DEFAULT_MARGIN_TOL) -> Iterator[dict]:
    """Every (theorem, variant, exponent) instance at every (a, b) and alpha.

    Yields one application record per instance; a side that is not a
    finite double leaves it non-converged.  Instances vary fastest, then
    alpha, then the interval.  P, the left sides and the member's endpoint
    maximum of each derivative order are computed once per (a, b, alpha),
    and each instance's rule scale once per (a, b), as every instance or
    alpha there uses them; each is the expression a lone instance evaluates,
    so a record is bit for bit the one-instance one.
    The derived right side is 12P or 24P times rhs_bound of the source rule
    on the member: its rule scale times Mn, the member's endpoint maximum.
    The printed one divides by the printed divisor, and its power-mean max
    terms collapse to max(a^alpha, b^alpha) since a, b > 0: the member's
    endpoint maximum of order 4, whatever the source rule's order.
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
    # Per instance: its fields, its source rule, its left side's key (the
    # defect it clears, and whether printed) and its Mn's order.
    plan = []
    for theorem, variant, exponent in instances:
        source = THEOREMS[APPLICATION_SOURCE[theorem]]
        exponent = validate_exponent(source.tag, exponent)
        paper = variant == "paper"
        plan.append((theorem, variant, exponent, source,
                     (LHS_TRAPEZOID_CORRECTED if paper else source.lhs_kind, paper),
                     4 if paper else source.derivative_order))
    lhs_keys = {key for _, _, _, _, key, _ in plan}
    orders = {order for *_, order in plan}

    for (a, b), interval in zip(intervals, grid):
        # Each instance's rule scale, with its printed divisor or its rule's D.
        scales = [value_at(rule_scale, source, b - a, exponent,
                           _PRINTED_DIVISOR[theorem] if paper else source.divisor)
                  for theorem, _, exponent, source, (_, paper), _ in plan]
        for alpha, member in zip(alphas, members):
            pprod = (alpha + 1.0) * (alpha + 2.0) * (alpha + 3.0) * (alpha + 4.0)
            middle = (alpha + 3.0) * (alpha + 4.0)
            lhs_of = {(kind, paper): value_at(_cleared_lhs, kind,
                                              middle * (alpha + 4.0) if paper else middle,
                                              a, b, alpha)
                      for kind, paper in lhs_keys}
            endpoint_max = {n: value_at(endpoint_derivative_max, member, interval, n)
                            for n in orders}
            for (theorem, variant, exponent, source, key, order), scale in zip(plan, scales):
                kind, paper = key
                lhs = lhs_of[key]
                m = endpoint_max[order]
                if math.isnan(lhs) or math.isnan(scale) or math.isnan(m):  # a side overflowed
                    lhs = rhs = math.nan
                elif paper:
                    rhs = scale * pprod * m
                else:
                    rhs = abs(DEFECTS[kind][1]) * pprod * (scale * m)
                finite = math.isfinite(lhs) and math.isfinite(rhs)
                passed = finite and within_margin(lhs, rhs, margin_tol)
                note = ""
                if not finite:
                    note = OVERFLOW_NOTE
                elif not passed:
                    note = REFUTED_NOTE if paper else "derived inequality violated"
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
