"""Evaluators for the twelve inequality rules.

Every rule has one shape: the defect of a quadrature rule is bounded by

    |defect(kind)| <= (w^n / D) * c(p) * Mn

with w = b - a, n the derivative order, which is also the width power,
and Mn the larger endpoint magnitude of the n-th derivative, under the
hypothesis that |f^(n)|^e is quasi-convex on the interval, e being 1,
p/(p-1) or q by the rule.  s -> s^e is increasing on [0, inf), so that
holds exactly when |f^(n)| is quasi-convex: the certificate is taken on
|f^(n)| and serves every exponent, exactly: it is the valley test on the
interval's ends and the turning points f supplies.
The table DEFECTS states each defect kind and its Peano kernels.  The
THEOREMS table holds, per tag: the derivative order n, the defect kind,
the exponent parameter the rule takes (none, a finite Holder exponent
p > 1, or a finite power-mean exponent q >= 1), the divisor D, and the
factor c(p), which is absent, the Holder root (1/(p+1))^(1/p) or the
Beta root B(2p+1, 2p+1)^(1/p).  rhs_bound reads the table and nothing
else; the special-means applications read both tables.

The Beta root is computed in log space, exp((2 lgamma(2p+1) -
lgamma(4p+2)) / p), since B(2p+1, 2p+1) is 0 as a double from p = 268.
Each factor is the L^p[0,1] norm of its rule's kernel, nondecreasing in
p, so a p-rule is tightest at its smallest p and never tighter than the
plain rule of its defect and order, whose constant is the p -> 1 limit.

The q-parameterized right-hand sides are written
(max{A^q, B^q})^(1/q) in the source inequalities; for A, B >= 0 that
equals max{A, B}, which is how they are computed here (max first, then
power), so the value is exact and independent of q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .corpus import SmoothFunction
from .errors import OVERFLOW_NOTE, ParameterError, check_tolerance, status, value_at
from .numerics import (DEFAULT_QUAD_BUDGET, DEFAULT_QUAD_TOL, Interval,
                       QuadratureResult, check_budget, integrate, nonconvergence_note)
from .quasiconvex import DEFAULT_QC_TOL, QuasiConvexityCertificate, check_quasi_convex

DEFAULT_MARGIN_TOL = 1e-9
RATIO_DEGENERATE_TOL = 1e-9
UNRESOLVED_NOTE = "hypothesis: no verdict, turning points not distinct doubles inside the interval"
# The sides of a bound record without a verdict: a stalled integral or a side
# that is not a finite double.
_NO_SIDES = {"lhs": None, "rhs": None, "margin": None, "ratio": None, "pass": False,
             "hypothesis": None, "status": status(False, False, False)}

# Exponent parameter kinds.
EXP_NONE = "none"
EXP_HOLDER_P = "p"
EXP_POWER_Q = "q"
# What an exponent of each kind must satisfy, and that rule as an error states it.
# An integer beyond double range is not finite: no factor c(p) can read it.
EXPONENT_RULES = {
    EXP_HOLDER_P: (lambda p: 1.0 < p and value_at(float, p) < math.inf, "finite p > 1"),
    EXP_POWER_Q: (lambda q: 1.0 <= q and value_at(float, q) < math.inf, "finite q >= 1"),
}

# Defect kinds, the rules' left sides.
LHS_TRAPEZOID = "trapezoid"
LHS_TRAPEZOID_CORRECTED = "trapezoid_corrected"
LHS_MIDPOINT_CORRECTED = "midpoint_corrected"
# Per defect kind: (midpoint, D, kernels).  With avg(f) the average of f
# over [a, b], the defect is S - avg(f) + (w/D)(f'(b) - f'(a)), S being
# f((a+b)/2) if midpoint, else (f(a)+f(b))/2; D None drops the derivative
# term, and a mean inequality clears |D|.  kernels maps each derivative
# order n a run reads to its Peano kernel (sign, K, span, fold):
#   sign * defect = (w^n/24) * integral over span of K(t) g(t) dt,
# g(t) = f^(n)(a*t + (1-t)*b), minus f^(n)(t*b + (1-t)*a) when folded.
# K has only integer literals: a double in gives a double, a sympy symbol
# an exact form.
DEFECTS = {
    LHS_TRAPEZOID: (False, None, {}),
    LHS_TRAPEZOID_CORRECTED: (False, -12.0, {
        4: (-1, lambda t: (t * (1 - t)) ** 2, Interval(0.0, 1.0), False)}),
    LHS_MIDPOINT_CORRECTED: (True, 24.0, {
        3: (1, lambda t: t * (1 - 2 * t) * (1 + 2 * t), Interval(0.0, 0.5), True)}),
}


def _holder_root(p: float) -> float:
    return (1.0 / (p + 1.0)) ** (1.0 / p)


def _beta_root(p: float) -> float:
    return math.exp((2.0 * math.lgamma(2.0 * p + 1.0) - math.lgamma(4.0 * p + 2.0)) / p)


@dataclass(frozen=True)
class TheoremSpec:
    tag: str
    derivative_order: int
    lhs_kind: str
    exponent_kind: str
    divisor: float
    factor: Optional[Callable[[float], float]] = None


THEOREMS: dict[str, TheoremSpec] = {
    spec.tag: spec for spec in (
        TheoremSpec("T1_2", 1, LHS_TRAPEZOID, EXP_NONE, 4.0),
        TheoremSpec("T1_3", 1, LHS_TRAPEZOID, EXP_HOLDER_P, 2.0, _holder_root),
        TheoremSpec("T1_4", 2, LHS_TRAPEZOID, EXP_NONE, 12.0),
        TheoremSpec("T1_5", 3, LHS_TRAPEZOID_CORRECTED, EXP_NONE, 192.0),
        TheoremSpec("T1_6", 3, LHS_TRAPEZOID_CORRECTED, EXP_HOLDER_P, 96.0, _holder_root),
        TheoremSpec("T1_7", 3, LHS_TRAPEZOID_CORRECTED, EXP_POWER_Q, 192.0),
        TheoremSpec("ME1", 4, LHS_TRAPEZOID_CORRECTED, EXP_NONE, 720.0),
        TheoremSpec("ME2", 4, LHS_TRAPEZOID_CORRECTED, EXP_HOLDER_P, 24.0, _beta_root),
        TheoremSpec("ME3", 4, LHS_TRAPEZOID_CORRECTED, EXP_POWER_Q, 720.0),
        TheoremSpec("ME4", 3, LHS_MIDPOINT_CORRECTED, EXP_NONE, 192.0),
        TheoremSpec("ME5", 3, LHS_MIDPOINT_CORRECTED, EXP_HOLDER_P, 96.0, _holder_root),
        TheoremSpec("ME6", 3, LHS_MIDPOINT_CORRECTED, EXP_POWER_Q, 192.0),
    )
}

THEOREM_ORDER = tuple(THEOREMS)


def theorem_spec(tag: str) -> TheoremSpec:
    try:
        return THEOREMS[tag]
    except KeyError:
        raise ParameterError(
            f"unknown theorem tag {tag!r}, expected one of {', '.join(THEOREM_ORDER)}"
        ) from None


def defect(kind: str, f: SmoothFunction, interval: Interval, avg: float) -> float:
    """Signed defect of the rule ``kind`` given avg, the average of f over
    the interval, as its DEFECTS entry states it."""
    try:
        midpoint, divisor, _ = DEFECTS[kind]
    except KeyError:
        raise ParameterError(f"unknown defect kind {kind!r}") from None
    a, b = interval.a, interval.b
    value = (float(f(interval.midpoint)) if midpoint
             else 0.5 * (float(f(a)) + float(f(b)))) - avg
    if divisor is None:
        return value
    d1 = f.deriv(1)
    return value + (interval.width / divisor) * (float(d1(b)) - float(d1(a)))


def validate_exponent(tag: str, exponent: Optional[float]) -> None:
    """Raise ParameterError unless the exponent meets the rule of the tag."""
    kind = theorem_spec(tag).exponent_kind
    if kind == EXP_NONE:
        if exponent is not None:
            raise ParameterError(f"{tag} takes no exponent parameter, got {exponent}")
        return
    admits, rule = EXPONENT_RULES[kind]
    if exponent is None:
        raise ParameterError(f"{tag} requires an exponent: {rule}")
    if isinstance(exponent, bool) or not admits(exponent):
        raise ParameterError(f"{tag} requires {rule}, got {exponent}")


def endpoint_derivative_max(f: SmoothFunction, interval: Interval, order: int) -> float:
    """max(|f^(n)(a)|, |f^(n)(b)|), NaN if either is: max(x, nan) is x."""
    d = f.deriv(order)
    at_a, at_b = abs(float(d(interval.a))), abs(float(d(interval.b)))
    return at_b if math.isnan(at_b) else max(at_a, at_b)


def rhs_bound(tag: str, f: SmoothFunction, interval: Interval,
              exponent: Optional[float] = None) -> float:
    """Right-hand side of the tagged rule from endpoint derivative magnitudes.

    The (max{A^q, B^q})^(1/q) terms are computed max-first, so
    q-parameterized bounds are exactly q-independent.
    """
    spec = theorem_spec(tag)
    validate_exponent(tag, exponent)
    return (rule_scale(spec, interval.width, exponent, spec.divisor)
            * endpoint_derivative_max(f, interval, spec.derivative_order))


def rule_scale(spec: TheoremSpec, width: float, exponent: Optional[float],
               divisor: float) -> float:
    """(w^n / divisor) * c(p) of the rule, n its derivative order: its right
    side per unit of Mn.  rhs_bound divides by the table's D, the printed
    applications by theirs."""
    scale = width ** spec.derivative_order / divisor
    if spec.factor is not None:
        scale *= spec.factor(exponent)
    return scale


def within_margin(lhs: float, rhs: float, margin_tol: float) -> bool:
    """The one pass rule of a bound or application record on its sides:
    rhs - lhs >= -margin_tol, the record's margin against the tolerance."""
    return rhs - lhs >= -margin_tol


def hypothesis_function(f: SmoothFunction, order: int) -> Callable:
    d = f.deriv(order)
    return lambda x: abs(d(x))


def certify_hypothesis(order: int, f: SmoothFunction, interval: Interval,
                       qc_tol: float = DEFAULT_QC_TOL) -> QuasiConvexityCertificate:
    """Certificate for quasi-convexity of |f^(n)|, n the derivative order;
    it decides every tag of that order at every exponent."""
    return check_quasi_convex(hypothesis_function(f, order), interval,
                              f.turning_points(order, interval.a, interval.b), qc_tol)


def _certificate_dict(cert: QuasiConvexityCertificate) -> dict:
    # A copy of the witness, so that no two records share one dict.
    counterexample = None if cert.counterexample is None else dict(cert.counterexample)
    return {
        "verdict": cert.verdict,
        "grid_size": cert.grid_size,
        "tol": cert.tol,
        "max_violation": cert.max_violation,
        "counterexample": counterexample,
    }


def _sides(tag: str, f: SmoothFunction, interval: Interval, exponent: Optional[float],
           quad_tol: float, quad_budget: int, margin_tol: float,
           integral: QuadratureResult | None = None) -> dict:
    """lhs, rhs, margin and ratio of a rule instance whose arguments the
    caller checked; or the fields of a record without sides, with a note why."""
    if integral is None:
        integral = integrate(f.func, interval, quad_tol, quad_budget)
    if not integral.converged:
        return {**_NO_SIDES,
                "note": f"integral of {f.name} over [{interval.a}, {interval.b}]: "
                        f"{nonconvergence_note(integral, quad_budget)}"}
    lhs = abs(value_at(defect, THEOREMS[tag].lhs_kind, f, interval,
                       integral.value / interval.width))
    rhs = value_at(rhs_bound, tag, f, interval, exponent)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return {**_NO_SIDES, "note": OVERFLOW_NOTE}
    # Both sides below the degeneracy cut-off read 0 (a rule applied to a
    # polynomial of lower degree than its derivative order); a right side
    # below it against a larger left side is the refutation signal.
    ratio = (lhs / rhs if rhs > RATIO_DEGENERATE_TOL
             else 0.0 if within_margin(lhs, rhs, margin_tol) else math.inf)
    return {"lhs": lhs, "rhs": rhs, "margin": rhs - lhs, "ratio": ratio}


def check_bound(tag: str, f: SmoothFunction, interval: Interval,
                exponent: Optional[float] = None,
                quad_tol: float = DEFAULT_QUAD_TOL,
                quad_budget: int = DEFAULT_QUAD_BUDGET,
                margin_tol: float = DEFAULT_MARGIN_TOL,
                qc_tol: float = DEFAULT_QC_TOL,
                integral: QuadratureResult | None = None,
                hypothesis: QuasiConvexityCertificate | None = None) -> dict:
    """The bound record of one rule instance, ``exponent`` as given.

    The left side is |defect| of the tag's rule.  A refuted hypothesis
    does not abort the check: the inequality is still evaluated and both
    facts are reported, with pass false.  An integral that did not
    converge or a side that is not a finite double leaves a record with
    no sides, non-converged, with a note why; so does a certificate
    without a verdict, which keeps the sides.  An f that is not finite
    inside the interval raises the quadrature's DomainError naming the
    abscissa; a tolerance or budget no quadrature admits raises one naming
    it before any integral.
    ``integral`` and ``hypothesis`` accept precomputed values so a run
    can share work; they must match (f, interval) when given.
    """
    validate_exponent(tag, exponent)
    check_tolerance("margin_tol", margin_tol)
    check_tolerance("quad_tol", quad_tol, positive=True)
    check_budget("quad_budget", quad_budget)
    record = {"kind": "bound", "theorem": tag, "function": f.name,
              "interval": [interval.a, interval.b], "exponent": exponent,
              **_sides(tag, f, interval, exponent, quad_tol, quad_budget, margin_tol, integral)}
    if record["ratio"] is None:
        return record
    if hypothesis is None:
        hypothesis = certify_hypothesis(THEOREMS[tag].derivative_order, f, interval, qc_tol)
    note = {"non_finite": f"hypothesis: non-finite sample at x={hypothesis.bad_abscissa!r}",
            "unresolved": UNRESOLVED_NOTE}.get(hypothesis.verdict, "")
    passed = bool(within_margin(record["lhs"], record["rhs"], margin_tol)
                  and hypothesis.certified)
    return {**record, "pass": passed, "hypothesis": _certificate_dict(hypothesis),
            "status": status(not note, hypothesis.certified, passed), "note": note}
