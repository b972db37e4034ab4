"""Residual verification of the two exact integral identities.

Both identities express a quadrature-rule defect through a weighted
integral of a higher derivative:

  L1 (trapezoid defect):
      avg(f) + (w/12)*(f'(b) - f'(a)) - (f(a)+f(b))/2
        = (w^4/24) * I[0,1]( (t(1-t))^2 * f''''(a*t + (1-t)*b) )

  L2 (midpoint defect):
      f((a+b)/2) - avg(f) + (w/24)*(f'(b) - f'(a))
        = (w^3/24) * ( I[0,1/2](K(t) f'''(t*a+(1-t)*b))
                     - I[0,1/2](K(t) f'''(t*b+(1-t)*a)) )
      with kernel K(t) = t(1-2t)(1+2t)

where avg(f) = (1/w) * integral of f over [a, b] and w = b - a.  The left
sides are bounds.defect of the corrected rules: L1's is minus the
corrected-trapezoid defect, L2's the corrected-midpoint defect.  Each side
is computed independently by quadrature and the residual |lhs - rhs| is
reported; the identities hold exactly, so the residual is pure numerical
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bounds import LHS_MIDPOINT_CORRECTED, LHS_TRAPEZOID_CORRECTED, defect
from .corpus import SmoothFunction
from .numerics import (DEFAULT_QUAD_BUDGET, DEFAULT_QUAD_TOL, Interval,
                       QuadratureResult, integrate)

IDENTITY_IDS = ("L1", "L2")


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    function: str
    interval: Interval
    lhs: float
    rhs: float
    residual: Optional[float]  # None unless every quadrature converged
    quadrature_error: float
    converged: bool
    note: str = ""


def _report(identity_id: str, f: SmoothFunction, interval: Interval,
            base: QuadratureResult, lhs: float, rhs: float, scale: float,
            kernels: tuple[QuadratureResult, ...]) -> IdentityReport:
    """Assemble the report; rhs is scale times a combination of the kernel
    integrals, so its error estimate is scale times their sum."""
    converged = base.converged and all(k.converged for k in kernels)
    return IdentityReport(
        identity_id=identity_id, function=f.name, interval=interval,
        lhs=lhs, rhs=rhs,
        residual=abs(lhs - rhs) if converged else None,
        quadrature_error=(base.error_estimate / interval.width
                          + scale * sum(k.error_estimate for k in kernels)),
        converged=converged,
        note="" if converged else "quadrature did not converge within budget",
    )


def trapezoid_defect_identity(f: SmoothFunction, interval: Interval,
                              quad_tol: float = DEFAULT_QUAD_TOL,
                              quad_budget: int = DEFAULT_QUAD_BUDGET,
                              integral: QuadratureResult | None = None) -> IdentityReport:
    """Check identity L1 on f over the interval."""
    a, b = interval.a, interval.b
    base = integral or integrate(f.func, interval, quad_tol, quad_budget)
    lhs = -defect(LHS_TRAPEZOID_CORRECTED, f, interval, base.value / interval.width)
    d4 = f.deriv(4)
    kernel = integrate(lambda t: (t * (1.0 - t)) ** 2 * d4(a * t + (1.0 - t) * b),
                       Interval(0.0, 1.0), quad_tol, quad_budget)
    scale = interval.width ** 4 / 24.0
    return _report("L1", f, interval, base, lhs, scale * kernel.value, scale, (kernel,))


def midpoint_defect_identity(f: SmoothFunction, interval: Interval,
                             quad_tol: float = DEFAULT_QUAD_TOL,
                             quad_budget: int = DEFAULT_QUAD_BUDGET,
                             integral: QuadratureResult | None = None) -> IdentityReport:
    """Check identity L2 on f over the interval."""
    a, b = interval.a, interval.b
    base = integral or integrate(f.func, interval, quad_tol, quad_budget)
    lhs = defect(LHS_MIDPOINT_CORRECTED, f, interval, base.value / interval.width)
    d3 = f.deriv(3)
    half = Interval(0.0, 0.5)
    side_a = integrate(
        lambda t: t * (1.0 - 2.0 * t) * (1.0 + 2.0 * t) * d3(t * a + (1.0 - t) * b),
        half, quad_tol, quad_budget)
    side_b = integrate(
        lambda t: t * (1.0 - 2.0 * t) * (1.0 + 2.0 * t) * d3(t * b + (1.0 - t) * a),
        half, quad_tol, quad_budget)
    scale = interval.width ** 3 / 24.0
    return _report("L2", f, interval, base, lhs, scale * (side_a.value - side_b.value),
                   scale, (side_a, side_b))


def check_identity(identity_id: str, f: SmoothFunction, interval: Interval,
                   quad_tol: float = DEFAULT_QUAD_TOL,
                   quad_budget: int = DEFAULT_QUAD_BUDGET,
                   integral: QuadratureResult | None = None) -> IdentityReport:
    """Dispatch on the identity tag (L1 or L2)."""
    if identity_id == "L1":
        return trapezoid_defect_identity(f, interval, quad_tol, quad_budget, integral)
    if identity_id == "L2":
        return midpoint_defect_identity(f, interval, quad_tol, quad_budget, integral)
    raise ValueError(f"unknown identity id {identity_id!r}, expected one of {IDENTITY_IDS}")
