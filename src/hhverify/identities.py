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

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .bounds import LHS_MIDPOINT_CORRECTED, LHS_TRAPEZOID_CORRECTED, defect
from .corpus import SmoothFunction
from .errors import OVERFLOW_NOTE
# integrate is not called here; perfbench's tracer patches it under this name.
from .numerics import (DEFAULT_QUAD_BUDGET, DEFAULT_QUAD_TOL, Interval,
                       QuadratureResult, integrate, integrate_rows, nonconvergence_note)

# Per identity: the defect kind and sign of the left side, the derivative
# order n (scale w^n/24), the kernel integrand at t in [0, upper] (its weight
# times the derivative d at t*u + (1-t)*v), upper, and whether the side with
# a and b swapped is subtracted.
_IDENTITIES = {
    "L1": (LHS_TRAPEZOID_CORRECTED, -1.0, 4,
           lambda d, u, v, t: (t * (1.0 - t)) ** 2 * d(u * t + (1.0 - t) * v), 1.0, False),
    "L2": (LHS_MIDPOINT_CORRECTED, 1.0, 3,
           lambda d, u, v, t: (t * (1.0 - 2.0 * t) * (1.0 + 2.0 * t)
                               * d(u * t + (1.0 - t) * v)), 0.5, True),
}
IDENTITY_IDS = tuple(_IDENTITIES)


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
            kernels: tuple[QuadratureResult, ...], quad_budget: int) -> IdentityReport:
    """Assemble the report; rhs is scale times a combination of the kernel
    integrals, so its error estimate is scale times their sum.  The note
    says why the first integral that did not converge stopped.  A side that
    is not a finite double counts as not converged, as in the applications."""
    stalled = next((q for q in (base, *kernels) if not q.converged), None)
    converged = stalled is None
    note = "" if converged else nonconvergence_note(stalled, quad_budget)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        converged, note = False, OVERFLOW_NOTE
    return IdentityReport(
        identity_id=identity_id, function=f.name, interval=interval,
        lhs=lhs, rhs=rhs,
        residual=abs(lhs - rhs) if converged else None,
        quadrature_error=(base.error_estimate / interval.width
                          + scale * sum(k.error_estimate for k in kernels)),
        converged=converged,
        note=note,
    )


def check_identities(identity_id: str, f: SmoothFunction, intervals: Sequence[Interval],
                     quad_tol: float = DEFAULT_QUAD_TOL,
                     quad_budget: int = DEFAULT_QUAD_BUDGET,
                     integrals: Sequence[QuadratureResult] | None = None) -> list[IdentityReport]:
    """Check identity L1 or L2 on f over every interval; ``integrals`` are
    f's, if already computed."""
    if identity_id not in _IDENTITIES:
        raise ValueError(f"unknown identity id {identity_id!r}, expected one of {IDENTITY_IDS}")
    kind, sign, order, kernel, upper, swapped = _IDENTITIES[identity_id]
    a = [iv.a for iv in intervals]
    b = [iv.b for iv in intervals]
    if integrals is None:
        integrals = integrate_rows(f.func, a, b, quad_tol, quad_budget)
    d = f.deriv(order)
    # Per row, the kernel's integral over [0, upper] for (u, v) = (a, b), then (b, a).
    sides = [integrate_rows(kernel, [0.0] * len(a), [upper] * len(a), quad_tol, quad_budget,
                            [(d, u, v) for u, v in uv])
             for uv in ([zip(a, b), zip(b, a)] if swapped else [zip(a, b)])]
    reports = []
    for interval, base, *ks in zip(intervals, integrals, *sides):
        try:
            lhs = sign * defect(kind, f, interval, base.value / interval.width)
        except OverflowError:
            lhs = math.nan
        try:
            scale = interval.width ** order / 24.0
        except OverflowError:
            scale = math.nan
        value = ks[0].value - ks[1].value if swapped else ks[0].value
        reports.append(_report(identity_id, f, interval, base, lhs, scale * value, scale, ks,
                               quad_budget))
    return reports


def check_identity(identity_id: str, f: SmoothFunction, interval: Interval,
                   quad_tol: float = DEFAULT_QUAD_TOL,
                   quad_budget: int = DEFAULT_QUAD_BUDGET) -> IdentityReport:
    """Check identity L1 or L2 on f over one interval."""
    return check_identities(identity_id, f, [interval], quad_tol, quad_budget)[0]

