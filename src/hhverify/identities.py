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

where avg(f) = (1/w) * integral of f over [a, b] and w = b - a.  By
linearity L2's right side is evaluated as one integral over [0, 1/2] of
K(t) * (f'''(t*a+(1-t)*b) - f'''(t*b+(1-t)*a)).  The left sides are
bounds.defect of the corrected rules: L1's is minus the corrected-trapezoid
defect, L2's the corrected-midpoint defect.  Each side is computed
independently by quadrature and the residual |lhs - rhs| is reported; the
identities hold exactly, so the residual is pure numerical error.
"""

from __future__ import annotations

import math
from functools import partial

from .bounds import LHS_MIDPOINT_CORRECTED, LHS_TRAPEZOID_CORRECTED, defect
from .corpus import SmoothFunction
from .errors import OVERFLOW_NOTE, ParameterError, check_tolerance, status
from .numerics import (DEFAULT_QUAD_BUDGET, DEFAULT_QUAD_TOL, Interval,
                       QuadratureResult, check_budget, integrate, nonconvergence_note)

# Per identity: the defect kind and sign of the left side, the derivative
# order n (scale w^n/24), the kernel integrand at t in span (its weight
# times the derivative d read between a and b), and span.
_IDENTITIES = {
    "L1": (LHS_TRAPEZOID_CORRECTED, -1.0, 4,
           lambda d, a, b, t: (t * (1.0 - t)) ** 2 * d(a * t + (1.0 - t) * b),
           Interval(0.0, 1.0)),
    "L2": (LHS_MIDPOINT_CORRECTED, 1.0, 3,
           lambda d, a, b, t: (t * (1.0 - 2.0 * t) * (1.0 + 2.0 * t)
                               * (d(t * a + (1.0 - t) * b) - d(t * b + (1.0 - t) * a))),
           Interval(0.0, 0.5)),
}
IDENTITY_IDS = tuple(_IDENTITIES)
DEFAULT_RESIDUAL_TOL = 1e-8


def check_identity(identity_id: str, f: SmoothFunction, interval: Interval,
                   quad_tol: float = DEFAULT_QUAD_TOL,
                   quad_budget: int = DEFAULT_QUAD_BUDGET,
                   integral: QuadratureResult | None = None,
                   residual_tol: float = DEFAULT_RESIDUAL_TOL) -> dict:
    """The identity record of L1 or L2 on f over one interval; ``integral``
    is f's over it, if already computed.

    The right side is scale times one kernel integral, so its error
    estimate is scale times that integral's.  The note says why the first
    integral that did not converge stopped.  A side that is not a finite
    double counts as not converged, as in the applications.  A converged
    record passes when the residual is at most ``residual_tol``.  A
    tolerance or budget no quadrature admits raises DomainError naming it
    before any integral.
    """
    if identity_id not in _IDENTITIES:
        raise ParameterError(f"unknown identity id {identity_id!r}, "
                             f"expected one of {', '.join(IDENTITY_IDS)}")
    check_tolerance("residual_tol", residual_tol)
    check_tolerance("quad_tol", quad_tol, positive=True)
    check_budget("quad_budget", quad_budget)
    kind, sign, order, kernel, span = _IDENTITIES[identity_id]
    if integral is None:
        integral = integrate(f.func, interval, quad_tol, quad_budget)
    kernel_integral = integrate(partial(kernel, f.deriv(order), interval.a, interval.b),
                                span, quad_tol, quad_budget)
    try:
        lhs = sign * defect(kind, f, interval, integral.value / interval.width)
    except OverflowError:
        lhs = math.nan
    try:
        scale = interval.width ** order / 24.0
    except OverflowError:
        scale = math.nan
    rhs = scale * kernel_integral.value
    stalled = next((q for q in (integral, kernel_integral) if not q.converged), None)
    converged = stalled is None
    note = "" if converged else nonconvergence_note(stalled, quad_budget)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        converged, note = False, OVERFLOW_NOTE
    residual = abs(lhs - rhs) if converged else None
    return {
        "kind": "identity",
        "id": identity_id,
        "function": f.name,
        "interval": [interval.a, interval.b],
        "lhs": lhs,
        "rhs": rhs,
        "residual": residual,
        "quadrature_error": (integral.error_estimate / interval.width
                             + scale * kernel_integral.error_estimate),
        "converged": converged,
        "status": status(converged, True, converged and residual <= residual_tol),
        "note": note,
    }
