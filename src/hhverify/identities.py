"""Residual verification of the two exact integral identities.

Each identity states a defect of bounds.DEFECTS through its Peano kernel,
an integral of a higher derivative: L1 minus the corrected-trapezoid
defect through the order-4 kernel over [0, 1], L2 the corrected-midpoint
defect through the order-3 kernel over [0, 1/2].  L2's two kernel
integrals, one per orientation of the interval, are folded by linearity
into one integral of the kernel times the difference of the two third
derivatives.  Each side is computed independently by quadrature and the
residual |lhs - rhs| is reported; the identities hold exactly, so the
residual is pure numerical error.
"""

from __future__ import annotations

import math

from .bounds import DEFECTS, LHS_MIDPOINT_CORRECTED, LHS_TRAPEZOID_CORRECTED, defect
from .corpus import SmoothFunction
from .errors import OVERFLOW_NOTE, ParameterError, check_tolerance, status, value_at
from .numerics import (DEFAULT_QUAD_BUDGET, DEFAULT_QUAD_TOL, Interval,
                       QuadratureResult, check_budget, integrate, nonconvergence_note)

# Per identity: the defect kind of its left side and the derivative order
# of the DEFECTS kernel that gives its right side.
_IDENTITIES = {"L1": (LHS_TRAPEZOID_CORRECTED, 4), "L2": (LHS_MIDPOINT_CORRECTED, 3)}
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
    kind, order = _IDENTITIES[identity_id]
    sign, weight, span, fold = DEFECTS[kind][2][order]
    d, a, b = f.deriv(order), interval.a, interval.b

    def kernel(t):
        g = d(a * t + (1.0 - t) * b)
        return weight(t) * (g - d(t * b + (1.0 - t) * a) if fold else g)

    if integral is None:
        integral = integrate(f.func, interval, quad_tol, quad_budget)
    kernel_integral = integrate(kernel, span, quad_tol, quad_budget)
    lhs = sign * value_at(defect, kind, f, interval, integral.value / interval.width)
    scale = value_at(pow, interval.width, order) / 24.0
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
