"""Exact quasi-convexity certificates from turning points.

g is quasi-convex on [a, b] when g(lam*x + (1-lam)*y) <= max(g(x), g(y))
for all x, y and lam in [0, 1]; the best such bound on g(t) is max(min g
on [a, t], min g on [t, b]).  If g is continuous and monotone between
a < p_1 < ... < p_m < b, g exceeds it most at some p_i, where the minima
are a prefix and a suffix minimum: this valley test on m + 2 values is
exact.  The caller gives the turning points p_i (a SmoothFunction knows
its own), or the first few of many if those hold a violation as large as
any other.  Besides "certified" and "refuted" (with a re-verified witness),
"non_finite" (g is NaN or infinite at ``bad_abscissa``) and "unresolved"
(turning points not distinct doubles strictly inside) decide nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import check_tolerance, value_at
from .numerics import Interval

DEFAULT_QC_TOL = 1e-12


@dataclass(frozen=True)
class QuasiConvexityCertificate:
    verdict: str  # "certified" | "refuted" | "non_finite" | "unresolved"
    grid_size: int  # abscissae evaluated: the two ends and the turning points
    tol: float
    max_violation: float
    counterexample: Optional[dict] = None  # the witness, under the report's keys
    bad_abscissa: Optional[float] = None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def _certificate(g: Callable, xs: list[float], gs: list[float],
                 tol: float) -> QuasiConvexityCertificate:
    """The valley test on abscissae xs, where g is gs.  A witness (the first
    smallest value on each side of the worst x_s) that does not re-verify at
    its own mixed point gives up its violation, and the search goes on."""
    n = len(xs)
    finite = [v for v in gs if math.isfinite(v)]
    tol *= max(1.0, max(map(abs, finite), default=0.0))
    if any(x >= y for x, y in zip(xs, xs[1:])):
        return QuasiConvexityCertificate("unresolved", n, tol, math.nan)
    if len(finite) < n:
        bad = min(x for x, v in zip(xs, gs) if not math.isfinite(v))
        return QuasiConvexityCertificate("non_finite", n, tol, math.nan, bad_abscissa=bad)
    hi = list(itertools.accumulate(reversed(gs), min))[::-1]  # min(g(x_s), ..., g(x_n-1))
    viol = [v - max(low, high) for v, low, high in zip(gs, itertools.accumulate(gs, min), hi)]
    while viol[s := max(range(n), key=viol.__getitem__)] > tol:
        i = min(range(s + 1), key=gs.__getitem__)  # a violation at s means i < s < j
        j = min(range(s, n), key=gs.__getitem__)
        lam = min(1.0, max(0.0, (xs[j] - xs[s]) / (xs[j] - xs[i])))
        t = lam * xs[i] + (1.0 - lam) * xs[j]
        mixed = value_at(g, t)
        if not math.isfinite(mixed):
            return QuasiConvexityCertificate("non_finite", n, tol, math.nan, bad_abscissa=t)
        violation = mixed - max(gs[i], gs[j])
        if violation > tol:
            return QuasiConvexityCertificate("refuted", n, tol, viol[s], {
                "x": xs[i], "y": xs[j], "lam": lam, "mixed_value": mixed,
                "value_x": gs[i], "value_y": gs[j], "violation": violation})
        viol[s] = violation
    return QuasiConvexityCertificate("certified", n, tol, max(viol[s], 0.0))


def check_quasi_convex(g: Callable, interval: Interval, turning_points: Sequence[float],
                       tol: float = DEFAULT_QC_TOL) -> QuasiConvexityCertificate:
    """The certificate of g on the interval, given g's turning points inside
    it, ascending: g is evaluated at each end and turning point, and at a
    witness.  ``tol`` is relative, so that rounding cannot refute large g."""
    check_tolerance("tol", tol)
    xs = [float(interval.a), *map(float, turning_points), float(interval.b)]
    return _certificate(g, xs, [value_at(g, x) for x in xs], tol)
