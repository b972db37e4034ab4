"""Shared numerical kernels.

Adaptive quadrature with an embedded Gauss/Kronrod rule pair on closed
intervals.  Everything here is pure and reentrant.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Callable

from .errors import DomainError, check_tolerance

DEFAULT_QUAD_TOL = 1e-10
DEFAULT_QUAD_BUDGET = 1_000_000


@dataclass(frozen=True)
class Interval:
    """A closed segment [a, b] with finite endpoints and a < b strictly."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise DomainError(f"interval requires a < b strictly, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    def contains(self, other: "Interval") -> bool:
        return self.a <= other.a and other.b <= self.b


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive integration.

    ``converged`` is True only when the accumulated error estimate met the
    requested tolerance; a budget-exhausted run is reported explicitly
    rather than returning a silently wrong value.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
# Positive abscissae; odd indices plus the centre form the embedded Gauss rule.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

# Full symmetric node/weight tables, ordered left to right; the Gauss
# weights are those of the odd-indexed nodes.
_NODES = tuple(-x for x in _XGK[:7]) + _XGK[7::-1]
_KWEIGHTS = _WGK + _WGK[6::-1]
_GWEIGHTS = _WG + _WG[2::-1]

_EVALS_PER_PANEL = 15


def value_at(f: Callable, x: float) -> float:
    """f(x) as a float, infinite where f overflows a double."""
    try:
        return float(f(x))
    except OverflowError:
        return math.inf


def _panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    """(Kronrod value, error estimate) of f on the panel [a, b].

    A node where f overflows or is not a finite double raises DomainError
    naming it.  A panel too narrow for its magnitude has nodes that collapse
    onto its ends: unless they are distinct doubles, its error is infinite.
    """
    half = 0.5 * (b - a)
    centre = 0.5 * (a + b)
    xs = [centre + half * t for t in _NODES]
    try:
        ys = list(map(f, xs))
        finite = all(map(math.isfinite, ys))
    except OverflowError:
        finite = False
    if not finite:
        bad = next(x for x in xs if not math.isfinite(value_at(f, x)))
        raise DomainError(f"integrand returned a non-finite value at x={bad!r}")
    # Weighted sums added left to right: Python 3.12 made the built-in sum()
    # of floats compensated, which would change a report's bits with the
    # interpreter.  reduce keeps them the same on every version.
    kron = half * reduce(add, map(mul, _KWEIGHTS, ys), 0.0)
    if len(set(xs)) < _EVALS_PER_PANEL:  # rounding is monotone: distinct means increasing
        return kron, math.inf
    return kron, abs(kron - half * reduce(add, map(mul, _GWEIGHTS, ys[1::2]), 0.0))


def _integrate(f: Callable, a: float, b: float, tol: float,
               max_evaluations: int) -> QuadratureResult:
    """From one panel on [a, b], bisect the worst panel until tol or budget."""
    value, err = _panel(f, a, b)
    if err <= tol:  # settled: what the loop below returns at once (fsum maps -0.0 to 0.0)
        return QuadratureResult(math.fsum((value,)), err, _EVALS_PER_PANEL, True)
    evals = _EVALS_PER_PANEL
    # (-err, insertion counter, a, b, value, err); counter fixes heap ties.
    counter = itertools.count()
    active = [(-err, next(counter), a, b, value, err)]
    done: list[tuple[float, float]] = []  # (value, err) of unsplittable panels
    total_err = err

    while total_err > tol and active and evals + 2 * _EVALS_PER_PANEL <= max_evaluations:
        _, _, a, b, pval, perr = heapq.heappop(active)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # Panel at floating-point resolution; cannot refine further.
            done.append((pval, perr))
            continue
        lv, le = _panel(f, a, mid)
        rv, re = _panel(f, mid, b)
        evals += 2 * _EVALS_PER_PANEL
        total_err += le + re - perr
        heapq.heappush(active, (-le, next(counter), a, mid, lv, le))
        heapq.heappush(active, (-re, next(counter), mid, b, rv, re))

    # fsum is correctly rounded, so the order of the panels changes no bit.
    panels = [(v, e) for (_, _, _, _, v, e) in active] + done
    value = math.fsum(v for v, _ in panels)
    error = math.fsum(e for _, e in panels)
    return QuadratureResult(value=value, error_estimate=error,
                            evaluations=evals, converged=error <= tol)


def nonconvergence_note(result: QuadratureResult, max_evaluations: int) -> str:
    """Why an integration did not converge: the budget, if another bisection would
    pass it; else panels at floating-point resolution (unsplittable or nodes collapsed)."""
    cause = ("quadrature budget exhausted"
             if result.evaluations + 2 * _EVALS_PER_PANEL > max_evaluations
             else "quadrature panels at floating-point resolution")
    return (f"{cause} (error estimate {result.error_estimate:.3e} after "
            f"{result.evaluations} evaluations)")


def check_budget(name: str, budget: int) -> None:
    """Raise DomainError naming ``name`` unless budget is finite and covers
    one GK15 panel: a NaN budget stops at once, an infinite one never."""
    if not (math.isfinite(budget) and budget >= _EVALS_PER_PANEL):
        raise DomainError(f"{name} must be a finite budget of at least one panel "
                          f"({_EVALS_PER_PANEL}), got {budget}")


def integrate(f: Callable, interval: Interval, tol: float = DEFAULT_QUAD_TOL,
              max_evaluations: int = DEFAULT_QUAD_BUDGET) -> QuadratureResult:
    """Adaptively integrate f over the interval to absolute tolerance tol
    (deterministic for fixed inputs)."""
    check_tolerance("tol", tol, positive=True)
    check_budget("max_evaluations", max_evaluations)
    return _integrate(f, float(interval.a), float(interval.b), tol, max_evaluations)
