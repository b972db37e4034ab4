"""Shared numerical kernels.

Adaptive quadrature with an embedded Gauss/Kronrod rule pair, the Euler
Beta function evaluated through log-gamma, and Holder conjugate-exponent
arithmetic.  Everything here is pure and reentrant.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

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


@dataclass(frozen=True)
class HolderPair:
    """Conjugate exponents p, q > 1 with 1/p + 1/q = 1."""

    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 1.0 and self.q > 1.0):
            raise DomainError(f"conjugate exponents must both exceed 1, got ({self.p}, {self.q})")
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > 1e-12:
            raise DomainError(f"1/p + 1/q = 1 violated for ({self.p}, {self.q})")


def conjugate_exponent(p: float) -> HolderPair:
    """Return the Holder pair (p, p/(p-1)) for p > 1."""
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"conjugate exponent requires p > 1, got {p}")
    return HolderPair(p, p / (p - 1.0))


def beta(x: float, y: float) -> float:
    """Euler Beta function B(x, y) for x, y > 0.

    Computed as exp(lgamma(x) + lgamma(y) - lgamma(x + y)) so that large
    arguments cannot overflow the intermediate gamma values.
    """
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"beta requires strictly positive arguments, got ({x}, {y})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
# Positive abscissae; odd indices plus the centre form the embedded Gauss rule.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full symmetric node/weight tables, ordered left to right.
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_KWEIGHTS = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_GWEIGHTS = np.zeros(15)
_GWEIGHTS[[1, 3, 5]] = _WG[:3]
_GWEIGHTS[7] = _WG[3]
_GWEIGHTS[[9, 11, 13]] = _WG[2::-1]

_EVALS_PER_PANEL = 15


def eval_on_array(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate f elementwise, tolerating scalar-only callables.

    A scalar return from an array argument is broadcast (the callable
    ignores its input), anything else falls back to a Python loop.
    """
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(f(x), dtype=float)
        except (TypeError, ValueError):
            flat = np.array([float(f(v)) for v in x.ravel()])
            return flat.reshape(x.shape)
    if out.shape == x.shape:
        return out
    if out.shape == ():
        return np.full(x.shape, float(out))
    flat = np.array([float(f(v)) for v in x.ravel()])
    return flat.reshape(x.shape)


def _panels(f: Callable, a: np.ndarray, b: np.ndarray):
    """Yield (Kronrod value, error estimate) per panel [a_r, b_r] from one call of f;
    each row gets its own 1-D dots, so it sums exactly as a lone panel does."""
    half = 0.5 * (b - a)
    xs = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
    ys = eval_on_array(f, xs)
    finite = np.isfinite(ys).all(axis=1)
    for x, y, h, ok in zip(xs, ys, half.tolist(), finite.tolist()):
        if not ok:
            x_bad = float(x[np.argmax(~np.isfinite(y))])
            raise DomainError(f"integrand returned a non-finite value at x={x_bad!r}")
        kron = h * float(_KWEIGHTS @ y)
        yield kron, abs(kron - h * float(_GWEIGHTS @ y))


def _refine(f: Callable, a: float, b: float, value: float, err: float, tol: float,
            max_evaluations: int) -> QuadratureResult:
    """From the first panel (value, err) on [a, b], bisect the worst until tol or budget."""
    evals = _EVALS_PER_PANEL
    # (-err, insertion counter, a, b, value, err); counter fixes heap ties.
    counter = 0
    active = [(-err, counter, a, b, value, err)]
    done: list[tuple[float, float, float, float]] = []
    total_err = err

    while total_err > tol and active and evals + 2 * _EVALS_PER_PANEL <= max_evaluations:
        _, _, a, b, pval, perr = heapq.heappop(active)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # Panel at floating-point resolution; cannot refine further.
            done.append((a, b, pval, perr))
            continue
        (lv, le), (rv, re) = _panels(f, np.array([a, mid]), np.array([mid, b]))
        evals += 2 * _EVALS_PER_PANEL
        total_err += le + re - perr
        counter += 1
        heapq.heappush(active, (-le, counter, a, mid, lv, le))
        counter += 1
        heapq.heappush(active, (-re, counter, mid, b, rv, re))

    panels = sorted(
        [(a, b, v, e) for (_, _, a, b, v, e) in active] + done,
        key=lambda t: t[0],
    )
    value = math.fsum(v for (_, _, v, _) in panels)
    error = math.fsum(e for (_, _, _, e) in panels)
    return QuadratureResult(value=value, error_estimate=error,
                            evaluations=evals, converged=error <= tol)


def integrate_rows(f: Callable, a, b, tol: float = DEFAULT_QUAD_TOL,
                   max_evaluations: int = DEFAULT_QUAD_BUDGET,
                   params: tuple = ()) -> list[QuadratureResult]:
    """Integrate x -> f(x, *params_r) over [a_r, b_r] for every row r: the
    first panels are one call of f (parameters as columns), then each row
    is refined from its panel as a lone ``integrate`` would, bit for bit."""
    if not tol > 0.0:
        raise DomainError(f"quadrature tolerance must be positive, got {tol}")
    if max_evaluations < _EVALS_PER_PANEL:
        raise DomainError(f"evaluation budget below one panel ({_EVALS_PER_PANEL}), got {max_evaluations}")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    columns = [np.asarray(p, dtype=float)[:, None] for p in params]
    out = []
    for r, (value, err) in enumerate(_panels(lambda x: f(x, *columns), a, b)):
        if err <= tol:  # settled: what _refine returns at once (its fsum maps -0.0 to 0.0)
            out.append(QuadratureResult(math.fsum((value,)), err, _EVALS_PER_PANEL, True))
            continue
        row_f = f if not params else (lambda x, r=r: f(x, *(p[r] for p in params)))
        out.append(_refine(row_f, float(a[r]), float(b[r]), value, err, tol, max_evaluations))
    return out


def integrate(f: Callable, interval: Interval, tol: float = DEFAULT_QUAD_TOL,
              max_evaluations: int = DEFAULT_QUAD_BUDGET) -> QuadratureResult:
    """Adaptively integrate f over the interval to absolute tolerance tol
    (``integrate_rows`` with one row; deterministic for fixed inputs)."""
    return integrate_rows(f, [interval.a], [interval.b], tol, max_evaluations)[0]
