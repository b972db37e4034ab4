"""Test functions with exact derivative chains.

A SmoothFunction bundles an evaluator with analytically supplied
derivatives of orders 1 through 4; derivatives are never obtained by
automatic differentiation, so endpoint derivative magnitudes entering the
bounds carry no extra error source.  Evaluators are scalar callables,
float -> float; one that overflows a double may raise OverflowError.  Each
function also knows where the magnitude of each derivative turns, which
makes its quasi-convexity certificates exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DomainError
from .numerics import Interval

DEFAULT_ALPHA_GRID = (0.25, 0.5, 1.0)
DEFAULT_SIN_DOMAIN = Interval(0.2, 1.3)
_HALF_PI = math.pi / 2.0
_FLAT = 2.0 ** -26


@dataclass(frozen=True)
class SmoothFunction:
    """An evaluator plus exact derivatives of orders 1..4 on a domain.

    ``turning_points(k, a, b)`` gives the zeros of f^(k) and f^(k+1) inside
    (a, b), ascending, between which |f^(k)| is monotone: the first four
    of sin's, since four multiples of pi/2 hold a zero-peak-zero hump, the
    largest violation of quasi-convexity there can be."""

    name: str
    domain: Interval
    func: Callable
    derivs: tuple[Callable, Callable, Callable, Callable]
    turning_points: Callable[[int, float, float], tuple[float, ...]]

    def __call__(self, x):
        return self.func(x)

    def deriv(self, k: int) -> Callable:
        """Evaluator of the k-th derivative; k = 0 is the function itself."""
        if k == 0:
            return self.func
        if not 1 <= k <= 4:
            raise DomainError(f"derivative order must be in 0..4, got {k}")
        return self.derivs[k - 1]


def no_turning_points(k: int, a: float, b: float) -> tuple[float, ...]:
    """exp and the power family: every |f^(k)| is monotone on the domain."""
    return ()


def _sin_turning_points(k: int, a: float, b: float) -> tuple[float, ...]:
    """sin: each f^(k) is +-sin or +-cos, turning on the multiples of pi/2.
    Their offsets from a come from a's exactly reduced angle, so where doubles
    are too coarse to hold them they repeat or land on an end.  One within
    _FLAT of an end is left out: a valley there adds no violation, and a peak
    rises less than _FLAT**2 / 2 = 2**-53 above the end's value."""
    first = _HALF_PI - math.atan2(math.sin(a), math.cos(a)) % _HALF_PI
    offsets = (first + j * _HALF_PI for j in range(4))
    return tuple(a + d for d in offsets if _FLAT <= d < b - a - _FLAT)


def make_power_family(alpha: float, domain: Interval | None = None) -> SmoothFunction:
    """Member of the power family whose fourth derivative is x**alpha.

    f(x) = x**(alpha+4) / ((alpha+1)(alpha+2)(alpha+3)(alpha+4)) on a
    strictly positive domain; requires 0 < alpha <= 1.  Left of 0 each
    evaluator is NaN, never a complex power.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"family parameter must lie in (0, 1], got {alpha}")
    if domain is None:
        domain = Interval(0.25, 20.0)
    if domain.a < 0.0:
        raise DomainError(f"power family needs a non-negative domain, got [{domain.a}, {domain.b}]")

    def deriv(k: int) -> Callable:
        """f^(k)(x) = x**(alpha+4-k) / ((alpha+1)...(alpha+4-k))."""
        e, c = alpha + (4 - k), math.prod(alpha + j for j in range(1, 5 - k))
        return lambda x: (x ** e if x >= 0.0 else math.nan) / c

    return SmoothFunction(
        name=f"power_family({alpha:g})",
        domain=domain,
        func=deriv(0),
        derivs=tuple(deriv(k) for k in range(1, 5)),
        turning_points=no_turning_points,
    )


def _monomial(n: int) -> SmoothFunction:
    """x^n on [-10, 10]: f^(k) is n!/(n-k)! * x^(n-k) for k <= n and 0 beyond;
    its magnitude turns only at 0, and only for k < n."""
    def deriv(k: int) -> Callable:
        if k > n:
            return lambda x: 0.0
        c, e = float(math.perm(n, k)), n - k
        return lambda x: c * x ** e

    return SmoothFunction(
        name=f"x^{n}", domain=Interval(-10.0, 10.0),
        func=lambda x: x ** n,
        derivs=tuple(deriv(k) for k in range(1, 5)),
        turning_points=lambda k, a, b: (0.0,) if k < n and a < 0.0 < b else (),
    )


def builtin_corpus(alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID,
                   sin_domain: Interval = DEFAULT_SIN_DOMAIN) -> list[SmoothFunction]:
    """The built-in test functions: monomials x^3..x^5, exp, sin, and the
    power family on an alpha grid.  Two alphas that print alike under %g
    would name one member: a DomainError, which a config reports under
    alpha_grid.  sin's domain is configurable; the default keeps all four
    derivative magnitudes monotone there.
    """
    corpus = [
        *(_monomial(n) for n in (3, 4, 5)),
        SmoothFunction(
            name="exp", domain=Interval(-6.0, 6.0),
            func=math.exp, derivs=(math.exp,) * 4,
            turning_points=no_turning_points,
        ),
        SmoothFunction(
            name="sin", domain=sin_domain,
            func=math.sin,
            derivs=(math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x), math.sin),
            turning_points=_sin_turning_points,
        ),
    ]
    named = {}  # member name -> its alpha
    for alpha in map(float, alpha_grid):
        f = make_power_family(alpha)
        if f.name in named:
            raise DomainError(f"{named[f.name]!r} and {alpha!r} both name {f.name}")
        named[f.name] = alpha
        corpus.append(f)
    return corpus


def corpus_by_name(corpus: Sequence[SmoothFunction]) -> dict[str, SmoothFunction]:
    return {f.name: f for f in corpus}


def admissible_intervals(f: SmoothFunction, grid: Sequence[Interval]) -> list[Interval]:
    """Grid intervals that lie inside the function's domain of validity."""
    return [iv for iv in grid if f.domain.contains(iv)]
