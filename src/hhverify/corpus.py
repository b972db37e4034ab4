"""Test functions with exact derivative chains.

A SmoothFunction bundles an evaluator with analytically supplied
derivatives of orders 1 through 4; derivatives are never obtained by
automatic differentiation, so endpoint derivative magnitudes entering the
bounds carry no extra error source.  Evaluators accept scalars and numpy
arrays alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .numerics import Interval

DEFAULT_ALPHA_GRID = (0.25, 0.5, 1.0)
DEFAULT_SIN_DOMAIN = Interval(0.2, 1.3)


@dataclass(frozen=True)
class SmoothFunction:
    """An evaluator plus exact derivatives of orders 1..4 on a domain."""

    name: str
    domain: Interval
    func: Callable
    derivs: tuple[Callable, Callable, Callable, Callable]

    def __call__(self, x):
        return self.func(x)

    def deriv(self, k: int) -> Callable:
        """Evaluator of the k-th derivative; k = 0 is the function itself."""
        if k == 0:
            return self.func
        if not 1 <= k <= 4:
            raise DomainError(f"derivative order must be in 0..4, got {k}")
        return self.derivs[k - 1]


def make_power_family(alpha: float, domain: Interval | None = None) -> SmoothFunction:
    """Member of the power family whose fourth derivative is x**alpha.

    f(x) = x**(alpha+4) / ((alpha+1)(alpha+2)(alpha+3)(alpha+4)) on a
    strictly positive domain; requires 0 < alpha <= 1.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"family parameter must lie in (0, 1], got {alpha}")
    if domain is None:
        domain = Interval(0.25, 20.0)
    if domain.a < 0.0:
        raise DomainError(f"power family needs a non-negative domain, got [{domain.a}, {domain.b}]")
    c0 = (alpha + 1.0) * (alpha + 2.0) * (alpha + 3.0) * (alpha + 4.0)
    c1 = (alpha + 1.0) * (alpha + 2.0) * (alpha + 3.0)
    c2 = (alpha + 1.0) * (alpha + 2.0)
    c3 = alpha + 1.0
    return SmoothFunction(
        name=f"power_family({alpha:g})",
        domain=domain,
        func=lambda x, a=alpha, c=c0: np.power(x, a + 4.0) / c,
        derivs=(
            lambda x, a=alpha, c=c1: np.power(x, a + 3.0) / c,
            lambda x, a=alpha, c=c2: np.power(x, a + 2.0) / c,
            lambda x, a=alpha, c=c3: np.power(x, a + 1.0) / c,
            lambda x, a=alpha: np.power(x, a),
        ),
    )


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0


def builtin_corpus(alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID,
                   sin_domain: Interval = DEFAULT_SIN_DOMAIN) -> list[SmoothFunction]:
    """The built-in test functions: monomials x^3..x^5, exp, sin, and the
    power family on an alpha grid.  sin's domain is configurable; the
    default keeps all four derivative magnitudes monotone there.
    """
    wide = Interval(-10.0, 10.0)
    corpus = [
        SmoothFunction(
            name="x^3", domain=wide,
            func=lambda x: x ** 3,
            derivs=(lambda x: 3.0 * x ** 2, lambda x: 6.0 * x,
                    lambda x: 6.0 + 0.0 * x, _zero),
        ),
        SmoothFunction(
            name="x^4", domain=wide,
            func=lambda x: x ** 4,
            derivs=(lambda x: 4.0 * x ** 3, lambda x: 12.0 * x ** 2,
                    lambda x: 24.0 * x, lambda x: 24.0 + 0.0 * x),
        ),
        SmoothFunction(
            name="x^5", domain=wide,
            func=lambda x: x ** 5,
            derivs=(lambda x: 5.0 * x ** 4, lambda x: 20.0 * x ** 3,
                    lambda x: 60.0 * x ** 2, lambda x: 120.0 * x),
        ),
        SmoothFunction(
            name="exp", domain=Interval(-6.0, 6.0),
            func=np.exp, derivs=(np.exp, np.exp, np.exp, np.exp),
        ),
        SmoothFunction(
            name="sin", domain=sin_domain,
            func=np.sin,
            derivs=(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin),
        ),
    ]
    for alpha in alpha_grid:
        corpus.append(make_power_family(float(alpha)))
    return corpus


def corpus_by_name(corpus: Sequence[SmoothFunction]) -> dict[str, SmoothFunction]:
    return {f.name: f for f in corpus}


def admissible_intervals(f: SmoothFunction, grid: Sequence[Interval]) -> list[Interval]:
    """Grid intervals that lie inside the function's domain of validity."""
    return [iv for iv in grid if f.domain.contains(iv)]
