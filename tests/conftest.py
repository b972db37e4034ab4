import pytest

from hhverify.corpus import SmoothFunction, builtin_corpus, corpus_by_name
from hhverify.errors import DomainError
from hhverify.numerics import Interval

_FD_STEP_SCALE = 1e-4

# Each Holder rule and the plain rule of the same defect and order.
PLAIN_RULE = {"T1_3": "T1_2", "T1_6": "T1_5", "ME2": "ME1", "ME5": "ME4"}


def poly_smooth(name, coeffs, domain=None):
    """SmoothFunction for a polynomial given low-to-high coefficients.

    The derivative chain comes from numpy's Polynomial.deriv, which is
    exact for the integer/rational coefficients used in tests.  The turning
    points are the real parts of all roots of p^(k) and p^(k+1): numpy may
    split a multiple real root into a complex pair, and a point too many
    keeps |p^(k)| monotone between the points.
    """
    import numpy as np  # here, so that the numpy-free test modules collect without numpy

    p = np.polynomial.Polynomial(coeffs)
    derivs = tuple(p.deriv(k) for k in range(1, 5))

    def turning_points(k, a, b):
        roots = np.concatenate([p.deriv(k).roots(), p.deriv(k + 1).roots()]).real
        return tuple(sorted({float(r) for r in roots if a < r < b}))

    return SmoothFunction(name=name, domain=domain or Interval(-10.0, 10.0),
                          func=p, derivs=derivs, turning_points=turning_points)


def reflected(f, interval):
    """g(x) = f(a + b - x) with the matching derivative chain; its turning
    points mirror those of f (the last four of f's, if f has more)."""
    s = interval.a + interval.b
    return SmoothFunction(
        name=f"reflect({f.name})",
        domain=f.domain,
        func=lambda x, g=f.func: g(s - x),
        derivs=tuple(
            (lambda x, g=d, sign=(-1.0) ** k: sign * g(s - x))
            for k, d in enumerate(f.derivs, start=1)
        ),
        turning_points=lambda k, a, b: tuple(sorted(s - p for p in
                                                    f.turning_points(k, s - b, s - a))),
    )


def scaled(f, c):
    """The function c*f with its derivative chain scaled accordingly."""
    return SmoothFunction(
        name=f"{c:g}*{f.name}",
        domain=f.domain,
        func=lambda x, g=f.func: c * g(x),
        derivs=tuple(
            (lambda x, g=d: c * g(x)) for d in f.derivs
        ),
        turning_points=f.turning_points,
    )


def fd_validate(f, k, n_points=20, seed=0):
    """Largest relative gap between deriv(k) and a central difference of
    deriv(k-1) over random interior sample points.

    The gap is scaled by max(1, |deriv(k)|) so that near-zeros of the
    derivative on wide domains do not inflate a pure quotient.
    """
    import numpy as np  # here, so that the numpy-free test modules collect without numpy

    if not 1 <= k <= 4:
        raise DomainError(f"derivative order must be in 1..4, got {k}")
    rng = np.random.default_rng(seed)
    width = f.domain.width
    lo = f.domain.a + 0.05 * width
    hi = f.domain.b - 0.05 * width
    xs = rng.uniform(lo, hi, size=n_points)
    lower = f.deriv(k - 1)
    exact = f.deriv(k)
    worst = 0.0
    for x in xs:
        h = max(_FD_STEP_SCALE, _FD_STEP_SCALE * abs(x))
        fd = (float(lower(x + h)) - float(lower(x - h))) / (2.0 * h)
        d = float(exact(x))
        gap = abs(fd - d) / max(1.0, abs(d))
        worst = max(worst, gap)
    return worst


@pytest.fixture(scope="session")
def corpus():
    return corpus_by_name(builtin_corpus())


@pytest.fixture(scope="session")
def unit():
    return Interval(0.0, 1.0)
