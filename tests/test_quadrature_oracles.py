"""Quadrature against independent oracles: scipy's QUADPACK and mpmath.

``integrate`` and the kernel integrals of both identities are compared
with ``scipy.integrate.quad`` and ``mpmath.quad`` on random intervals.
The mpmath integrands are written with mpmath's own functions, so they
share no code with the corpus.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify.corpus import builtin_corpus, corpus_by_name
from hhverify.identities import check_identity
from hhverify.numerics import Interval, integrate

CORPUS = corpus_by_name(builtin_corpus(sin_domain=Interval(0.0, 6.3)))


def _power(alpha, k):
    """mpmath k-th derivative of the power-family member with parameter alpha."""
    c = mpmath.mpf(1)
    for j in range(1, 5 - k):
        c *= alpha + j
    return lambda x: x ** (alpha + 4 - k) / c


# Per function: mpmath evaluators of f, f''' and f''''.
MP = {
    "x^3": (lambda x: x ** 3, lambda x: mpmath.mpf(6), lambda x: mpmath.mpf(0)),
    "x^4": (lambda x: x ** 4, lambda x: 24 * x, lambda x: mpmath.mpf(24)),
    "x^5": (lambda x: x ** 5, lambda x: 60 * x ** 2, lambda x: 120 * x),
    "exp": (mpmath.exp, mpmath.exp, mpmath.exp),
    "sin": (mpmath.sin, lambda x: -mpmath.cos(x), mpmath.sin),
}
for _alpha in (0.25, 0.5, 1.0):
    MP[f"power_family({_alpha:g})"] = tuple(_power(mpmath.mpf(_alpha), k) for k in (0, 3, 4))


@st.composite
def function_and_interval(draw):
    name = draw(st.sampled_from(sorted(MP)))
    domain = CORPUS[name].domain
    a = draw(st.floats(domain.a, domain.b))
    b = draw(st.floats(domain.a, domain.b))
    if abs(b - a) < 1e-3:
        b = min(a + 1.0, domain.b) if a + 1e-3 < domain.b else a - 1.0
    return name, Interval(min(a, b), max(a, b))


def _close(value, oracle, tol):
    """Within the quadrature tolerance plus double rounding of the oracle's size."""
    return abs(value - oracle) <= tol + 1e-13 * abs(oracle)


@settings(max_examples=50, deadline=None)
@given(function_and_interval())
def test_integrate_agrees_with_scipy_and_mpmath(case):
    name, iv = case
    f = CORPUS[name]
    ours = integrate(f.func, iv)
    assert ours.converged
    scipy_value, _ = scipy.integrate.quad(lambda x: float(f.func(x)), iv.a, iv.b,
                                          epsabs=1e-13, epsrel=1e-13, limit=200)
    with mpmath.workdps(30):
        mp_value = float(mpmath.quad(MP[name][0], [iv.a, iv.b]))
    assert _close(ours.value, mp_value, 1e-10)
    assert _close(scipy_value, mp_value, 1e-10)


def _mp_kernel_rhs(name, identity_id, iv):
    """The right side of L1 or L2 computed by mpmath at 30 digits."""
    _, d3, d4 = MP[name]
    a, b = mpmath.mpf(iv.a), mpmath.mpf(iv.b)
    w = b - a
    if identity_id == "L1":
        return w ** 4 / 24 * mpmath.quad(
            lambda t: (t * (1 - t)) ** 2 * d4(a * t + (1 - t) * b), [0, 1])

    def kernel(u, v):
        return mpmath.quad(lambda t: t * (1 - 2 * t) * (1 + 2 * t) * d3(u * t + (1 - t) * v),
                           [0, mpmath.mpf(1) / 2])
    return w ** 3 / 24 * (kernel(a, b) - kernel(b, a))


def _scipy_kernel_rhs(f, identity_id, iv):
    a, b, w = iv.a, iv.b, iv.width
    opts = {"epsabs": 1e-13, "epsrel": 1e-13, "limit": 200}
    if identity_id == "L1":
        d4 = f.deriv(4)
        value, _ = scipy.integrate.quad(
            lambda t: (t * (1 - t)) ** 2 * float(d4(a * t + (1 - t) * b)), 0.0, 1.0, **opts)
        return w ** 4 / 24 * value
    d3 = f.deriv(3)
    sides = [scipy.integrate.quad(
        lambda t, u=u, v=v: t * (1 - 2 * t) * (1 + 2 * t) * float(d3(u * t + (1 - t) * v)),
        0.0, 0.5, **opts)[0] for u, v in ((a, b), (b, a))]
    return w ** 3 / 24 * (sides[0] - sides[1])


@settings(max_examples=50, deadline=None)
@given(function_and_interval(), st.sampled_from(["L1", "L2"]))
def test_identity_kernels_agree_with_scipy_and_mpmath(case, identity_id):
    name, iv = case
    report = check_identity(identity_id, CORPUS[name], iv)
    assert report["converged"]
    with mpmath.workdps(30):
        oracle = float(_mp_kernel_rhs(name, identity_id, iv))
    # The kernel integrals meet 1e-10 absolutely; the right side scales
    # them by w^n / 24 and adds the rounding of terms of its own size.
    n = 4 if identity_id == "L1" else 3
    tol = 2e-10 * iv.width ** n / 24 * (2 if identity_id == "L2" else 1)
    assert _close(report["rhs"], oracle, tol)
    assert _close(_scipy_kernel_rhs(CORPUS[name], identity_id, iv), oracle, tol)


def test_exp_on_a_wide_interval_exhausts_a_small_budget():
    # A mathematical cause, not rounding noise: after 45 evaluations (the
    # first panel and one bisection) the embedded estimate of the integral
    # of exp over [-6, 6] is still 7.07e-7, far above 1e-10.
    r = integrate(np.exp, Interval(-6.0, 6.0), max_evaluations=45)
    assert not r.converged
    assert r.evaluations == 45
    assert r.error_estimate == pytest.approx(7.07e-7, rel=1e-3)
    assert abs(r.value - 2.0 * math.sinh(6.0)) <= r.error_estimate
