import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify.corpus import admissible_intervals, builtin_corpus
from hhverify.errors import OVERFLOW_NOTE, ParameterError
from hhverify.identities import IDENTITY_IDS, check_identity
from hhverify.numerics import Interval, QuadratureResult, integrate
from hhverify.runner import DEFAULT_INTERVALS

from conftest import poly_smooth, reflected, scaled


def test_trapezoid_identity_quartic_closed_form(corpus, unit):
    # 1/5 + 1/3 - 1/2 = 1/30 on the left, (1/24)*24*(1/30) on the right.
    r = check_identity("L1", corpus["x^4"], unit)
    assert r["converged"]
    assert r["lhs"] == pytest.approx(1.0 / 30.0, abs=1e-12)
    assert r["rhs"] == pytest.approx(1.0 / 30.0, abs=1e-12)
    assert r["residual"] <= 1e-12


def test_an_unknown_identity_id_is_a_parameter_error(corpus, unit):
    with pytest.raises(ParameterError) as err:
        check_identity("L3", corpus["x^4"], unit)
    assert str(err.value) == "unknown identity id 'L3', expected one of L1, L2"


def test_trapezoid_identity_vanishes_for_quadratic(corpus, unit):
    r = check_identity("L1", poly_smooth("x^2", [0, 0, 1]), unit)
    assert abs(r["lhs"]) <= 1e-15
    assert abs(r["rhs"]) <= 1e-15


def test_trapezoid_identity_exp(corpus, unit):
    r = check_identity("L1", corpus["exp"], unit)
    assert r["residual"] <= 1e-8


def test_midpoint_identity_cubic_vanishes(corpus, unit):
    r = check_identity("L2", corpus["x^3"], unit)
    assert abs(r["lhs"]) <= 1e-15
    assert abs(r["rhs"]) <= 1e-15


def test_midpoint_identity_quartic_closed_form(corpus, unit):
    # Exact polynomial integration gives side integrals 11/10 and 2/5,
    # hence (1/24)*(11/10 - 2/5) = 7/240 on both sides.
    f = corpus["x^4"]
    kernel_a = integrate(lambda t: t * (1 - 2 * t) * (1 + 2 * t) * f.deriv(3)(1.0 - t),
                         Interval(0.0, 0.5), tol=1e-12)
    kernel_b = integrate(lambda t: t * (1 - 2 * t) * (1 + 2 * t) * f.deriv(3)(t),
                         Interval(0.0, 0.5), tol=1e-12)
    assert kernel_a.value == pytest.approx(11.0 / 10.0, abs=1e-12)
    assert kernel_b.value == pytest.approx(2.0 / 5.0, abs=1e-12)

    r = check_identity("L2", f, Interval(0.0, 1.0))
    assert r["lhs"] == pytest.approx(7.0 / 240.0, abs=1e-12)
    assert r["rhs"] == pytest.approx(7.0 / 240.0, abs=1e-12)
    assert r["residual"] <= 1e-12


def test_midpoint_identity_affine_vanishes(unit):
    r = check_identity("L2", poly_smooth("affine", [2.0, -3.0]), Interval(-1.0, 4.0))
    assert abs(r["lhs"]) <= 1e-15
    assert abs(r["rhs"]) <= 1e-15


def test_both_identities_hold_corpus_wide():
    grid = [Interval(a, b) for a, b in DEFAULT_INTERVALS]
    instances = 0
    for f in builtin_corpus():
        for iv in admissible_intervals(f, grid):
            for identity_id in ("L1", "L2"):
                r = check_identity(identity_id, f, iv)
                assert r["converged"], (f.name, iv)
                assert r["residual"] <= 1e-8, (f.name, iv, identity_id)
                instances += 1
    assert instances >= 60


def test_midpoint_identity_reflection_invariance(corpus):
    iv = Interval(0.3, 1.1)
    for f in (corpus["x^4"], corpus["exp"]):
        g = reflected(f, iv)
        rf = check_identity("L2", f, iv)
        rg = check_identity("L2", g, iv)
        assert rg["lhs"] == pytest.approx(rf["lhs"], abs=1e-12)
        assert rg["rhs"] == pytest.approx(rf["rhs"], abs=1e-12)
        assert abs(rg["residual"] - rf["residual"]) <= 1e-12


@pytest.mark.parametrize("c", [-1.0, 2.0, 10.0])
def test_identities_scale_linearly(corpus, c):
    iv = Interval(0.25, 1.25)
    f = corpus["exp"]
    g = scaled(f, c)
    for identity_id in ("L1", "L2"):
        rf = check_identity(identity_id, f, iv)
        rg = check_identity(identity_id, g, iv)
        # Every term of both sides is linear in f, sign included.
        assert rg["lhs"] == pytest.approx(c * rf["lhs"], rel=1e-12)
        assert rg["rhs"] == pytest.approx(c * rf["rhs"], rel=1e-12)


def test_non_convergence_yields_non_verdict(corpus, unit):
    r = check_identity("L1", corpus["exp"], unit, quad_tol=1e-30, quad_budget=60)
    assert not r["converged"]
    assert r["residual"] is None
    assert r["status"] == "non_converged"
    # f's integral settles exactly; the kernel's runs out.
    assert r["note"] == "quadrature budget exhausted (error estimate 6.939e-18 after 45 evaluations)"


def test_an_overflowing_left_side_is_non_converged(corpus):
    # The one panel's nodes stay inside, but exp(709.8) at the end raises
    # OverflowError in the trapezoid term; the kernel side stays finite.
    r = check_identity("L1", corpus["exp"], Interval(700.0, 709.8), quad_budget=15)
    assert math.isnan(r["lhs"]) and math.isfinite(r["rhs"])
    assert (r["converged"], r["residual"], r["status"], r["note"]) == (
        False, None, "non_converged", OVERFLOW_NOTE)


def test_the_residual_tolerance_decides_pass_or_fail(corpus):
    iv = Interval(0.25, 1.25)
    r = check_identity("L1", corpus["exp"], iv)
    assert r["residual"] > 0.0 and r["status"] == "pass"
    assert check_identity("L1", corpus["exp"], iv, residual_tol=r["residual"])["status"] == "pass"
    failed = check_identity("L1", corpus["exp"], iv, residual_tol=r["residual"] / 2)
    assert failed == {**r, "status": "fail"}


def test_identity_dispatch(corpus, unit):
    assert check_identity("L1", corpus["x^4"], unit)["id"] == "L1"
    assert check_identity("L2", corpus["x^4"], unit)["id"] == "L2"
    with pytest.raises(ValueError):
        check_identity("L3", corpus["x^4"], unit)


# check_identity against the identities written out as the paper states
# them, each integral one lone ``integrate`` call.  The two-integral form
# of L2 is the value oracle of test_quadrature_oracles.py.
CORPUS = builtin_corpus(sin_domain=Interval(0.0, 6.3))


@st.composite
def function_and_interval(draw):
    """A corpus function and an interval inside its domain, tiny widths included."""
    f = draw(st.sampled_from(CORPUS))
    point = st.floats(f.domain.a, f.domain.b, allow_nan=False)
    a, b = draw(st.tuples(point, point).filter(lambda p: p[0] != p[1]))
    return f, Interval(min(a, b), max(a, b))


def _lone_identity(identity_id, f, iv, tol, budget):
    """Right side, error estimate and convergence of the identity with one
    lone ``integrate`` per integral, written out as the paper states it
    (L2's two kernel integrals as the one integral of their difference)."""
    a, b, w = iv.a, iv.b, iv.width
    base = integrate(f.func, iv, tol, budget)
    if identity_id == "L1":
        d4 = f.deriv(4)
        k = integrate(lambda t: (t * (1.0 - t)) ** 2 * d4(a * t + (1.0 - t) * b),
                      Interval(0.0, 1.0), tol, budget)
        scale = w ** 4 / 24.0
    else:
        # The paper's two integrals over [0, 1/2], folded into one by linearity.
        d3 = f.deriv(3)
        k = integrate(lambda t: t * (1.0 - 2.0 * t) * (1.0 + 2.0 * t)
                      * (d3(t * a + (1.0 - t) * b) - d3(t * b + (1.0 - t) * a)),
                      Interval(0.0, 0.5), tol, budget)
        scale = w ** 3 / 24.0
    converged = base.converged and k.converged
    error = base.error_estimate / w + scale * k.error_estimate
    return scale * k.value, error, converged


@settings(max_examples=120, deadline=None)
@given(function_and_interval(), st.sampled_from(IDENTITY_IDS),
       st.sampled_from([(1e-10, 1_000_000), (1e-14, 1_000_000), (1e-13, 45)]))
def test_identity_equals_its_paper_form(case, identity_id, quadrature):
    f, iv = case
    tol, budget = quadrature
    report = check_identity(identity_id, f, iv, tol, budget)
    assert (report["rhs"], report["quadrature_error"], report["converged"]) == \
        _lone_identity(identity_id, f, iv, tol, budget)


def test_identity_reuses_a_given_integral():
    f = CORPUS[1]
    for iv in (Interval(0.0, 1.0), Interval(-2.0, 0.5)):
        for identity_id in IDENTITY_IDS:
            assert check_identity(identity_id, f, iv, integral=integrate(f.func, iv)) == \
                check_identity(identity_id, f, iv)
    # The given integral is the one used: a stalled one leaves no verdict.
    stalled = QuadratureResult(0.0, 1.0, 15, False)
    assert not check_identity("L1", f, Interval(0.0, 1.0), integral=stalled)["converged"]
