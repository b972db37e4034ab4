import pytest

from hhverify.corpus import admissible_intervals, builtin_corpus
from hhverify.errors import ParameterError
from hhverify.identities import check_identity
from hhverify.numerics import Interval, integrate
from hhverify.runner import DEFAULT_INTERVALS

from conftest import poly_smooth, reflected, scaled


def test_trapezoid_identity_quartic_closed_form(corpus, unit):
    # 1/5 + 1/3 - 1/2 = 1/30 on the left, (1/24)*24*(1/30) on the right.
    r = check_identity("L1", corpus["x^4"], unit)
    assert r.converged
    assert r.lhs == pytest.approx(1.0 / 30.0, abs=1e-12)
    assert r.rhs == pytest.approx(1.0 / 30.0, abs=1e-12)
    assert r.residual <= 1e-12


def test_an_unknown_identity_id_is_a_parameter_error(corpus, unit):
    with pytest.raises(ParameterError) as err:
        check_identity("L3", corpus["x^4"], unit)
    assert str(err.value) == "unknown identity id 'L3', expected one of L1, L2"


def test_trapezoid_identity_vanishes_for_quadratic(corpus, unit):
    r = check_identity("L1", poly_smooth("x^2", [0, 0, 1]), unit)
    assert abs(r.lhs) <= 1e-15
    assert abs(r.rhs) <= 1e-15


def test_trapezoid_identity_exp(corpus, unit):
    r = check_identity("L1", corpus["exp"], unit)
    assert r.residual <= 1e-8


def test_midpoint_identity_cubic_vanishes(corpus, unit):
    r = check_identity("L2", corpus["x^3"], unit)
    assert abs(r.lhs) <= 1e-15
    assert abs(r.rhs) <= 1e-15


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
    assert r.lhs == pytest.approx(7.0 / 240.0, abs=1e-12)
    assert r.rhs == pytest.approx(7.0 / 240.0, abs=1e-12)
    assert r.residual <= 1e-12


def test_midpoint_identity_affine_vanishes(unit):
    r = check_identity("L2", poly_smooth("affine", [2.0, -3.0]), Interval(-1.0, 4.0))
    assert abs(r.lhs) <= 1e-15
    assert abs(r.rhs) <= 1e-15


def test_both_identities_hold_corpus_wide():
    grid = [Interval(a, b) for a, b in DEFAULT_INTERVALS]
    instances = 0
    for f in builtin_corpus():
        for iv in admissible_intervals(f, grid):
            for identity_id in ("L1", "L2"):
                r = check_identity(identity_id, f, iv)
                assert r.converged, (f.name, iv)
                assert r.residual <= 1e-8, (f.name, iv, identity_id)
                instances += 1
    assert instances >= 60


def test_midpoint_identity_reflection_invariance(corpus):
    iv = Interval(0.3, 1.1)
    for f in (corpus["x^4"], corpus["exp"]):
        g = reflected(f, iv)
        rf = check_identity("L2", f, iv)
        rg = check_identity("L2", g, iv)
        assert rg.lhs == pytest.approx(rf.lhs, abs=1e-12)
        assert rg.rhs == pytest.approx(rf.rhs, abs=1e-12)
        assert abs(rg.residual - rf.residual) <= 1e-12


@pytest.mark.parametrize("c", [-1.0, 2.0, 10.0])
def test_identities_scale_linearly(corpus, c):
    iv = Interval(0.25, 1.25)
    f = corpus["exp"]
    g = scaled(f, c)
    for identity_id in ("L1", "L2"):
        rf = check_identity(identity_id, f, iv)
        rg = check_identity(identity_id, g, iv)
        # Every term of both sides is linear in f, sign included.
        assert rg.lhs == pytest.approx(c * rf.lhs, rel=1e-12)
        assert rg.rhs == pytest.approx(c * rf.rhs, rel=1e-12)


def test_non_convergence_yields_non_verdict(corpus, unit):
    r = check_identity("L1", corpus["exp"], unit, quad_tol=1e-30, quad_budget=60)
    assert not r.converged
    assert r.residual is None
    assert r.note != ""


def test_identity_dispatch(corpus, unit):
    assert check_identity("L1", corpus["x^4"], unit).identity_id == "L1"
    assert check_identity("L2", corpus["x^4"], unit).identity_id == "L2"
    with pytest.raises(ValueError):
        check_identity("L3", corpus["x^4"], unit)
