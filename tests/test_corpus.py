import numpy as np
import pytest

from hhverify.corpus import SmoothFunction, builtin_corpus, make_power_family
from hhverify.errors import DomainError
from hhverify.numerics import Interval

from conftest import fd_validate, poly_smooth, scaled


def test_power_family_alpha_one_values():
    f = make_power_family(1.0)
    # (1+1)(1+2)(1+3)(1+4) = 120
    assert f(1.0) == pytest.approx(1.0 / 120.0, abs=1e-18)
    assert f.deriv(4)(1.0) == 1.0
    assert f.deriv(3)(1.0) == pytest.approx(0.5, abs=1e-15)


def test_power_family_fourth_derivative_vanishes_at_origin():
    f = make_power_family(1.0, domain=Interval(0.0, 1.0))
    assert f.deriv(4)(0.0) == 0.0


def test_power_family_alpha_half():
    f = make_power_family(0.5)
    assert f.deriv(4)(4.0) == 2.0
    assert f.deriv(3)(4.0) == pytest.approx(4.0 ** 1.5 / 1.5, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.0001, 2.0])
def test_power_family_rejects_bad_alpha(alpha):
    with pytest.raises(DomainError):
        make_power_family(alpha)


def test_power_family_rejects_negative_domain():
    with pytest.raises(DomainError):
        make_power_family(0.5, domain=Interval(-1.0, 1.0))


def test_corpus_contains_expected_members(corpus):
    assert {"x^3", "x^4", "x^5", "exp", "sin"} <= set(corpus)
    assert any(name.startswith("power_family(") for name in corpus)


def test_quartic_has_constant_fourth_derivative(corpus):
    f = corpus["x^4"]
    for x in (-3.0, 0.0, 0.7, 5.0):
        assert f.deriv(4)(x) == 24.0
    xs = np.linspace(-2, 2, 7)
    assert np.allclose(f.deriv(4)(xs), 24.0)


def test_cubic_derivative_chain(corpus):
    f = corpus["x^3"]
    for x in (-1.0, 0.5, 2.0):
        assert f.deriv(3)(x) == 6.0
        assert f.deriv(4)(x) == 0.0


def test_exp_is_its_own_derivative(corpus):
    f = corpus["exp"]
    for k in range(5):
        assert f.deriv(k)(0.3) == np.exp(0.3)


def test_deriv_rejects_bad_order(corpus):
    with pytest.raises(DomainError):
        corpus["x^4"].deriv(5)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_every_corpus_member_passes_fd_validation(corpus, k):
    for f in corpus.values():
        assert fd_validate(f, k, n_points=20) <= 1e-5, f.name


def test_quartic_fourth_derivative_fd_residual(corpus):
    assert fd_validate(corpus["x^4"], 4) <= 1e-6


def test_constant_function_fd_residual_is_zero():
    c = poly_smooth("const", [7.0])
    for k in (1, 2, 3, 4):
        assert fd_validate(c, k) == 0.0


def test_exp_on_unit_interval_third_order_residual():
    f = SmoothFunction("exp01", Interval(0.0, 1.0), np.exp,
                       (np.exp, np.exp, np.exp, np.exp))
    assert fd_validate(f, 3) <= 1e-5


def test_scaled_preserves_derivative_chain(corpus):
    g = scaled(corpus["x^4"], -2.0)
    assert g(1.5) == -2.0 * 1.5 ** 4
    assert g.deriv(4)(0.0) == -48.0
    assert fd_validate(g, 4) <= 1e-6


def test_alpha_grid_controls_family_members():
    names = [f.name for f in builtin_corpus(alpha_grid=(0.3, 0.9))]
    assert "power_family(0.3)" in names
    assert "power_family(0.9)" in names
