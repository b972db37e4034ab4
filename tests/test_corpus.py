import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhverify.corpus import (SmoothFunction, builtin_corpus, corpus_by_name,
                             make_power_family, no_turning_points)
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
                       (np.exp, np.exp, np.exp, np.exp), no_turning_points)
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


# --- turning points ---------------------------------------------------------

WIDE_CORPUS = builtin_corpus(sin_domain=Interval(-20.0, 20.0))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(WIDE_CORPUS), st.integers(0, 4), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0))
def test_each_derivative_magnitude_is_monotone_between_its_turning_points(f, k, u, v):
    lo, hi = sorted((u, v))
    a, b = (f.domain.a + t * f.domain.width for t in (lo, hi))
    assume(a < b)
    points = f.turning_points(k, a, b)
    assert list(points) == sorted(set(points)) and len(points) <= 4
    assert all(a < p < b for p in points)
    d, d_next = f.deriv(k), (f.deriv(k + 1) if k < 4 else None)
    for p in points:  # a zero of f^(k) or of f^(k+1) (f^(5) of sin is cos)
        slope = float(d_next(p)) if d_next else math.cos(p)
        assert min(abs(float(d(p))), abs(slope)) <= 1e-12
    # With four points (sin) |f^(k)| need not be monotone after the last one.
    abscissae = [a, *points] + ([] if len(points) == 4 else [b])
    for x, y in zip(abscissae, abscissae[1:]):
        g = np.abs(d(np.linspace(x, y, 65)))
        steps = np.diff(g)
        eps = 1e-12 * max(1.0, float(g.max()))
        assert (steps >= -eps).all() or (steps <= eps).all(), (f.name, k, x, y)


def test_the_first_four_turning_points_of_sin_hold_a_hump():
    sin = corpus_by_name(builtin_corpus(sin_domain=Interval(0.0, 1e300)))["sin"]
    for k in range(5):
        points = sin.turning_points(k, 0.3, 1e300)
        g = np.abs(sin.deriv(k)(np.array(points)))
        humps = [g[i + 1] - max(g[i], g[i + 2]) for i in range(2)]
        assert max(humps) >= 1.0 - 1e-15


def test_monomial_turning_points_are_the_origin_below_the_degree(corpus):
    x4 = corpus["x^4"]
    assert [x4.turning_points(k, -1.0, 2.0) for k in range(5)] == [(0.0,)] * 4 + [()]
    assert x4.turning_points(1, 0.0, 2.0) == ()


def test_sin_turning_points_within_flat_reach_of_an_end_are_left_out():
    # 3*pi/2 lies between the doubles h and its successor, 1.8e-16 above h.
    sin = corpus_by_name(builtin_corpus(sin_domain=Interval(0.0, 6.3)))["sin"]
    h = 3 * math.pi / 2
    assert sin.turning_points(1, h, 6.0) == ()
    assert sin.turning_points(1, 0.2, math.nextafter(h, 6.0)) == (math.pi / 2, math.pi)
    assert sin.turning_points(1, 0.2, h + 1e-6) == (math.pi / 2, math.pi, h)


def test_sin_turning_points_too_close_for_doubles_repeat():
    # Adjacent doubles near 1e20 hold thousands of multiples of pi/2.
    sin = corpus_by_name(builtin_corpus(sin_domain=Interval(1e20, 2e20)))["sin"]
    points = sin.turning_points(4, 1e20, 1.0000000000000002e20)
    assert len(points) == 4 and len(set(points)) < 4


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0


# The hand-written chains of x^3, x^4 and x^5 (f, f', ..., f''''): the oracle
# of the chains corpus derives from n.
HAND_WRITTEN_MONOMIALS = {
    "x^3": (lambda x: x ** 3, lambda x: 3.0 * x ** 2, lambda x: 6.0 * x,
            lambda x: 6.0 + 0.0 * x, _zero),
    "x^4": (lambda x: x ** 4, lambda x: 4.0 * x ** 3, lambda x: 12.0 * x ** 2,
            lambda x: 24.0 * x, lambda x: 24.0 + 0.0 * x),
    "x^5": (lambda x: x ** 5, lambda x: 5.0 * x ** 4, lambda x: 20.0 * x ** 3,
            lambda x: 60.0 * x ** 2, lambda x: 120.0 * x),
}
_EDGES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 10.0, -10.0]


def _same_bits(got, want) -> bool:
    return (type(got) is type(want)
            and np.asarray(got).dtype == np.asarray(want).dtype
            and np.asarray(got).shape == np.asarray(want).shape
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN_MONOMIALS))
def test_monomial_chains_match_the_hand_written_ones_bit_for_bit(corpus, name):
    rng = np.random.default_rng(20)
    xs = np.concatenate([rng.uniform(-10.0, 10.0, 20_000), _EDGES])
    scalars = [float(x) for x in rng.uniform(-10.0, 10.0, 200)] + _EDGES
    for k, oracle in enumerate(HAND_WRITTEN_MONOMIALS[name]):
        d = corpus[name].deriv(k)
        assert _same_bits(d(xs), oracle(xs)), k
        assert _same_bits(d(xs.reshape(-1, 8)), oracle(xs.reshape(-1, 8))), k
        for x in scalars:
            assert _same_bits(d(x), oracle(x)), (k, x)
            assert _same_bits(d(np.float64(x)), oracle(np.float64(x))), (k, x)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(HAND_WRITTEN_MONOMIALS)), st.integers(0, 4),
       st.floats(-10.0, 10.0))
def test_every_monomial_derivative_matches_its_hand_written_one(name, k, x):
    d = corpus_by_name(builtin_corpus())[name].deriv(k)
    assert _same_bits(d(x), HAND_WRITTEN_MONOMIALS[name][k](x))
