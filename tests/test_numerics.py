import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify.corpus import builtin_corpus, corpus_by_name
from hhverify.errors import DomainError
from hhverify.numerics import Interval, QuadratureResult, integrate, nonconvergence_note
from hhverify.runner import RunConfig, run


def test_interval_rejects_degenerate_and_nonfinite():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, math.inf)
    # Both ends are finite doubles, but b - a overflows.
    with pytest.raises(DomainError, match=r"^interval requires a < b strictly and a finite "
                                          r"width b - a, got \[-1e\+308, 1e\+308\]$"):
        Interval(-1e308, 1e308)
    # Ends are stored as given: integer ends stay integers.
    assert type(Interval(1, 2).b) is int


def test_quartic_kernel_integral_is_one_thirtieth():
    r = integrate(lambda t: (t * (1.0 - t)) ** 2, Interval(0.0, 1.0))
    assert r.converged
    assert abs(r.value - 1.0 / 30.0) <= 1e-12


def test_zero_integrand():
    r = integrate(lambda t: 0.0 * t, Interval(0.0, 1.0))
    assert r.value == 0.0
    assert r.converged


def test_midpoint_kernel_half_interval():
    # Antiderivative of t(1-2t)(1+2t) is t^2/2 - t^4, so the value is 1/16.
    r = integrate(lambda t: t * (1.0 - 2.0 * t) * (1.0 + 2.0 * t), Interval(0.0, 0.5))
    assert abs(r.value - 1.0 / 16.0) <= 1e-14


def _exact_poly_integral(coeffs, a, b):
    fa = Fraction(0)
    fb = Fraction(0)
    for k, c in enumerate(coeffs):
        term = Fraction(c) / (k + 1)
        fa += term * Fraction(a) ** (k + 1)
        fb += term * Fraction(b) ** (k + 1)
    return float(fb - fa)


@pytest.mark.parametrize("degree", range(11))
def test_polynomial_exactness_through_degree_ten(degree):
    # Intervals keep values of order one so round-off stays below 1e-12;
    # the embedded rule itself is exact far beyond degree 10.
    rng = np.random.default_rng(degree)
    coeffs = rng.integers(-9, 10, size=degree + 1).tolist()
    coeffs[-1] = coeffs[-1] or 1
    p = np.polynomial.Polynomial(coeffs)
    for a, b in [(0.0, 1.0), (-1.0, 1.0), (-1.5, 0.5), (0.25, 1.5)]:
        r = integrate(p, Interval(a, b))
        assert r.converged
        assert abs(r.value - _exact_poly_integral(coeffs, a, b)) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)
def test_integrate_is_linear(cf, cg, alpha, beta_):
    f = np.polynomial.Polynomial(cf)
    g = np.polynomial.Polynomial(cg)
    iv = Interval(-1.0, 2.0)
    combined = integrate(lambda x: alpha * f(x) + beta_ * g(x), iv)
    rf = integrate(f, iv)
    rg = integrate(g, iv)
    budget = combined.error_estimate + abs(alpha) * rf.error_estimate \
        + abs(beta_) * rg.error_estimate + 1e-11
    assert abs(combined.value - (alpha * rf.value + beta_ * rg.value)) <= budget


def test_agrees_with_scipy_quad():
    for f, iv in [(np.exp, Interval(0.0, 1.0)), (np.sin, Interval(0.0, 3.0)),
                  (lambda x: np.exp(-x * x), Interval(-2.0, 2.0))]:
        ours = integrate(f, iv)
        ref, _ = scipy.integrate.quad(f, iv.a, iv.b, epsabs=1e-13, epsrel=1e-13)
        assert ours.converged
        assert abs(ours.value - ref) <= 1e-10


def test_budget_exhaustion_is_explicit():
    # The estimate left after 45 evaluations is 7.1e-7, far above any
    # rounding of the Kronrod-Gauss difference.
    r = integrate(math.exp, Interval(-6.0, 6.0), tol=1e-30, max_evaluations=45)
    assert not r.converged
    assert r.evaluations <= 45
    # The value is still the best estimate, not a silent wrong answer.
    assert abs(r.value - (math.exp(6.0) - math.exp(-6.0))) <= 1e-9


def test_nonfinite_integrand_names_abscissa():
    with pytest.raises(DomainError, match="x="):
        integrate(lambda x: np.log(x), Interval(-1.0, 1.0))


def test_an_overflowing_integrand_names_the_abscissa():
    # math.exp raises OverflowError above log(max double) = 709.78: the first
    # node past it is named, as a non-finite value would be.
    exp = corpus_by_name(builtin_corpus())["exp"]
    with pytest.raises(DomainError, match="x=") as err:
        integrate(exp.func, Interval(700.0, 720.0))
    x = float(str(err.value).rpartition("x=")[2])
    assert 700.0 < x <= 720.0 and x > math.log(1.7976931348623157e308)


def test_invalid_tolerance_and_budget():
    with pytest.raises(DomainError):
        integrate(np.exp, Interval(0.0, 1.0), tol=0.0)
    with pytest.raises(DomainError):
        integrate(np.exp, Interval(0.0, 1.0), max_evaluations=3)


def test_nodes_collapsed_onto_the_ends_are_not_converged():
    # The interval is 16384 wide, but all 15 nodes round onto its two ends:
    # the estimate reads -10571.8, though |the integral of sin| <= 2 here.
    lone = integrate(np.sin, Interval(1e20, 1.0000000000000002e20))
    assert not lone.converged
    assert lone.error_estimate == math.inf
    # The same integrand over an ordinary interval converges.
    ordinary = integrate(np.sin, Interval(0.0, math.pi))
    assert ordinary.converged and abs(ordinary.value - 2.0) <= 1e-12


def _assert_non_converged_notes(config, cause):
    report = run(RunConfig.from_dict({"tasks": ["identities", "bounds"], **config}))
    assert len(report["identity_checks"]) == 2 and len(report["bound_checks"]) == 12
    for record in report["identity_checks"]:
        assert record["status"] == "non_converged"
        assert record["note"] == cause
    (a, b), = config["intervals"]
    for record in report["bound_checks"]:
        assert record["status"] == "non_converged" and record["lhs"] is None
        assert record["note"] == f"integral of {config['corpus'][0]} over [{a!r}, {b!r}]: {cause}"


def test_a_run_over_collapsed_nodes_reports_no_integral():
    # The budget is the default 1,000,000: the panel cannot be split.
    _assert_non_converged_notes(
        {"corpus": ["sin"], "sin_domain": [1e20, 2e20],
         "intervals": [[1e20, 1.0000000000000002e20]]},
        "quadrature panels at floating-point resolution (error estimate inf after 15 evaluations)")


def test_a_run_over_an_exhausted_budget_names_the_budget():
    # exp over [-6, 6] needs more than the first panel and one bisection.
    _assert_non_converged_notes(
        {"corpus": ["exp"], "intervals": [[-6.0, 6.0]], "quad_budget": 45},
        "quadrature budget exhausted (error estimate 7.066e-07 after 45 evaluations)")


def test_the_budget_is_named_only_when_another_bisection_would_pass_it():
    stalled = QuadratureResult(0.5, 1e-3, 45, False)
    assert nonconvergence_note(stalled, 74).startswith("quadrature budget exhausted (")
    assert nonconvergence_note(stalled, 75).startswith(
        "quadrature panels at floating-point resolution (")
    # A panel too narrow to bisect is kept as it is, within any budget.
    result = integrate(np.sin, Interval(1.0, math.nextafter(1.0, 2.0)))
    assert (result.converged, result.evaluations) == (False, 15)
    assert nonconvergence_note(result, 45).startswith("quadrature panels at ")
    assert nonconvergence_note(result, 44).startswith("quadrature budget exhausted (")


def test_a_panel_adds_its_weighted_values_left_to_right():
    # From Python 3.12 the built-in sum() of floats is compensated; a panel
    # sums in a fixed order, so a report has the same bits on every version.
    from hhverify.numerics import _KWEIGHTS, _NODES

    def f(x):
        return math.exp(40.0 * x) - 1e17 * x

    terms = [w * f(t) for w, t in zip(_KWEIGHTS, _NODES)]
    left_to_right = 0.0
    for term in terms:
        left_to_right += term
    result = integrate(f, Interval(-1.0, 1.0), tol=1e300)  # settles on the first panel
    assert result.value == left_to_right
    assert result.value != math.fsum(terms)  # the order decides the last bit here


def test_lone_integrals_include_refined_and_exhausted_ones():
    # The integrals of test_identities' paper-form property test are not
    # vacuous: at these settings some refine past their first panel and
    # some run out.
    f = corpus_by_name(builtin_corpus())["exp"]
    results = [integrate(f.func, iv, 1e-13, 45)
               for iv in (Interval(-6.0, 6.0), Interval(0.0, 1.0), Interval(-1.0, 5.0))]
    assert [r.evaluations for r in results] == [45, 15, 45]
    assert [r.converged for r in results] == [False, True, False]


def test_error_estimate_bounds_true_error():
    for f, iv, truth in [
        (np.exp, Interval(0.0, 1.0), math.e - 1.0),
        (np.sin, Interval(0.0, math.pi), 2.0),
        (lambda x: 1.0 / (1.0 + x * x), Interval(0.0, 1.0), math.pi / 4.0),
    ]:
        r = integrate(f, iv)
        assert r.converged
        assert abs(r.value - truth) <= max(r.error_estimate, 5e-15)
