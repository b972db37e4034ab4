import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhverify.bounds import certify_hypothesis, hypothesis_function
from hhverify.corpus import builtin_corpus, corpus_by_name
from hhverify.errors import DomainError
from hhverify.numerics import Interval
from hhverify.quasiconvex import check_quasi_convex

from conftest import poly_smooth
from quasiconvex_oracle import sample_certificate


def test_convex_parabola_is_certified():
    cert = check_quasi_convex(lambda x: x ** 2, Interval(-1.0, 2.0), (0.0,))
    assert cert.certified
    assert cert.counterexample is None
    assert cert.max_violation == 0.0


def test_monotone_root_is_certified():
    assert check_quasi_convex(lambda x: x ** 0.5, Interval(0.1, 4.0), ()).certified


def test_absolute_value_is_certified():
    assert check_quasi_convex(np.abs, Interval(-1.0, 1.0), (0.0,)).certified


def test_monotone_cubic_is_certified():
    assert check_quasi_convex(lambda x: x ** 3, Interval(0.0, 2.0), ()).certified


def test_concave_parabola_profile_is_not_unimodal():
    cert = check_quasi_convex(lambda x: -x ** 2, Interval(-1.0, 1.0), (0.0,))
    assert cert.verdict == "refuted"
    assert cert.counterexample["violation"] == 1.0


def test_sine_on_zero_pi_is_refuted_with_midpoint_witness():
    cert = check_quasi_convex(np.sin, Interval(0.0, math.pi), (math.pi / 2,))
    assert cert.verdict == "refuted"
    w = cert.counterexample
    assert (w["x"], w["y"], w["lam"]) == (0.0, math.pi, 0.5)
    assert w["violation"] == pytest.approx(1.0, abs=1e-15)


def test_refutation_witness_reverifies():
    for g, iv, points in [(np.sin, Interval(0.0, math.pi), (math.pi / 2,)),
                          (lambda x: -x ** 2, Interval(-1.0, 1.0), (0.0,))]:
        cert = check_quasi_convex(g, iv, points)
        assert cert.verdict == "refuted"
        w = cert.counterexample
        mixed = float(np.asarray(g(w["lam"] * w["x"] + (1.0 - w["lam"]) * w["y"]), dtype=float))
        assert mixed > max(w["value_x"], w["value_y"]) + cert.tol
        assert mixed == w["mixed_value"]
        assert w["violation"] == mixed - max(w["value_x"], w["value_y"])
        assert cert.max_violation == pytest.approx(w["violation"], rel=1e-12)
        assert 0.0 <= w["lam"] <= 1.0


def _spike(t0):
    """1 at exactly t0, 0 elsewhere."""
    return lambda x: np.where(np.asarray(x, dtype=float) == t0, 1.0, 0.0)


def test_a_violation_without_a_verified_witness_is_not_refuted():
    # A spike at the turning point t.  The witness pair is (0, 1) and its
    # mixed point equals t in exact arithmetic; where it rounds away from
    # t the spike cannot be re-verified, so the certificate must fall back
    # to the witness's own violation instead of refuting.
    outcomes = set()
    for t in np.linspace(0.0, 1.0, 101)[1:-1].tolist():
        lam = 1.0 - t
        reproduced = lam * 0.0 + (1.0 - lam) * 1.0 == t
        cert = check_quasi_convex(_spike(t), Interval(0.0, 1.0), (t,))
        if reproduced:
            assert cert.verdict == "refuted"
            assert cert.counterexample["violation"] == 1.0
        else:
            assert cert.certified
            assert cert.max_violation == 0.0
        outcomes.add(reproduced)
    assert outcomes == {True, False}


def test_certificates_are_deterministic():
    a = check_quasi_convex(np.sin, Interval(0.0, math.pi), (math.pi / 2,))
    b = check_quasi_convex(np.sin, Interval(0.0, math.pi), (math.pi / 2,))
    assert a == b


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0), st.floats(-5.0, 5.0))
def test_convex_quadratics_certify(a, b, c):
    vertex = -b / (2.0 * a)
    points = (vertex,) if -2.0 < vertex < 2.0 else ()
    cert = check_quasi_convex(lambda x: a * x ** 2 + b * x + c, Interval(-2.0, 2.0), points)
    assert cert.certified


def test_tolerance_scales_with_magnitude():
    cert = check_quasi_convex(lambda x: np.exp(2.0 * x), Interval(2.0, 4.0), ())
    assert cert.certified
    assert cert.tol == 1e-12 * math.exp(8.0)


def test_a_negative_tolerance_is_rejected():
    with pytest.raises(DomainError, match="tolerance"):
        check_quasi_convex(np.sin, Interval(0.0, 1.0), (), tol=-1.0)


def test_grid_size_counts_the_abscissae():
    assert check_quasi_convex(np.sin, Interval(0.0, 1.0), ()).grid_size == 2
    cert = check_quasi_convex(np.sin, Interval(0.0, 7.0),
                              tuple(j * math.pi / 2 for j in range(1, 5)))
    assert cert.grid_size == 6


def test_nan_at_a_turning_point_names_it():
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == 0.5, np.nan, -(x - 0.5) ** 2)

    cert = check_quasi_convex(g, Interval(0.0, 1.0), (0.5,))
    assert cert.verdict == "non_finite"
    assert not cert.certified
    assert cert.bad_abscissa == 0.5
    assert math.isnan(cert.max_violation)
    assert cert.tol == 1e-12


def test_an_infinite_end_is_non_finite_and_thresholds_the_finite_values():
    cert = check_quasi_convex(lambda x: 10.0 / np.asarray(x, dtype=float),
                              Interval(0.0, 1.0), (0.5,))
    assert cert.verdict == "non_finite"
    assert cert.bad_abscissa == 0.0
    assert cert.tol == 1e-12 * 20.0


def test_a_witness_not_finite_at_its_mixed_point_is_non_finite_there():
    # g is finite at the ends and peaks at the turning point 0.1, so the
    # witness is (0, 1) with lam = 0.9; its mixed point rounds off 0.1,
    # and there g is NaN.
    values = {0.0: 0.0, 0.1: 1.0, 1.0: 0.0}
    cert = check_quasi_convex(lambda x: values.get(x, math.nan), Interval(0.0, 1.0), (0.1,))
    lam = (1.0 - 0.1) / (1.0 - 0.0)
    t = lam * 0.0 + (1.0 - lam) * 1.0
    assert t != 0.1
    assert (cert.verdict, cert.bad_abscissa, cert.grid_size) == ("non_finite", t, 3)
    assert math.isnan(cert.max_violation)


def test_an_overflowing_g_is_non_finite_at_its_abscissa():
    # exp overflows a double above 709.78: exp(720) raises OverflowError.
    exp = corpus_by_name(builtin_corpus())["exp"]
    iv = Interval(700.0, 720.0)
    for g in (exp.deriv(4), hypothesis_function(exp, 4)):
        cert = check_quasi_convex(g, iv, ())
        assert cert.verdict == "non_finite" and cert.bad_abscissa == 720.0
        assert math.isnan(cert.max_violation)
    assert certify_hypothesis(4, exp, iv).verdict == "non_finite"


@pytest.mark.parametrize("points", [(0.5, 0.5), (0.0,), (1.0,), (1.5,), (0.6, 0.4)])
def test_turning_points_not_distinct_and_strictly_inside_give_no_verdict(points):
    cert = check_quasi_convex(np.abs, Interval(0.0, 1.0), points)
    assert cert.verdict == "unresolved"
    assert not cert.certified
    assert math.isnan(cert.max_violation)
    assert cert.counterexample is None


def test_each_certificate_evaluates_g_at_its_ends_turning_points_and_a_witness():
    # |sin| peaks at pi/2 inside the first interval; 1/|x - 2| is infinite
    # at the turning point 2 of the second; the third is monotone.
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 1.8, np.abs(np.sin(x)), 1.0 / np.abs(x - 2.0))

    calls = []

    def counted(x):
        calls.append(x)
        return g(x)

    certs, seen = [], []
    for iv, points in ((Interval(1.0, 1.7), (math.pi / 2,)), (Interval(1.9, 2.9), (2.0,)),
                       (Interval(0.1, 0.2), ())):
        calls.clear()
        certs.append(check_quasi_convex(counted, iv, points))
        seen.append(list(calls))
    assert [c.verdict for c in certs] == ["refuted", "non_finite", "certified"]
    assert certs[1].bad_abscissa == 2.0
    # One float per call: the ends and turning points in order, then the
    # witness's mixed point, which only the refuted certificate evaluates.
    w = certs[0].counterexample
    assert seen == [[1.0, math.pi / 2, 1.7, w["lam"] * w["x"] + (1.0 - w["lam"]) * w["y"]],
                    [1.9, 2.0, 2.9], [0.1, 0.2]]
    assert all(type(x) is float for xs in seen for x in xs)


# --- the exact check against the sampler and against the analytic violation --

SIN_DOMAIN = Interval(-10.0, 10.0)
CORPUS = builtin_corpus(sin_domain=SIN_DOMAIN)


def _analytic_sin_violation(k, a, b):
    """The largest violation of quasi-convexity of |sin^(k)| = |sin(x + k*pi/2)|
    on [a, b], from its zeros and peaks at 50 digits.  A peak p inside
    (a, b) is bounded on each side by 0 if a zero lies between it and that
    end, else by the end's value, since |sin| rises from a zero to a peak."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        shift = k * mpmath.pi / 2
        g = lambda x: abs(mpmath.sin(x + shift))  # noqa: E731
        # The peaks and zeros of g alternate on the multiples of pi/2, minus shift.
        j = int(mpmath.floor((a + shift) / (mpmath.pi / 2))) + 1
        marks = []
        while (x := j * mpmath.pi / 2 - shift) < b:
            marks.append(j % 2 == 1)  # odd multiples of pi/2 are peaks
            j += 1
        worst = mpmath.mpf(0)
        for i, peak in enumerate(marks):
            if peak:
                left = 0 if not all(marks[:i]) else g(a)
                right = 0 if not all(marks[i + 1:]) else g(b)
                worst = max(worst, 1 - max(left, right))
        return float(worst)


def _analytic_violation(f, k, a, b):
    """0 for every built-in but sin: each |f^(k)| is monotone or has one valley."""
    return _analytic_sin_violation(k, a, b) if f.name == "sin" else 0.0


@st.composite
def corpus_cases(draw):
    f = draw(st.sampled_from(CORPUS))
    k = draw(st.integers(0, 4))
    u, v = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))))
    a, b = (f.domain.a + t * f.domain.width for t in (u, v))
    assume(a < b)
    return f, k, Interval(a, b)


@settings(max_examples=400, deadline=None)
@given(corpus_cases(), st.sampled_from([5, 11, 21, 101]))
def test_the_exact_check_refutes_wherever_the_sampler_does(case, n_grid):
    f, k, iv = case
    d = f.deriv(k)
    g = lambda x: np.abs(d(x))  # noqa: E731
    exact = check_quasi_convex(g, iv, f.turning_points(k, iv.a, iv.b))
    sampled = sample_certificate(g, iv, n_grid)
    assert exact.verdict in ("certified", "refuted")
    if sampled.verdict == "refuted":
        assert exact.verdict == "refuted"
    if exact.verdict != sampled.verdict:
        assert _analytic_violation(f, k, iv.a, iv.b) > exact.tol


@settings(max_examples=400, deadline=None)
@given(corpus_cases())
def test_the_exact_check_agrees_with_the_analytic_violation(case):
    f, k, iv = case
    d = f.deriv(k)
    exact = check_quasi_convex(lambda x: np.abs(d(x)), iv, f.turning_points(k, iv.a, iv.b))
    true = _analytic_violation(f, k, iv.a, iv.b)
    assume(abs(true - exact.tol) > 1e-14)  # rounding decides at the threshold itself
    if true > exact.tol:
        assert exact.verdict == "refuted"
        assert exact.max_violation == pytest.approx(true, abs=1e-14)
    else:
        assert exact.verdict == "certified"
        assert exact.max_violation <= exact.tol


_COEFFS = st.lists(st.integers(-5, 5), min_size=2, max_size=6)


@settings(max_examples=200, deadline=None)
@given(_COEFFS, st.integers(0, 4), st.floats(-3.0, 2.0), st.floats(0.1, 4.0),
       st.sampled_from([5, 11, 21]))
def test_a_sampled_witness_beyond_the_threshold_is_refuted_exactly(coeffs, k, a, width,
                                                                  n_grid):
    # A re-verified witness is a true violation: if it exceeds the exact
    # check's threshold, the exact check must refute.
    f = poly_smooth("poly", coeffs)
    d = f.deriv(k)
    g = lambda x: np.abs(d(x))  # noqa: E731
    iv = Interval(a, a + width)
    exact = check_quasi_convex(g, iv, f.turning_points(k, iv.a, iv.b))
    sampled = sample_certificate(g, iv, n_grid)
    if sampled.verdict == "refuted" and sampled.counterexample["violation"] > exact.tol:
        assert exact.verdict == "refuted"
        assert exact.max_violation >= sampled.counterexample["violation"] - exact.tol


def test_a_peak_next_to_an_end_is_refuted_where_the_sampler_certifies():
    # |sin| peaks at pi/2, 1.6e-5 right of 1.57078: a violation of 1.3e-10.
    sin = corpus_by_name(CORPUS)["sin"]
    iv = Interval(1.57078, 4.0)
    exact = certify_hypothesis(4, sin, iv)
    assert sample_certificate(np.sin, iv).certified
    assert exact.verdict == "refuted"
    assert exact.max_violation == pytest.approx(_analytic_sin_violation(4, iv.a, iv.b),
                                                rel=1e-6)


def test_a_certificate_of_sin_over_a_huge_interval_evaluates_six_abscissae():
    sin = corpus_by_name(builtin_corpus(sin_domain=Interval(0.0, 1e300)))["sin"]
    certs = [certify_hypothesis(order, sin, Interval(0.0, 1e300)) for order in (1, 2, 3, 4)]
    assert [c.grid_size for c in certs] == [6] * 4  # the ends and four turning points
    assert [c.verdict for c in certs] == ["refuted"] * 4
    assert all(c.max_violation == pytest.approx(1.0, abs=1e-15) for c in certs)
