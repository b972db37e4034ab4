import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify.errors import DomainError
from hhverify.numerics import Interval, eval_on_array
from hhverify.quasiconvex import check_quasi_convex


def brute_force_scan(g, interval, n_grid, tol, exact_mixing=False):
    """Reference: every (x_i, x_j, lam_k) triple of the n-point grids.

    Returns (refuted, largest violation, absolute threshold), the
    threshold computed as in check_quasi_convex.  With ``exact_mixing``
    the mixed point is taken as the fine-grid point it equals in exact
    arithmetic, index k*i + (m-k)*j, so the rounding of lam*x + (1-lam)*y
    (about one ulp of g, far below any threshold) drops out of the
    comparison.
    """
    m = n_grid - 1
    xs = np.linspace(interval.a, interval.b, n_grid)
    ts = np.linspace(interval.a, interval.b, m * m + 1)
    lams = np.linspace(0.0, 1.0, n_grid)
    idx = np.arange(n_grid)
    gx = eval_on_array(g, xs)
    tol = tol * max(1.0, float(np.max(np.abs(gx))))
    pair_max = np.maximum(gx[:, None], gx[None, :])
    worst = -np.inf
    for k, lam in enumerate(lams):
        if exact_mixing:
            mixed = ts[k * idx[:, None] + (m - k) * idx[None, :]]
        else:
            mixed = lam * xs[:, None] + (1.0 - lam) * xs[None, :]
        worst = max(worst, float(np.max(eval_on_array(g, mixed) - pair_max)))
    return worst > tol, worst, tol


def assert_dominates_oracle(g, interval, n_grid, tol=1e-12):
    """The valley check refutes whatever the triple scan refutes, and its
    largest violation is at least the scan's on the same mixed points."""
    cert = check_quasi_convex(g, interval, n_grid, tol)
    refuted, _, oracle_tol = brute_force_scan(g, interval, n_grid, tol)
    _, worst, _ = brute_force_scan(g, interval, n_grid, tol, exact_mixing=True)
    assert cert.tol == oracle_tol
    if refuted:
        assert cert.verdict == "refuted"
    assert cert.max_violation >= worst - 1e-9 * cert.tol
    return cert


def test_convex_parabola_is_certified():
    cert = check_quasi_convex(lambda x: x ** 2, Interval(-1.0, 2.0))
    assert cert.certified
    assert cert.counterexample is None
    assert cert.max_violation <= cert.tol


def test_monotone_root_is_certified():
    cert = check_quasi_convex(lambda x: x ** 0.5, Interval(0.1, 4.0))
    assert cert.certified


def test_absolute_value_is_certified():
    assert check_quasi_convex(np.abs, Interval(-1.0, 1.0)).certified


def test_monotone_cubic_is_certified():
    assert check_quasi_convex(lambda x: x ** 3, Interval(0.0, 2.0)).certified


def test_concave_parabola_profile_is_not_unimodal():
    cert = check_quasi_convex(lambda x: -x ** 2, Interval(-1.0, 1.0))
    assert cert.verdict == "refuted"
    assert cert.counterexample.violation == pytest.approx(1.0, abs=1e-12)


def test_sine_on_zero_pi_is_refuted_with_midpoint_witness():
    cert = check_quasi_convex(np.sin, Interval(0.0, math.pi))
    assert cert.verdict == "refuted"
    w = cert.counterexample
    assert w.x == pytest.approx(0.0, abs=1e-12)
    assert w.y == pytest.approx(math.pi, abs=1e-12)
    assert w.lam == pytest.approx(0.5, abs=1e-12)
    assert w.violation == pytest.approx(1.0, abs=1e-6)


def test_refutation_witness_reverifies():
    for g, iv in [(np.sin, Interval(0.0, math.pi)),
                  (lambda x: -x ** 2, Interval(-1.0, 1.0))]:
        cert = check_quasi_convex(g, iv)
        assert cert.verdict == "refuted"
        w = cert.counterexample
        mixed = float(np.asarray(g(w.lam * w.x + (1.0 - w.lam) * w.y), dtype=float))
        assert mixed > max(w.value_x, w.value_y) + cert.tol
        assert mixed == w.mixed_value
        assert w.violation == mixed - max(w.value_x, w.value_y)
        assert cert.max_violation == pytest.approx(w.violation, rel=1e-12)
        assert 0.0 <= w.lam <= 1.0


def _spike(t0):
    """1 at exactly t0, 0 elsewhere: only the fine-grid sample sees it."""
    return lambda x: np.where(np.asarray(x, dtype=float) == t0, 1.0, 0.0)


def test_sampled_violation_without_a_verified_witness_is_not_refuted():
    # A spike on one fine point t_s.  The witness pair is (0, x_hi) and its
    # mixed point equals t_s in exact arithmetic; where it rounds away
    # from t_s the spike cannot be re-verified, so the certificate must
    # fall back to the witness's own violation instead of refuting.
    n_grid, m = 11, 10
    xs = np.linspace(0.0, 1.0, n_grid)
    ts = np.linspace(0.0, 1.0, m * m + 1)
    outcomes = set()
    for s in range(1, m * m):
        if s % m == 0:
            continue
        t, y = float(ts[s]), float(xs[-(-s // m)])
        lam = (y - t) / y
        reproduced = lam * 0.0 + (1.0 - lam) * y == t
        cert = check_quasi_convex(_spike(t), Interval(0.0, 1.0), n_grid)
        if reproduced:
            assert cert.verdict == "refuted"
            assert cert.counterexample.violation == 1.0
        else:
            assert cert.certified
            assert cert.max_violation == 0.0
        outcomes.add(reproduced)
    assert outcomes == {True, False}


def test_certificates_are_deterministic():
    a = check_quasi_convex(np.sin, Interval(0.0, math.pi))
    b = check_quasi_convex(np.sin, Interval(0.0, math.pi))
    assert a == b


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0), st.floats(-5.0, 5.0))
def test_convex_quadratics_certify(a, b, c):
    cert = check_quasi_convex(lambda x: a * x ** 2 + b * x + c,
                              Interval(-2.0, 2.0), n_grid=31)
    assert cert.certified


def test_tolerance_scales_with_magnitude():
    # A large monotone function: rounding noise in the mixing arithmetic
    # must not refute it.
    cert = check_quasi_convex(lambda x: np.exp(2.0 * x), Interval(2.0, 4.0))
    assert cert.certified


def test_grid_size_validation():
    with pytest.raises(DomainError):
        check_quasi_convex(np.sin, Interval(0.0, 1.0), n_grid=2)
    with pytest.raises(DomainError):
        check_quasi_convex(np.sin, Interval(0.0, 1.0), tol=-1.0)


def test_nan_between_coarse_points_is_not_certified():
    # Strictly concave, so not quasi-convex; the NaN band hides between
    # the 101 coarse points but not from the fine grid.
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0.503) & (x < 0.507), np.nan, -(x - 0.5) ** 2)

    cert = check_quasi_convex(g, Interval(0.0, 1.0))
    assert cert.verdict == "non_finite"
    assert not cert.certified
    assert 0.503 < cert.bad_abscissa < 0.507
    assert math.isnan(cert.max_violation)


def test_nan_on_a_grid_point_names_it():
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == 0.5, np.nan, x ** 2)

    cert = check_quasi_convex(g, Interval(0.0, 1.0))
    assert cert.verdict == "non_finite"
    assert cert.bad_abscissa == 0.5
    assert cert.tol == 1e-12


def test_infinite_sample_is_non_finite():
    cert = check_quasi_convex(lambda x: 1.0 / np.asarray(x, dtype=float),
                              Interval(0.0, 1.0), n_grid=11)
    assert cert.verdict == "non_finite"
    assert cert.bad_abscissa == 0.0


def test_a_non_finite_certificate_thresholds_its_finite_coarse_values():
    # 1/x is infinite at 0 and 10 at the next coarse point, 0.1.
    xs = np.linspace(0.0, 1.0, 11)
    cert = check_quasi_convex(lambda x: 1.0 / np.asarray(x, dtype=float),
                              Interval(0.0, 1.0), n_grid=11)
    assert cert.verdict == "non_finite"
    assert cert.tol == 1e-12 * max(1.0, float(np.max(1.0 / xs[1:])))


# --- differential test against the brute-force triple scan -----------------

_COEFFS = st.lists(st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(coeffs=_COEFFS, power=st.sampled_from([None, 0.5, 1.0, 2.0]),
       a=st.floats(-3.0, 2.0), width=st.floats(0.1, 4.0),
       n_grid=st.integers(5, 21))
def test_valley_check_dominates_brute_force_on_generated_functions(
        coeffs, power, a, width, n_grid):
    p = np.polynomial.Polynomial(coeffs)
    g = p if power is None else (lambda x: np.abs(p(x)) ** power)
    assert_dominates_oracle(g, Interval(a, a + width), n_grid)


def test_valley_check_dominates_brute_force_on_corpus(corpus):
    for n_grid in (5, 11, 21):
        for f in corpus.values():
            for k in range(5):
                d = f.deriv(k)
                assert_dominates_oracle(lambda x, d=d: np.abs(d(x)), f.domain, n_grid)


def test_valley_check_dominates_brute_force_on_refuted_cases():
    for n_grid in (5, 21):
        for g, iv in [(np.sin, Interval(0.0, math.pi)),
                      (lambda x: -x ** 2, Interval(-1.0, 1.0)),
                      (np.cos, Interval(-2.0, 5.0))]:
            assert assert_dominates_oracle(g, iv, n_grid).verdict == "refuted"
