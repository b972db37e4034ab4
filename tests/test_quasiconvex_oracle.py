"""Tests of the sampling certifier kept as an oracle (tests/quasiconvex_oracle.py).

Its own oracle is the brute-force scan of every (x_i, x_j, lam_k) triple
of the grid: the valley test over the fine grid must refute whatever the
triple scan refutes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify.errors import DomainError
from hhverify.numerics import Interval

from quasiconvex_oracle import eval_on_array, sample_certificate


def brute_force_scan(g, interval, n_grid, tol, exact_mixing=False):
    """Reference: every (x_i, x_j, lam_k) triple of the n-point grids.

    Returns (refuted, largest violation, absolute threshold), the
    threshold computed as in sample_certificate.  With ``exact_mixing``
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


def assert_dominates_brute_force(g, interval, n_grid, tol=1e-12):
    """The valley test refutes whatever the triple scan refutes, and its
    largest violation is at least the scan's on the same mixed points."""
    cert = sample_certificate(g, interval, n_grid, tol)
    refuted, _, scan_tol = brute_force_scan(g, interval, n_grid, tol)
    _, worst, _ = brute_force_scan(g, interval, n_grid, tol, exact_mixing=True)
    assert cert.tol == scan_tol
    if refuted:
        assert cert.verdict == "refuted"
    assert cert.max_violation >= worst - 1e-9 * cert.tol
    return cert


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
        cert = sample_certificate(_spike(t), Interval(0.0, 1.0), n_grid)
        if reproduced:
            assert cert.verdict == "refuted"
            assert cert.counterexample["violation"] == 1.0
        else:
            assert cert.certified
            assert cert.max_violation == 0.0
        outcomes.add(reproduced)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n_grid", [2, 1, 0])
def test_a_grid_below_three_and_a_negative_tolerance_are_rejected(n_grid):
    with pytest.raises(DomainError, match="grid size"):
        sample_certificate(np.sin, Interval(0.0, 1.0), n_grid)
    with pytest.raises(DomainError, match="tolerance"):
        sample_certificate(np.sin, Interval(0.0, 1.0), tol=-1.0)


def test_nan_between_coarse_points_is_not_certified():
    # Strictly concave, so not quasi-convex; the NaN band hides between
    # the 101 coarse points but not from the fine grid.
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0.503) & (x < 0.507), np.nan, -(x - 0.5) ** 2)

    cert = sample_certificate(g, Interval(0.0, 1.0))
    assert cert.verdict == "non_finite"
    assert 0.503 < cert.bad_abscissa < 0.507
    assert math.isnan(cert.max_violation)


def test_nan_on_a_grid_point_names_it():
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == 0.5, np.nan, x ** 2)

    cert = sample_certificate(g, Interval(0.0, 1.0))
    assert cert.verdict == "non_finite"
    assert cert.bad_abscissa == 0.5
    assert cert.tol == 1e-12


def test_a_non_finite_certificate_thresholds_its_finite_coarse_values():
    # 1/x is infinite at 0 and 10 at the next coarse point, 0.1.
    xs = np.linspace(0.0, 1.0, 11)
    cert = sample_certificate(lambda x: 1.0 / np.asarray(x, dtype=float),
                              Interval(0.0, 1.0), n_grid=11)
    assert cert.verdict == "non_finite"
    assert cert.bad_abscissa == 0.0
    assert cert.tol == 1e-12 * max(1.0, float(np.max(1.0 / xs[1:])))


def test_a_peak_within_half_a_fine_step_of_an_end_is_invisible():
    # |sin| peaks at pi/2, 1.6e-5 right of 1.57078: no grid sees it.
    cert = sample_certificate(np.sin, Interval(1.57078, 4.0))
    assert cert.certified


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
    assert_dominates_brute_force(g, Interval(a, a + width), n_grid)


def test_valley_check_dominates_brute_force_on_corpus(corpus):
    for n_grid in (5, 11, 21):
        for f in corpus.values():
            for k in range(5):
                d = f.deriv(k)
                assert_dominates_brute_force(lambda x, d=d: np.abs(d(x)), f.domain, n_grid)


def test_valley_check_dominates_brute_force_on_refuted_cases():
    for n_grid in (5, 21):
        for g, iv in [(np.sin, Interval(0.0, math.pi)),
                      (lambda x: -x ** 2, Interval(-1.0, 1.0)),
                      (np.cos, Interval(-2.0, 5.0))]:
            assert assert_dominates_brute_force(g, iv, n_grid).verdict == "refuted"
