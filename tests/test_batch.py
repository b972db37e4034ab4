"""Differential tests: every batched row equals the same check run alone.

The runner evaluates the first quadrature panel of all intervals of one
function in one call, and stacks the small certificate grids of all
intervals of one hypothesis.  Each row of such a batch must be bit for bit
what ``integrate``, ``check_identity`` and ``check_quasi_convex`` give on
that row alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify.bounds import (THEOREMS, certify_hypotheses, certify_hypothesis,
                             hypothesis_exponent, hypothesis_function)
from hhverify.corpus import builtin_corpus
from hhverify.errors import DomainError
from hhverify.identities import IDENTITY_IDS, check_identities, check_identity
from hhverify.numerics import Interval, integrate, integrate_rows
from hhverify.quasiconvex import certify_stacked, check_quasi_convex

CORPUS = builtin_corpus(sin_domain=Interval(0.0, 6.3))


def _intervals_in(domain, min_size=1, max_size=12):
    """Lists of intervals inside the domain, duplicates and tiny widths included."""
    point = st.floats(domain.a, domain.b, allow_nan=False)
    pair = st.tuples(point, point).filter(lambda p: p[0] != p[1])
    return st.lists(pair.map(lambda p: Interval(min(p), max(p))),
                    min_size=min_size, max_size=max_size)


@st.composite
def function_and_intervals(draw, **kwargs):
    f = draw(st.sampled_from(CORPUS))
    return f, draw(_intervals_in(f.domain, **kwargs))


def _fields(result):
    return (result.value, result.error_estimate, result.evaluations, result.converged)


@settings(max_examples=60, deadline=None)
@given(function_and_intervals(),
       st.sampled_from([1e-10, 1e-13, 1e-15]),
       st.sampled_from([15, 45, 75, 1_000_000]))
def test_base_integral_rows_equal_lone_integrals(case, tol, budget):
    f, intervals = case
    rows = integrate_rows(f.func, [iv.a for iv in intervals], [iv.b for iv in intervals],
                          tol, budget)
    assert [_fields(r) for r in rows] == [_fields(integrate(f.func, iv, tol, budget))
                                          for iv in intervals]


def test_batches_include_refined_and_exhausted_rows():
    # The rows of the property tests above are not vacuous: at these
    # settings some rows refine past their first panel and some run out.
    f = next(g for g in CORPUS if g.name == "exp")
    intervals = [Interval(-6.0, 6.0), Interval(0.0, 1.0), Interval(-1.0, 5.0)]
    rows = integrate_rows(f.func, [iv.a for iv in intervals], [iv.b for iv in intervals],
                          1e-13, 45)
    assert [r.evaluations for r in rows] == [45, 15, 45]
    assert [r.converged for r in rows] == [False, True, False]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)), min_size=1,
                max_size=8),
       st.sampled_from([1e-10, 1e-14]), st.sampled_from([45, 1_000_000]))
def test_parameterized_rows_equal_lone_integrals(params, tol, budget):
    def family(t, u, v):
        return np.exp(u * t) * np.sin(v * t + 1.0)

    us = [u for u, _ in params]
    vs = [v for _, v in params]
    rows = integrate_rows(family, [0.0] * len(params), [1.0] * len(params), tol, budget,
                          (us, vs))
    lone = [integrate(lambda t, u=u, v=v: family(t, u, v), Interval(0.0, 1.0), tol, budget)
            for u, v in params]
    assert [_fields(r) for r in rows] == [_fields(r) for r in lone]


def _lone_identity(identity_id, f, iv, tol, budget):
    """Right side, error estimate and convergence of the identity with one
    lone ``integrate`` per integral, written out as the paper states it."""
    a, b, w = iv.a, iv.b, iv.width
    base = integrate(f.func, iv, tol, budget)
    if identity_id == "L1":
        d4 = f.deriv(4)
        k = integrate(lambda t: (t * (1.0 - t)) ** 2 * d4(a * t + (1.0 - t) * b),
                      Interval(0.0, 1.0), tol, budget)
        scale = w ** 4 / 24.0
        kernels, rhs = (k,), scale * k.value
    else:
        d3 = f.deriv(3)
        half = Interval(0.0, 0.5)
        sa = integrate(lambda t: t * (1.0 - 2.0 * t) * (1.0 + 2.0 * t)
                       * d3(t * a + (1.0 - t) * b), half, tol, budget)
        sb = integrate(lambda t: t * (1.0 - 2.0 * t) * (1.0 + 2.0 * t)
                       * d3(t * b + (1.0 - t) * a), half, tol, budget)
        scale = w ** 3 / 24.0
        kernels, rhs = (sa, sb), scale * (sa.value - sb.value)
    converged = base.converged and all(k.converged for k in kernels)
    error = base.error_estimate / w + scale * sum(k.error_estimate for k in kernels)
    return rhs, error, converged


@settings(max_examples=40, deadline=None)
@given(function_and_intervals(max_size=8), st.sampled_from(IDENTITY_IDS),
       st.sampled_from([(1e-10, 1_000_000), (1e-14, 1_000_000), (1e-13, 45)]))
def test_identity_rows_equal_lone_checks(case, identity_id, quadrature):
    f, intervals = case
    tol, budget = quadrature
    batch = check_identities(identity_id, f, intervals, tol, budget)
    assert batch == [check_identity(identity_id, f, iv, tol, budget) for iv in intervals]
    for report, iv in zip(batch, intervals):
        assert (report.rhs, report.quadrature_error, report.converged) == \
            _lone_identity(identity_id, f, iv, tol, budget)


def test_identity_batch_reuses_given_integrals():
    f = CORPUS[1]
    intervals = [Interval(0.0, 1.0), Interval(-2.0, 0.5)]
    integrals = [integrate(f.func, iv) for iv in intervals]
    assert check_identities("L2", f, intervals, integrals=integrals) == \
        [check_identity("L2", f, iv, integral=q) for iv, q in zip(intervals, integrals)]


@settings(max_examples=60, deadline=None)
@given(function_and_intervals(max_size=14), st.sampled_from(sorted(THEOREMS)),
       st.sampled_from([3, 5, 11, 21, 51, 101]))
def test_stacked_certificates_equal_lone_certificates(case, tag, n_grid):
    f, intervals = case
    exponent = {"none": None, "p": 2.5, "q": 1.5}[THEOREMS[tag].exponent_kind]
    g = hypothesis_function(f, THEOREMS[tag].derivative_order,
                            hypothesis_exponent(tag, exponent))
    lone = [check_quasi_convex(g, iv, n_grid) for iv in intervals]
    stacked = certify_stacked(g, intervals, n_grid)
    assert [s for s in stacked if s is not None] == \
        [c for c, s in zip(lone, stacked) if s is not None]
    if n_grid < 101:  # a chunk holds more than one row
        assert all(c.verdict != "certified" or iv.width / (n_grid - 1) ** 2 == 0.0
                   for c, s, iv in zip(lone, stacked, intervals) if s is None)
    assert certify_hypotheses(tag, f, intervals, exponent, n_grid) == lone
    assert [certify_hypothesis(tag, f, iv, exponent, n_grid) for iv in intervals] == lone


def test_stacks_cover_refuted_non_finite_and_partial_chunks():
    # 11-point grids stack 99 rows per chunk; 250 intervals leave a partial
    # chunk of 52.  |sin| is refuted on intervals around pi/2; the second
    # g is NaN left of 1 and infinite at pi, so rows are non-finite.
    rng = np.random.default_rng(7)
    starts = rng.uniform(0.0, 3.0, 250)
    intervals = [Interval(float(a), float(a) + float(w))
                 for a, w in zip(starts, rng.uniform(0.05, 3.3, 250))]
    intervals[5] = Interval(1.0, math.pi)
    verdicts = []
    for g in (lambda x: np.abs(np.sin(x)),
              lambda x: np.where(x < 1.0, np.nan, 1.0 / np.abs(x - math.pi))):
        lone = [check_quasi_convex(g, iv, 11) for iv in intervals]
        stacked = certify_stacked(g, intervals, 11)
        assert [c if s is None else s for c, s in zip(lone, stacked)] == lone
        verdicts += [c.verdict for c in lone]
    assert set(verdicts) == {"certified", "refuted", "non_finite"}
    assert lone[5].verdict == "non_finite" and lone[5].bad_abscissa == math.pi


def test_a_chunk_of_one_row_leaves_every_interval_open():
    intervals = [Interval(0.0, 1.0), Interval(1.0, 2.0)]
    assert certify_stacked(np.abs, intervals, 101) == [None, None]
    assert certify_stacked(np.abs, intervals, 11) == \
        [check_quasi_convex(np.abs, iv, 11) for iv in intervals]


@pytest.mark.parametrize("n_grid", [2, 1, 0])
def test_a_grid_below_three_is_left_to_the_lone_check(n_grid):
    f = CORPUS[0]
    assert certify_stacked(np.abs, [Interval(0.0, 1.0)], n_grid) == [None]
    with pytest.raises(DomainError, match="grid size"):
        certify_hypotheses("T1_2", f, [Interval(0.0, 1.0)], None, n_grid)


def test_an_interval_whose_fine_step_underflows_is_left_open():
    # linspace switches formula for every row once one row's step is 0.
    intervals = [Interval(0.0, 1.0), Interval(0.0, 5e-324), Interval(1.0, 2.0)]
    stacked = certify_stacked(np.abs, intervals, 11)
    assert stacked[1] is None
    assert [stacked[0], stacked[2]] == [check_quasi_convex(np.abs, iv, 11)
                                        for iv in (intervals[0], intervals[2])]
    assert certify_hypotheses("T1_2", CORPUS[0], intervals, None, 11) == \
        [certify_hypothesis("T1_2", CORPUS[0], iv, None, 11) for iv in intervals]
