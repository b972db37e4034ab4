"""Differential tests: every batched row equals the same check run alone.

The runner evaluates the first quadrature panel of all intervals of one
function in one call, and the ends and turning points of all intervals of
one hypothesis in one call each.  Each row of such a batch must be bit for
bit what ``integrate``, ``check_identity`` and ``check_quasi_convex`` give
on that row alone, certificates field for field, witnesses included.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify.bounds import (THEOREMS, certify_hypotheses, certify_hypothesis,
                             hypothesis_function)
from hhverify.corpus import builtin_corpus, corpus_by_name
from hhverify.identities import IDENTITY_IDS, check_identities, check_identity
from hhverify.numerics import Interval, integrate, integrate_rows
from hhverify.quasiconvex import check_quasi_convex, check_quasi_convex_rows

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
        [check_identity("L2", f, iv) for iv in intervals]


@settings(max_examples=60, deadline=None)
@given(function_and_intervals(max_size=14), st.sampled_from(sorted(THEOREMS)))
def test_certificate_rows_equal_lone_certificates(case, tag):
    f, intervals = case
    order = THEOREMS[tag].derivative_order
    g = hypothesis_function(f, order)
    points = [f.turning_points(order, iv.a, iv.b) for iv in intervals]
    lone = [check_quasi_convex(g, iv, p) for iv, p in zip(intervals, points)]
    assert check_quasi_convex_rows(g, intervals, points) == lone
    assert certify_hypotheses([tag], f, intervals) == {order: lone}
    assert [certify_hypothesis(tag, f, iv) for iv in intervals] == lone


def test_certificate_rows_cover_refuted_and_non_finite_rows():
    # |sin| is refuted on intervals around pi/2; the second g is NaN left
    # of 1 and infinite at pi, its one turning point.
    rng = np.random.default_rng(7)
    starts = rng.uniform(0.0, 3.0, 250)
    intervals = [Interval(float(a), float(a) + float(w))
                 for a, w in zip(starts, rng.uniform(0.05, 3.3, 250))]
    intervals[5] = Interval(1.0, 3.5)
    sin = corpus_by_name(CORPUS)["sin"]
    verdicts = []
    for g, turning_points in (
            (lambda x: np.abs(np.sin(x)), lambda a, b: sin.turning_points(0, a, b)),
            (lambda x: np.where(x < 1.0, np.nan, 1.0 / np.abs(x - math.pi)),
             lambda a, b: (math.pi,) if a < math.pi < b else ())):
        points = [turning_points(iv.a, iv.b) for iv in intervals]
        lone = [check_quasi_convex(g, iv, p) for iv, p in zip(intervals, points)]
        assert check_quasi_convex_rows(g, intervals, points) == lone
        verdicts += [c.verdict for c in lone]
    assert set(verdicts) == {"certified", "refuted", "non_finite"}
    assert lone[5].verdict == "non_finite" and lone[5].bad_abscissa == math.pi
