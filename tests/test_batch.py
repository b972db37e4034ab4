"""Differential tests of the identity checks against the paper's form.

``check_identity`` integrates its kernels through one table of weights and
spans.  Each report must be bit for bit what the identities give when
every integral is written out as the paper states it, L2's two kernel
integrals folded into one, and an integral of f passed in must change
nothing.  The two-integral form is the value oracle of
test_quadrature_oracles.py.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify.corpus import builtin_corpus
from hhverify.identities import IDENTITY_IDS, check_identity
from hhverify.numerics import Interval, QuadratureResult, integrate

CORPUS = builtin_corpus(sin_domain=Interval(0.0, 6.3))


@st.composite
def function_and_interval(draw):
    """A corpus function and an interval inside its domain, tiny widths included."""
    f = draw(st.sampled_from(CORPUS))
    point = st.floats(f.domain.a, f.domain.b, allow_nan=False)
    a, b = draw(st.tuples(point, point).filter(lambda p: p[0] != p[1]))
    return f, Interval(min(a, b), max(a, b))


def test_lone_integrals_include_refined_and_exhausted_ones():
    # The integrals of the property test below are not vacuous: at these
    # settings some refine past their first panel and some run out.
    f = next(g for g in CORPUS if g.name == "exp")
    results = [integrate(f.func, iv, 1e-13, 45)
               for iv in (Interval(-6.0, 6.0), Interval(0.0, 1.0), Interval(-1.0, 5.0))]
    assert [r.evaluations for r in results] == [45, 15, 45]
    assert [r.converged for r in results] == [False, True, False]


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
        kernels, rhs = (k,), scale * k.value
    else:
        # The paper's two integrals over [0, 1/2], folded into one by linearity.
        d3 = f.deriv(3)
        k = integrate(lambda t: t * (1.0 - 2.0 * t) * (1.0 + 2.0 * t)
                      * (d3(t * a + (1.0 - t) * b) - d3(t * b + (1.0 - t) * a)),
                      Interval(0.0, 0.5), tol, budget)
        scale = w ** 3 / 24.0
        kernels, rhs = (k,), scale * k.value
    converged = base.converged and all(k.converged for k in kernels)
    error = base.error_estimate / w + scale * sum(k.error_estimate for k in kernels)
    return rhs, error, converged


@settings(max_examples=120, deadline=None)
@given(function_and_interval(), st.sampled_from(IDENTITY_IDS),
       st.sampled_from([(1e-10, 1_000_000), (1e-14, 1_000_000), (1e-13, 45)]))
def test_identity_equals_its_paper_form(case, identity_id, quadrature):
    f, iv = case
    tol, budget = quadrature
    report = check_identity(identity_id, f, iv, tol, budget)
    assert (report.rhs, report.quadrature_error, report.converged) == \
        _lone_identity(identity_id, f, iv, tol, budget)


def test_identity_reuses_a_given_integral():
    f = CORPUS[1]
    for iv in (Interval(0.0, 1.0), Interval(-2.0, 0.5)):
        for identity_id in IDENTITY_IDS:
            assert check_identity(identity_id, f, iv, integral=integrate(f.func, iv)) == \
                check_identity(identity_id, f, iv)
    # The given integral is the one used: a stalled one leaves no verdict.
    stalled = QuadratureResult(0.0, 1.0, 15, False)
    assert not check_identity("L1", f, Interval(0.0, 1.0), integral=stalled).converged
