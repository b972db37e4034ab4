import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify.bounds import (EXP_NONE, LHS_MIDPOINT_CORRECTED, LHS_TRAPEZOID,
                             LHS_TRAPEZOID_CORRECTED, THEOREM_ORDER, THEOREMS,
                             check_bound, certify_hypothesis, defect, rhs_bound)
from hhverify.corpus import (SmoothFunction, admissible_intervals, builtin_corpus,
                             corpus_by_name, no_turning_points)
from hhverify.errors import ParameterError
from hhverify.numerics import Interval, integrate
from hhverify.quasiconvex import check_quasi_convex
from hhverify.runner import DEFAULT_INTERVALS

from conftest import PLAIN_RULE, poly_smooth, scaled


def _defect(kind, f, interval):
    return defect(kind, f, interval, integrate(f.func, interval).value / interval.width)


def test_lhs_trapezoid_values(corpus, unit):
    assert abs(_defect(LHS_TRAPEZOID, poly_smooth("affine", [1.0, 2.0]), unit)) <= 1e-15
    assert _defect(LHS_TRAPEZOID, poly_smooth("x^2", [0, 0, 1]), unit) == pytest.approx(1.0 / 6.0, abs=1e-13)
    assert _defect(LHS_TRAPEZOID, corpus["x^4"], unit) == pytest.approx(3.0 / 10.0, abs=1e-13)


def test_lhs_trapezoid_corrected_values(corpus, unit):
    assert _defect(LHS_TRAPEZOID_CORRECTED, corpus["x^4"], unit) == pytest.approx(-1.0 / 30.0, abs=1e-13)
    assert _defect(LHS_TRAPEZOID_CORRECTED, corpus["x^5"], unit) == pytest.approx(-1.0 / 12.0, abs=1e-13)
    # The derivative correction makes the rule exact through degree 3.
    assert abs(_defect(LHS_TRAPEZOID_CORRECTED, poly_smooth("q", [1, -2, 3]), Interval(0.3, 1.7))) <= 1e-14


def test_lhs_midpoint_corrected_values(corpus, unit):
    assert _defect(LHS_MIDPOINT_CORRECTED, corpus["x^4"], unit) == pytest.approx(7.0 / 240.0, abs=1e-13)
    assert abs(_defect(LHS_MIDPOINT_CORRECTED, corpus["x^3"], unit)) <= 1e-14
    assert abs(_defect(LHS_MIDPOINT_CORRECTED, poly_smooth("affine", [4.0, -7.0]), Interval(-2.0, 5.0))) <= 1e-13


def test_unknown_defect_kind_is_rejected(corpus, unit):
    with pytest.raises(ParameterError):
        defect("simpson", corpus["x^4"], unit, 0.2)


def test_rhs_values_on_quartic(corpus, unit):
    f = corpus["x^4"]
    assert rhs_bound("T1_2", f, unit) == pytest.approx(1.0, abs=1e-15)
    assert rhs_bound("T1_3", f, unit, 2.0) == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-15)
    assert rhs_bound("T1_4", f, unit) == pytest.approx(1.0, abs=1e-15)
    assert rhs_bound("T1_5", f, unit) == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert rhs_bound("T1_6", f, unit, 2.0) == pytest.approx(0.25 / math.sqrt(3.0), rel=1e-15)
    assert rhs_bound("T1_7", f, unit, 2.0) == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert rhs_bound("ME1", f, unit) == pytest.approx(1.0 / 30.0, abs=1e-15)
    # B(5,5) = 1/630, so the Holder constant at p=2 is sqrt(1/630).
    assert rhs_bound("ME2", f, unit, 2.0) == pytest.approx(math.sqrt(1.0 / 630.0), rel=1e-14)
    assert rhs_bound("ME4", f, unit) == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert rhs_bound("ME5", f, unit, 2.0) == pytest.approx(0.25 / math.sqrt(3.0), rel=1e-14)
    assert rhs_bound("ME5", f, unit, 2.0) == pytest.approx(0.144337567, abs=1e-9)


def test_me2_factor_matches_mpmath_from_near_one_to_a_million():
    # B(2p+1, 2p+1) itself is 0 as a double from p = 268; its p-th root,
    # computed in log space, keeps full precision.
    factor = THEOREMS["ME2"].factor
    ps = [1.0 + 1e-9, 1.0 + 1e-6, 1.0 + 1e-3, *np.geomspace(1.01, 1e6, 200).tolist()]
    with mpmath.workdps(50):
        for p in ps:
            mp_p = mpmath.mpf(p)
            exact = mpmath.beta(2 * mp_p + 1, 2 * mp_p + 1) ** (1 / mp_p)
            assert abs(factor(p) - exact) <= 1e-13 * exact, p


_BY_NAME = corpus_by_name(builtin_corpus())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(PLAIN_RULE)), st.sampled_from(["x^4", "x^5", "exp", "sin"]),
       st.floats(-3.0, 3.0), st.floats(0.01, 3.0),
       st.floats(1.0 + 1e-9, 1e6), st.floats(1.0 + 1e-9, 1e6))
def test_p_rules_grow_with_p_and_dominate_their_plain_rule(tag, name, a, w, p1, p2):
    # c(p) is the L^p[0,1] norm of the rule's kernel, nondecreasing in p,
    # and the plain rule's constant is its p -> 1 limit.
    f, iv = _BY_NAME[name], Interval(a, a + w)
    lo, hi = sorted((p1, p2))
    at_lo, at_hi = rhs_bound(tag, f, iv, lo), rhs_bound(tag, f, iv, hi)
    assert at_lo <= at_hi * (1.0 + 1e-14)
    assert rhs_bound(PLAIN_RULE[tag], f, iv) <= at_lo * (1.0 + 1e-14)


def test_exponent_parameter_rules(corpus, unit):
    f = corpus["x^4"]
    with pytest.raises(ParameterError, match="ME1"):
        rhs_bound("ME1", f, unit, 2.0)
    with pytest.raises(ParameterError, match="ME2"):
        rhs_bound("ME2", f, unit)
    with pytest.raises(ParameterError, match="ME2"):
        rhs_bound("ME2", f, unit, 1.0)
    with pytest.raises(ParameterError, match="ME3"):
        rhs_bound("ME3", f, unit, 0.5)
    with pytest.raises(ParameterError):
        rhs_bound("ME9", f, unit)


def test_check_bound_sharpness_on_quartic(corpus, unit):
    r = check_bound("ME1", corpus["x^4"], unit)
    assert r.passed
    assert r.ratio == pytest.approx(1.0, abs=1e-9)
    assert r.hypothesis.certified


def test_check_bound_midpoint_quartic(corpus, unit):
    r = check_bound("ME4", corpus["x^4"], unit)
    assert r.passed
    assert r.ratio == pytest.approx(7.0 / 30.0, abs=1e-12)


def test_check_bound_quintic(corpus, unit):
    r = check_bound("ME1", corpus["x^5"], unit)
    assert r.passed
    assert r.lhs == pytest.approx(1.0 / 12.0, abs=1e-14)
    assert r.rhs == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_power_mean_bounds_are_exponent_independent(corpus, unit):
    for tag in ("T1_7", "ME3", "ME6"):
        values = {rhs_bound(tag, corpus["x^5"], unit, q) for q in (1.0, 2.0, 7.0)}
        assert len(values) == 1


def test_power_mean_at_q_one_equals_plain_bound(corpus, unit):
    f = corpus["x^5"]
    assert rhs_bound("ME3", f, unit, 1.0) == rhs_bound("ME1", f, unit)
    assert rhs_bound("ME6", f, unit, 1.0) == rhs_bound("ME4", f, unit)
    r3 = check_bound("ME3", f, unit, 1.0)
    r1 = check_bound("ME1", f, unit)
    assert (r3.lhs, r3.rhs) == (r1.lhs, r1.rhs)


def test_dominance_on_certified_instances():
    grid = [Interval(a, b) for a, b in DEFAULT_INTERVALS[:6]]
    for f in builtin_corpus(alpha_grid=(0.5,)):
        for iv in admissible_intervals(f, grid):
            for tag in THEOREM_ORDER:
                kind = THEOREMS[tag].exponent_kind
                exponent = {"none": None, "p": 2.0, "q": 2.0}[kind]
                r = check_bound(tag, f, iv, exponent)
                if r.hypothesis.certified:
                    assert r.margin >= -1e-9, (tag, f.name, iv)
                    assert r.passed
                    assert 0.0 <= r.ratio <= 1.0 + 1e-9


def test_ratio_is_scale_invariant(corpus):
    iv = Interval(0.25, 1.25)
    base = check_bound("ME1", corpus["x^5"], iv)
    for c in (2.0, 10.0):
        r = check_bound("ME1", scaled(corpus["x^5"], c), iv)
        assert r.lhs == pytest.approx(c * base.lhs, rel=1e-12)
        assert r.rhs == pytest.approx(c * base.rhs, rel=1e-12)
        assert r.ratio == pytest.approx(base.ratio, rel=1e-12)


def _transplant(power):
    """h**power * exp(x/h) on [0, h]: every term of the rules scales as h**power."""
    def make(h):
        return SmoothFunction(
            name=f"transplant(exp,{h})", domain=Interval(-1.0, 3.0),
            func=lambda x: h ** power * np.exp(x / h),
            derivs=tuple(
                (lambda x, k=k: h ** (power - k) * np.exp(x / h))
                for k in range(1, 5)
            ),
            turning_points=no_turning_points,
        )
    return make


# Expected width power per tag, written out rather than read from the table.
WIDTH_POWERS = [("T1_2", 1), ("T1_3", 1), ("T1_4", 2), ("T1_5", 3), ("T1_6", 3),
                ("T1_7", 3), ("ME1", 4), ("ME2", 4), ("ME3", 4), ("ME4", 3),
                ("ME5", 3), ("ME6", 3)]


@pytest.mark.parametrize("tag,power", WIDTH_POWERS)
def test_width_scaling(tag, power):
    make = _transplant(power)
    exponent = {"none": None, "p": 2.0, "q": 2.0}[THEOREMS[tag].exponent_kind]
    base = check_bound(tag, make(1.0), Interval(0.0, 1.0), exponent)
    for h in (0.5, 2.0):
        r = check_bound(tag, make(h), Interval(0.0, h), exponent)
        assert r.lhs == pytest.approx(h ** power * base.lhs, rel=1e-9)
        assert r.rhs == pytest.approx(h ** power * base.rhs, rel=1e-9)
        assert r.ratio == pytest.approx(base.ratio, rel=1e-9)


def test_sharpness_survives_lower_order_perturbations(unit):
    # Constant fourth derivative keeps the trapezoid-side ratio at exactly 1.
    for coeffs in ([0, 0, 0, 0, 1], [1, -7, 3, 2, 1], [-2, 0, 5, -1, 1]):
        f = poly_smooth("quartic", coeffs)
        for tag, exponent in [("ME1", None), ("ME3", 2.0)]:
            r = check_bound(tag, f, unit, exponent)
            assert r.ratio == pytest.approx(1.0, abs=1e-9), (tag, coeffs)


def test_refuted_hypothesis_is_reported_not_raised(corpus):
    # |sin''''| = |sin| rises then falls on [1, 3], so the rule's
    # hypothesis fails there; the inequality is still evaluated.
    r = check_bound("ME1", corpus["sin"], Interval(1.0, 3.0))
    assert not r.passed
    assert r.hypothesis.verdict == "refuted"
    assert r.hypothesis.counterexample is not None
    assert math.isfinite(r.lhs) and math.isfinite(r.rhs)


def test_certify_hypothesis_matches_direct_scan(corpus, unit):
    d4 = corpus["x^5"].deriv(4)
    direct = check_quasi_convex(lambda x: np.abs(d4(x)), unit, ())
    assert direct.certified
    assert certify_hypothesis("ME1", corpus["x^5"], unit) == direct
    assert certify_hypothesis("ME2", corpus["x^5"], unit) == direct


# Wide sin intervals holding a peak of |sin| (pi/2) or of |cos| (pi), so
# that every derivative order is refuted somewhere.
WIDE_SIN_INTERVALS = ((1.0, 4.0), (0.5, 3.5), (2.0, 5.0), (0.2, 6.0))


@pytest.mark.parametrize("tag", [tag for tag, spec in THEOREMS.items()
                                 if spec.exponent_kind != EXP_NONE])
def test_the_certificate_of_the_derivative_decides_every_power(tag):
    # s -> s^e is increasing, so |f^(n)|^e and |f^(n)| are quasi-convex
    # together: the exponent-free certificate must agree with the powered one.
    grid = [Interval(a, b) for a, b in DEFAULT_INTERVALS + WIDE_SIN_INTERVALS]
    order = THEOREMS[tag].derivative_order
    verdicts = set()
    for f in builtin_corpus(sin_domain=Interval(0.0, 6.3)):
        d = f.deriv(order)
        for iv in admissible_intervals(f, grid):
            verdict = certify_hypothesis(tag, f, iv).verdict
            verdicts.add(verdict)
            points = f.turning_points(order, iv.a, iv.b)
            for e in (1.5, 2.0, 3.0):
                powered = check_quasi_convex(lambda x: np.abs(d(x)) ** e, iv, points)
                assert powered.verdict == verdict, (f.name, iv, e)
    assert verdicts == {"certified", "refuted"}
