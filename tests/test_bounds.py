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
                             corpus_by_name, make_power_family, no_turning_points)
from hhverify.errors import OVERFLOW_NOTE, DomainError, ParameterError
from hhverify.identities import check_identity
from hhverify.means import application_check
from hhverify.numerics import Interval, QuadratureResult, integrate, nonconvergence_note
from hhverify.quasiconvex import check_quasi_convex
from hhverify.runner import DEFAULT_INTERVALS
from hhverify.search import best_exponent, worst_case_alpha

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
    # A report writes inf as null, the value that means "no exponent".
    with pytest.raises(ParameterError, match="^T1_3 requires finite p > 1, got inf$"):
        check_bound("T1_3", f, Interval(0.5, 1.0), math.inf)
    with pytest.raises(ParameterError, match="^ME3 requires finite q >= 1, got inf$"):
        check_bound("ME3", f, unit, math.inf)


@pytest.mark.parametrize("interval", [Interval(0.0, 1.0), Interval(0.0, 0.05)])
def test_check_bound_sharpness_on_quartic(corpus, interval):
    # On [0, 0.05] the right side is 2.08e-7: the ratio is read, not cut off as degenerate.
    r = check_bound("ME1", corpus["x^4"], interval)
    assert r["pass"]
    assert r["ratio"] == pytest.approx(1.0, abs=1e-9)
    assert r["hypothesis"]["verdict"] == "certified"


def test_check_bound_midpoint_quartic(corpus, unit):
    r = check_bound("ME4", corpus["x^4"], unit)
    assert r["pass"]
    assert r["ratio"] == pytest.approx(7.0 / 30.0, abs=1e-12)


def test_check_bound_quintic(corpus, unit):
    r = check_bound("ME1", corpus["x^5"], unit)
    assert r["pass"]
    assert r["lhs"] == pytest.approx(1.0 / 12.0, abs=1e-14)
    assert r["rhs"] == pytest.approx(1.0 / 6.0, abs=1e-14)


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
    assert (r3["lhs"], r3["rhs"]) == (r1["lhs"], r1["rhs"])


def test_dominance_on_certified_instances():
    grid = [Interval(a, b) for a, b in DEFAULT_INTERVALS[:6]]
    for f in builtin_corpus(alpha_grid=(0.5,)):
        for iv in admissible_intervals(f, grid):
            for tag in THEOREM_ORDER:
                kind = THEOREMS[tag].exponent_kind
                exponent = {"none": None, "p": 2.0, "q": 2.0}[kind]
                r = check_bound(tag, f, iv, exponent)
                if r["hypothesis"]["verdict"] == "certified":
                    assert r["margin"] >= -1e-9, (tag, f.name, iv)
                    assert r["pass"]
                    assert 0.0 <= r["ratio"] <= 1.0 + 1e-9


def test_pass_and_ratio_read_one_margin_rule():
    # f = 0 with a constant slope: T1_2's right side is 9.012e-10, below the
    # degeneracy cut-off, against a left side of 1.9012e-9.  Their margin is
    # -1.0000000000000003e-09, short of -margin_tol, though lhs <= rhs +
    # margin_tol rounds true: the record fails, so its ratio is the
    # refutation signal, not the "both sides degenerate" 0.
    slope = 4 * 9.012077974969471e-10
    flat = SmoothFunction(name="flat", domain=Interval(0.0, 1.0), func=lambda x: 0.0,
                          derivs=(lambda x: slope, lambda x: 0.0, lambda x: 0.0,
                                  lambda x: 0.0),
                          turning_points=no_turning_points)
    r = check_bound("T1_2", flat, Interval(0.0, 1.0),
                    integral=QuadratureResult(-1.9012077974969473e-09, 0.0, 15, True))
    assert r["margin"] < -1e-9
    assert (r["pass"], r["status"], r["ratio"]) == (False, "fail", math.inf)


def test_ratio_is_scale_invariant(corpus):
    iv = Interval(0.25, 1.25)
    base = check_bound("ME1", corpus["x^5"], iv)
    for c in (2.0, 10.0):
        r = check_bound("ME1", scaled(corpus["x^5"], c), iv)
        assert r["lhs"] == pytest.approx(c * base["lhs"], rel=1e-12)
        assert r["rhs"] == pytest.approx(c * base["rhs"], rel=1e-12)
        assert r["ratio"] == pytest.approx(base["ratio"], rel=1e-12)


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
        assert r["lhs"] == pytest.approx(h ** power * base["lhs"], rel=1e-9)
        assert r["rhs"] == pytest.approx(h ** power * base["rhs"], rel=1e-9)
        assert r["ratio"] == pytest.approx(base["ratio"], rel=1e-9)


def test_sharpness_survives_lower_order_perturbations(unit):
    # Constant fourth derivative keeps the trapezoid-side ratio at exactly 1.
    for coeffs in ([0, 0, 0, 0, 1], [1, -7, 3, 2, 1], [-2, 0, 5, -1, 1]):
        f = poly_smooth("quartic", coeffs)
        for tag, exponent in [("ME1", None), ("ME3", 2.0)]:
            r = check_bound(tag, f, unit, exponent)
            assert r["ratio"] == pytest.approx(1.0, abs=1e-9), (tag, coeffs)


def test_refuted_hypothesis_is_reported_not_raised(corpus):
    # |sin''''| = |sin| rises then falls on [1, 3], so the rule's
    # hypothesis fails there; the inequality is still evaluated.
    r = check_bound("ME1", corpus["sin"], Interval(1.0, 3.0))
    assert not r["pass"]
    assert r["hypothesis"]["verdict"] == "refuted"
    assert r["hypothesis"]["counterexample"] is not None
    assert math.isfinite(r["lhs"]) and math.isfinite(r["rhs"])


def test_non_finite_hypothesis_sample_is_non_converged_with_abscissa():
    def g(x):
        return math.nan if x == 0.5 else x ** 2

    iv = Interval(0.0, 1.0)
    f = poly_smooth("x^4", [0, 0, 0, 0, 1])
    record = check_bound("ME1", f, iv, hypothesis=check_quasi_convex(g, iv, (0.5,)))
    assert record["status"] == "non_converged"
    assert record["note"] == "hypothesis: non-finite sample at x=0.5"
    assert record["hypothesis"]["verdict"] == "non_finite"
    assert list(record) == list(check_bound("ME1", f, iv))


_NO_SIDES = {"lhs": None, "rhs": None, "margin": None, "ratio": None, "pass": False,
             "hypothesis": None, "status": "non_converged"}


def test_a_stalled_integral_gives_a_record_without_sides(corpus):
    # exp over [-6, 6] keeps an error estimate of 7.07e-7 after 45 evaluations.
    iv = Interval(-6.0, 6.0)
    stalled = integrate(corpus["exp"].func, iv, max_evaluations=45)
    record = check_bound("ME1", corpus["exp"], iv, quad_budget=45)
    assert record == {"kind": "bound", "theorem": "ME1", "function": "exp",
                      "interval": [-6.0, 6.0], "exponent": None, **_NO_SIDES,
                      "note": "integral of exp over [-6.0, 6.0]: "
                              + nonconvergence_note(stalled, 45)}
    assert record["note"].startswith("integral of exp over [-6.0, 6.0]: quadrature budget")
    # A given integral is the one used.
    assert check_bound("ME1", corpus["exp"], iv, quad_budget=45, integral=stalled) == record


def test_an_overflowing_side_gives_a_record_without_sides(corpus, unit):
    # ME2 at p = 1e308: 2p+1 overflows, and the Beta root with it.
    record = check_bound("ME2", corpus["x^4"], unit, 1e308)
    assert record == {"kind": "bound", "theorem": "ME2", "function": "x^4",
                      "interval": [0.0, 1.0], "exponent": 1e308, **_NO_SIDES,
                      "note": OVERFLOW_NOTE}


def test_a_width_whose_power_overflows_gives_a_record_without_sides(corpus):
    # The integral of exp over [-1e100, 0] converges, but w**4 = 1e400
    # raises OverflowError in the right side.
    record = check_bound("ME1", corpus["exp"], Interval(-1e100, 0.0))
    assert record == {"kind": "bound", "theorem": "ME1", "function": "exp",
                      "interval": [-1e100, 0.0], "exponent": None, **_NO_SIDES,
                      "note": OVERFLOW_NOTE}
    assert record["status"] == "non_converged"


def _nan_at(end):
    """x^4 whose derivatives read NaN at ``end`` only."""
    f = poly_smooth("x^4", [0, 0, 0, 0, 1])
    return SmoothFunction(
        name=f"nan_at({end})", domain=f.domain, func=f.func,
        derivs=tuple((lambda x, d=d: math.nan if x == end else d(x)) for d in f.derivs),
        turning_points=f.turning_points)


@pytest.mark.parametrize("end", [1.0, 2.0])
def test_a_nan_endpoint_derivative_leaves_no_right_side(end):
    # max(x, nan) is x: a NaN at the right end was dropped, and ME2's
    # search passed on the left end's derivative alone.
    f, iv = _nan_at(end), Interval(1.0, 2.0)
    assert math.isnan(rhs_bound("ME1", f, iv))
    r = best_exponent("ME2", f, iv, (1.01, 50.0))
    assert (r["objective"], r["status"], r["note"]) == (None, "non_converged", OVERFLOW_NOTE)
    record = check_bound("ME1", f, iv)
    assert (record["rhs"], record["status"]) == (None, "non_converged")


@pytest.mark.parametrize("check", [lambda f, iv: check_bound("ME1", f, iv),
                                   lambda f, iv: check_identity("L1", f, iv)],
                         ids=["check_bound", "check_identity"])
def test_an_f_that_is_not_finite_inside_the_interval_is_a_domain_error(check):
    # x^(alpha+4) overflows inside [1, 1e300]; the quadrature names where.
    iv = Interval(1.0, 1e300)
    with pytest.raises(DomainError, match=r"^integrand returned a non-finite value at x=\d"):
        check(make_power_family(0.5, domain=iv), iv)


@pytest.mark.parametrize("call", [check_bound, rhs_bound])
def test_an_exponent_beyond_double_range_is_a_parameter_error(corpus, unit, call):
    # 10**400 lies between 1 and inf, but no factor c(p) reads it as a double.
    with pytest.raises(ParameterError, match=f"^T1_3 requires finite p > 1, got {10**400}$"):
        call("T1_3", corpus["x^4"], unit, 10**400)
    with pytest.raises(TypeError):
        call("T1_3", corpus["x^4"], unit, "2")


def test_a_bool_is_not_an_exponent(corpus, unit):
    # True compares as 1, so q = True would pass as q = 1; a config refuses a bool too.
    with pytest.raises(ParameterError, match="^ME3 requires finite q >= 1, got True$"):
        check_bound("ME3", corpus["x^4"], unit, True)
    with pytest.raises(ParameterError, match="^ME3 requires finite q >= 1, got True$"):
        application_check("A3_3", "derived", 1.0, 2.0, 0.5, True)


def test_the_record_keeps_the_exponent_as_given(corpus, unit):
    record = check_bound("ME2", corpus["x^4"], unit, 3)
    assert type(record["exponent"]) is int
    assert record["rhs"] == check_bound("ME2", corpus["x^4"], unit, 3.0)["rhs"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("call, name", [
    (lambda tol: integrate(math.exp, Interval(0.0, 1.0), tol=tol), "tol"),
    (lambda tol: check_quasi_convex(math.sin, Interval(0.5, 2.8), (math.pi / 2,), tol=tol),
     "tol"),
    (lambda tol: check_bound("ME1", _BY_NAME["x^4"], Interval(0.0, 1.0), margin_tol=tol),
     "margin_tol"),
    (lambda tol: check_bound("ME1", _BY_NAME["x^4"], Interval(0.0, 1.0), qc_tol=tol),
     "tol"),
    (lambda tol: application_check("A3_1", "paper", 1.0, 2.0, 1.0, margin_tol=tol),
     "margin_tol"),
    (lambda tol: check_identity("L1", _BY_NAME["x^4"], Interval(0.0, 1.0), residual_tol=tol),
     "residual_tol"),
    (lambda tol: worst_case_alpha("ME1", Interval(1.0, 2.0), (0.01, 1.0), margin_tol=tol),
     "margin_tol"),
    (lambda tol: worst_case_alpha("ME1", Interval(1.0, 2.0), (0.01, 1.0), quad_tol=tol),
     "quad_tol"),
    (lambda budget: worst_case_alpha("ME1", Interval(1.0, 2.0), (0.01, 1.0),
                                     quad_budget=budget), "quad_budget"),
    (lambda budget: integrate(math.exp, Interval(0.0, 1.0), max_evaluations=budget),
     "max_evaluations"),
    pytest.param(lambda tol: check_bound("ME1", _BY_NAME["x^4"], Interval(0.0, 1.0),
                                         quad_tol=tol), "quad_tol", id="check_bound-quad_tol"),
    pytest.param(lambda budget: check_bound("ME1", _BY_NAME["x^4"], Interval(0.0, 1.0),
                                            quad_budget=budget), "quad_budget",
                 id="check_bound-quad_budget"),
    pytest.param(lambda tol: check_identity("L1", _BY_NAME["x^4"], Interval(0.0, 1.0),
                                            quad_tol=tol), "quad_tol",
                 id="check_identity-quad_tol"),
    pytest.param(lambda budget: check_identity("L1", _BY_NAME["x^4"], Interval(0.0, 1.0),
                                               quad_budget=budget), "quad_budget",
                 id="check_identity-quad_budget"),
])
def test_a_tolerance_that_is_not_a_finite_bound_is_a_domain_error(call, name, value):
    # A NaN or infinite tolerance would decide every comparison one way.
    with pytest.raises(DomainError, match=f"^{name} must be a finite "):
        call(value)


@pytest.mark.parametrize("call", [
    lambda budget: integrate(math.exp, Interval(0.0, 1.0), max_evaluations=budget).converged,
    lambda budget: check_bound("ME1", _BY_NAME["x^4"], Interval(0.0, 1.0),
                               quad_budget=budget)["status"] == "pass",
    lambda budget: check_identity("L1", _BY_NAME["x^4"], Interval(0.0, 1.0),
                                  quad_budget=budget)["status"] == "pass",
    lambda budget: worst_case_alpha("ME1", Interval(1.0, 2.0), (0.01, 1.0),
                                    quad_budget=budget)["converged"],
], ids=["integrate", "check_bound", "check_identity", "worst_case_alpha"])
def test_a_budget_beyond_double_range_is_a_finite_budget(call):
    # An int compares with inf exactly; math.isfinite would overflow on it.
    assert call(10 ** 400)


@pytest.mark.parametrize("call, message", [
    (lambda: Interval(0, 10 ** 400), r"interval endpoints must be finite, got \[0, 1000"),
    (lambda: check_bound("ME1", _BY_NAME["x^4"], Interval(0.0, 1.0), margin_tol=10 ** 400),
     "margin_tol must be a finite non-negative tolerance, got 1000"),
    (lambda: check_bound("ME1", _BY_NAME["x^4"], Interval(0.0, 1.0), quad_tol=10 ** 400),
     "quad_tol must be a finite positive tolerance, got 1000"),
], ids=["interval", "margin_tol", "quad_tol"])
def test_an_end_or_tolerance_beyond_double_range_is_a_domain_error(call, message):
    # float() of such an int overflows: it is no finite double, unlike a budget.
    with pytest.raises(DomainError, match=f"^{message}"):
        call()


def test_certify_hypothesis_matches_direct_scan(corpus, unit):
    d4 = corpus["x^5"].deriv(4)
    direct = check_quasi_convex(lambda x: np.abs(d4(x)), unit, ())
    assert direct.certified
    assert certify_hypothesis(THEOREMS["ME1"].derivative_order, corpus["x^5"], unit) == direct
    assert certify_hypothesis(THEOREMS["ME2"].derivative_order, corpus["x^5"], unit) == direct


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
            verdict = certify_hypothesis(order, f, iv).verdict
            verdicts.add(verdict)
            points = f.turning_points(order, iv.a, iv.b)
            for e in (1.5, 2.0, 3.0):
                powered = check_quasi_convex(lambda x: np.abs(d(x)) ** e, iv, points)
                assert powered.verdict == verdict, (f.name, iv, e)
    assert verdicts == {"certified", "refuted"}
