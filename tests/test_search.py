import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhverify import search
from hhverify.bounds import (RATIO_DEGENERATE_TOL, THEOREM_ORDER, THEOREMS, check_bound,
                             rhs_bound)
from hhverify.corpus import builtin_corpus, make_power_family
from hhverify.errors import OVERFLOW_NOTE, ParameterError
from hhverify.numerics import Interval
from hhverify.runner import RunConfig, run
from hhverify.search import (EXPONENT_SEARCH_TAGS, RATIO_INFINITE_NOTE, best_exponent,
                             worst_case_alpha)

from conftest import poly_smooth, reflected, scaled


def test_ratio_sharp_instance(corpus, unit):
    assert check_bound("ME1", corpus["x^4"], unit)["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_ratio_midpoint_quartic(corpus, unit):
    ratio = check_bound("ME4", corpus["x^4"], unit)["ratio"]
    assert ratio == pytest.approx(7.0 / 30.0, abs=1e-12)


def test_ratio_degenerate_cubic(corpus):
    # The fourth derivative vanishes identically: both sides are zero.
    for iv in (Interval(0.0, 1.0), Interval(-5.0, 5.0)):
        assert check_bound("ME1", corpus["x^3"], iv)["ratio"] == 0.0


def test_ratio_zero_rhs_with_positive_lhs_is_infinite(unit):
    # f'''' = x(1-x) vanishes at both endpoints but not inside, so the
    # endpoint-max right side is 0 while the left side is positive.
    f = poly_smooth("bump4", [0, 0, 0, 0, 0, 1 / 120.0, -1 / 360.0])
    assert f.deriv(4)(0.0) == pytest.approx(0.0, abs=1e-15)
    assert f.deriv(4)(1.0) == pytest.approx(0.0, abs=1e-15)
    assert f.deriv(4)(0.5) == pytest.approx(0.25, rel=1e-12)
    report = check_bound("ME1", f, unit)
    assert math.isinf(report["ratio"])
    assert not report["pass"]
    assert report["margin"] < 0


def test_best_exponent_holder_constant(corpus, unit):
    r = best_exponent("ME2", corpus["x^4"], unit, (1.01, 50.0))
    assert r["converged"]
    at_two = rhs_bound("ME2", corpus["x^4"], unit, 2.0)
    assert at_two == pytest.approx(0.039841, abs=1e-6)
    assert r["objective"] <= at_two
    # Minimum does not exceed the endpoints or random interior probes.
    for p in (1.01, 50.0):
        assert r["objective"] <= rhs_bound("ME2", corpus["x^4"], unit, p) + 1e-15
    rng = np.random.default_rng(7)
    for p in rng.uniform(1.01, 50.0, size=5):
        assert r["objective"] <= rhs_bound("ME2", corpus["x^4"], unit, float(p)) + 1e-15


def test_best_exponent_midpoint_family(corpus, unit):
    r = best_exponent("ME5", corpus["x^4"], unit, (1.01, 50.0))
    at_two = rhs_bound("ME5", corpus["x^4"], unit, 2.0)
    assert at_two == pytest.approx(0.144338, abs=1e-6)
    assert r["objective"] <= at_two


def test_best_exponent_objective_reevaluates(corpus, unit):
    r = best_exponent("ME2", corpus["x^4"], unit, (1.01, 50.0))
    again = rhs_bound("ME2", corpus["x^4"], unit, r["parameters"][0])
    assert abs(r["objective"] - again) <= 1e-9


def test_best_exponent_degenerate_is_zero_at_the_left_end():
    # Mn = 0 makes every p an argmin; the left end is reported, with no note.
    quadratic = poly_smooth("x^2", [0, 0, 1])
    r = best_exponent("ME5", quadratic, Interval(0.0, 1.0), (1.01, 50.0))
    assert (r["objective"], r["parameters"], r["note"]) == (0.0, [1.01], "")


@pytest.mark.parametrize("tag", EXPONENT_SEARCH_TAGS)
@pytest.mark.parametrize("name, interval", [("x^4", Interval(0.0, 1.0)),
                                            ("exp", Interval(-1.0, 2.5)),
                                            ("sin", Interval(0.3, 2.0))])
def test_best_exponent_is_the_minimum_over_a_dense_grid(corpus, tag, name, interval):
    f = corpus[name]
    r = best_exponent(tag, f, interval, (1.01, 1000.0))
    values = [rhs_bound(tag, f, interval, float(p)) for p in np.geomspace(1.01, 1000.0, 2000)]
    assert r["parameters"] == [1.01]
    assert r["objective"] == pytest.approx(min(values), rel=1e-14)


def test_best_exponent_me2_over_a_wide_range_keeps_a_positive_objective(corpus, unit):
    # B(2p+1, 2p+1) is 0 as a double from p = 268; a search that evaluated it
    # there found objective 0 at p = 267.57.
    r = best_exponent("ME2", corpus["x^4"], unit, (1.01, 1000.0))
    assert r["parameters"] == [1.01]
    assert r["objective"] > 0.0
    assert r["objective"] == rhs_bound("ME2", corpus["x^4"], unit, 1.01)


@pytest.mark.parametrize("tag", EXPONENT_SEARCH_TAGS)
def test_best_exponent_evaluates_the_right_side_once(monkeypatch, corpus, unit, tag):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return rhs_bound(*args, **kwargs)

    monkeypatch.setattr(search, "rhs_bound", counting)
    r = best_exponent(tag, corpus["x^4"], unit, (1.01, 50.0))
    assert len(calls) == r["iterations"] == 1


def test_best_exponent_validation(corpus, unit):
    with pytest.raises(ParameterError):
        best_exponent("ME1", corpus["x^4"], unit, (1.01, 50.0))
    with pytest.raises(ParameterError):
        best_exponent("ME2", corpus["x^4"], unit, (0.5, 50.0))
    # A report writes inf as null, so [2.0, inf] would read [2.0, null].
    with pytest.raises(ParameterError,
                       match=r"^p_range must satisfy finite 1 < lo < hi, got \(2\.0, inf\)$"):
        best_exponent("ME2", corpus["x^4"], unit, (2.0, math.inf))


def test_holder_bound_is_continuous_in_p(corpus, unit):
    jumps = []
    for n in (50, 100, 200):
        ps = np.linspace(1.01, 10.0, n)
        values = [rhs_bound("ME2", corpus["x^4"], unit, float(p)) for p in ps]
        jumps.append(max(abs(v2 - v1) for v1, v2 in zip(values, values[1:])))
    assert jumps[0] > jumps[1] > jumps[2]


def test_worst_alpha_trapezoid_rule():
    r = worst_case_alpha("ME1", Interval(1.0, 2.0), (0.01, 1.0))
    assert 0.0 < r["objective"] <= 1.0
    for alpha in (0.25, 0.5, 0.75, 1.0):
        f = make_power_family(alpha, domain=Interval(1.0, 2.0))
        probe = check_bound("ME1", f, Interval(1.0, 2.0))["ratio"]
        assert r["objective"] >= probe - 1e-9


def test_worst_alpha_midpoint_rule_not_attained():
    r = worst_case_alpha("ME4", Interval(1.0, 2.0), (0.01, 1.0))
    assert r["objective"] < 1.0


def test_worst_alpha_objective_reevaluates():
    r = worst_case_alpha("ME1", Interval(1.0, 2.0), (0.01, 1.0))
    f = make_power_family(r["parameters"][0], domain=Interval(1.0, 2.0))
    again = check_bound("ME1", f, Interval(1.0, 2.0))["ratio"]
    assert abs(r["objective"] - again) <= 1e-9


@pytest.mark.parametrize("tag", ["ME1", "ME4"])
def test_worst_alpha_evaluates_no_point_after_the_search(monkeypatch, tag):
    # One evaluation of the sides per iteration (seed points and golden-section
    # steps) and one for the golden-section point; the range ends reuse their
    # seed values, and the objective is the best candidate's ratio, not
    # computed once more.
    calls = []
    sides = search._sides

    def counting(*args, **kwargs):
        calls.append(args)
        return sides(*args, **kwargs)

    monkeypatch.setattr(search, "_sides", counting)
    r = worst_case_alpha(tag, Interval(1.0, 2.0), (0.01, 1.0))
    assert len(calls) == r["iterations"] + 1
    f = make_power_family(r["parameters"][0], domain=Interval(1.0, 2.0))
    assert r["objective"] == check_bound(tag, f, Interval(1.0, 2.0))["ratio"]


@pytest.mark.parametrize("tag", ["ME1", "ME4"])
def test_worst_alpha_objective_is_the_largest_ratio_it_evaluated(monkeypatch, tag):
    # Each member's alpha and its ratio, in the order the search made them.
    alphas, ratios = [], []
    members, sides = search.make_power_family, search._sides

    def member(alpha, *args, **kwargs):
        alphas.append(alpha)
        return members(alpha, *args, **kwargs)

    def counting(*args, **kwargs):
        result = sides(*args, **kwargs)
        ratios.append(result["ratio"])
        return result

    monkeypatch.setattr(search, "make_power_family", member)
    monkeypatch.setattr(search, "_sides", counting)
    r = worst_case_alpha(tag, Interval(1.0, 2.0), (0.01, 1.0))
    assert len(alphas) == len(ratios)
    assert r["objective"] == max(ratios)
    assert r["objective"] in (v for a, v in zip(alphas, ratios) if a == r["parameters"][0])


@pytest.mark.parametrize("tag", ["ME1", "ME4"])
def test_worst_alpha_reports_a_degenerate_objective_at_the_midpoint(tag):
    # On [0.001, 0.002] both sides are far below the absolute ratio cut-off,
    # so every seed ratio reads 0 and no bracket is searched.
    r = worst_case_alpha(tag, Interval(0.001, 0.002), (0.01, 1.0))
    assert r["note"] == "degenerate objective (identically zero)"
    assert (r["objective"], r["parameters"], r["iterations"], r["converged"]) == \
        (0.0, [0.505], 33, True)


_NO_RESULT = {"objective": None, "parameters": [], "iterations": None, "converged": False,
              "status": "non_converged"}


def test_a_search_whose_objective_overflows_has_no_objective(corpus):
    # The endpoint derivative 4x^3 of x^4 overflows at 1e300.
    r = best_exponent("ME2", corpus["x^4"], Interval(0.0, 1e300), (1.01, 50.0))
    assert r == {"kind": "search", "search": "best_exponent", "theorem": "ME2",
                 "function": "x^4", "interval": [0.0, 1e300], "range": [1.01, 50.0],
                 "exponent": None, **_NO_RESULT, "note": OVERFLOW_NOTE}


def test_a_search_whose_integral_stalls_has_no_objective():
    r = worst_case_alpha("ME1", Interval(1.0, 2.0), (0.01, 1.0), quad_tol=1e-300,
                         quad_budget=15)
    assert {key: r[key] for key in _NO_RESULT} == _NO_RESULT
    assert re.fullmatch(r"integral of power_family\(\S+\) over \[1\.0, 2\.0\]: "
                        r"quadrature budget exhausted \(.*\)", r["note"])


def test_a_search_whose_integrand_is_not_finite_has_no_objective():
    # On [1, 1e300] the power family overflows a double inside the interval:
    # the quadrature's DomainError names the abscissa, and the search notes it.
    r = worst_case_alpha("ME1", Interval(1.0, 1e300), (0.01, 1.0))
    assert {key: r[key] for key in _NO_RESULT} == _NO_RESULT
    assert re.fullmatch(r"integrand returned a non-finite value at x=\S+", r["note"])


def test_an_infinite_ratio_keeps_the_search_result():
    # On [100, 100.001] the right side of ME1 falls below the degeneracy
    # cut-off while the left side's rounding noise stays above the margin.
    r = worst_case_alpha("ME1", Interval(100.0, 100.001), (0.01, 1.0))
    assert (r["objective"], r["converged"], r["status"]) == (math.inf, True, "pass")
    assert r["note"] == RATIO_INFINITE_NOTE


def test_the_search_reads_the_ratio_under_the_callers_margin():
    # margin_tol 1.0 covers the left side's rounding noise on [100, 100.001],
    # so the bound record reads ratio 0 there, and so must the search.
    r = worst_case_alpha("ME1", Interval(100.0, 100.001), (0.01, 1.0), margin_tol=1.0)
    assert (r["objective"], r["converged"], r["status"]) == (0.0, True, "pass")
    assert RATIO_INFINITE_NOTE not in r["note"]


@pytest.mark.parametrize("margin_tol, objective", [(1e-9, math.inf), (1.0, 0.0)])
def test_a_run_searches_under_its_margin_tol(margin_tol, objective):
    iv = Interval(100.0, 100.001)
    config = RunConfig(tasks=("searches",), search_p_theorems=(),
                       search_alpha_theorems=("ME1",), search_alpha_interval=(iv.a, iv.b),
                       margin_tol=margin_tol)
    (r,) = run(config)["searches"]
    f = make_power_family(r["parameters"][0], domain=iv)
    assert r["objective"] == check_bound("ME1", f, iv, margin_tol=margin_tol)["ratio"] \
        == objective


def test_worst_alpha_validation():
    with pytest.raises(ParameterError, match=r"^interval must satisfy a > 0, got \(-1\.0, 2\.0\)$"):
        worst_case_alpha("ME1", Interval(-1.0, 2.0), (0.01, 1.0))
    with pytest.raises(ParameterError):
        worst_case_alpha("ME1", Interval(1.0, 2.0), (0.0, 1.0))
    # The error names the argument, alpha_range.
    with pytest.raises(ParameterError,
                       match=r"^alpha_range must satisfy 0 < lo < hi <= 1, got \(0\.2, 1\.5\)$"):
        worst_case_alpha("ME1", Interval(1.0, 2.0), (0.2, 1.5))


@st.composite
def rule_instances(draw):
    """A rule, a built-in function, an interval of width >= 0.05 in its
    domain, and an exponent of the rule's kind."""
    f = draw(st.sampled_from(builtin_corpus()))
    tag = draw(st.sampled_from(THEOREM_ORDER))
    a = draw(st.floats(f.domain.a, f.domain.b - 0.05))
    b = min(f.domain.b, a + draw(st.floats(0.05, 4.0)))
    exponent = {"none": None, "p": draw(st.floats(1.1, 10.0)),
                "q": draw(st.floats(1.0, 10.0))}[THEOREMS[tag].exponent_kind]
    return tag, f, Interval(a, b), exponent


def _ratio_tol(f, iv, rhs):
    """Rounding in lhs/rhs: the defect cancels terms as large as |f| at the
    ends and w*|f'|, so it is off by some tens of eps times those."""
    d1 = f.deriv(1)
    size = max(abs(float(f(iv.a))), abs(float(f(iv.b))),
               iv.width * max(abs(float(d1(iv.a))), abs(float(d1(iv.b)))))
    return 1e-9 + 100 * 2.0 ** -52 * size / rhs


def _assert_same_ratio(ratio, expected, f, iv, rhs):
    if rhs <= RATIO_DEGENERATE_TOL:  # 0 or inf, from the degenerate branch
        assert ratio == expected
    else:
        assert math.isclose(ratio, expected, rel_tol=0.0, abs_tol=_ratio_tol(f, iv, rhs))


@settings(max_examples=150, deadline=None)
@given(rule_instances())
def test_ratio_is_invariant_under_reflection(instance):
    tag, f, iv, exponent = instance
    _assert_same_ratio(check_bound(tag, reflected(f, iv), iv, exponent)["ratio"],
                       check_bound(tag, f, iv, exponent)["ratio"],
                       f, iv, rhs_bound(tag, f, iv, exponent))


@settings(max_examples=150, deadline=None)
@given(rule_instances(), st.floats(1e-3, 1e3))
def test_ratio_is_invariant_under_positive_scaling(instance, c):
    tag, f, iv, exponent = instance
    rhs = rhs_bound(tag, f, iv, exponent)
    # The degeneracy cut-off is absolute: a right side that scaling moves
    # across it switches the ratio between lhs/rhs and its 0 or inf limit.
    assume((rhs > RATIO_DEGENERATE_TOL) == (c * rhs > RATIO_DEGENERATE_TOL))
    _assert_same_ratio(check_bound(tag, scaled(f, c), iv, exponent)["ratio"],
                       check_bound(tag, f, iv, exponent)["ratio"], f, iv, rhs)
