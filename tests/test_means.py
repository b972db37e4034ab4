import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify import means
from hhverify.bounds import DEFECTS, THEOREMS, check_bound, rhs_bound, rule_scale
from hhverify.corpus import make_power_family
from hhverify.errors import DomainError, ParameterError
from hhverify.means import (_PRINTED_DIVISOR, APPLICATION_SOURCE, APPLICATION_TAGS,
                            OVERFLOW_NOTE, _lp, application_check, application_rows,
                            arithmetic_mean)
from hhverify.numerics import Interval
from hhverify.runner import RunConfig, run


def test_arithmetic_mean_values():
    assert arithmetic_mean(2.0, 4.0) == 3.0
    assert arithmetic_mean(1.0, 32.0) == 16.5
    assert arithmetic_mean(0.7, 0.7) == 0.7


@pytest.mark.parametrize("a, b", [(-1.0, 2.0), (0.0, 2.0), (2.0, 2.0), (3.0, 2.0)])
def test_means_require_zero_below_a_below_b(a, b):
    with pytest.raises(DomainError):
        application_check("A3_1", "derived", a, b, 1.0)


def test_log_mean_main_branch_values():
    # (2^3 - 1)/(3*1) = 7/3
    assert _lp(1.0, 2.0, 2.0) == pytest.approx(7.0 / 3.0, rel=1e-15)
    # (2^6 - 1)/(6*1) = 63/6
    assert _lp(1.0, 2.0, 5.0) == pytest.approx(10.5, rel=1e-15)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_equal_argument_limit_main_branch(p, a):
    eps = 1e-6
    value = _lp(a, a + eps, p)
    assert value == pytest.approx(a ** p, rel=1e-4)


def test_degenerate_interval_rejected_by_type():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)


def test_application_derived_at_reference_point():
    v = application_check("A3_1", "derived", 1.0, 2.0, 1.0)
    # 12*A(1,32) - 12*L_5(1,2) - 20*L_3(1,2) = 198 - 126 - 75 = -3.
    assert v["lhs"] == 3.0
    assert v["rhs"] == pytest.approx(4.0, abs=1e-12)
    assert v["pass"]
    assert v["note"] == ""


def test_application_paper_variant_detects_printed_coefficient():
    v = application_check("A3_1", "paper", 1.0, 2.0, 1.0)
    # The printed middle coefficient is (1+3)(1+4)(1+4) = 100, giving 375.
    assert v["lhs"] == 303.0
    assert v["rhs"] == pytest.approx(4.0, abs=1e-12)
    assert not v["pass"]
    assert v["note"] == "printed coefficient refuted at this instance"


def test_application_degenerate_width_guard():
    v = application_check("A3_1", "derived", 1.0, 1.001, 1.0)
    assert v["pass"]
    assert v["rhs"] <= 1e-9


@pytest.mark.parametrize("tag,exponent", [
    ("A3_1", None), ("A3_2", 2.0), ("A3_3", 2.0),
    ("A3_4", None), ("A3_5", 2.0), ("A3_6", 2.0),
])
def test_all_derived_variants_pass(tag, exponent):
    for a, b in [(1.0, 2.0), (0.5, 1.5), (2.0, 5.0)]:
        for alpha in (0.25, 1.0):
            v = application_check(tag, "derived", a, b, alpha, exponent)
            assert v["pass"], (tag, a, b, alpha)


_CLEARING = {"A3_1": ("ME1", 12.0), "A3_2": ("ME2", 12.0), "A3_3": ("ME3", 12.0),
             "A3_4": ("ME4", 24.0), "A3_5": ("ME5", 24.0), "A3_6": ("ME6", 24.0)}


@pytest.mark.parametrize("tag,exponent", [
    ("A3_1", None), ("A3_2", 2.0), ("A3_3", 2.0),
    ("A3_4", None), ("A3_5", 2.0), ("A3_6", 2.0),
])
def test_derived_variant_matches_scaled_bound_check(tag, exponent):
    source, clear = _CLEARING[tag]
    for a, b in [(1.0, 2.0), (0.5, 1.5)]:
        for alpha in (0.5, 1.0):
            iv = Interval(a, b)
            f = make_power_family(alpha, domain=iv)
            scale = clear * (alpha + 1) * (alpha + 2) * (alpha + 3) * (alpha + 4)
            direct = check_bound(source, f, iv, exponent, quad_tol=1e-12)
            v = application_check(tag, "derived", a, b, alpha, exponent)
            assert v["lhs"] == pytest.approx(scale * direct["lhs"], rel=1e-9)
            assert v["rhs"] == pytest.approx(scale * direct["rhs"], rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_CLEARING)), st.sampled_from(["derived", "paper"]),
       st.floats(0.01, 50.0), st.floats(0.001, 50.0),
       st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.001, 1.0),
       st.floats(1.01, 8.0))
def test_derived_rhs_is_bit_identical_to_member_on_the_interval(tag, variant, a, width,
                                                                alpha, p):
    # The derived side reuses one power-family member per alpha; the rhs
    # must equal the one built from a member whose domain is [a, b].  The
    # printed side is the source rule's scale over the printed divisor.
    b = a + width
    source, clear = _CLEARING[tag]
    exponent = None if tag in ("A3_1", "A3_4") else p
    iv = Interval(a, b)
    pprod = (alpha + 1.0) * (alpha + 2.0) * (alpha + 3.0) * (alpha + 4.0)
    if variant == "derived":
        expected = clear * pprod * rhs_bound(source, make_power_family(alpha, domain=iv),
                                             iv, exponent)
    else:
        expected = (rule_scale(THEOREMS[source], b - a, exponent, _PRINTED_DIVISOR[tag])
                    * pprod * max(a ** alpha, b ** alpha))
    assert application_check(tag, variant, a, b, alpha, exponent)["rhs"] == expected


def test_every_derived_rhs_of_a_batch_is_the_scaled_rule_bound():
    # A batch shares each endpoint maximum across the instances of an alpha
    # and each rule scale across the alphas of an interval; every derived
    # side must still be |D| * P * rhs_bound, D its defect's DEFECTS divisor, bit for bit.
    intervals = [(0.25, 0.3), (0.5, 1.5), (1.0, 2.0), (2.0, 5.0), (3.7, 5.9)]
    alphas = [0.1, 0.25, 0.5, 0.75, 1.0]
    instances = [(tag, variant, exponent) for tag in APPLICATION_TAGS
                 for variant in ("paper", "derived")
                 for exponent in {"p": [1.5, 2.0, 3.0], "q": [1.0, 2.0]}.get(
                     THEOREMS[APPLICATION_SOURCE[tag]].exponent_kind, [None])]
    derived = [r for r in application_rows(instances, intervals, alphas)
               if r["variant"] == "derived"]
    assert len(derived) == len(intervals) * len(alphas) * 12
    for r in derived:
        source = THEOREMS[APPLICATION_SOURCE[r["theorem"]]]
        alpha = r["alpha"]
        pprod = (alpha + 1.0) * (alpha + 2.0) * (alpha + 3.0) * (alpha + 4.0)
        expected = (abs(DEFECTS[source.lhs_kind][1]) * pprod
                    * rhs_bound(source.tag, make_power_family(alpha),
                                Interval(r["a"], r["b"]), r["exponent"]))
        assert r["rhs"].hex() == expected.hex(), r


def test_application_parameter_errors():
    with pytest.raises(ParameterError):
        application_check("A3_2", "derived", 1.0, 2.0, 1.0)  # missing p
    with pytest.raises(ParameterError):
        application_check("A3_1", "derived", 1.0, 2.0, 1.0, 2.0)  # stray exponent
    with pytest.raises(ParameterError):
        application_check("A3_9", "derived", 1.0, 2.0, 1.0)
    with pytest.raises(ParameterError):
        application_check("A3_1", "printed", 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        application_check("A3_1", "derived", 1.0, 2.0, 1.5)
    with pytest.raises(DomainError):
        application_check("A3_1", "derived", -1.0, 2.0, 1.0)


def test_every_interval_is_validated_before_the_first_row():
    rows = application_rows([("A3_1", "derived", None)], [(1.0, 2.0), (1.0, math.inf)], [1.0])
    with pytest.raises(DomainError, match="endpoints must be finite"):
        next(rows)


def test_an_application_passes_by_the_bound_records_margin_rule():
    # margin_tol one ulp below lhs - rhs = 3949.21875: rhs + margin_tol rounds
    # up to lhs, but the margin rhs - lhs is still short of -margin_tol.
    tol = 3949.2187499999995
    v = application_check("A3_1", "paper", 0.5, 3.0, 1.0, margin_tol=tol)
    assert v["rhs"] - v["lhs"] < -tol
    assert (v["pass"], v["status"]) == (False, "fail")


@pytest.mark.parametrize("variant", ["paper", "derived"])
def test_overflowing_side_is_reported_not_raised(variant):
    v = application_check("A3_4", variant, 1e-300, 1e300, 1.0)
    assert not v["pass"]
    assert math.isnan(v["lhs"]) and math.isnan(v["rhs"])
    assert (v["status"], v["note"]) == ("non_converged", OVERFLOW_NOTE)


def test_infinite_side_never_passes(monkeypatch):
    # The derived right side is 12P times the rule scale times this endpoint maximum.
    monkeypatch.setattr(means, "endpoint_derivative_max", lambda *args: math.inf)
    v = application_check("A3_1", "derived", 1.0, 2.0, 1.0)
    assert v["lhs"] == 3.0 and v["rhs"] == math.inf
    assert not v["pass"]
    assert (v["status"], v["note"]) == ("non_converged", OVERFLOW_NOTE)


def test_a_run_equals_its_instances_checked_one_at_a_time():
    # Intervals with a <= 0 are skipped; [1e-300, 1e300] overflows; the last
    # interval is the cancelling instance of ROADMAP item 3.
    intervals = [[-1.0, 1.0], [0.0, 2.0], [1e-300, 1e300], [0.5, 1.5], [2.0, 5.0],
                 [341178919.4936399, 341178919.4940397]]
    alphas = [0.25, 1.0]
    exponents = {"p": [2, 3], "q": [1, 2]}
    records = run(RunConfig.from_dict({
        "tasks": ["applications"], "intervals": intervals, "alpha_grid": alphas,
        "p_grid": exponents["p"], "q_grid": exponents["q"]}))["application_checks"]

    expected = []
    for tag in APPLICATION_TAGS:
        for variant in ("paper", "derived"):
            for a, b in intervals[2:]:
                for alpha in alphas:
                    kind = THEOREMS[APPLICATION_SOURCE[tag]].exponent_kind
                    expected += [application_check(tag, variant, a, b, alpha, exponent)
                                 for exponent in exponents.get(kind, [None])]
    expected.sort(key=lambda r: (r["theorem"], r["variant"], r["a"], r["b"], r["alpha"],
                                 -1.0 if r["exponent"] is None else r["exponent"]))
    # Ten instances (two tags without an exponent, four with two) per variant,
    # positive interval and alpha.
    assert len(records) == len(expected) == 2 * 4 * 2 * 10
    assert ([[(k, repr(v)) for k, v in r.items()] for r in records]
            == [[(k, repr(v)) for k, v in r.items()] for r in expected])
    assert sum(r["note"] == OVERFLOW_NOTE for r in records) == 2 * 2 * 10
    cancelling = next(r for r in records if r["theorem"] == "A3_5" and r["variant"] == "derived"
                      and r["a"] == 341178919.4936399 and r["alpha"] == 1.0
                      and r["exponent"] == 2.0)
    assert cancelling["lhs"] == pytest.approx(1.58e38, rel=0.01)
