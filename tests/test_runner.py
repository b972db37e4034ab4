import gc
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify import bounds, identities, runner
from hhverify.bounds import (EXP_HOLDER_P, EXP_POWER_Q, THEOREM_ORDER, THEOREMS,
                             certify_hypothesis, check_bound)
from hhverify.corpus import admissible_intervals, builtin_corpus, corpus_by_name
from hhverify.errors import ConfigError, exit_code, summary
from hhverify.identities import check_identity
from hhverify.means import APPLICATION_SOURCE, APPLICATION_TAGS, application_check
from hhverify.numerics import Interval
from hhverify.report import render_json
from hhverify.runner import DEFAULT_INTERVALS, RunConfig, run
from hhverify.search import EXPONENT_SEARCH_TAGS, best_exponent, worst_case_alpha

_CORPUS = corpus_by_name(builtin_corpus())


def test_me1_on_two_quartics_example():
    cfg = RunConfig.from_dict({"tasks": ["bounds"], "corpus": ["x^4", "x^5"],
                               "intervals": [[0.0, 1.0]], "theorems": ["ME1"]})
    report = run(cfg)
    assert len(report["bound_checks"]) == 2
    assert all(r["pass"] for r in report["bound_checks"])
    ratios = sorted(r["ratio"] for r in report["bound_checks"])
    assert ratios[1] == pytest.approx(1.0, abs=1e-9)
    assert exit_code(report["summary"]) == 0


def test_summary_counts_equal_record_tallies():
    cfg = RunConfig.from_dict({"tasks": ["applications"], "intervals": [[1.0, 2.0]],
                               "applications": ["A3_1"], "alpha_grid": [1.0]})
    report = run(cfg)
    counts = report["summary"]
    assert counts["total"] == sum(len(report[key]) for key in (
        "identity_checks", "bound_checks", "application_checks", "searches"))
    assert counts["pass"] + counts["fail"] == counts["total"]
    assert counts["fail"] >= 1  # the printed-coefficient variant
    assert exit_code(counts) == 2


def test_a_run_allocates_little_beyond_the_records_it_returns():
    # 3,600 application records; a key tuple or a sorted copy per record
    # would cost tens of bytes each above the report the run returns.
    rng = random.Random(27)
    starts = [rng.uniform(0.1, 3.0) for _ in range(60)]
    config = RunConfig(tasks=("applications",),
                       intervals=tuple((a, a + rng.uniform(0.1, 2.0)) for a in starts),
                       alpha_grid=(0.2, 0.4, 0.6, 0.8, 1.0))
    run(config)  # fills the caches the measured run reuses
    tracemalloc.start()
    try:
        report = run(config)
        gc.collect()  # empties the free lists, so what is traced is what the run returns
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    records = len(report["application_checks"])
    assert records == 3600
    assert (peak - retained) / records < 30


def test_interval_grid_is_filtered_by_domain():
    cfg = RunConfig.from_dict({"tasks": ["identities"], "corpus": ["sin"],
                               "intervals": [[0.0, 1.0], [0.25, 0.75]]})
    report = run(cfg)
    # sin's default domain is [0.2, 1.3]; [0.0, 1.0] falls outside it.
    assert {tuple(r["interval"]) for r in report["identity_checks"]} == {(0.25, 0.75)}


def test_unknown_corpus_name_names_field():
    with pytest.raises(ConfigError, match="corpus"):
        RunConfig.from_dict({"corpus": ["x^9"]})


def test_an_unknown_search_function_is_refused_before_any_check(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a check ran before the config was refused")

    monkeypatch.setattr(runner, "integrate", no_work)
    with pytest.raises(ConfigError) as err:
        run(RunConfig.from_dict({"search_p_function": "nope"}))
    assert str(err.value) == "search_p_function: unknown function 'nope'"


def test_a_default_run_certifies_each_derivative_order_once(monkeypatch):
    # Each check is one call per (function, interval), under the name its
    # caller looks up, so that a wrapper there sees every call.
    calls = {}

    def count(module, name, key=None):
        original = getattr(module, name)
        seen = calls.setdefault(f"{module.__name__.rsplit('.', 1)[1]}.{name}", [])

        def counted(*args, **kwargs):
            seen.append(key(*args) if key else None)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(runner, "integrate")
    count(runner, "check_identity")
    count(runner, "certify_hypothesis",
          key=lambda order, f, iv, *_: (order, f.name, iv))
    count(bounds, "check_quasi_convex")
    count(identities, "integrate", key=lambda f, span, *_: span)
    run(RunConfig())
    # 80 (function, interval) pairs; one certificate per derivative order
    # of each, whatever the tags and exponents: 8 functions x 4 orders.  The
    # alpha searches read each member's ratio and certify none.
    assert {name: len(seen) for name, seen in calls.items()} == {
        "runner.integrate": 80, "runner.check_identity": 160,
        "runner.certify_hypothesis": 320, "bounds.check_quasi_convex": 320,
        "identities.integrate": 160}
    assert len(set(calls["runner.certify_hypothesis"])) == 320
    # L1's kernel spans [0, 1] once per pair, L2's folded kernel [0, 1/2] once.
    spans = calls["identities.integrate"]
    assert (spans.count(Interval(0.0, 1.0)), spans.count(Interval(0.0, 0.5))) == (80, 80)


def test_me2_passes_at_a_holder_exponent_beyond_the_beta_underflow():
    # B(601, 601) is 0 as a double; the factor B(601, 601)^(1/300) is 0.0618.
    cfg = RunConfig.from_dict({"tasks": ["bounds"], "corpus": ["x^4"],
                               "intervals": [[0.0, 1.0]], "theorems": ["ME2"],
                               "p_grid": [2, 300]})
    records = run(cfg)["bound_checks"]
    assert [r["exponent"] for r in records] == [2.0, 300.0]
    assert [r["status"] for r in records] == ["pass", "pass"]
    assert records[1]["rhs"] == pytest.approx(0.0618, abs=1e-4)


def test_a_run_keeps_each_exponent_as_given():
    # An integer in p_grid reads the same in bound and application records.
    report = run(RunConfig(tasks=("bounds", "applications"), corpus=("x^4",),
                           intervals=((0.5, 1.0),), theorems=("ME2",), applications=("A3_2",),
                           p_grid=(2,)))
    assert {type(r["exponent"]) for r in report["bound_checks"]} == \
        {type(r["exponent"]) for r in report["application_checks"]} == {int}


def test_validation_names_offending_field():
    with pytest.raises(ConfigError, match="theorems"):
        RunConfig.from_dict({"theorems": []})
    with pytest.raises(ConfigError, match="quad_tol"):
        RunConfig.from_dict({"quad_tol": -1.0})
    with pytest.raises(ConfigError, match="qc_tol"):
        RunConfig.from_dict({"qc_tol": float("inf")})
    with pytest.raises(ConfigError, match="p_grid"):
        RunConfig.from_dict({"p_grid": [0.5]})
    # The grids state the library's exponent rules, word for word.
    with pytest.raises(ConfigError, match="^p_grid: requires finite p > 1, got inf$"):
        RunConfig.from_dict({"p_grid": [float("inf")]})
    with pytest.raises(ConfigError, match="^q_grid: requires finite q >= 1, got inf$"):
        RunConfig.from_dict({"q_grid": [float("inf")]})
    with pytest.raises(ConfigError, match="intervals"):
        RunConfig.from_dict({"intervals": [[2.0, 1.0]]})
    with pytest.raises(ConfigError, match="format"):
        RunConfig.from_dict({"format": "xml"})
    with pytest.raises(ConfigError, match="unknown configuration key"):
        RunConfig.from_dict({"not_a_key": 1})
    with pytest.raises(ConfigError, match="^qc_grid: must be at least 3, got 2$"):
        RunConfig.from_dict({"qc_grid": 2})


@pytest.mark.parametrize("field, value, expected", [
    ("quad_tol", Fraction(1, 10 ** 10), "a number"),
    ("quad_budget", np.int64(10 ** 6), "an integer"),
], ids=["Fraction", "int64"])
def test_a_config_number_is_a_json_int_or_float(field, value, expected):
    # Either would pass every range check, then fail to serialize into the report.
    with pytest.raises(ConfigError, match=f"^{field}: must be {expected}, got "):
        RunConfig(**{field: value}).validate()


def test_a_numpy_float_is_a_float():
    config = RunConfig(tasks=("identities",), corpus=("x^4",), intervals=((0.0, 1.0),),
                       quad_tol=np.float64(1e-10))
    assert '"quad_tol": 1e-10,' in render_json(run(config))


def test_default_interval_grid_is_wide_enough():
    assert len(DEFAULT_INTERVALS) >= 10


def test_exit_code_precedence():
    assert exit_code(summary([{"status": "fail"}, {"status": "non_converged"}])) == 2
    assert exit_code(summary([{"status": "non_converged"}, {"status": "pass"}])) == 3
    assert exit_code(summary([{"status": "pass"}])) == 0


def _same_record(library, record):
    # repr tells 3 from 3.0 and shows the key order; equal floats print alike.
    assert repr(library) == repr(record)


def test_an_identity_record_is_the_library_call():
    (record,) = run(RunConfig.from_dict({
        "tasks": ["identities"], "corpus": ["exp"], "intervals": [[0.25, 1.25]],
        "identities": ["L2"]}))["identity_checks"]
    _same_record(check_identity("L2", _CORPUS["exp"], Interval(0.25, 1.25)), record)


@pytest.mark.parametrize("tag, name, interval, exponent", [
    ("ME2", "x^5", [0.25, 1.25], 3),  # an integer exponent stays one
    ("ME1", "sin", [1.0, 3.0], None),  # a refuted hypothesis and its witness
])
def test_a_bound_record_is_the_library_call(tag, name, interval, exponent):
    (record,) = run(RunConfig.from_dict({
        "tasks": ["bounds"], "corpus": [name], "sin_domain": [0.0, 6.3],
        "intervals": [interval], "theorems": [tag],
        "p_grid": [2.0 if exponent is None else exponent]}))["bound_checks"]
    f = corpus_by_name(builtin_corpus(sin_domain=Interval(0.0, 6.3)))[name]
    _same_record(check_bound(tag, f, Interval(*interval), exponent), record)


def test_an_application_record_is_the_library_call():
    (record,) = run(RunConfig.from_dict({
        "tasks": ["applications"], "intervals": [[1.0, 2.0]], "applications": ["A3_2"],
        "variants": ["derived"], "alpha_grid": [0.5], "p_grid": [3]}))["application_checks"]
    _same_record(application_check("A3_2", "derived", 1.0, 2.0, 0.5, 3), record)


def test_a_search_record_is_the_library_call():
    config = RunConfig.from_dict({"tasks": ["searches"], "search_p_theorems": ["ME2"],
                                  "search_alpha_theorems": ["ME1"]})
    exponent_search, alpha_search = run(config)["searches"]
    _same_record(best_exponent("ME2", _CORPUS["x^4"], Interval(*config.search_p_interval),
                               config.search_p_range), exponent_search)
    _same_record(worst_case_alpha("ME1", Interval(*config.search_alpha_interval),
                                  config.search_alpha_range), alpha_search)


# Int and float twins tie in every sort key but print differently.
_ORDER_INTERVALS = ([1, 2], [1.0, 2.0], [0.5, 1.5], [0, 1], [0.0, 1.0])


@st.composite
def _order_configs(draw):
    """Small configs that repeat and disorder their lists."""
    def some(items, max_size=3, min_size=1):
        return draw(st.lists(st.sampled_from(items), min_size=min_size, max_size=max_size))

    alphas = draw(st.permutations([1.0, 0.25, 0.5]))
    return RunConfig.from_dict({
        "corpus": some(["x^4", "x^5", "exp", "sin"]), "intervals": some(_ORDER_INTERVALS, 4, 2),
        "identities": some(["L1", "L2"]), "theorems": some(THEOREM_ORDER),
        "applications": some(APPLICATION_TAGS, 2), "variants": some(["paper", "derived"]),
        "p_grid": some([2, 2.0, 3.0]), "q_grid": some([1, 1.0, 2.0]),
        "alpha_grid": alphas[:draw(st.integers(1, 3))],
        "search_p_theorems": some(EXPONENT_SEARCH_TAGS, 2, 0),
        "search_alpha_theorems": some(["ME1", "ME4"], 2, 0)})


def _none_first(exponent):
    return (exponent is not None, exponent or 0.0)


def _sorted_run_order_records(config):
    """Each record list of the report: the records of the public checks in
    the order of the configured lists, stably sorted by the list's keys."""
    by_name = corpus_by_name(builtin_corpus(config.alpha_grid, Interval(*config.sin_domain)))
    corpus = [by_name[name] for name in config.corpus]
    grid = [Interval(a, b) for a, b in config.intervals]

    def exponents(tag):
        grids = {EXP_HOLDER_P: config.p_grid, EXP_POWER_Q: config.q_grid}
        return grids.get(THEOREMS[tag].exponent_kind, (None,))

    identity = [check_identity(ident, f, iv, config.quad_tol, config.quad_budget,
                               residual_tol=config.residual_tol)
                for f in corpus for ident in config.identities
                for iv in admissible_intervals(f, grid)]
    bound = [check_bound(tag, f, iv, exponent, config.quad_tol, config.quad_budget,
                         config.margin_tol, config.qc_tol)
             for f in corpus for tag in config.theorems for exponent in exponents(tag)
             for iv in admissible_intervals(f, grid)]
    application = [application_check(tag, variant, iv.a, iv.b, alpha, exponent,
                                     config.margin_tol)
                   for iv in grid if iv.a > 0 for alpha in config.alpha_grid
                   for tag in config.applications for variant in config.variants
                   for exponent in exponents(APPLICATION_SOURCE[tag])]
    search = [best_exponent(tag, by_name[config.search_p_function],
                            Interval(*config.search_p_interval), config.search_p_range)
              for tag in config.search_p_theorems]
    search += [worst_case_alpha(tag, Interval(*config.search_alpha_interval),
                                config.search_alpha_range, exponents(tag)[0], config.quad_tol,
                                config.quad_budget, config.margin_tol)
               for tag in config.search_alpha_theorems]
    return {
        "identity_checks": sorted(identity, key=lambda r: (r["id"], r["function"],
                                                           r["interval"])),
        "bound_checks": sorted(bound, key=lambda r: (
            THEOREM_ORDER.index(r["theorem"]), r["function"], r["interval"],
            _none_first(r["exponent"]))),
        "application_checks": sorted(application, key=lambda r: (
            r["theorem"], r["variant"], r["a"], r["b"], r["alpha"], _none_first(r["exponent"]))),
        "searches": sorted(search, key=lambda r: (r["search"], r["theorem"], r["function"] or "")),
    }


@settings(max_examples=40, deadline=None)
@given(_order_configs())
def test_each_record_list_is_the_run_order_records_stably_sorted(config):
    report = run(config)
    for key, records in _sorted_run_order_records(config).items():
        # repr tells 1 from 1.0, so a tie out of run order shows.
        assert repr(report[key]) == repr(records), key


def _bound_statuses(config):
    records = run(RunConfig.from_dict(dict(config, tasks=["bounds"])))["bound_checks"]
    return {(r["theorem"], tuple(r["interval"])): r for r in records}


def test_a_peak_next_to_an_end_refutes_the_hypotheses_of_its_order():
    # |sin| peaks at pi/2, 1.6e-5 inside [1.57078, 4.0] and 3.7e-6 inside
    # [0.2, 1.5708]; |cos| has a valley there.  A sampling grid saw neither.
    left, right = (1.57078, 4.0), (0.2, 1.5708)
    records = _bound_statuses({"corpus": ["sin"], "sin_domain": [0.0, 6.3],
                               "intervals": [list(left), list(right)],
                               "theorems": ["T1_2", "T1_4", "T1_5", "ME1", "ME2", "ME3",
                                            "ME4"]})
    for tag in ("T1_4", "ME1", "ME2", "ME3"):  # |sin''| = |sin''''| = |sin|
        for iv in (left, right):
            assert records[tag, iv]["status"] == "refuted_hypothesis", (tag, iv)
    for tag in ("T1_2", "T1_5", "ME4"):  # |sin'| = |sin'''| = |cos|
        assert records[tag, right]["hypothesis"]["verdict"] == "certified", tag


def test_an_end_on_the_double_nearest_a_turning_point_keeps_its_verdict():
    # 3*pi/2 lies 1.8e-16 above a, where |sin| and |cos| turn; both are
    # monotone on the rest of [a, 6].
    records = _bound_statuses({"corpus": ["sin"], "sin_domain": [0.0, 6.3],
                               "intervals": [[4.71238898038469, 6.0]]})
    assert len(records) == 12
    assert {r["status"] for r in records.values()} == {"pass"}


@pytest.mark.parametrize("interval", [
    # Thousands of |sin| humps lie between these two adjacent doubles.
    (1e20, 1.0000000000000002e20),
    # In this interval, 2 wide, the one multiple of pi/2 (0.46 inside)
    # rounds onto an end: |sin| peaks there at 1 between 0.89 and 0.04.
    (1.0000000000000002e16, 1.0000000000000004e16)])
def test_turning_points_below_double_resolution_give_no_verdict(interval):
    # The quadrature nodes collapse onto the ends too, so each record is
    # non-converged by its integral first; the certificates give no verdict.
    records = _bound_statuses({"corpus": ["sin"], "sin_domain": [interval[0], 2 * interval[0]],
                               "intervals": [list(interval)]})
    assert len(records) == 12
    for record in records.values():
        assert record["status"] == "non_converged"
        assert record["note"].startswith(f"integral of sin over [{interval[0]!r}, ")
    sin = corpus_by_name(builtin_corpus(sin_domain=Interval(interval[0], 2 * interval[0])))
    for order in (1, 2, 3, 4):
        assert certify_hypothesis(order, sin["sin"], Interval(*interval)).verdict == "unresolved", \
            order


def test_a_turning_point_rounded_onto_an_end_gives_no_verdict():
    # A multiple of pi/2 lies 4.7e-8 above a, under half the spacing of the
    # doubles there (6e-8), so it rounds onto a; the integral converges.
    interval = [1000000002.5641972, 1000000006.5641972]
    records = _bound_statuses({"corpus": ["sin"], "sin_domain": [1e9, 2e9],
                               "intervals": [interval]})
    assert len(records) == 12
    for record in records.values():
        assert record["status"] == "non_converged"
        assert record["hypothesis"]["verdict"] == "unresolved"
        assert record["note"] == bounds.UNRESOLVED_NOTE
