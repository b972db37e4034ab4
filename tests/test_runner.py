import gc
import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hhverify import bounds, identities, runner
from hhverify.bounds import THEOREMS, certify_hypothesis, check_bound
from hhverify.corpus import builtin_corpus, corpus_by_name
from hhverify.errors import ConfigError, exit_code, summary
from hhverify.identities import check_identity
from hhverify.means import application_check
from hhverify.numerics import Interval
from hhverify.report import render_json
from hhverify.runner import DEFAULT_INTERVALS, RunConfig, run
from hhverify.search import best_exponent, worst_case_alpha

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


def _without_timestamp(text):
    return "".join(line for line in text.splitlines(True) if '"generated_at"' not in line)


def test_records_keep_the_pinned_order_ties_included():
    # The pinned report's config repeats and disorders its inputs: [1.0, 2.0]
    # and [1, 2] are equal intervals, and theorems, variants and exponents
    # recur, so equal sort keys must keep the order the run made them in.
    text = (Path(__file__).parent / "golden" / "golden_order.json").read_text(encoding="utf-8")
    report = run(RunConfig.from_dict(json.loads(text)["config"]))
    assert _without_timestamp(render_json(report)) == _without_timestamp(text)


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
          key=lambda tag, f, iv, *_: (THEOREMS[tag].derivative_order, f.name, iv))
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
    for tag in THEOREMS:
        assert certify_hypothesis(tag, sin["sin"], Interval(*interval)).verdict == "unresolved", tag


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
