import json
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import report_oracle
from hhverify import report as report_module
from hhverify.errors import summary
from hhverify.report import (CSV_COLUMNS, emit, render_csv,
                             render_json, render_markdown)
from hhverify.runner import RunConfig, run

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CONFIG = {
    "tasks": ["identities", "bounds", "applications", "searches"],
    "corpus": ["x^4", "x^5"],
    "intervals": [[0.0, 1.0], [1.0, 2.0]],
    "theorems": ["ME1", "ME2", "ME4"],
    "identities": ["L1", "L2"],
    "applications": ["A3_1"],
    "variants": ["derived", "paper"],
    "alpha_grid": [1.0],
    "p_grid": [2.0],
    "q_grid": [2.0],
    "search_p_theorems": ["ME2"],
    "search_alpha_theorems": ["ME1"],
}


@pytest.fixture(scope="module")
def golden_report():
    data = run(RunConfig.from_dict(GOLDEN_CONFIG))
    data["generated_at"] = "GOLDEN"
    return data


def test_json_round_trips(golden_report):
    text = render_json(golden_report)
    assert json.loads(text) == golden_report


def test_json_floats_use_17_significant_digits():
    text = render_json({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text
    assert json.loads(text)["x"] == 1.0 / 3.0


def test_json_whole_floats_stay_floats():
    text = render_json({"x": 4.0})
    assert isinstance(json.loads(text)["x"], float)


def test_json_nonfinite_serializes_as_null():
    assert json.loads(render_json({"x": math.inf}))["x"] is None
    assert json.loads(render_json({"x": math.nan}))["x"] is None


def test_empty_report_is_valid_json():
    data = {"tool": "hhverify", "version": "0", "generated_at": "X",
            "config": RunConfig().to_dict(), "summary": summary([]),
            "identity_checks": [], "bound_checks": [], "application_checks": [],
            "searches": []}
    parsed = json.loads(render_json(data))
    assert parsed["identity_checks"] == []
    assert parsed["summary"]["total"] == 0


def test_summary_counts_match_record_tallies(golden_report):
    summary = golden_report["summary"]
    records = (golden_report["identity_checks"] + golden_report["bound_checks"]
               + golden_report["application_checks"] + golden_report["searches"])
    assert summary["total"] == len(records)
    for status, key in [("pass", "pass"), ("fail", "fail"),
                        ("refuted_hypothesis", "refuted_hypothesis"),
                        ("non_converged", "non_converged")]:
        assert summary[key] == sum(1 for r in records if r["status"] == status)


def test_golden_json(golden_report):
    expected = (GOLDEN_DIR / "golden.json").read_text(encoding="utf-8")
    assert render_json(golden_report) == expected


@pytest.mark.parametrize("kind,key", [
    ("identity", "identity_checks"), ("bound", "bound_checks"),
    ("application", "application_checks"), ("search", "searches"),
])
def test_golden_csv(golden_report, kind, key):
    expected = (GOLDEN_DIR / f"golden_{kind}.csv").read_text(encoding="utf-8")
    assert render_csv(golden_report[key], kind) == expected


def test_golden_markdown(golden_report):
    expected = (GOLDEN_DIR / "golden.md").read_text(encoding="utf-8")
    assert render_markdown(golden_report) == expected


def test_default_application_records_match_their_golden():
    # Every application record of the default run, bit for bit: 12 (tag,
    # variant) pairs x 27 (interval, alpha), as verify-application writes them.
    records = run(RunConfig(tasks=("applications",)))["application_checks"]
    expected = (GOLDEN_DIR / "golden_default_application.csv").read_text(encoding="utf-8")
    assert render_csv(records, "application") == expected


def test_emit_csv_writes_one_file_per_kind(golden_report, tmp_path):
    emit(golden_report, "csv", tmp_path / "out.csv")
    for kind in ("identity", "bound", "application", "search"):
        target = tmp_path / f"out_{kind}.csv"
        assert target.exists()
        header = target.read_text(encoding="utf-8").splitlines()[0]
        assert "," in header


def test_emit_csv_requires_path(golden_report):
    with pytest.raises(ValueError):
        emit(golden_report, "csv", None)


def test_emit_rejects_unknown_format(golden_report):
    with pytest.raises(ValueError):
        emit(golden_report, "yaml", None)


def test_emit_unwritable_path_mentions_path(golden_report, tmp_path):
    bad = tmp_path / "missing_dir" / "out.json"
    with pytest.raises(OSError, match="out.json"):
        emit(golden_report, "json", bad)
    # A file that cannot be opened after the probe: the writer names it too.
    with pytest.raises(OSError, match=f"^cannot write report to {bad}: "):
        report_module._write_file(bad, lambda out: None)


def test_json_refuses_a_value_it_cannot_serialize():
    with pytest.raises(TypeError, match="^cannot serialize object to JSON$"):
        render_json({"value": object()})


def test_markdown_contains_summary(golden_report):
    text = render_markdown(golden_report)
    assert "# hhverify run report" in text
    assert "| total | pass | fail |" in text


def test_config_round_trip():
    config = RunConfig.from_dict(GOLDEN_CONFIG)
    assert RunConfig.from_dict(config.to_dict()) == config


SECTIONS = (("identity_checks", "identity"), ("bound_checks", "bound"),
            ("application_checks", "application"), ("searches", "search"))

floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308,
                          4.0, -3.0, 1.0 / 3.0]) | st.floats()
texts = st.sampled_from(["a,b", 'say "hi"', "x | y", "two\nlines", "back\\slash",
                         "\u00e9\u00e8 \u03b1\u2264\u03b2", ""]) | st.text(max_size=12)
scalars = st.none() | st.booleans() | st.integers(-10**6, 10**6) | floats | texts
# Often finite floats, so that a column is all floats in some chunks and not in others.
cells = st.floats(allow_nan=False, allow_infinity=False) | scalars
pairs = st.none() | st.lists(floats | st.integers(-5, 5), min_size=2, max_size=2)
hypotheses = st.none() | st.fixed_dictionaries({
    "verdict": texts, "grid_size": st.integers(2, 200), "tol": floats,
    "max_violation": floats,
    "counterexample": st.none() | st.dictionaries(texts, scalars, max_size=3)})


def _record(kind, naming=None):
    """Records of a kind; ``naming``, when given, draws the values of the
    naming columns (a, b, alpha, exponent, and the interval and range ends)."""
    fields = {c: cells for c in CSV_COLUMNS[kind]}
    for key in ("interval_a", "interval_b", "range_lo", "range_hi",
                "hypothesis_verdict", "hypothesis_max_violation"):
        fields.pop(key, None)
    pair = pairs
    if naming is not None:
        fields.update({c: naming for c in ("a", "b", "alpha", "exponent") if c in fields})
        pair = st.none() | st.lists(naming, min_size=2, max_size=2)
    if "interval_a" in CSV_COLUMNS[kind]:
        fields["interval"] = pair
    if kind == "bound":
        fields["hypothesis"] = hypotheses
    if kind == "search":
        fields["range"] = pair
        fields["parameters"] = st.lists(scalars, max_size=3) | scalars
    return st.fixed_dictionaries({"kind": st.just(kind), **fields})


reports = st.fixed_dictionaries({
    "tool": texts, "version": texts, "generated_at": texts,
    "config": st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(texts, inner, max_size=3), max_leaves=8),
    "summary": st.fixed_dictionaries({k: st.integers(0, 10**4) for k in (
        "total", "pass", "fail", "refuted_hypothesis", "non_converged")}),
    **{key: st.lists(_record(kind), max_size=7) for key, kind in SECTIONS}})


@settings(max_examples=150, deadline=None)
@given(reports)
def test_renderers_match_the_oracle_byte_for_byte(data):
    assert render_json(data) == report_oracle.render_json(data)
    # Chunks of two records, so a list of up to seven spans up to four of them.
    with mock.patch.object(report_module, "_CHUNK", 2):
        assert render_markdown(data) == report_oracle.render_markdown(data)
        for key, kind in SECTIONS:
            assert render_csv(data[key], kind) == report_oracle.render_csv(data[key], kind)


# Values that a naming column's text table could confuse: zeros that are
# equal but print differently, equal keys of other types (1, 1.0, True),
# NaN, which is unequal to itself, the infinities and None.
traps = st.sampled_from([0.0, -0.0, 1, 1.0, True, math.nan, math.inf, -math.inf, None,
                         2.5, 1.0 / 3.0])
TRAP_APPLICATIONS = [{"kind": "application", "theorem": "A3_1", "variant": "derived",
                      "a": a, "b": 2.5, "alpha": alpha, "exponent": None, "lhs": 0.5,
                      "rhs": 1.0, "pass": True, "status": "pass", "note": ""}
                     for a, alpha in ((1.0, 2.5), (2.5, 1.0), (-0.0, 0.0), (0.0, -0.0),
                                      (True, 1), (1, True), (math.nan, math.inf),
                                      (-math.inf, None), (1.0, -0.0))]


@settings(max_examples=150, deadline=None)
@example(sections={"application_checks": TRAP_APPLICATIONS, "identity_checks": [],
                   "bound_checks": [], "searches": []})
@given(st.fixed_dictionaries({key: st.lists(_record(kind, naming=traps), max_size=9)
                              for key, kind in SECTIONS}))
def test_naming_columns_match_the_oracle_across_chunks(sections):
    data = {"tool": "hhverify", "version": "0", "generated_at": "X",
            "summary": dict.fromkeys(("total", "pass", "fail", "refuted_hypothesis",
                                      "non_converged"), 0), **sections}
    # Chunks of two records, so a value's text comes from the table filled
    # by an earlier chunk.
    with mock.patch.object(report_module, "_CHUNK", 2):
        assert render_markdown(data) == report_oracle.render_markdown(data)
        for key, kind in SECTIONS:
            assert render_csv(data[key], kind) == report_oracle.render_csv(data[key], kind)


def test_csv_past_one_full_chunk_matches_the_oracle(golden_report):
    # Every float column is all finite floats in the first chunk; in the
    # second, exponent mixes in None and lhs a NaN, and the others stay floats.
    template = golden_report["application_checks"][0]
    records = [{**template, "a": 1.0 / (i + 3), "b": 2.0 + i, "exponent": 0.5 * i,
                "lhs": i / 7.0} for i in range(report_module._CHUNK + 5)]
    records[report_module._CHUNK + 1]["exponent"] = None
    records[report_module._CHUNK + 3]["lhs"] = math.nan
    assert (render_csv(records, "application")
            == report_oracle.render_csv(records, "application"))


@settings(max_examples=100, deadline=None)
@given(st.recursive(scalars | st.integers(), lambda inner: st.lists(inner, max_size=4)
                    | st.tuples(inner, inner)
                    | st.dictionaries(texts | st.integers(), inner, max_size=4)))
def test_json_writer_matches_the_oracle_on_nested_values(value):
    assert render_json(value) == report_oracle.render_json(value)


def test_each_record_is_flattened_once(golden_report, monkeypatch):
    # Records are flattened a chunk at a time: each one lies in exactly one chunk.
    chunks = []
    flatten = report_module._csv_columns

    def counting(chunk, *args):
        chunks.append(chunk)
        return flatten(chunk, *args)

    monkeypatch.setattr(report_module, "_csv_columns", counting)
    monkeypatch.setattr(report_module, "_CHUNK", 3)
    records = [r for key, _ in SECTIONS for r in golden_report[key]]
    render_markdown(golden_report)
    flattened = [r for chunk in chunks for r in chunk]
    assert len(flattened) == len(records) and len(chunks) > len(SECTIONS)
    assert all(a is b for a, b in zip(flattened, records))
    chunks.clear()
    for key, kind in SECTIONS:
        render_csv(golden_report[key], kind)
    assert [r for chunk in chunks for r in chunk] == records
    # A record of the wrong kind beyond the first chunk is named as in the first.
    bound = golden_report["bound_checks"]
    with pytest.raises(ValueError, match="expected a 'bound' record, got kind 'identity'"):
        render_csv(bound[:4] + golden_report["identity_checks"][:1], "bound")


def test_record_of_another_kind_is_rejected(golden_report):
    bound = golden_report["bound_checks"][0]
    with pytest.raises(ValueError, match="expected a 'identity' record, got kind 'bound'"):
        render_csv([bound], "identity")
    with pytest.raises(ValueError, match="expected a 'identity' record, got kind 'bound'"):
        render_markdown({**golden_report, "identity_checks": [bound]})
