"""CLI runs: malformed pairs in saved reports, one status count per run,
an exit code 3 with a mathematical cause, checks that fail by raising
(quadrature, overflow, an integrand beyond the doubles) recorded as
non-converged, an infinite tightness ratio recorded as such, integers
beyond double range rejected by name (a quadrature budget excepted),
settings the command line alone makes rejected in a config file, alpha
grids whose members would share a name rejected, report bytes that do not
depend on where the report goes, CSV bytes that repeat across runs, and
a CSV report written as its records are computed: it holds few of them
at once, and one that fails midway changes no file."""

import json
import random
import re
import tracemalloc
import warnings
from pathlib import Path

import pytest

import report_oracle
from hhverify.cli import main
from hhverify.errors import DomainError
from hhverify.report import SECTIONS, check_destination
from hhverify import runner
from hhverify.runner import RunConfig, run
from hhverify.search import RATIO_INFINITE_NOTE

GOLDEN = Path(__file__).parent / "golden" / "golden.json"


@pytest.mark.parametrize("fmt", ["json", "markdown", "csv"])
@pytest.mark.parametrize("section, field", [("identity_checks", "interval"),
                                            ("bound_checks", "interval"),
                                            ("searches", "interval"),
                                            ("searches", "range")])
@pytest.mark.parametrize("pair", [[1.0], [1.0, 2.0, 3.0]])
def test_a_bad_pair_in_a_saved_report_names_the_field_and_the_file(
        tmp_path, capsys, fmt, section, field, pair):
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    data[section][0][field] = pair
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = ["report", str(path), "--format", fmt, "--out", str(tmp_path / f"r.{fmt}")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("error: report: ")
    assert str(path) in err and f"{field}: expected a pair" in err


def test_statuses_are_counted_once_per_run(tmp_path, capsys, monkeypatch):
    calls = []
    summary = runner.summary

    def counted(records):
        calls.append(1)
        return summary(records)

    monkeypatch.setattr(runner, "summary", counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus": ["x^4", "sin"], "intervals": [[0.5, 3.0]],
                                  "sin_domain": [0.0, 6.3], "qc_grid": 11}),
                      encoding="utf-8")
    out = tmp_path / "r.json"
    assert main(["verify-bound", "--config", str(config), "--out", str(out)]) == 2
    assert len(calls) == 1
    saved = json.loads(out.read_text(encoding="utf-8"))["summary"]
    err = capsys.readouterr().err
    assert err == (f"checks: {saved['total']}  pass: {saved['pass']}  "
                   f"fail: {saved['fail']}  refuted: {saved['refuted_hypothesis']}  "
                   f"non-converged: {saved['non_converged']}\n")
    assert saved["refuted_hypothesis"] > 0


@pytest.mark.parametrize("command", ["verify-identity", "verify-bound"])
def test_an_exhausted_budget_on_a_wide_interval_exits_three(tmp_path, capsys, command):
    # exp over [-6, 6] keeps an error estimate of 7.07e-7 after 45
    # evaluations: non-convergence that does not hinge on rounding noise.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus": ["exp"], "intervals": [[-6.0, 6.0]],
                                  "quad_budget": 45}), encoding="utf-8")
    out = tmp_path / "r.json"
    assert main([command, "--config", str(config), "--out", str(out)]) == 3
    records = json.loads(out.read_text(encoding="utf-8"))
    statuses = {r["status"] for r in records["identity_checks"] + records["bound_checks"]}
    assert statuses == {"non_converged"}


@pytest.mark.parametrize("command, config, section, note", [
    # worst_case_alpha: the average integral misses a tolerance below rounding
    ("tightness", {"quad_tol": 1e-300, "quad_budget": 15}, "searches",
     "quadrature budget exhausted"),
    # ME2 at p = 1e308: 2p+1 overflows, and the Beta root with it
    ("verify-bound", {"corpus": ["x^4"], "theorems": ["ME2"], "p_grid": [1e308]},
     "bound_checks", "overflow:"),
    # best_exponent on x^4: the endpoint derivative 4x^3 overflows
    ("tightness", {"search_p_interval": [0, 1e300]}, "searches", "overflow:"),
    # the identities' scale w^n overflows (the budget only keeps the run short:
    # sin's integral over [0, 1e300] does not converge either)
    ("verify-identity", {"corpus": ["sin"], "sin_domain": [0, 1e300],
                         "intervals": [[0, 1e300]], "quad_budget": 1000},
     "identity_checks", "overflow:"),
    # worst_case_alpha: the power family's integrand reaches inf near x = 4.3e297
    ("tightness", {"search_alpha_interval": [1, 1e300], "quad_budget": 1000}, "searches",
     "integrand returned a non-finite value at x="),
])
def test_a_failing_check_is_a_non_converged_record_not_a_traceback(
        tmp_path, capsys, command, config, section, note):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "r.json"
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    records = json.loads(out.read_text(encoding="utf-8"))[section]
    failed = [r for r in records if r["status"] == "non_converged"]
    assert failed and all(note in r["note"] for r in failed)
    assert all(r["status"] == "pass" for r in records if r not in failed)


def test_an_identity_whose_scale_overflows_keeps_its_left_side(tmp_path):
    # w**2 overflows for w = 1e300, the defect of sin does not.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"corpus": ["sin"], "sin_domain": [0, 1e300],
                                "intervals": [[0, 1e300]], "identities": ["L1"],
                                "quad_budget": 1000}), encoding="utf-8")
    out = tmp_path / "r.json"
    assert main(["verify-identity", "--config", str(path), "--out", str(out)]) == 3
    (record,) = json.loads(out.read_text(encoding="utf-8"))["identity_checks"]
    assert record["note"].startswith("overflow:")
    assert record["lhs"] is not None and record["rhs"] is None


def test_an_infinite_tightness_ratio_is_not_an_overflow(tmp_path, capsys):
    # On [100, 100.001] the right side of ME1 falls below the degeneracy
    # cut-off while the left side's rounding noise stays above the margin.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"search_p_theorems": [],
                                "search_alpha_theorems": ["ME1"],
                                "search_alpha_interval": [100, 100.001]}), encoding="utf-8")
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["tightness", "--config", str(path), "--out", str(out)]) == 0
    assert caught == [] and "Traceback" not in capsys.readouterr().err
    (record,) = json.loads(out.read_text(encoding="utf-8"))["searches"]
    assert record["note"] == RATIO_INFINITE_NOTE
    assert record["objective"] is None  # JSON has no infinity
    assert record["converged"] and len(record["parameters"]) == 1


@pytest.mark.parametrize("name, value", [
    ("intervals", [[0, 10 ** 400]]), ("sin_domain", [0, 10 ** 400]),
    ("search_p_interval", [-10 ** 400, 1]), ("search_alpha_interval", [1, 10 ** 400]),
    ("p_grid", [10 ** 400]), ("quad_tol", 10 ** 400)],
    ids=lambda v: v if isinstance(v, str) else "huge")
def test_an_integer_beyond_double_range_is_rejected_by_name(tmp_path, capsys, name, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({name: value}), encoding="utf-8")
    assert main(["scan", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: must be ") and len(err.splitlines()) == 1


def test_a_budget_beyond_double_range_runs(tmp_path, capsys):
    # JSON reads 10**400 as an int, which is no double but is a finite budget.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"quad_budget": 10 ** 400, "corpus": ["x^4"]}), encoding="utf-8")
    assert main(["verify-bound", "--config", str(path), "--theorems", "ME1",
                 "--interval", "0:1", "--out", str(tmp_path / "r.json")]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("tasks", ["bounds"]), ("format", "csv"),
                                        ("out", "r.json")])
def test_a_command_line_setting_in_the_config_file_is_rejected_by_name(
        tmp_path, capsys, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"corpus": ["x^4"], key: value}), encoding="utf-8")
    assert main(["scan", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {key}: set on the command line, not in the config file\n"
    assert not (tmp_path / "r.json").exists()


def test_a_report_has_the_same_bytes_wherever_it_goes(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus": ["x^4"], "intervals": [[1.0, 2.0]],
                                  "theorems": ["ME1"], "applications": ["A3_1"],
                                  "alpha_grid": [1.0], "qc_grid": 11}), encoding="utf-8")
    (tmp_path / "b").mkdir()
    texts = []
    for out in (None, tmp_path / "a.json", tmp_path / "b" / "c.json"):
        argv = ["scan", "--config", str(config)] + ([] if out is None else ["--out", str(out)])
        assert main(argv) == 2  # the printed A3_1 coefficient is refuted
        text = capsys.readouterr().out if out is None else out.read_text(encoding="utf-8")
        texts.append(re.sub(r'\n  "generated_at": "[^"]*",', "", text, count=1))
    assert texts[0] == texts[1] == texts[2]
    assert '"generated_at"' not in texts[0]
    config_keys = json.loads(texts[0])["config"]
    assert "format" not in config_keys and "out" not in config_keys


def test_an_infinite_exponent_range_is_rejected_by_name(tmp_path, capsys):
    # An infinite end left the log-spaced seed grid of best_exponent NaN.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"search_p_range": [1001, float("inf")]}), encoding="utf-8")
    assert main(["tightness", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == \
        "error: search_p_range: requires finite 1 < lo < hi, got (1001, inf)\n"


@pytest.mark.parametrize("argv, line", [
    # Three alphas within 1e-7 of each other all print as 0.1.
    (["--alpha-grid", "0.1:0.1000001:3"],
     "alpha_grid: 0.1 and 0.10000005000000001 both name power_family(0.1)"),
    (["--alpha-grid", "1:1:2"], "alpha_grid: 1.0 and 1.0 both name power_family(1)"),
])
def test_alphas_that_name_one_family_member_are_rejected(tmp_path, capsys, argv, line):
    # Their bound records would share (theorem, function, interval) with
    # different sides, and a lookup by name would keep only the last member.
    out = tmp_path / "r.json"
    assert main(["scan", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


def test_a_repeated_alpha_in_a_config_file_is_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"alpha_grid": [0.5, 0.25, 0.5]}), encoding="utf-8")
    assert main(["verify-application", "--config", str(path)]) == 1
    assert capsys.readouterr().err == \
        "error: alpha_grid: 0.5 and 0.5 both name power_family(0.5)\n"


def test_a_seeded_sweep_writes_the_same_csv_bytes_twice(tmp_path):
    rng = random.Random(7)
    intervals = []
    for _ in range(40):
        a = round(rng.uniform(0.25, 5.5), 4)
        intervals.append([a, round(a + rng.uniform(0.05, min(4.0, 6.0 - a)), 4)])
    config = {"intervals": intervals, "theorems": ["ME1"], "quad_tol": 1e-12,
              "alpha_grid": [0.1, 0.25, 0.5, 0.75, 1.0]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        out = tmp_path / name / "r.csv"
        assert main(["scan", "--config", str(path), "--format", "csv", "--out", str(out)]) == 2
        runs.append({kind: (tmp_path / name / f"r_{kind}.csv").read_bytes()
                     for _, _, kind in SECTIONS})
    assert runs[0] == runs[1]
    report = run(RunConfig.from_dict(config))
    assert len(report["application_checks"]) == 40 * 5 * 12
    for key, _, kind in SECTIONS:
        assert runs[0][kind] == report_oracle.render_csv(report[key], kind).encode("utf-8")


def _csv_scan_peak(tmp_path, name, intervals):
    """The traced peak of a CSV scan of the means over the intervals, and
    the number of records it writes."""
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({"corpus": ["x^4"], "theorems": ["ME1"], "intervals": intervals,
                                  "alpha_grid": [0.2, 0.4, 0.6, 0.8, 1.0],
                                  "search_p_theorems": [], "search_alpha_theorems": []}),
                      encoding="utf-8")
    out = tmp_path / name / "r.csv"
    out.parent.mkdir()
    argv = ["scan", "--config", str(config), "--format", "csv", "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 2  # the printed coefficients are refuted
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) - 1
                for path in check_destination("csv", out))
    return peak, lines


def test_a_csv_scan_holds_few_records_at_once(tmp_path):
    # A CSV report holds no summary, so each record is written as it is
    # computed; a report held whole costs some 530 B per record.  One CSV
    # chunk of records and cells, held at once, costs some 300 kB whatever
    # the run's size: about 40 B per record over the 7,497 added here.
    rng = random.Random(11)
    intervals = []
    for _ in range(120):
        a = round(rng.uniform(0.25, 5.5), 4)
        intervals.append([a, round(a + rng.uniform(0.05, 2.0), 4)])
    _csv_scan_peak(tmp_path, "warm", intervals[:1])  # the first run's imports and buffers
    baseline, few = _csv_scan_peak(tmp_path, "one", intervals[:1])
    peak, records = _csv_scan_peak(tmp_path, "many", intervals)
    assert records - few == 119 * (60 + 3)  # 60 application records per interval
    assert (peak - baseline) / (records - few) < 100


def test_a_csv_scan_that_fails_midway_changes_no_file(tmp_path, capsys, monkeypatch):
    # The searches are the last record list: every other one has been
    # written to its temporary file when the first search raises.
    def fails(*args, **kwargs):
        raise DomainError("the search failed")

    monkeypatch.setattr(runner, "worst_case_alpha", fails)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus": ["x^4"], "intervals": [[1.0, 2.0]],
                                  "alpha_grid": [1.0]}), encoding="utf-8")
    out = tmp_path / "r.csv"
    for path in check_destination("csv", out):
        path.write_text(f"old {path.name}\n", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert main(["scan", "--config", str(config), "--format", "csv", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: the search failed\n"
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
