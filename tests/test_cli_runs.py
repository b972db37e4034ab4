"""CLI runs: malformed pairs in saved reports, one status count per run,
and an exit code 3 with a mathematical cause."""

import json
from pathlib import Path

import pytest

from hhverify.cli import main
from hhverify.runner import RunReport

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
    summary = RunReport.summary

    def counted(self):
        calls.append(1)
        return summary(self)

    monkeypatch.setattr(RunReport, "summary", counted)
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
