import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import click
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify import cli
from hhverify.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

SMALL_SCAN = {
    "corpus": ["x^4", "x^5"],
    "intervals": [[0.0, 1.0], [1.0, 2.0]],
    "theorems": ["ME1", "ME4"],
    "applications": ["A3_1"],
    "variants": ["derived"],
    "alpha_grid": [1.0],
    "search_p_theorems": ["ME2"],
    "search_alpha_theorems": ["ME1"],
}


def _write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _strip_timestamp(text):
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": "X"', text)


def test_all_passing_run_exits_zero(tmp_path):
    cfg = _write_config(tmp_path, SMALL_SCAN)
    out = tmp_path / "report.json"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["summary"]["fail"] == 0
    assert data["summary"]["total"] > 0


def test_paper_variant_failure_exits_two(tmp_path):
    code = main(["verify-application", "--interval", "1:2",
                 "--alpha-grid", "1:1:1", "--out", str(tmp_path / "r.json")])
    assert code == 2
    data = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    fails = [r for r in data["application_checks"] if r["status"] == "fail"]
    assert fails
    assert all(r["variant"] == "paper" for r in fails)
    assert any(r["note"] == "printed coefficient refuted at this instance" for r in fails)


def test_non_convergence_exits_three(tmp_path):
    cfg = _write_config(tmp_path, {
        "corpus": ["exp"],
        "intervals": [[-6.0, 6.0]],
        "theorems": ["ME1"],
        "quad_tol": 1e-16,
        "quad_budget": 45,
    })
    code = main(["verify-bound", "--config", cfg, "--out", str(tmp_path / "r.json")])
    assert code == 3
    data = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    assert data["summary"]["non_converged"] >= 1


def test_default_scan_never_imports_numpy(tmp_path):
    # A fresh interpreter, so that no test has imported numpy before.
    code = ("import sys\n"
            "from hhverify.cli import main\n"
            "code = main(['scan', '--out', sys.argv[1]])\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "sys.exit(code)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "r.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["summary"]["total"]


def test_overflowing_application_exits_three_without_traceback(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["verify-application", "--interval", "1e-300:1e300", "--out", str(out)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    records = json.loads(out.read_text(encoding="utf-8"))["application_checks"]
    assert records
    assert {r["status"] for r in records} == {"non_converged"}
    assert all(r["note"].startswith("overflow:") for r in records)


def test_empty_theorem_list_is_usage_error(tmp_path):
    assert main(["verify-bound", "--theorems", "", "--out", str(tmp_path / "r.json")]) == 1


def test_unknown_theorem_tag_is_usage_error():
    assert main(["verify-bound", "--theorems", "ME99"]) == 1


def test_bad_interval_is_usage_error():
    assert main(["verify-bound", "--interval", "1:zebra"]) == 1
    assert main(["verify-bound", "--interval", "3"]) == 1


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path, {"thorems": ["ME1"]})
    assert main(["scan", "--config", cfg]) == 1


def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["scan", "--config", str(tmp_path / "nope.json")]) == 1


def test_unknown_corpus_member_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path, {"corpus": ["x^9"]})
    assert main(["scan", "--config", cfg]) == 1


def test_bad_alpha_grid_is_usage_error():
    assert main(["verify-application", "--alpha-grid", "0.5"]) == 1


def test_repeat_runs_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, SMALL_SCAN)
    out = tmp_path / "report.json"
    main(["scan", "--config", cfg, "--out", str(out)])
    first = _strip_timestamp(out.read_text(encoding="utf-8"))
    main(["scan", "--config", cfg, "--out", str(out)])
    second = _strip_timestamp(out.read_text(encoding="utf-8"))
    assert first == second


def test_identity_subcommand_filters_ids(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify-identity", "--identities", "L1",
                 "--interval", "0:1", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["identity_checks"]
    assert all(r["id"] == "L1" for r in data["identity_checks"])
    assert not data["bound_checks"]


def test_tightness_subcommand(tmp_path):
    cfg = _write_config(tmp_path, SMALL_SCAN)
    out = tmp_path / "r.json"
    assert main(["tightness", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["searches"]
    assert not data["bound_checks"]


def test_stdout_json_when_out_omitted(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_SCAN)
    code = main(["tightness", "--config", cfg])
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["tool"] == "hhverify"
    assert code == 0


def test_report_rerenders_markdown(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_SCAN)
    out = tmp_path / "r.json"
    main(["scan", "--config", cfg, "--out", str(out)])
    capsys.readouterr()
    assert main(["report", str(out), "--format", "markdown"]) == 0
    captured = capsys.readouterr()
    assert "# hhverify run report" in captured.out


def test_csv_output_via_cli(tmp_path):
    cfg = _write_config(tmp_path, SMALL_SCAN)
    out = tmp_path / "r.csv"
    assert main(["scan", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
    assert (tmp_path / "r_bound.csv").exists()
    assert (tmp_path / "r_identity.csv").exists()


def test_csv_without_out_is_refused_before_the_run(monkeypatch, capsys):
    def never(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run", never)
    assert main(["scan", "--format", "csv"]) == 1
    assert capsys.readouterr().err == "error: csv output requires an output path\n"
    golden = str(GOLDEN_DIR / "golden.json")
    assert main(["report", golden, "--format", "csv"]) == 1
    assert capsys.readouterr().err == "error: csv output requires an output path\n"


# A file name longer than any filesystem's 255-byte limit: before 3.14,
# probing it raises OSError instead of answering.
TOO_LONG = "x" * 300


@pytest.mark.parametrize("fmt, out", [("json", "missing/r.json"), ("csv", "missing/r.csv"),
                                      ("markdown", "missing/r.md"), ("json", "."),
                                      ("markdown", "."),
                                      pytest.param("json", TOO_LONG + ".json", id="json-too-long"),
                                      pytest.param("markdown", TOO_LONG + ".md", id="md-too-long"),
                                      pytest.param("csv", "r.csv", id="csv-bound-is-a-directory"),
                                      pytest.param("csv", TOO_LONG + ".csv", id="csv-too-long")])
def test_an_unwritable_out_is_refused_before_the_run(monkeypatch, capsys, tmp_path, fmt, out):
    def never(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run", never)
    # A CSV report at r.csv writes r_bound.csv among its files: here it is a directory.
    (tmp_path / "r_bound.csv").mkdir()
    target = str(tmp_path / out)
    assert main(["scan", "--format", fmt, "--out", target]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write report to {target}: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "r_bound.csv"]


def test_an_abort_exits_one(monkeypatch):
    def abort(config):
        raise click.exceptions.Abort()

    monkeypatch.setattr(cli, "run", abort)
    assert main(["scan"]) == 1


@pytest.mark.parametrize("fmt", ["json", "markdown", "csv"])
def test_a_record_under_another_kinds_section_names_the_file(tmp_path, capsys, fmt):
    data = json.loads((GOLDEN_DIR / "golden.json").read_text(encoding="utf-8"))
    data["bound_checks"].insert(1, data["identity_checks"][0])
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "r" / f"r.{fmt}"
    out.parent.mkdir()
    assert main(["report", str(path), "--format", fmt, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: report: {path} is not an hhverify report (TypeError: bound_checks: "
                   "expected a 'bound' record, got kind 'identity')\n")
    assert list(out.parent.iterdir()) == []


def test_version_flag():
    assert main(["--version"]) == 0


def test_quadrature_tolerance_flag(tmp_path):
    cfg = _write_config(tmp_path, SMALL_SCAN)
    out = tmp_path / "r.json"
    assert main(["verify-bound", "--config", cfg, "--tol", "1e-8",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["config"]["quad_tol"] == 1e-8


@pytest.mark.parametrize("data, field", [
    ({"quad_budget": "abc"}, "quad_budget"),
    ({"qc_grid": 11.5}, "qc_grid"),
    ({"qc_grid": True}, "qc_grid"),
    ({"qc_tol": "x"}, "qc_tol"),
    ({"intervals": [[0, "1"]]}, "intervals"),
])
def test_wrongly_typed_config_is_one_line_usage_error(tmp_path, capsys, data, field):
    cfg = _write_config(tmp_path, data)
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {field}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text, command, line", [
    ("{", "scan", "error: config: invalid JSON in {path}: "),
    ("[]", "scan", "error: config: top level must be an object, got list\n"),
    ('{"corpus": []}', "scan", "error: corpus: must not be empty when given\n"),
    ("{", "report", "error: report: invalid JSON in {path}: "),
])
def test_a_malformed_config_or_report_is_one_error_line(tmp_path, capsys, text, command, line):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    argv = (["scan", "--config", str(path), "--out", str(tmp_path / "r.json")]
            if command == "scan" else ["report", str(path)])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(line.format(path=path))
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [path]


def test_report_without_summary_is_one_line_usage_error(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"tool": "hhverify", "bound_checks": []}), encoding="utf-8")
    assert main(["report", str(path), "--format", "markdown"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: report: ") and "summary" in err
    assert err.count("\n") == 1


def test_report_reproduces_the_goldens(tmp_path, capsys):
    golden = str(GOLDEN_DIR / "golden.json")
    for fmt, name in (("json", "golden.json"), ("markdown", "golden.md")):
        capsys.readouterr()
        assert main(["report", golden, "--format", fmt]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert main(["report", golden, "--format", "csv", "--out", str(tmp_path / "golden.csv")]) == 0
    for kind in ("identity", "bound", "application", "search"):
        name = f"golden_{kind}.csv"
        assert (tmp_path / name).read_text(encoding="utf-8") == \
            (GOLDEN_DIR / name).read_text(encoding="utf-8")


def test_a_rerendered_csv_reads_back_cell_for_cell(tmp_path):
    # A cell holding CR, LF, a comma or a quote is quoted, so csv reads back
    # one row per record and the note as it was.
    data = json.loads((GOLDEN_DIR / "golden.json").read_text(encoding="utf-8"))
    notes = ["first line\rsecond line", "a\nb", "a,b", 'say "hi"', "\r\n", "\"", ""]
    for i, record in enumerate(data["bound_checks"]):
        record["note"] = notes[i % len(notes)]
    saved = tmp_path / "r.json"
    saved.write_text(json.dumps(data), encoding="utf-8")
    assert main(["report", str(saved), "--format", "csv", "--out", str(tmp_path / "g.csv")]) == 0
    with (tmp_path / "g_bound.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == len(data["bound_checks"]) + 1
    assert [row[-1] for row in rows[1:]] == [r["note"] for r in data["bound_checks"]]
    golden = (GOLDEN_DIR / "golden_bound.csv").read_text(encoding="utf-8").splitlines()
    assert [row[:-1] for row in rows] == [line.split(",")[:-1] for line in golden]


MUTANTS = (None, 5, "x", [], {}, [1], [1, 2, 3], math.nan)


@st.composite
def mutated_golden(draw):
    """golden.json with one field or one record, at any depth, replaced."""
    data = json.loads((GOLDEN_DIR / "golden.json").read_text(encoding="utf-8"))
    node = data
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        node[key] = draw(st.sampled_from(MUTANTS))
        return data


@settings(max_examples=200, deadline=None)
@given(mutated_golden(), st.sampled_from(["json", "markdown", "csv"]))
def test_report_on_malformed_input_never_tracebacks(tmp_path_factory, data, fmt):
    workdir = tmp_path_factory.mktemp("malformed")
    path = workdir / "r.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = ["report", str(path), "--format", fmt]
    if fmt == "csv":
        argv += ["--out", str(workdir / "r.csv")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1


# Each command's options (name, flags, help) and its --help text at 80
# columns, as they were when the task subcommands were written out one by one.
PINNED_HELP = json.loads((Path(__file__).parent / "cli_help.json").read_text(encoding="utf-8"))


def test_the_commands_are_the_pinned_ones():
    assert sorted(cli.cli.commands) == sorted(set(PINNED_HELP) - {"hhverify"})


@pytest.mark.parametrize("name", sorted(PINNED_HELP))
def test_each_command_keeps_its_options_and_help_text(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    pinned = PINNED_HELP[name]
    command = cli.cli if name == "hhverify" else cli.cli.commands[name]
    options = [p for p in command.params if isinstance(p, click.Option)]
    assert [[p.name, "/".join(p.opts), p.help] for p in options] == pinned["options"]
    assert [p.name for p in command.params if p not in options] == pinned["arguments"]
    context = click.Context(cli.cli, info_name="hhverify")
    if name != "hhverify":
        context = click.Context(command, info_name=name, parent=context)
    assert command.get_help(context) + "\n" == pinned["help"]
