"""Tests of the benchmark's own parts: generator, output checks, tracer.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hhverify import bounds, cli, report, runner  # noqa: E402

SMALL = {"intervals": [[0.5, 1.0], [1.0, 2.5], [0.25, 3.0]], "qc_grid": 9,
         "alpha_grid": [0.5, 1.0], "corpus": ["sin", "x^5", "power_family(0.5)"],
         "sin_domain": [0.0, 6.3]}


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL), encoding="utf-8")
    return path


# --- workload generator ---------------------------------------------------

@pytest.mark.parametrize("name", ["sweep_coarse", "refute_wide"])
def test_same_seed_gives_identical_config_bytes(name):
    first = workloads.config_text(workloads.build(name, 7).config)
    again = workloads.config_text(workloads.build(name, 7).config)
    other = workloads.config_text(workloads.build(name, 8).config)
    assert first == again
    assert first != other


def test_seeds_beyond_the_pool_reuse_its_configs():
    for name in ("sweep_coarse", "refute_wide"):
        assert (workloads.build(name, 7 + workloads.CONFIG_POOL).config
                == workloads.build(name, 7).config)


def test_generated_intervals_respect_workload_ranges():
    for seed in range(20):
        sweep = workloads.sweep_coarse_config(seed)["intervals"]
        assert len(sweep) == workloads.SWEEP_INTERVALS
        for a, b in sweep:
            assert 0.25 <= a <= 5.5 and 0.05 - 1e-9 <= b - a <= 4.0 + 1e-9 and b <= 6.0
        wide = workloads.refute_wide_config(seed)
        for a, b in wide["intervals"]:
            assert 0.0 <= a < b <= wide["sin_domain"][1]
            assert 0.5 - 1e-9 <= b - a <= 6.0 + 1e-9


def test_seed_free_workload_has_no_config():
    assert workloads.build("scan_default", 1) == workloads.build("scan_default", 2)
    assert workloads.build("scan_default", 1).config is None


# --- output checks --------------------------------------------------------

def _good_run(tmp_path, small_config, fmt):
    out = tmp_path / {"json": "r.json", "csv": "r.csv", "markdown": "r.md"}[fmt]
    argv = ["verify-bound", "--config", str(small_config), "--format", fmt]
    if fmt != "markdown":
        argv += ["--out", str(out)]
    code, stdout, stderr = _main(argv)
    reference = checks.OutputChecker(fmt, out, None).check_output(code, stdout, stderr).digest
    return checks.OutputChecker(fmt, out, reference), code, stdout, stderr


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_clean_run_passes_every_check(tmp_path, small_config, fmt):
    checker, code, stdout, stderr = _good_run(tmp_path, small_config, fmt)
    first = checker.check(code, stdout, stderr)
    assert first.problems == []
    assert first.summary["refuted_hypothesis"] > 0
    assert checker.check(code, stdout, stderr).problems == []


def _flip_first_status(text: str, fmt: str) -> str:
    if fmt == "json":
        return text.replace('"status": "refuted_hypothesis"', '"status": "pass"', 1)
    if fmt == "csv":
        return text.replace(",refuted_hypothesis,", ",pass,", 1)
    return text.replace("| refuted_hypothesis |", "| pass |", 1)


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_corrupted_report_is_counted_as_failed(tmp_path, small_config, fmt):
    checker, code, stdout, stderr = _good_run(tmp_path, small_config, fmt)
    tally = run.Tally()
    tally.add("good", checker.check(code, stdout, stderr).problems)
    if fmt == "json":
        checker.out.write_text(_flip_first_status(checker.out.read_text(), fmt))
    elif fmt == "csv":
        bound_csv = checks.csv_paths(checker.out)["bound"]
        bound_csv.write_text(_flip_first_status(bound_csv.read_text(), fmt))
    else:
        stdout = _flip_first_status(stdout, fmt)
    outcome = checker.check(code, stdout, stderr)
    tally.add("corrupted", outcome.problems)
    assert any("summary" in p for p in outcome.problems)
    assert any("digest" in p for p in outcome.problems)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_changed_verdict_with_consistent_summary_fails_the_digest(tmp_path, small_config):
    checker, code, stdout, stderr = _good_run(tmp_path, small_config, "markdown")
    reference = checker.check(code, stdout, stderr).digest
    _, records = checks.parse_markdown(stdout)
    swapped = [checks.Record(r.kind, r.identity, "pass" if r.status != "pass" else
                             "refuted_hypothesis") for r in records]
    assert checks.tally(swapped)["total"] == len(records)
    assert checks.verdict_digest(swapped) != reference


def test_json_bytes_must_repeat_apart_from_generated_at(tmp_path, small_config):
    checker, code, stdout, stderr = _good_run(tmp_path, small_config, "json")
    assert checker.check(code, stdout, stderr).problems == []
    text = checker.out.read_text()
    checker.out.write_text(text.replace('"generated_at": "', '"generated_at": "x', 1))
    assert checker.check(code, stdout, stderr).problems == []
    checker.out.write_text(text.replace('"tool": "hhverify"', '"tool": "hhverify "', 1))
    assert any("differ" in p for p in checker.check(code, stdout, stderr).problems)


def test_exit_code_traceback_and_missing_output_fail(tmp_path, small_config):
    checker, code, stdout, stderr = _good_run(tmp_path, small_config, "json")
    assert checker.check(code, stdout, stderr).problems == []
    assert checker.check(0, stdout, stderr).problems
    assert checker.check(code, stdout, stderr + "Traceback (most recent call last):\n").problems
    checker.clear_outputs()
    assert any("unreadable" in p for p in checker.check(code, stdout, stderr).problems)


def test_committed_reference_covers_every_config_of_every_workload():
    refs = checks.load_references()
    assert checks.reference_digest(refs, "scan_default", 12345) is not None
    for name in ("sweep_coarse", "refute_wide"):
        for index in range(workloads.CONFIG_POOL):
            assert checks.reference_digest(refs, name, index) is not None


def test_run_without_reference_fails(tmp_path, small_config):
    checker, code, stdout, stderr = _good_run(tmp_path, small_config, "markdown")
    assert checker.check(code, stdout, stderr).problems == []
    checker.reference = None
    assert any("no committed reference" in p
               for p in checker.check(code, stdout, stderr).problems)


# --- tracer ---------------------------------------------------------------

def _traced(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, tracer, missing = tracing.traced_main(argv)
    assert missing == []
    return code, tracer


@pytest.mark.parametrize("threads", ["1", "2"])
def test_traced_counts_repeat_and_self_times_fit_in_main(tmp_path, small_config,
                                                         monkeypatch, threads):
    monkeypatch.setenv("HHV_THREADS", threads)
    argv = ["scan", "--config", str(small_config), "--out", str(tmp_path / "r.json")]
    runs = []
    for _ in range(2):
        code, tracer = _traced(argv)
        assert code == 2
        layers = tracing.aggregate(tracer.spans)
        counts, times = tracing.layer_metrics(layers)
        main_s = tracing.root_seconds(tracer)
        total_self = sum(layer.self_s for layer in layers.values())
        # Worker threads overlap, so their self times may add up to at most
        # one main duration per thread.
        assert total_self <= main_s * int(threads) + 1e-6
        assert all(t >= 0.0 for t in times.values())
        runs.append(counts)
    assert runs[0] == runs[1]
    assert runs[0]["quasiconvex.check_quasi_convex.calls"] > 0
    assert runs[0]["bounds.check_bound.calls"] > runs[0]["bounds.certify_hypothesis.calls"]
    assert runs[0]["numerics.integrate.evaluations"] >= 15 * runs[0]["numerics.integrate.calls"]
    assert runs[0]["report.out_bytes"] == len((tmp_path / "r.json").read_bytes())


def test_single_thread_self_times_sum_to_main_time(tmp_path, small_config, monkeypatch):
    monkeypatch.setenv("HHV_THREADS", "1")
    code, tracer = _traced(["scan", "--config", str(small_config), "--format", "csv",
                            "--out", str(tmp_path / "r.csv")])
    total_self = sum(tracing.self_times(tracer.spans).values())
    assert total_self == pytest.approx(tracing.root_seconds(tracer), rel=1e-9, abs=1e-9)


def test_certifier_g_points_count_every_abscissa(tmp_path, small_config):
    _, tracer = _traced(["verify-bound", "--config", str(small_config),
                         "--theorems", "T1_2", "--out", str(tmp_path / "r.json")])
    spans = [s for s in tracer.spans if s.name == "quasiconvex.check_quasi_convex"]
    n = SMALL["qc_grid"]
    for s in spans:
        # one pass over the grid, n slices of n*n mixed points, plus a witness
        assert s.counts["g_points"] in (n + n ** 3, n + n ** 3 + 1)
        assert s.counts["refuted"] == (s.counts["g_points"] == n + n ** 3 + 1)


def test_patches_are_restored():
    originals = [runner.integrate, bounds.check_quasi_convex, cli.run, cli.emit,
                 report.render_json]
    tracer = tracing.Tracer()
    with tracing.patched(tracer) as missing:
        assert missing == []
        assert runner.integrate is not originals[0]
    assert [runner.integrate, bounds.check_quasi_convex, cli.run, cli.emit,
            report.render_json] == originals


def test_self_time_subtracts_the_union_of_children():
    spans = [tracing.Span(1, 0, "root", 0.0, 10.0),
             tracing.Span(2, 1, "a", 1.0, 4.0),
             tracing.Span(3, 1, "a", 3.0, 6.0),   # overlaps span 2 (another thread)
             tracing.Span(4, 2, "b", 1.5, 2.0)]
    selfs = tracing.self_times(spans)
    assert selfs == {1: pytest.approx(5.0), 2: pytest.approx(2.5), 3: pytest.approx(3.0),
                     4: pytest.approx(0.5)}


# --- the command ----------------------------------------------------------

def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_coarse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_peak_rss_is_the_childs_own(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    ballast = bytearray(150 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    r = measure.spawn(measure.cli_args(["--version"]), measure.child_env(), tmp_path)
    assert r.exit_code == 0 and "version" in r.stdout
    assert 1.0 < r.peak_rss_mb < 100.0
    del ballast


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
