"""Benchmark of the hhverify CLI: one workload, one seed, one measured run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan_default --seed 0 --seconds 25 --trace 0

``--trace 0`` measures end to end.  A closed loop with one client starts
one ``hhverify`` process at a time until ``--seconds`` have passed (at
least two runs), checks every run's output, and reports medians:

  wall_s       spawn to exit of the CLI process, the time to a verdict
  checks_per_s records in the summary divided by wall_s
  cpu_s        user + system CPU of the child (os.wait4 rusage)
  peak_rss_mb  the child's peak resident set (VmHWM, see measure.LAUNCH)
  setup_s      wall time of ``hhverify --version`` (interpreter start,
               imports, click), median of several processes per run

``--trace 1`` runs the same workload in-process through
``hhverify.cli.main(argv)``, alternating untraced and traced runs, and
reports per-layer counts and self times (see tracing.py).  The tracer's
overhead is the median over pairs of a traced run minus the untraced run
before it; its quartiles are printed too.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit, sample count and quartiles, the failed-run fraction
and the machine facts.  Full details go to
``.bench_build/perfbench/<workload>/result_trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time

import checks
import measure
import tracing
import workloads

SETUP_FIRST = 3        # --version processes before the loop; one more after each run
IMPORT_SAMPLES = 5     # import probes per traced run
MIN_RUNS = 2           # so the JSON determinism check always has a repeat

END_TO_END_UNITS = {"wall_s": "s", "checks_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _checker(wl: workloads.Workload, seed: int) -> checks.OutputChecker:
    reference = checks.reference_digest(checks.load_references(), wl.name,
                                        workloads.config_index(seed))
    return checks.OutputChecker(wl.fmt, workloads.out_path(wl.name), reference)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")
            print(f"# FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


class SetupProbe:
    """Times ``hhverify --version`` processes: the set-up cost of every run.

    One warm-up start writes the bytecode cache; the timed starts are then
    spread over the run, so a short slow spell of the machine moves only
    a few of them.
    """

    def __init__(self, wl: workloads.Workload, tally: Tally):
        self.args = measure.cli_args(["--version"])
        self.env = measure.child_env()
        self.workdir = workloads.workdir(wl.name)
        self.tally = tally
        self.samples: list[float] = []
        self.sample(warm_up=True)

    def sample(self, warm_up: bool = False) -> None:
        r = measure.spawn(self.args, self.env, self.workdir)
        problems = []
        if r.exit_code != 0 or "version" not in r.stdout:
            problems.append(f"--version exit {r.exit_code}, stdout {r.stdout.strip()!r}")
        if "Traceback" in r.stderr:
            problems.append("Traceback on stderr")
        self.tally.add("setup", problems)
        if not warm_up:
            self.samples.append(r.wall_s)


def end_to_end(wl: workloads.Workload, seed: int, seconds: float, tally: Tally) -> dict:
    setup = SetupProbe(wl, tally)
    for _ in range(SETUP_FIRST):
        setup.sample()
    checker = _checker(wl, seed)
    args = measure.cli_args(wl.argv)
    env = measure.child_env()
    samples = {name: [] for name in ("wall_s", "checks_per_s", "cpu_s", "peak_rss_mb")}
    start = time.perf_counter()
    runs = 0
    while runs < MIN_RUNS or time.perf_counter() - start < seconds:
        checker.clear_outputs()
        r = measure.spawn(args, env, workloads.workdir(wl.name))
        outcome = checker.check(r.exit_code, r.stdout, r.stderr)
        if r.peak_rss_mb is None:
            outcome.problems.append("no peak resident set recorded at exit")
        else:
            samples["peak_rss_mb"].append(r.peak_rss_mb)
        tally.add(f"run {runs}", outcome.problems)
        runs += 1
        samples["wall_s"].append(r.wall_s)
        samples["cpu_s"].append(r.cpu_s)
        if outcome.summary is not None:
            samples["checks_per_s"].append(outcome.summary["total"] / r.wall_s)
        setup.sample()
    samples["setup_s"] = setup.samples
    return samples


PER_LAYER_UNITS = {
    "quasiconvex.check_quasi_convex.calls": "count",
    "quasiconvex.check_quasi_convex.self_s": "s",
    "quasiconvex.check_quasi_convex.g_points": "count",
    "quasiconvex.check_quasi_convex.refuted": "count",
    "numerics.integrate.calls": "count",
    "numerics.integrate.self_s": "s",
    "numerics.integrate.evaluations": "count",
    "numerics.integrate.nonconverged": "count",
    "identities.check_identity.calls": "count",
    "identities.check_identity.self_s": "s",
    "means.application_check.calls": "count",
    "means.application_check.self_s": "s",
    "bounds.check_bound.calls": "count",
    "bounds.check_bound.self_s": "s",
    "bounds.certify_hypothesis.calls": "count",
    "bounds.cert_reuse_ratio": "ratio",
    "search.best_exponent.self_s": "s",
    "search.worst_case_alpha.self_s": "s",
    "report.render_json.self_s": "s",
    "report.render_csv.self_s": "s",
    "report.render_markdown.self_s": "s",
    "report.out_bytes": "B",
    "runner.run.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


def _import_seconds(wl: workloads.Workload, tally: Tally) -> list[float]:
    samples = []
    for i in range(IMPORT_SAMPLES):
        r = measure.spawn(measure.import_probe_args(), measure.child_env(),
                          workloads.workdir(wl.name))
        try:
            samples.append(float(r.stdout.strip()))
            tally.add(f"import {i}", [] if r.exit_code == 0 else [f"exit {r.exit_code}"])
        except ValueError:
            tally.add(f"import {i}", [f"exit {r.exit_code}: {r.stderr.strip()[-200:]}"])
    return samples


def _in_process(argv, fn):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        result = fn(argv)
        wall = time.perf_counter() - start
    return result, wall, out.getvalue(), err.getvalue()


def per_layer(wl: workloads.Workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    import_s = _import_seconds(wl, tally)
    sys.path.insert(0, str(measure.SRC.resolve()))
    os.environ.pop("HHV_THREADS", None)
    from hhverify import cli

    checker = _checker(wl, seed)
    argv = list(wl.argv)
    plain, traced, times = [], [], []
    counts = None
    start = time.perf_counter()
    while len(traced) < MIN_RUNS or time.perf_counter() - start < seconds:
        checker.clear_outputs()
        code, wall, out, err = _in_process(argv, cli.main)
        tally.add(f"untraced {len(plain)}", checker.check(code, out, err).problems)
        plain.append(wall)

        checker.clear_outputs()
        (code, tracer, missing), wall, out, err = _in_process(argv, tracing.traced_main)
        problems = checker.check(code, out, err).problems
        if missing:
            print(f"# not traced (absent): {', '.join(missing)}", file=sys.stderr)
        run_counts, run_times = tracing.layer_metrics(tracing.aggregate(tracer.spans))
        if counts is None:
            counts = run_counts
        elif run_counts != counts:
            diff = {k: (counts[k], v) for k, v in run_counts.items() if counts[k] != v}
            problems.append(f"counts differ from the first traced run: {diff}")
        tally.add(f"traced {len(traced)}", problems)
        traced.append(wall)
        times.append(run_times)
    tracing.write_spans(tracer, workloads.workdir(wl.name) / "spans.tsv")

    values = dict(counts)
    for name in times[0]:
        values[name] = statistics.median(t[name] for t in times)
    certify = counts["bounds.certify_hypothesis.calls"]
    values["bounds.cert_reuse_ratio"] = (
        counts["bounds.check_bound.calls"] / certify if certify else 0.0)
    values["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    # Each traced run is paired with the untraced run just before it, so a
    # slow spell of the machine shifts both sides of a difference.
    overhead = [t - p for t, p in zip(traced, plain)]
    values["trace.overhead_s"] = statistics.median(overhead)
    samples = {"untraced_main_s": plain, "traced_main_s": traced,
               "trace.overhead_s": overhead, "cli.import_s": import_s, "self_s": times}
    return values, samples


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        measure.require_checkout()
    except measure.CheckoutError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    workloads.prepare(wl)
    facts = measure.machine_facts()
    load_before = measure.loadavg()
    tally = Tally()

    if args.trace == 0:
        samples = end_to_end(wl, args.seed, args.seconds, tally)
        stats = {name: measure.quartiles(v) for name, v in samples.items() if v}
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items() if name in stats}
        for name, unit in END_TO_END_UNITS.items():
            s = stats.get(name)
            if s is not None:
                print(f"{name:<14} {s['median']:>12.6g} {unit:<4} median of {s['n']}"
                      f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}")
    else:
        values, samples = per_layer(wl, args.seed, args.seconds, tally)
        stats = {"trace.overhead_s": measure.quartiles(samples["trace.overhead_s"])}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        for name, m in metrics.items():
            print(f"{name:<42} {m['value']:>14.6g} {m['unit']}")
        o = stats["trace.overhead_s"]
        print(f"# trace.overhead_s over {o['n']} pairs: q1 {o['q1']:.6g}  q3 {o['q3']:.6g}"
              + ("  (unresolved: the quartiles straddle 0)" if o["q1"] < 0 < o["q3"] else ""))

    frac = tally.failed / tally.attempted
    print(f"failed_runs_frac {frac:.6g} ({tally.failed}/{tally.attempted} runs failed)")
    facts["loadavg_before"], facts["loadavg_after"] = load_before, measure.loadavg()
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    correct = tally.failed == 0 and len(metrics) == len(
        END_TO_END_UNITS if args.trace == 0 else PER_LAYER_UNITS)
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "correct": correct,
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems, "metrics": metrics, "stats": stats,
              "samples": samples}
    result_file = workloads.workdir(wl.name) / f"result_trace{args.trace}.json"
    result_file.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
