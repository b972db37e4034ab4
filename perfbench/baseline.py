"""Run every workload over several seeds and summarize across runs.

Run from the root of a checkout:

    python3 perfbench/baseline.py --runs 10 --out perfbench/BENCH_baseline.json

Each run is one ``perfbench/run.py`` process of ``run_seconds`` (from
BENCHMARK.json) with its own seed.  For every end-to-end metric the
summary holds the median, quartiles and spread ((q3 - q1) / median) of
the per-run medians next to the metric's bound from BENCHMARK.json; one
traced run per workload, at the first seed, adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import measure

SPEC = Path("BENCHMARK.json")


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec: dict, results: list[dict]) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        stats = measure.quartiles(values)
        stats["spread"] = (stats["q3"] - stats["q1"]) / stats["median"]
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], **stats,
                     "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    measure.require_checkout()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    summary = {"machine": measure.machine_facts(), "loadavg_before": measure.loadavg(),
               "run_seconds": seconds, "seeds": [seeds[0], seeds[-1]], "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        results = [bench_run(name, s, seconds, 0) for s in seeds]
        traced = bench_run(name, seeds[0], seconds, 1)
        entry = {
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": summarize(spec, results),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        summary["workloads"][name] = entry
        print(f"{name}: correct {entry['correct']}, failed {entry['failed']}"
              f"/{entry['attempted']}")
        for metric, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else (
                "WIDE" if s["spread"] < s["bound"] else "OVER BOUND")
            print(f"  {metric:<12} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}"
                  f"  q3 {s['q3']:.6g}  spread {s['spread']:.3f} / bound {s['bound']}"
                  f"  {flag}")
    summary["loadavg_after"] = measure.loadavg()
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
