"""Benchmark workloads: seeded configs and the CLI invocation for each.

Every workload is one ``hhverify`` command.  Workloads with intervals get
them from ``random.Random(config_index(seed))``, so one seed always gives a
byte-identical config file; the CLI only ever sees that file.

Why each workload exists:

- ``scan_default``: the command users run, default config.  Its time is
  dominated by 560 quasi-convexity certificates on 101-point grids, so it
  moves with the certifier; quadrature and the means barely register.
  It is the only JSON workload, so it also carries the determinism check.
  Its config does not depend on the seed.
- ``sweep_coarse``: ~300 seeded intervals, theorem ME1 only, 11-point
  certificates and a tight quadrature tolerance.  Quadrature, the
  identities, the means, the CSV renderer and the runner's orchestration
  of ~26k records do the work; the certifier runs thousands of tiny
  certificates, so per-call overhead shows rather than asymptotic cost.
- ``refute_wide``: sin and x^5 over ~24 wide seeded intervals, bounds
  only.  A third or more of the 336 certificates are refuted, so the
  witness path runs; it is the only workload that uses the markdown
  renderer.

Every workload runs single-threaded (HHV_THREADS unset, the CLI default).
With two worker threads on a two-CPU machine, the wall time depends on
whether another process holds one of the CPUs: on a shared 2-vCPU host
refute_wide's wall time spread by 0.39 of its median over ten runs while
its CPU time spread by 0.05.

A seed picks one of ``CONFIG_POOL`` configs (``seed % CONFIG_POOL``), and
``reference.json`` holds the verdict digest of every one of them, so each
seed's verdicts are checked against a committed reference.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Scratch area inside the checkout; listed in the repository's .gitignore.
BUILD_DIR = Path(".bench_build") / "perfbench"

CONFIG_POOL = 50           # distinct seeded configs per workload
SWEEP_INTERVALS = 300      # intervals of a sweep_coarse config
REFUTE_INTERVALS = 24      # intervals of a refute_wide config


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]          # CLI arguments after the program name
    config: dict | None = None     # written to config_path() for --config
    fmt: str = "json"


def workdir(name: str) -> Path:
    return BUILD_DIR / name


def config_path(name: str) -> Path:
    return workdir(name) / "config.json"


def out_path(name: str) -> Path:
    """Fixed --out path per workload: the JSON report serializes it."""
    suffix = {"scan_default": "report.json", "sweep_coarse": "report.csv"}
    return workdir(name) / suffix.get(name, "report.md")


def _round(x: float) -> float:
    return round(x, 4)


def config_index(seed: int) -> int:
    """The pool entry that ``seed`` selects."""
    return seed % CONFIG_POOL


def sweep_coarse_config(index: int) -> dict:
    rng = random.Random(index)
    intervals = []
    for _ in range(SWEEP_INTERVALS):
        a = _round(rng.uniform(0.25, 5.5))
        width = _round(rng.uniform(0.05, min(4.0, 6.0 - a)))
        intervals.append([a, _round(a + width)])
    return {
        "intervals": intervals,
        "theorems": ["ME1"],
        "qc_grid": 11,
        "quad_tol": 1e-12,
        "alpha_grid": [0.1, 0.25, 0.5, 0.75, 1.0],
    }


def refute_wide_config(index: int) -> dict:
    rng = random.Random(index)
    lo, hi = 0.0, 6.3
    intervals = []
    for _ in range(REFUTE_INTERVALS):
        width = _round(rng.uniform(0.5, 6.0))
        a = _round(rng.uniform(lo, hi - width))
        intervals.append([a, _round(a + width)])
    return {
        "corpus": ["sin", "x^5"],
        "sin_domain": [lo, hi],
        "intervals": intervals,
    }


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``; raises KeyError for unknown names."""
    out = str(out_path(name))
    cfg = str(config_path(name))
    index = config_index(seed)
    if name == "scan_default":
        return Workload(
            name, ("scan", "--out", out))
    if name == "sweep_coarse":
        return Workload(
            name, ("scan", "--config", cfg, "--format", "csv", "--out", out),
            config=sweep_coarse_config(index), fmt="csv")
    if name == "refute_wide":
        return Workload(
            name, ("verify-bound", "--config", cfg, "--format", "markdown"),
            config=refute_wide_config(index), fmt="markdown")
    raise KeyError(name)


WORKLOADS = ("scan_default", "sweep_coarse", "refute_wide")


def config_text(config: dict) -> str:
    return json.dumps(config, indent=1, sort_keys=True) + "\n"


def prepare(workload: Workload) -> None:
    """Create the work directory and write the workload's config file."""
    workdir(workload.name).mkdir(parents=True, exist_ok=True)
    if workload.config is not None:
        config_path(workload.name).write_text(config_text(workload.config), encoding="utf-8")
