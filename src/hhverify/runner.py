"""Batch runner: executes configured checks and assembles a report.

Records are produced as JSON-shaped dicts with a fixed field order, then
sorted by a deterministic key, so two runs with the same configuration
yield byte-identical output (the generated_at timestamp aside).  Shared
work (the average integral per function/interval pair and each distinct
quasi-convexity certificate) is computed once and reused.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from typing import Optional

from . import __version__
# integrate, check_identity, certify_hypothesis: uncalled, kept for perfbench's tracer.
from .bounds import (EXP_HOLDER_P, EXP_POWER_Q, THEOREM_ORDER, THEOREMS,
                     check_bound, certify_hypotheses, certify_hypothesis,
                     hypothesis_exponent, theorem_spec)
from .corpus import (DEFAULT_ALPHA_GRID, DEFAULT_SIN_DOMAIN, SmoothFunction,
                     admissible_intervals, builtin_corpus, corpus_by_name)
from .errors import ConfigError, QuadratureError
from .identities import (IDENTITY_IDS, IdentityReport, check_identities,
                         check_identity)
from .means import (APPLICATION_SOURCE, APPLICATION_TAGS, APPLICATION_VARIANTS,
                    ApplicationVerdict, application_check)
from .numerics import Interval, integrate, integrate_rows
from .quasiconvex import QuasiConvexityCertificate
from .report import FORMATS
from .search import (EXPONENT_SEARCH_TAGS, SearchResult, best_exponent,
                     worst_case_alpha)

ALL_TASKS = ("identities", "bounds", "applications", "searches")

DEFAULT_INTERVALS = (
    (0.25, 0.75), (0.3, 1.2), (0.5, 1.0), (0.25, 1.25), (0.4, 0.9),
    (0.0, 1.0), (1.0, 2.0), (0.5, 2.5), (1.0, 3.0),
    (-1.0, 1.0), (-2.0, 0.5), (2.0, 4.0),
)

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_REFUTED = "refuted_hypothesis"
STATUS_NON_CONVERGED = "non_converged"
STATUSES = (STATUS_PASS, STATUS_FAIL, STATUS_REFUTED, STATUS_NON_CONVERGED)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_seq(value, is_item, length=None) -> bool:
    return (isinstance(value, (list, tuple))
            and (length is None or len(value) == length)
            and all(is_item(v) for v in value))


# What each RunConfig field annotation admits, checked before any range
# check so that a wrongly typed value is named rather than crashing one.
_TYPE_CHECKS = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
            "an integer"),
    "float": (_is_number, "a number"),
    "tuple[str, ...]": (lambda v: _is_seq(v, lambda x: isinstance(x, str)),
                        "a list of strings"),
    "tuple[float, ...]": (lambda v: _is_seq(v, _is_number), "a list of numbers"),
    "tuple[float, float]": (lambda v: _is_seq(v, _is_number, 2),
                            "a pair of numbers [a, b]"),
    "tuple[tuple[float, float], ...]": (
        lambda v: _is_seq(v, lambda x: _is_seq(x, _is_number, 2)),
        "a list of number pairs [a, b]"),
}


@dataclass
class RunConfig:
    """Everything a batch run depends on; defaults reproduce the full sweep."""

    tasks: tuple[str, ...] = ALL_TASKS
    corpus: Optional[tuple[str, ...]] = None  # None selects every built-in
    intervals: tuple[tuple[float, float], ...] = DEFAULT_INTERVALS
    theorems: tuple[str, ...] = THEOREM_ORDER
    identities: tuple[str, ...] = IDENTITY_IDS
    applications: tuple[str, ...] = APPLICATION_TAGS
    variants: tuple[str, ...] = APPLICATION_VARIANTS
    p_grid: tuple[float, ...] = (2.0,)
    q_grid: tuple[float, ...] = (2.0,)
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    quad_tol: float = 1e-10
    quad_budget: int = 1_000_000
    residual_tol: float = 1e-8
    margin_tol: float = 1e-9
    qc_grid: int = 101
    qc_tol: float = 1e-12
    sin_domain: tuple[float, float] = (DEFAULT_SIN_DOMAIN.a, DEFAULT_SIN_DOMAIN.b)
    search_p_theorems: tuple[str, ...] = EXPONENT_SEARCH_TAGS
    search_p_function: str = "x^4"
    search_p_interval: tuple[float, float] = (0.0, 1.0)
    search_p_range: tuple[float, float] = (1.01, 50.0)
    search_alpha_theorems: tuple[str, ...] = ("ME1", "ME4")
    search_alpha_interval: tuple[float, float] = (1.0, 2.0)
    search_alpha_range: tuple[float, float] = (0.01, 1.0)
    format: str = "json"
    out: Optional[str] = None

    def validate(self) -> None:
        """Raise ConfigError naming the first offending field."""
        for f in fields(self):
            value = getattr(self, f.name)
            optional = f.type.startswith("Optional[")
            is_valid, expected = _TYPE_CHECKS[f.type[9:-1] if optional else f.type]
            if not (is_valid(value) or (optional and value is None)):
                raise ConfigError(f"{f.name}: must be {expected}, got {value!r}")
        for name in ("tasks", "intervals", "theorems", "identities",
                     "applications", "variants", "p_grid", "q_grid", "alpha_grid"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"{name}: must not be empty")
        for task in self.tasks:
            if task not in ALL_TASKS:
                raise ConfigError(f"tasks: unknown task {task!r}")
        if self.corpus is not None and len(self.corpus) == 0:
            raise ConfigError("corpus: must not be empty when given")
        for tag in self.theorems:
            if tag not in THEOREMS:
                raise ConfigError(f"theorems: unknown tag {tag!r}")
        for ident in self.identities:
            if ident not in IDENTITY_IDS:
                raise ConfigError(f"identities: unknown id {ident!r}")
        for tag in self.applications:
            if tag not in APPLICATION_TAGS:
                raise ConfigError(f"applications: unknown tag {tag!r}")
        for variant in self.variants:
            if variant not in APPLICATION_VARIANTS:
                raise ConfigError(f"variants: unknown variant {variant!r}")
        for a, b in self.intervals:
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ConfigError(f"intervals: invalid interval [{a}, {b}]")
        for p in self.p_grid:
            if not p > 1.0:
                raise ConfigError(f"p_grid: requires p > 1, got {p}")
        for q in self.q_grid:
            if not q >= 1.0:
                raise ConfigError(f"q_grid: requires q >= 1, got {q}")
        for alpha in self.alpha_grid:
            if not 0.0 < alpha <= 1.0:
                raise ConfigError(f"alpha_grid: requires 0 < alpha <= 1, got {alpha}")
        for name in ("quad_tol", "residual_tol", "margin_tol", "qc_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name}: must be positive and finite")
        if self.quad_budget < 15:
            raise ConfigError(f"quad_budget: below one quadrature panel, got {self.quad_budget}")
        if self.qc_grid < 3:
            raise ConfigError(f"qc_grid: must be at least 3, got {self.qc_grid}")
        for tag in self.search_p_theorems:
            if tag not in EXPONENT_SEARCH_TAGS:
                raise ConfigError(f"search_p_theorems: {tag!r} takes no Holder exponent")
        for tag in self.search_alpha_theorems:
            if tag not in THEOREMS:
                raise ConfigError(f"search_alpha_theorems: unknown tag {tag!r}")
        lo, hi = self.search_p_range
        if not (1.0 < lo < hi):
            raise ConfigError(f"search_p_range: requires 1 < lo < hi, got ({lo}, {hi})")
        lo, hi = self.search_alpha_range
        if not (0.0 < lo < hi <= 1.0):
            raise ConfigError(f"search_alpha_range: requires 0 < lo < hi <= 1, got ({lo}, {hi})")
        for name in ("sin_domain", "search_p_interval", "search_alpha_interval"):
            a, b = getattr(self, name)
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ConfigError(f"{name}: invalid interval [{a}, {b}]")
        if self.format not in FORMATS:
            raise ConfigError(f"format: must be one of {', '.join(FORMATS)}, got {self.format!r}")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"{sorted(unknown)[0]}: unknown configuration key")
        kwargs = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            if isinstance(value, list):
                value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
            kwargs[f.name] = value
        config = cls(**kwargs)
        config.validate()
        return config


@dataclass
class RunReport:
    config: RunConfig
    identity_checks: list[dict] = field(default_factory=list)
    bound_checks: list[dict] = field(default_factory=list)
    application_checks: list[dict] = field(default_factory=list)
    searches: list[dict] = field(default_factory=list)
    generated_at: str = ""

    @property
    def records(self) -> list[dict]:
        return (self.identity_checks + self.bound_checks
                + self.application_checks + self.searches)

    def summary(self) -> dict:
        counts = Counter(record["status"] for record in self.records)
        return {"total": sum(counts.values()), **{s: counts[s] for s in STATUSES}}

    def exit_code(self, summary: Optional[dict] = None) -> int:
        """0 all pass; 2 any fail or refuted hypothesis; 3 any non-convergence.
        ``summary``, if given, is this report's, counted once by the caller."""
        s = summary or self.summary()
        if s["fail"] or s["refuted_hypothesis"]:
            return 2
        if s["non_converged"]:
            return 3
        return 0

    def to_dict(self) -> dict:
        return {
            "tool": "hhverify",
            "version": __version__,
            "generated_at": self.generated_at,
            "config": self.config.to_dict(),
            "summary": self.summary(),
            "identity_checks": self.identity_checks,
            "bound_checks": self.bound_checks,
            "application_checks": self.application_checks,
            "searches": self.searches,
        }


def _certificate_dict(cert: QuasiConvexityCertificate) -> dict:
    counterexample = None
    if cert.counterexample is not None:
        w = cert.counterexample
        counterexample = {
            "x": w.x, "y": w.y, "lam": w.lam,
            "mixed_value": w.mixed_value,
            "value_x": w.value_x, "value_y": w.value_y,
            "violation": w.violation,
        }
    return {
        "verdict": cert.verdict,
        "grid_size": cert.grid_size,
        "tol": cert.tol,
        "max_violation": cert.max_violation,
        "counterexample": counterexample,
    }


def _identity_record(report: IdentityReport, residual_tol: float) -> dict:
    if not report.converged:
        status = STATUS_NON_CONVERGED
    elif report.residual <= residual_tol:
        status = STATUS_PASS
    else:
        status = STATUS_FAIL
    return {
        "kind": "identity",
        "id": report.identity_id,
        "function": report.function,
        "interval": [report.interval.a, report.interval.b],
        "lhs": report.lhs,
        "rhs": report.rhs,
        "residual": report.residual,
        "quadrature_error": report.quadrature_error,
        "converged": report.converged,
        "status": status,
        "note": report.note,
    }


def _bound_record(tag: str, f: SmoothFunction, interval: Interval,
                  exponent: Optional[float], config: RunConfig,
                  integral, hypothesis) -> dict:
    base = {
        "kind": "bound",
        "theorem": tag,
        "function": f.name,
        "interval": [interval.a, interval.b],
        "exponent": exponent,
    }
    try:
        report = check_bound(
            tag, f, interval, exponent,
            quad_tol=config.quad_tol, quad_budget=config.quad_budget,
            margin_tol=config.margin_tol, qc_grid=config.qc_grid,
            qc_tol=config.qc_tol, integral=integral, hypothesis=hypothesis)
    except QuadratureError as err:
        base.update({
            "lhs": None, "rhs": None, "margin": None, "ratio": None,
            "pass": False, "hypothesis": None,
            "status": STATUS_NON_CONVERGED, "note": str(err),
        })
        return base
    note = ""
    if report.hypothesis.verdict == "non_finite":
        status = STATUS_NON_CONVERGED
        note = (f"hypothesis: non-finite sample at "
                f"x={report.hypothesis.bad_abscissa!r}")
    elif not report.hypothesis.certified:
        status = STATUS_REFUTED
    elif report.passed:
        status = STATUS_PASS
    else:
        status = STATUS_FAIL
    base.update({
        "lhs": report.lhs,
        "rhs": report.rhs,
        "margin": report.margin,
        "ratio": report.ratio,
        "pass": report.passed,
        "hypothesis": _certificate_dict(report.hypothesis),
        "status": status,
        "note": note,
    })
    return base


def _application_record(verdict: ApplicationVerdict) -> dict:
    if verdict.passed:
        status = STATUS_PASS
    elif verdict.finite:
        status = STATUS_FAIL
    else:
        status = STATUS_NON_CONVERGED
    return {
        "kind": "application",
        "theorem": verdict.theorem,
        "variant": verdict.variant,
        "a": verdict.a,
        "b": verdict.b,
        "alpha": verdict.alpha,
        "exponent": verdict.exponent,
        "lhs": verdict.lhs,
        "rhs": verdict.rhs,
        "pass": verdict.passed,
        "status": status,
        "note": verdict.note,
    }


def _search_record(search: str, tag: str, function: Optional[str],
                   interval: Interval, search_range: tuple[float, float],
                   exponent: Optional[float], result: SearchResult) -> dict:
    return {
        "kind": "search",
        "search": search,
        "theorem": tag,
        "function": function,
        "interval": [interval.a, interval.b],
        "range": [search_range[0], search_range[1]],
        "exponent": exponent,
        "objective": result.objective,
        "parameters": list(result.parameters),
        "iterations": result.iterations,
        "converged": result.converged,
        "status": STATUS_PASS if result.converged else STATUS_NON_CONVERGED,
        "note": result.note,
    }


def _exponents_for(tag: str, config: RunConfig) -> list[Optional[float]]:
    """The configured exponent grid of the tag's kind, or [None]."""
    grids = {EXP_HOLDER_P: config.p_grid, EXP_POWER_Q: config.q_grid}
    return list(grids.get(theorem_spec(tag).exponent_kind, (None,)))


def run(config: RunConfig) -> RunReport:
    """Execute every configured check and return the assembled report."""
    config.validate()
    corpus = builtin_corpus(alpha_grid=config.alpha_grid,
                            sin_domain=Interval(*config.sin_domain))
    by_name = corpus_by_name(corpus)
    if config.corpus is not None:
        for name in config.corpus:
            if name not in by_name:
                raise ConfigError(
                    f"corpus: unknown function {name!r}; available: {', '.join(by_name)}")
        corpus = [by_name[name] for name in config.corpus]
    grid = [Interval(a, b) for a, b in config.intervals]

    report = RunReport(config=config,
                       generated_at=datetime.now(timezone.utc).isoformat())

    identity_records, bound_records = [], []
    for f in (corpus if "identities" in config.tasks or "bounds" in config.tasks else []):
        # Each batch covers every interval of f; records are built as it returns.
        intervals = admissible_intervals(f, grid)
        integrals = integrate_rows(f.func, [iv.a for iv in intervals],
                                   [iv.b for iv in intervals],
                                   config.quad_tol, config.quad_budget)
        if "identities" in config.tasks:
            for ident in config.identities:
                identity_records.extend(
                    _identity_record(r, config.residual_tol)
                    for r in check_identities(ident, f, intervals, config.quad_tol,
                                              config.quad_budget, integrals))
        if "bounds" in config.tasks:
            hypotheses: dict = {}
            for tag in config.theorems:
                spec = THEOREMS[tag]
                for exponent in _exponents_for(tag, config):
                    key = (spec.derivative_order, hypothesis_exponent(tag, exponent))
                    if key not in hypotheses:
                        hypotheses[key] = certify_hypotheses(
                            tag, f, intervals, exponent, config.qc_grid, config.qc_tol)
                    bound_records.extend(
                        _bound_record(tag, f, iv, exponent, config, integral, hypothesis)
                        for iv, integral, hypothesis in zip(intervals, integrals,
                                                            hypotheses[key]))

    report.identity_checks = sorted(
        identity_records, key=lambda r: (r["id"], r["function"], r["interval"]))
    order = {tag: i for i, tag in enumerate(THEOREM_ORDER)}
    report.bound_checks = sorted(
        bound_records, key=lambda r: (order[r["theorem"]], r["function"], r["interval"],
                                      -1.0 if r["exponent"] is None else r["exponent"]))

    if "applications" in config.tasks:
        positive = [iv for iv in grid if iv.a > 0.0]
        records = []
        for tag in config.applications:
            exponents = _exponents_for(APPLICATION_SOURCE[tag], config)
            for variant in config.variants:
                for iv in positive:
                    for alpha in config.alpha_grid:
                        for exponent in exponents:
                            records.append(_application_record(application_check(
                                tag, variant, iv.a, iv.b, alpha, exponent,
                                margin_tol=config.margin_tol)))
        report.application_checks = sorted(
            records,
            key=lambda r: (r["theorem"], r["variant"], r["a"], r["b"], r["alpha"],
                           -1.0 if r["exponent"] is None else r["exponent"]))

    if "searches" in config.tasks:
        records = []
        p_interval = Interval(*config.search_p_interval)
        p_function = by_name.get(config.search_p_function)
        if p_function is None:
            raise ConfigError(
                f"search_p_function: unknown function {config.search_p_function!r}")
        for tag in config.search_p_theorems:
            result = best_exponent(tag, p_function, p_interval, config.search_p_range)
            records.append(_search_record(
                "best_exponent", tag, p_function.name, p_interval,
                config.search_p_range, None, result))
        alpha_interval = Interval(*config.search_alpha_interval)
        for tag in config.search_alpha_theorems:
            exponent = _exponents_for(tag, config)[0]
            result = worst_case_alpha(tag, alpha_interval, config.search_alpha_range,
                                      exponent, config.quad_tol, config.quad_budget)
            records.append(_search_record(
                "worst_case_alpha", tag, None, alpha_interval,
                config.search_alpha_range, exponent, result))
        report.searches = sorted(
            records, key=lambda r: (r["search"], r["theorem"], r["function"] or ""))

    return report
