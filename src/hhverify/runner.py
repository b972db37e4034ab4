"""Batch runner: executes configured checks and returns their report.

Each check returns its record, a JSON-shaped dict with a fixed field
order.  ``sections`` computes each record list one record at a time, in
report order: identities by (id, function, interval); bounds by
(THEOREM_ORDER, function, interval, exponent, no exponent first);
applications by (theorem, variant, a, b, alpha, exponent), from
means.application_rows; searches by (search, theorem).  ``run`` lists
the records and returns the report dict that render_json writes and
``hhverify report`` loads, so two runs with the same configuration yield
byte-identical output (the generated_at timestamp aside); the CLI writes
a CSV report, which holds no summary, from ``sections`` as its records
are computed.  Shared work (the average integral per function/interval
pair and each distinct quasi-convexity certificate) is computed once and
reused.  RunConfig.validate checks each value with the library code that
reads it and raises that code's error as a ConfigError naming the field;
only the config layer, RunConfig and the CLI, raises ConfigError.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from itertools import chain
from typing import Iterator, Optional

from . import __version__
from .bounds import (DEFAULT_MARGIN_TOL, EXP_HOLDER_P, EXP_POWER_Q, EXPONENT_RULES,
                     THEOREM_ORDER, THEOREMS, check_bound, certify_hypothesis, theorem_spec)
from .corpus import (DEFAULT_ALPHA_GRID, DEFAULT_SIN_DOMAIN, SmoothFunction,
                     admissible_intervals, builtin_corpus, corpus_by_name)
from .errors import (ConfigError, DomainError, ParameterError, check_tolerance, exponent_key,
                     summary)
from .identities import DEFAULT_RESIDUAL_TOL, IDENTITY_IDS, check_identity
# application_check: uncalled, kept for perfbench's tracer.
from .means import (APPLICATION_SOURCE, APPLICATION_TAGS, APPLICATION_VARIANTS,
                    application_check, application_rows)
from .numerics import DEFAULT_QUAD_BUDGET, DEFAULT_QUAD_TOL, Interval, check_budget, integrate
from .quasiconvex import DEFAULT_QC_TOL
from .search import EXPONENT_SEARCH_TAGS, RANGE_RULES, best_exponent, worst_case_alpha

ALL_TASKS = ("identities", "bounds", "applications", "searches")

DEFAULT_INTERVALS = (
    (0.25, 0.75), (0.3, 1.2), (0.5, 1.0), (0.25, 1.25), (0.4, 0.9),
    (0.0, 1.0), (1.0, 2.0), (0.5, 2.5), (1.0, 3.0),
    (-1.0, 1.0), (-2.0, 0.5), (2.0, 4.0),
)

MAX_QC_GRID = 1001


def _is_number(value) -> bool:
    # A JSON number, which a report writes back: an int or a float, never a
    # bool, and no integer beyond double range, which the checks cannot subtract.
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and not (isinstance(value, int) and abs(value) > sys.float_info.max))


def _is_seq(value, is_item, length=None) -> bool:
    return (isinstance(value, (list, tuple))
            and (length is None or len(value) == length)
            and all(is_item(v) for v in value))


# What each RunConfig field annotation admits, checked before any range
# check so that a wrongly typed value is named rather than crashing one.
_TYPE_CHECKS = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
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


def _nested(value, kind):
    """value with every list or tuple in it made a ``kind`` (JSON lists, RunConfig tuples)."""
    if not isinstance(value, (list, tuple)):
        return value
    return kind(_nested(v, kind) for v in value)


# The names each name-list field admits, and what one of them is called.
_NAMES = {
    "tasks": (ALL_TASKS, "task"), "theorems": (THEOREMS, "tag"),
    "identities": (IDENTITY_IDS, "id"), "applications": (APPLICATION_TAGS, "tag"),
    "variants": (APPLICATION_VARIANTS, "variant"),
    "search_p_theorems": (EXPONENT_SEARCH_TAGS, "exponent-search tag"),
    "search_alpha_theorems": (THEOREMS, "tag"),
}


@dataclass
class RunConfig:
    """What a batch run computes from (not where its report goes); defaults
    reproduce the full sweep."""

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
    quad_tol: float = DEFAULT_QUAD_TOL
    quad_budget: int = DEFAULT_QUAD_BUDGET
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    margin_tol: float = DEFAULT_MARGIN_TOL
    qc_grid: int = 101  # reaches no certificate; accepted so that config files naming it run
    qc_tol: float = DEFAULT_QC_TOL
    sin_domain: tuple[float, float] = (DEFAULT_SIN_DOMAIN.a, DEFAULT_SIN_DOMAIN.b)
    search_p_theorems: tuple[str, ...] = EXPONENT_SEARCH_TAGS
    search_p_function: str = "x^4"
    search_p_interval: tuple[float, float] = (0.0, 1.0)
    search_p_range: tuple[float, float] = (1.01, 50.0)
    search_alpha_theorems: tuple[str, ...] = ("ME1", "ME4")
    search_alpha_interval: tuple[float, float] = (1.0, 2.0)
    search_alpha_range: tuple[float, float] = (0.01, 1.0)

    @staticmethod
    def _checked(name: str, check, *args, **kwargs):
        """check(*args, **kwargs), the library code that owns the rule of the
        field ``name``; its DomainError or ParameterError becomes a ConfigError
        that says the name once."""
        try:
            return check(*args, **kwargs)
        except (DomainError, ParameterError) as err:
            raise ConfigError(f"{name}: {str(err).removeprefix(name + ' ')}") from None

    def validate(self) -> dict[str, SmoothFunction]:
        """Raise ConfigError naming the first offending field.  Past its type,
        a value is checked by the library code that reads it.  Returns the
        built-in functions by name, against which the names were checked."""
        for f in fields(self):
            value = getattr(self, f.name)
            optional = f.type.startswith("Optional[")
            is_valid, expected = _TYPE_CHECKS[f.type[9:-1] if optional else f.type]
            if not (is_valid(value) or (optional and value is None)):
                raise ConfigError(f"{f.name}: must be {expected}, got {value!r}")
        # A value listed twice in a list field would yield its records twice.
        # alpha_grid's owner, builtin_corpus, refuses its repeats by the names they print.
        for name in (f.name for f in fields(self) if "..." in f.type and f.name != "alpha_grid"):
            seen = set()
            for item in getattr(self, name) or ():
                if (key := _nested(item, tuple)) in seen:
                    raise ConfigError(f"{name}: {_nested(item, list)!r} is listed twice")
                seen.add(key)
        for name in ("tasks", "intervals", "theorems", "identities",
                     "applications", "variants", "p_grid", "q_grid", "alpha_grid"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"{name}: must not be empty")
        if self.corpus is not None and len(self.corpus) == 0:
            raise ConfigError("corpus: must not be empty when given")
        for name, (known, what) in _NAMES.items():
            for item in getattr(self, name):
                if item not in known:
                    raise ConfigError(f"{name}: unknown {what} {item!r}")
        for name, kind in (("p_grid", EXP_HOLDER_P), ("q_grid", EXP_POWER_Q)):
            admits, rule = EXPONENT_RULES[kind]
            for value in getattr(self, name):
                if not admits(value):
                    raise ConfigError(f"{name}: requires {rule}, got {value}")
        # integrate needs a positive quad_tol; the owners of the other three accept 0.
        for name in ("quad_tol", "residual_tol", "margin_tol", "qc_tol"):
            self._checked(name, check_tolerance, name, getattr(self, name),
                          positive=name == "quad_tol")
        self._checked("quad_budget", check_budget, "quad_budget", self.quad_budget)
        if self.qc_grid < 3:
            raise ConfigError(f"qc_grid: must be at least 3, got {self.qc_grid}")
        if self.qc_grid > MAX_QC_GRID:
            raise ConfigError(f"qc_grid: must be at most {MAX_QC_GRID}, got {self.qc_grid}")
        pairs = [("intervals", iv) for iv in self.intervals] + [
            (name, getattr(self, name))
            for name in ("sin_domain", "search_p_interval", "search_alpha_interval")]
        for name, (a, b) in pairs:
            self._checked(name, Interval, a, b)
        for name, rule in (("search_p_range", "p_range"), ("search_alpha_range", "alpha_range"),
                           ("search_alpha_interval", "interval")):
            admits, text = RANGE_RULES[rule]
            lo, hi = getattr(self, name)
            if not admits(lo, hi):
                raise ConfigError(f"{name}: requires {text}, got ({lo}, {hi})")
        by_name = corpus_by_name(self._checked("alpha_grid", builtin_corpus, self.alpha_grid,
                                               Interval(*self.sin_domain)))
        for name in self.corpus or ():
            if name not in by_name:
                raise ConfigError(
                    f"corpus: unknown function {name!r}; available: {', '.join(by_name)}")
        if "searches" in self.tasks and self.search_p_function not in by_name:
            raise ConfigError(
                f"search_p_function: unknown function {self.search_p_function!r}")
        return by_name

    def to_dict(self) -> dict:
        return {f.name: _nested(getattr(self, f.name), list) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"{sorted(unknown)[0]}: unknown configuration key")
        config = cls(**{name: _nested(value, tuple) for name, value in data.items()})
        config.validate()
        return config


def _exponents_for(tag: str, config: RunConfig) -> list[Optional[float]]:
    """The configured exponent grid of the tag's kind, or [None]."""
    grids = {EXP_HOLDER_P: config.p_grid, EXP_POWER_Q: config.q_grid}
    return list(grids.get(theorem_spec(tag).exponent_kind, (None,)))


def sections(config: RunConfig) -> dict[str, Iterator[dict]]:
    """Validate config, then return, by report key, an iterator over each
    record list of its report that computes each record as it is read.

    Each list comes in report order (see the module docstring) without a
    sort of its records: the loops run over the sorted names, tags, ids,
    intervals and exponents, each listed once.  Read in key order, the
    lists compute each (function, interval) integral and each (derivative
    order, function, interval) certificate once, and drop it after its
    last reader: the integrals serve the identity and bound records, the
    certificates the bound records of their order.
    """
    by_name = config.validate()
    names = sorted(config.corpus or by_name)
    grid = sorted((Interval(a, b) for a, b in config.intervals), key=lambda iv: (iv.a, iv.b))
    integrals: dict[str, list] = {}

    def interval_integrals(name: str) -> list[tuple]:
        """The function's admissible intervals, ascending, each with its
        integral over it; computed on first use."""
        if name not in integrals:
            f = by_name[name]
            integrals[name] = [(iv, integrate(f.func, iv, config.quad_tol, config.quad_budget))
                               for iv in admissible_intervals(f, grid)]
        return integrals[name]

    # Each check runs over every interval of a function before the next:
    # interleaving the checks interval by interval made the identities and
    # bounds of the benchmark's sweep_coarse 15-20% slower.
    def identity_checks():
        idents = sorted(config.identities)
        for ident in idents:
            for name in names:
                for iv, integral in interval_integrals(name):
                    yield check_identity(ident, by_name[name], iv, config.quad_tol,
                                         config.quad_budget, integral, config.residual_tol)
                if ident == idents[-1] and "bounds" not in config.tasks:
                    del integrals[name]  # read for the last time

    def bound_checks():
        # |f^(n)|'s certificate decides every tag of derivative order n; the
        # last tag of each order reads its certificates for the last time.
        certificates = {}
        tags = sorted(config.theorems, key=THEOREM_ORDER.index)
        last_of_order = {THEOREMS[tag].derivative_order: tag for tag in tags}
        for tag in tags:
            order = THEOREMS[tag].derivative_order
            exponents = sorted(_exponents_for(tag, config), key=exponent_key)
            for name in names:
                f, pairs = by_name[name], interval_integrals(name)
                if (order, name) not in certificates:
                    certificates[order, name] = [certify_hypothesis(order, f, iv, config.qc_tol)
                                                 for iv, _ in pairs]
                for (iv, integral), certificate in zip(pairs, certificates[order, name]):
                    for exponent in exponents:
                        yield check_bound(tag, f, iv, exponent, config.quad_tol,
                                          config.quad_budget, config.margin_tol,
                                          config.qc_tol, integral, certificate)
                if last_of_order[order] == tag:
                    del certificates[order, name]
                if tag == tags[-1]:
                    del integrals[name]

    def application_checks():
        instances = [(tag, variant, exponent)
                     for tag in config.applications for variant in config.variants
                     for exponent in _exponents_for(APPLICATION_SOURCE[tag], config)]
        positive = [(iv.a, iv.b) for iv in grid if iv.a > 0.0]
        yield from application_rows(instances, positive, config.alpha_grid, config.margin_tol)

    def searches():
        p_interval = Interval(*config.search_p_interval)
        p_function = by_name[config.search_p_function]
        for tag in sorted(config.search_p_theorems):
            yield best_exponent(tag, p_function, p_interval, config.search_p_range)
        alpha_interval = Interval(*config.search_alpha_interval)
        for tag in sorted(config.search_alpha_theorems):
            yield worst_case_alpha(tag, alpha_interval, config.search_alpha_range,
                                   _exponents_for(tag, config)[0], config.quad_tol,
                                   config.quad_budget, config.margin_tol)

    lists = (identity_checks, bound_checks, application_checks, searches)
    return {key: records() if task in config.tasks else iter(())
            for key, task, records in zip(
                ("identity_checks", "bound_checks", "application_checks", "searches"),
                ALL_TASKS, lists)}


def run(config: RunConfig) -> dict:
    """Execute every configured check and return the report dict: tool,
    version, generated_at, config, summary, then the four record lists."""
    records = {key: list(checks) for key, checks in sections(config).items()}
    return {"tool": "hhverify", "version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "config": config.to_dict(),
            "summary": summary(chain.from_iterable(records.values())), **records}
