"""Command-line front end.

Subcommands map to the checker families: verify-identity, verify-bound,
verify-application, tightness, scan (everything), and report (re-render a
saved JSON report).  A task subcommand emits the report that run returns
(a CSV report, which holds no summary, is written from runner.sections as
its records are computed) and exits with errors.exit_code of its summary:
0 all checks pass, 2 at least one inequality failure or refuted
hypothesis, 3 numerical non-convergence; 1 is a usage/configuration error.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import __version__
from .errors import ConfigError, exit_code, summary
from .numerics import DEFAULT_QUAD_TOL
from .report import FORMATS, SECTIONS, check_destination, emit
from .runner import ALL_TASKS, RunConfig, run, sections

# Most points --alpha-grid expands to; each alpha adds a corpus member.
MAX_ALPHA_POINTS = 1000


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"interval: expected a:b, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"interval: expected numbers in a:b, got {text!r}") from None
    return a, b


def _parse_alpha_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"alpha-grid: expected start:stop:n, got {text!r}")
    try:
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"alpha-grid: expected start:stop:n, got {text!r}") from None
    if n > MAX_ALPHA_POINTS:
        raise ConfigError(f"alpha-grid: n must be at most {MAX_ALPHA_POINTS}, got {n}")
    if n == 1:
        return (start,)
    step = (stop - start) / (n - 1)
    return tuple(start + i * step for i in range(n))


def _read_json(path: str, what: str):
    """The JSON value in the file at path; errors name ``what``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise ConfigError(f"{what}: cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{what}: invalid JSON in {path}: {err}") from None


def _check_records(report: dict) -> None:
    """Raise KeyError naming the keys of a run's report that report lacks,
    TypeError naming a record list that is no list, a record under another
    kind's section, or a record's ``interval`` or ``range`` that is no pair."""
    if missing := [key for key in ("tool", "version", "generated_at", "config", "summary",
                                   *(key for key, _, _ in SECTIONS)) if key not in report]:
        raise KeyError(", ".join(missing))
    for key, _, kind in SECTIONS:
        if not isinstance(report[key], list):
            raise TypeError(f"{key}: expected a list of records, got {report[key]!r}")
        for record in report[key]:
            if record["kind"] != kind:
                raise TypeError(f"{key}: expected a {kind!r} record, got kind {record['kind']!r}")
            for name in ("interval", "range"):
                value = record.get(name)
                if value is not None and not (isinstance(value, list) and len(value) == 2):
                    raise TypeError(f"{name}: expected a pair [a, b], got {value!r}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = _read_json(path, "config")
    if not isinstance(data, dict):
        raise ConfigError(f"config: top level must be an object, got {type(data).__name__}")
    return data


def _build_config(tasks: tuple[str, ...], options: dict) -> RunConfig:
    """The config file, then the command-line options."""
    data = _load_config(options["config_path"])
    for key in ("tasks", "format", "out"):  # the subcommand, --format and --out set these
        if key in data:
            raise ConfigError(f"{key}: set on the command line, not in the config file")
    data["tasks"] = list(tasks)
    if options["tol"] is not None:
        data["quad_tol"] = options["tol"]
    for key in ("theorems", "identities"):  # --identities is verify-identity's own
        if options.get(key) is not None:
            data[key] = [t.strip() for t in options[key].split(",") if t.strip()]
    if options["alpha_grid"] is not None:
        data["alpha_grid"] = list(_parse_alpha_grid(options["alpha_grid"]))
    if options["intervals"]:
        data["intervals"] = [list(_parse_interval(t)) for t in options["intervals"]]
    return RunConfig.from_dict(data)


def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="JSON configuration file (keys documented in the README).")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(FORMATS), default="json",
                      help="Output format (default json).")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="Output path; JSON/markdown print to stdout when omitted.")(fn)
    fn = click.option("--tol", type=float, default=None,
                      help=f"Absolute quadrature tolerance (default {DEFAULT_QUAD_TOL:g}).")(fn)
    fn = click.option("--theorems", default=None,
                      help="Comma-separated theorem tags, e.g. ME1,ME4.")(fn)
    fn = click.option("--alpha-grid", default=None,
                      help="Family parameter grid as start:stop:n.")(fn)
    fn = click.option("--interval", "intervals", multiple=True,
                      help="Interval a:b; repeat for a grid (replaces the default grid).")(fn)
    return fn


def _execute_with(tasks, **options) -> int:
    fmt, out = options["fmt"], options["out"]
    check_destination(fmt, out)
    config = _build_config(tasks, options)
    if fmt == "csv":
        # A CSV report holds no summary: each record is written as it is
        # computed, and its status counted as it passes.
        counts = summary(())

        def counted(records):
            for record in records:
                counts["total"] += 1
                counts[record["status"]] += 1
                yield record

        emit({key: counted(records) for key, records in sections(config).items()}, fmt, out)
    else:
        report = run(config)
        rendered = emit(report, fmt, out)
        if rendered is not None:
            click.echo(rendered, nl=False)
        counts = report["summary"]
    click.echo(
        f"checks: {counts['total']}  pass: {counts['pass']}  "
        f"fail: {counts['fail']}  refuted: {counts['refuted_hypothesis']}  "
        f"non-converged: {counts['non_converged']}", err=True)
    return exit_code(counts)


@click.group(name="hhverify")
@click.version_option(version=__version__)
def cli():
    """Numerically verify integral identities, inequality bounds, and their
    special-means applications over a corpus of smooth functions."""


# Each task subcommand: the tasks it runs and its help.
_TASK_COMMANDS = {
    "verify-identity": (("identities",),
                        "Check the two exact integral identities over the corpus."),
    "verify-bound": (("bounds",),
                     "Evaluate the inequality bounds with quasi-convexity certificates."),
    "verify-application": (("applications",), "Evaluate the special-means inequalities "
                                              "(paper and derived variants)."),
    "tightness": (("searches",), "Run exponent and family-parameter tightness searches."),
    "scan": (ALL_TASKS,
             "Run every configured check: identities, bounds, applications, searches."),
}
for _name, (_tasks, _help) in _TASK_COMMANDS.items():
    cli.command(_name, help=_help)(_common_options(functools.partial(_execute_with, _tasks)))
click.option("--identities", default=None, help="Comma-separated identity ids (L1,L2).")(
    cli.commands["verify-identity"])


@cli.command("report")
@click.argument("input_path", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="markdown",
              help="Target format (default markdown).")
@click.option("--out", type=click.Path(), default=None,
              help="Output path; prints to stdout when omitted (except csv).")
def report_command(input_path, fmt, out):
    """Re-render a saved JSON report in another format."""
    data = _read_json(input_path, "report")
    try:
        _check_records(data)
        rendered = emit(data, fmt, out)
    except (KeyError, TypeError, AttributeError) as err:
        raise ConfigError(f"report: {input_path} is not an hhverify report "
                          f"({type(err).__name__}: {err})") from None
    if rendered is not None:
        click.echo(rendered, nl=False)
    return 0


def main(argv=None) -> int:
    """Run the CLI; returns the process exit code instead of raising."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
        return int(result) if isinstance(result, int) else 0
    except click.exceptions.Abort:
        return 1
    except click.UsageError as err:
        # Only the first line: without a command, click's message is the whole help.
        message = err.format_message().partition("\n")[0]
        click.echo(f"error: {message}", err=True)
        return 1
    except (ValueError, OSError) as err:  # ConfigError, DomainError, ParameterError too
        click.echo(f"error: {err}", err=True)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
