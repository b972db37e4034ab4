"""Command-line front end.

Subcommands map to the checker families: verify-identity, verify-bound,
verify-application, tightness, scan (everything), and report (re-render a
saved JSON report).  Exit codes: 0 all checks pass, 1 usage/configuration
error, 2 at least one inequality failure or refuted hypothesis, 3
numerical non-convergence.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__
from .errors import ConfigError, DomainError, ParameterError
from .report import FORMATS, check_pairs, emit, parse_json
from .runner import ALL_TASKS, RunConfig, run


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
    if n < 1:
        raise ConfigError(f"alpha-grid: n must be at least 1, got {n}")
    if n == 1:
        return (start,)
    step = (stop - start) / (n - 1)
    return tuple(start + i * step for i in range(n))


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except OSError as err:
        raise ConfigError(f"config: cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config: invalid JSON in {path}: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config: top level must be an object, got {type(data).__name__}")
    return data


def _build_config(tasks: tuple[str, ...], config_path: str | None, fmt: str | None,
                  out: str | None, tol: float | None, theorems: str | None,
                  alpha_grid: str | None, intervals: tuple[str, ...]) -> RunConfig:
    data = _load_config(config_path)
    data["tasks"] = list(tasks)
    if fmt is not None:
        data["format"] = fmt
    if out is not None:
        data["out"] = out
    if tol is not None:
        data["quad_tol"] = tol
    if theorems is not None:
        data["theorems"] = [t.strip() for t in theorems.split(",") if t.strip()]
    if alpha_grid is not None:
        data["alpha_grid"] = list(_parse_alpha_grid(alpha_grid))
    if intervals:
        data["intervals"] = [list(_parse_interval(t)) for t in intervals]
    return RunConfig.from_dict(data)


def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="JSON configuration file (keys documented in the README).")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(FORMATS), default=None,
                      help="Output format (default json).")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="Output path; JSON/markdown print to stdout when omitted.")(fn)
    fn = click.option("--tol", type=float, default=None,
                      help="Absolute quadrature tolerance (default 1e-10).")(fn)
    fn = click.option("--theorems", default=None,
                      help="Comma-separated theorem tags, e.g. ME1,ME4.")(fn)
    fn = click.option("--alpha-grid", default=None,
                      help="Family parameter grid as start:stop:n.")(fn)
    fn = click.option("--interval", "intervals", multiple=True,
                      help="Interval a:b; repeat for a grid (replaces the default grid).")(fn)
    return fn


def _execute_with(tasks, kwargs, **config_overrides) -> int:
    config = _build_config(tasks, kwargs["config_path"], kwargs["fmt"], kwargs["out"],
                           kwargs["tol"], kwargs["theorems"], kwargs["alpha_grid"],
                           kwargs["intervals"])
    for key, value in config_overrides.items():
        if value is not None:
            data = config.to_dict()
            data[key] = list(value) if isinstance(value, (list, tuple)) else value
            config = RunConfig.from_dict(data)
    report = run(config)
    data = report.to_dict()
    rendered = emit(data, config.format, config.out)
    if rendered is not None:
        click.echo(rendered, nl=False)
    summary = data["summary"]
    click.echo(
        f"checks: {summary['total']}  pass: {summary['pass']}  "
        f"fail: {summary['fail']}  refuted: {summary['refuted_hypothesis']}  "
        f"non-converged: {summary['non_converged']}", err=True)
    return report.exit_code(summary)


@click.group(name="hhverify")
@click.version_option(version=__version__)
def cli():
    """Numerically verify integral identities, inequality bounds, and their
    special-means applications over a corpus of smooth functions."""


@cli.command("verify-identity")
@_common_options
@click.option("--identities", default=None, help="Comma-separated identity ids (L1,L2).")
def verify_identity(identities, **kwargs):
    """Check the two exact integral identities over the corpus."""
    selected = None
    if identities is not None:
        selected = [i.strip() for i in identities.split(",") if i.strip()]
    return _execute_with(("identities",), kwargs, identities=selected)


@cli.command("verify-bound")
@_common_options
def verify_bound(**kwargs):
    """Evaluate the inequality bounds with quasi-convexity certificates."""
    return _execute_with(("bounds",), kwargs)


@cli.command("verify-application")
@_common_options
def verify_application(**kwargs):
    """Evaluate the special-means inequalities (paper and derived variants)."""
    return _execute_with(("applications",), kwargs)


@cli.command("tightness")
@_common_options
def tightness(**kwargs):
    """Run exponent and family-parameter tightness searches."""
    return _execute_with(("searches",), kwargs)


@cli.command("scan")
@_common_options
def scan(**kwargs):
    """Run every configured check: identities, bounds, applications, searches."""
    return _execute_with(ALL_TASKS, kwargs)


@cli.command("report")
@click.argument("input_path", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="markdown",
              help="Target format (default markdown).")
@click.option("--out", type=click.Path(), default=None,
              help="Output path; prints to stdout when omitted (except csv).")
def report_command(input_path, fmt, out):
    """Re-render a saved JSON report in another format."""
    try:
        text = Path(input_path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"report: cannot read {input_path}: {err}") from None
    try:
        data = parse_json(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"report: invalid JSON in {input_path}: {err}") from None
    try:
        check_pairs(data)
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
        click.echo(f"error: {err.format_message()}", err=True)
        return 1
    except (ConfigError, DomainError, ParameterError, ValueError, OSError) as err:
        click.echo(f"error: {err}", err=True)
        return 1


def entry() -> None:
    sys.exit(main())
