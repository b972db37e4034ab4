"""Output checks for one ``hhverify`` run.

A run fails on any of:

- an exit code other than the workload's expected one;
- ``Traceback`` on stderr;
- a summary (the stderr line, and the one inside a JSON or markdown
  report) that differs from the tallies of the records;
- a verdict digest that differs from the committed reference of the
  workload's config in ``reference.json``, or no such reference.  The
  digest covers (record identity, status) only: no computed float enters
  it, so a drift in e.g. ``max_violation`` does not count as a failure;
- for JSON, report bytes that differ from the first run of the same
  invocation once the ``generated_at`` line is dropped.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

STATUSES = ("pass", "fail", "refuted_hypothesis", "non_converged")

# Report key, record kind, markdown section title.
SECTIONS = (
    ("identity_checks", "identity", "Identity checks"),
    ("bound_checks", "bound", "Bound checks"),
    ("application_checks", "application", "Application checks"),
    ("searches", "search", "Searches"),
)

# The input fields that name a record; columns as in the CSV/markdown output.
IDENTITY_COLUMNS = {
    "identity": ("id", "function", "interval_a", "interval_b"),
    "bound": ("theorem", "function", "interval_a", "interval_b", "exponent"),
    "application": ("theorem", "variant", "a", "b", "alpha", "exponent"),
    "search": ("search", "theorem", "function", "interval_a", "interval_b",
               "range_lo", "range_hi", "exponent"),
}

SUMMARY_LINE = re.compile(
    r"checks: (\d+)\s+pass: (\d+)\s+fail: (\d+)\s+refuted: (\d+)\s+non-converged: (\d+)")
GENERATED_AT = re.compile(rb'^\s*"generated_at": .*$', re.MULTILINE)

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
# Every workload finds failing checks, so hhverify exits with 2.
EXPECTED_EXIT = 2


class ReportError(ValueError):
    """The output could not be parsed as a report of the expected format."""


@dataclass(frozen=True)
class Record:
    kind: str
    identity: tuple[str, ...]
    status: str


def _norm(value) -> str:
    """Format-independent text of an identity field."""
    if value is None or value == "":
        return "-"
    try:
        return repr(float(value))
    except ValueError:
        return str(value)


def _record(kind: str, flat: dict) -> Record:
    status = flat.get("status")
    if status not in STATUSES:
        raise ReportError(f"{kind} record with unknown status {status!r}")
    return Record(kind, tuple(_norm(flat.get(c)) for c in IDENTITY_COLUMNS[kind]), status)


def _flatten(record: dict) -> dict:
    flat = dict(record)
    if flat.get("interval") is not None:
        flat["interval_a"], flat["interval_b"] = flat["interval"]
    if flat.get("range") is not None:
        flat["range_lo"], flat["range_hi"] = flat["range"]
    return flat


def records_from_json(report: dict) -> list[Record]:
    return [_record(kind, _flatten(r)) for key, kind, _ in SECTIONS
            for r in report.get(key, [])]


def csv_paths(base: Path) -> dict[str, Path]:
    """The per-kind files the CSV writer derives from an --out path."""
    return {kind: base.with_name(f"{base.stem}_{kind}.csv") for _, kind, _ in SECTIONS}


def records_from_csv(base: Path) -> list[Record]:
    records = []
    for kind, path in csv_paths(base).items():
        try:
            with path.open(encoding="utf-8", newline="") as fh:
                records += [_record(kind, row) for row in csv.DictReader(fh)]
        except OSError as err:
            raise ReportError(f"missing CSV output {path.name}: {err}") from None
    return records


def _md_rows(lines: list[str], start: int) -> tuple[list[str], list[list[str]]]:
    """Header and rows of the markdown table that begins at or after start."""
    i = start
    while i < len(lines) and not lines[i].startswith("| "):
        i += 1
    if i + 1 >= len(lines):
        raise ReportError("markdown table missing")
    header = lines[i][2:-2].split(" | ")
    rows = []
    for line in lines[i + 2:]:
        if not line.startswith("| "):
            break
        rows.append(line[2:-2].split(" | "))
    return header, rows


def parse_markdown(text: str) -> tuple[dict, list[Record]]:
    """Embedded summary and records of a markdown report."""
    lines = text.splitlines()
    try:
        start = lines.index("## Summary")
    except ValueError:
        raise ReportError("markdown summary missing") from None
    _, rows = _md_rows(lines, start)
    if len(rows) != 1 or len(rows[0]) != 5:
        raise ReportError("markdown summary table malformed")
    summary = dict(zip(("total",) + STATUSES, (int(v) for v in rows[0])))
    records = []
    for _, kind, title in SECTIONS:
        heading = f"## {title}"
        if heading not in lines:
            continue
        header, rows = _md_rows(lines, lines.index(heading))
        # Identity columns and status precede the free-text note column,
        # so a note containing the separator cannot shift them.
        for row in rows:
            flat = {col: row[i] for i, col in enumerate(header) if i < len(row)}
            records.append(_record(kind, flat))
    return summary, records


def tally(records: list[Record]) -> dict:
    counts = {"total": len(records), **{s: 0 for s in STATUSES}}
    for r in records:
        counts[r.status] += 1
    return counts


def verdict_digest(records: list[Record]) -> str:
    lines = sorted("|".join((r.kind,) + r.identity + (r.status,)) for r in records)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def stderr_summary(stderr: str) -> dict | None:
    found = SUMMARY_LINE.findall(stderr)
    if len(found) != 1:
        return None
    return dict(zip(("total",) + STATUSES, (int(v) for v in found[0])))


def load_references() -> dict:
    try:
        return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def reference_digest(references: dict, workload: str, index: int) -> str | None:
    """Committed digest for a workload's config index; "*" marks a seed-free config."""
    entry = references.get(workload, {})
    return entry.get("*", entry.get(str(index)))


@dataclass
class Outcome:
    problems: list[str]
    summary: dict | None = None
    digest: str | None = None


class OutputChecker:
    """Checks the runs of one workload within one benchmark invocation.

    ``reference`` is the committed verdict digest; a run checked against
    ``None`` fails, so a config without a reference can never pass.
    """

    def __init__(self, fmt: str, out: Path, reference: str | None):
        self.fmt = fmt
        self.out = out
        self.reference = reference
        self.first_json: bytes | None = None

    def clear_outputs(self) -> None:
        """Delete earlier outputs so a run that writes nothing cannot pass."""
        paths = csv_paths(self.out).values() if self.fmt == "csv" else (self.out,)
        for path in paths:
            path.unlink(missing_ok=True)

    def _parse(self, stdout: str, problems: list[str]) -> tuple[dict | None, list[Record]]:
        if self.fmt == "json":
            raw = self.out.read_bytes()
            normalized = GENERATED_AT.sub(b"", raw, count=1)
            if self.first_json is None:
                self.first_json = normalized
            elif normalized != self.first_json:
                problems.append("JSON report bytes differ from the first run")
            report = json.loads(raw)
            return report.get("summary"), records_from_json(report)
        if self.fmt == "csv":
            return None, records_from_csv(self.out)
        return parse_markdown(stdout)

    def check_output(self, exit_code: int, stdout: str, stderr: str) -> Outcome:
        """Every check except the comparison with the reference digest."""
        problems = []
        if exit_code != EXPECTED_EXIT:
            problems.append(f"exit code {exit_code}, expected {EXPECTED_EXIT}")
        if "Traceback" in stderr:
            problems.append("Traceback on stderr")
        try:
            embedded, records = self._parse(stdout, problems)
        except (OSError, ValueError, KeyError, IndexError) as err:
            problems.append(f"unreadable report: {err}")
            return Outcome(problems)
        counts = tally(records)
        if stderr_summary(stderr) != counts:
            problems.append(f"stderr summary {stderr_summary(stderr)} != tallies {counts}")
        if embedded is not None and embedded != counts:
            problems.append(f"report summary {embedded} != tallies {counts}")
        return Outcome(problems, counts, verdict_digest(records))

    def check(self, exit_code: int, stdout: str, stderr: str) -> Outcome:
        outcome = self.check_output(exit_code, stdout, stderr)
        if self.reference is None:
            outcome.problems.append("no committed reference digest for this config")
        elif outcome.digest is not None and outcome.digest != self.reference:
            outcome.problems.append(
                f"verdict digest {outcome.digest[:12]} != reference {self.reference[:12]}")
        return outcome
