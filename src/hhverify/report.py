"""Report serialization: JSON, CSV, and markdown renderings of a run.

JSON is the canonical format: UTF-8, fixed key order, and every float
written with 17 significant digits so values round-trip exactly and
repeated runs are byte-identical (the generated_at timestamp aside).
Non-finite floats have no JSON representation and serialize as null.
CSV output is one file per record kind; markdown renders summary tables.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import repeat
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

FORMATS = ("json", "csv", "markdown")
# (report key, markdown title, record kind) per record list.
SECTIONS = (("identity_checks", "Identity checks", "identity"),
            ("bound_checks", "Bound checks", "bound"),
            ("application_checks", "Application checks", "application"),
            ("searches", "Searches", "search"))

CSV_COLUMNS = {
    "identity": ("id", "function", "interval_a", "interval_b", "lhs", "rhs",
                 "residual", "quadrature_error", "converged", "status", "note"),
    "bound": ("theorem", "function", "interval_a", "interval_b", "exponent",
              "lhs", "rhs", "margin", "ratio", "pass", "hypothesis_verdict",
              "hypothesis_max_violation", "status", "note"),
    "application": ("theorem", "variant", "a", "b", "alpha", "exponent",
                    "lhs", "rhs", "pass", "status", "note"),
    "search": ("search", "theorem", "function", "interval_a", "interval_b",
               "range_lo", "range_hi", "exponent", "objective", "parameters",
               "iterations", "converged", "status", "note"),
}


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    s = format(float(x), ".17g")
    # ".17g" may drop the decimal point; keep the token a JSON float.
    if "." not in s and "e" not in s:
        s += ".0"
    return s


def _write_json(obj: Any, out: list[str], indent: int, level: int) -> None:
    # encode_basestring is what json.dumps(s, ensure_ascii=False) calls,
    # without building a JSONEncoder per string.
    if isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad = " " * (indent * level)
        child_pad = pad + " " * indent
        sep = "{\n"
        for key, value in obj.items():
            out.append(sep + child_pad + encode_basestring(str(key)) + ": ")
            _write_json(value, out, indent, level + 1)
            sep = ",\n"
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        pad = " " * (indent * level)
        child_pad = pad + " " * indent
        sep = "[\n"
        for value in obj:
            out.append(sep + child_pad)
            _write_json(value, out, indent, level + 1)
            sep = ",\n"
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def render_json(report: dict, indent: int = 2) -> str:
    parts: list[str] = []
    _write_json(report, parts, indent, 0)
    parts.append("\n")
    return "".join(parts)


def check_pairs(report: dict) -> None:
    """Raise TypeError naming a record's ``interval`` or ``range`` that is no pair."""
    for key, _, _ in SECTIONS:
        for record in report.get(key, []):
            for name in ("interval", "range"):
                value = record.get(name)
                if value is not None and not (isinstance(value, list) and len(value) == 2):
                    raise TypeError(f"{name}: expected a pair [a, b], got {value!r}")


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return format(value, ".17g") if math.isfinite(value) else ""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(_cell(v) for v in value)
    return str(value)


# Records flattened per pass: bounds the cells alive at once.
_CHUNK = 256
# Columns whose cell comes from inside a record field: column -> (field, index or key).
_NESTED = {"interval_a": ("interval", 0), "interval_b": ("interval", 1),
           "range_lo": ("range", 0), "range_hi": ("range", 1),
           "hypothesis_verdict": ("hypothesis", "verdict"),
           "hypothesis_max_violation": ("hypothesis", "max_violation")}


def _column_cells(values: list) -> list[str]:
    """_cell of each value; a column of finite floats is formatted in one map.
    A sum of floats is finite only if each one is (an overflowing sum only
    sends the column the general way)."""
    if set(map(type, values)) == {float} and math.isfinite(sum(values)):
        return list(map(format, values, repeat(".17g")))
    return list(map(_cell, values))


def _csv_columns(chunk: list[dict], kind: str) -> list[list[str]]:
    """The cells of records of the given kind, one list per CSV column.

    A cell from inside an interval, range or hypothesis that is null in
    the report is empty.
    """
    kinds = [record["kind"] for record in chunk]
    if kinds.count(kind) != len(kinds):
        other = next(k for k in kinds if k != kind)
        raise ValueError(f"expected a {kind!r} record, got kind {other!r}")
    columns = []
    for col in CSV_COLUMNS[kind]:
        if col in _NESTED:
            name, key = _NESTED[col]
            values = [None if (v := r.get(name)) is None else v[key] for r in chunk]
        else:
            values = [r.get(col) for r in chunk]
        columns.append(_column_cells(values))
    return columns


def _csv_rows(records: list[dict], kind: str) -> Iterator[tuple[str, ...]]:
    """Each record's cells in CSV_COLUMNS order, flattened a chunk at a
    time and a column at a time; markdown tables show the same cells."""
    for start in range(0, len(records), _CHUNK):
        yield from zip(*_csv_columns(records[start:start + _CHUNK], kind))


def _write_csv(out: TextIO, records: list[dict], kind: str) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS[kind])
    writer.writerows(_csv_rows(records, kind))


def render_csv(records: list[dict], kind: str) -> str:
    buf = io.StringIO()
    _write_csv(buf, records, kind)
    return buf.getvalue()


def _md_table(headers: list[str], rows: Iterable[Sequence[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def render_markdown(report: dict) -> str:
    summary = report["summary"]
    lines = [
        "# hhverify run report",
        "",
        f"- tool: {report['tool']} {report['version']}",
        f"- generated_at: {report['generated_at']}",
        "",
        "## Summary",
        "",
    ]
    lines += _md_table(
        ["total", "pass", "fail", "refuted hypothesis", "non-converged"],
        [[str(summary["total"]), str(summary["pass"]), str(summary["fail"]),
          str(summary["refuted_hypothesis"]), str(summary["non_converged"])]])
    for key, title, kind in SECTIONS:
        records = report.get(key, [])
        if not records:
            continue
        lines += ["", f"## {title}", ""]
        lines += _md_table(list(CSV_COLUMNS[kind]),
                           _csv_rows(records, kind))
    lines.append("")
    return "\n".join(lines)


def _write_file(path: Path, write: Callable[[TextIO], Any]) -> None:
    try:
        with path.open("w", encoding="utf-8") as out:
            write(out)
    except OSError as err:
        raise OSError(f"cannot write report to {path}: {err}") from err


def check_destination(format: str, path: str | Path | None) -> None:
    """Raise ValueError if a report cannot be emitted in format to path;
    the CLI calls it before a run, so a bad destination costs no work."""
    if format not in FORMATS:
        raise ValueError(f"unknown report format {format!r}, expected one of {FORMATS}")
    if format == "csv" and path is None:
        raise ValueError("csv output requires an output path")


def emit(report: dict, format: str, path: str | Path | None) -> str | None:
    """Write the report in the requested format.

    JSON and markdown return the rendered text when path is None (the CLI
    prints it); CSV always needs a path because it writes one file per
    record kind, named <stem>_<kind>.csv next to the given path, each
    streamed to its file a chunk of rows at a time.
    """
    check_destination(format, path)
    if format != "csv":
        text = render_json(report) if format == "json" else render_markdown(report)
        if path is None:
            return text
        _write_file(Path(path), lambda out: out.write(text))
        return None
    base = Path(path)
    for key, _, kind in SECTIONS:
        _write_file(base.with_name(f"{base.stem}_{kind}.csv"),
                    lambda out: _write_csv(out, report.get(key, []), kind))
    return None
