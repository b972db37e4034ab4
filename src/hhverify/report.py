"""Report serialization: JSON, CSV, and markdown renderings of a run.

JSON is the canonical format: UTF-8, fixed key order, and every float
written with 17 significant digits so values round-trip exactly and
repeated runs are byte-identical (the generated_at timestamp aside).
Non-finite floats have no JSON representation and serialize as null.
CSV output is one file per record kind, with LF line ends and a cell
quoted only when it holds a comma, double quote, CR or LF, so its bytes
too are the same on every Python; markdown renders summary tables.
"""

from __future__ import annotations

import io
import math
import re
from itertools import chain, repeat
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


# Each nesting level indents by this much.
_INDENT = "  "


def _json(obj: Any, pad: str) -> str:
    """obj as JSON text whose closing bracket sits at ``pad``."""
    # encode_basestring is what json.dumps(s, ensure_ascii=False) calls,
    # without building a JSONEncoder per string.
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return encode_basestring(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    inner = pad + _INDENT
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return ("{\n" + ",\n".join(inner + encode_basestring(str(key)) + ": " + _json(value, inner)
                                   for key, value in obj.items()) + "\n" + pad + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[\n" + ",\n".join(inner + _json(value, inner) for value in obj) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def render_json(report: dict) -> str:
    return _json(report, "") + "\n"


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
# Columns that name a record's instance: each value recurs in every record
# built on the same interval, alpha or exponent.
_NAMING = ("interval_a", "interval_b", "range_lo", "range_hi", "a", "b", "alpha", "exponent")
# A CSV cell holding one of these is quoted (RFC 4180 minimal quoting).
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _column_cells(values: list, table: dict | None, quote: bool) -> list[str]:
    """_cell of each value, with only the per-cell work the column's types need.

    ``table`` (a naming column's, kept for the whole file) maps each value
    seen to its text, so a column of floats and None formats each distinct
    value once.  Zeros stay out of it, as 0.0 and -0.0 are equal keys that
    print differently: a chunk holding a zero goes the general way.  A
    column of finite floats is formatted in one map (a sum of floats is
    finite only if each one is; an overflowing sum only sends the column
    the general way).  With ``quote``, the cells of a text column are
    quoted when some cell of it needs it.
    """
    types = set(map(type, values))
    if types == {bool}:
        return ["true" if v else "false" for v in values]
    if table is not None and types <= {float, type(None)} and 0.0 not in (distinct := set(values)):
        for value in distinct.difference(table):
            table[value] = _cell(value)
        return list(map(table.__getitem__, values))
    if types == {float} and math.isfinite(sum(values)):
        return list(map(format, values, repeat(".17g")))
    cells = values if types == {str} else list(map(_cell, values))
    if quote and _NEEDS_QUOTES.search("".join(cells)):
        return ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells]
    return cells


def _csv_columns(chunk: list[dict], kind: str, tables: dict[str, dict],
                 quote: bool) -> list[list[str]]:
    """The cells of records of the given kind, one list per CSV column;
    ``tables`` holds the text table of each naming column.

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
        columns.append(_column_cells(values, tables.get(col), quote))
    return columns


def _csv_rows(records: list[dict], kind: str, quote: bool) -> Iterator[Iterator[tuple]]:
    """The rows of each chunk of records: each record's cells in CSV_COLUMNS
    order, flattened a column at a time, with one text table per naming
    column for all chunks.  Markdown tables show the same cells unquoted."""
    tables = {col: {} for col in _NAMING}
    for start in range(0, len(records), _CHUNK):
        yield zip(*_csv_columns(records[start:start + _CHUNK], kind, tables, quote))


def _write_csv(out: TextIO, records: list[dict], kind: str) -> None:
    """The header and one line per record, LF-terminated; a cell holding a
    comma, double quote, CR or LF is quoted, with its quotes doubled."""
    out.write(",".join(CSV_COLUMNS[kind]) + "\n")
    for rows in _csv_rows(records, kind, quote=True):
        out.write("\n".join(map(",".join, rows)) + "\n")


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
                           chain.from_iterable(_csv_rows(records, kind, quote=False)))
    lines.append("")
    return "\n".join(lines)


def _write_file(path: Path, write: Callable[[TextIO], Any]) -> None:
    try:
        with path.open("w", encoding="utf-8") as out:
            write(out)
    except OSError as err:
        raise OSError(f"cannot write report to {path}: {err}") from err


def check_destination(format: str, path: str | Path | None) -> list[Path]:
    """The files a report in format writes at path: the path, or for csv
    <stem>_<kind>.csv next to it per SECTIONS entry; none without a path.
    Raises ValueError if a report cannot be emitted in format to path, or
    _write_file's OSError if the path's directory is missing, a file is a
    directory, or the filesystem refuses to look one up; the CLI calls it
    before a run, so a bad destination costs no work."""
    if format not in FORMATS:
        raise ValueError(f"unknown report format {format!r}, expected one of {FORMATS}")
    if format == "csv" and path is None:
        raise ValueError("csv output requires an output path")
    if path is None:
        return []
    base = Path(path)
    files = ([base] if format != "csv"
             else [base.with_name(f"{base.stem}_{kind}.csv") for _, _, kind in SECTIONS])
    try:  # before 3.14 a probe raises on a name the filesystem refuses
        if not base.parent.is_dir():
            raise OSError(f"no directory {base.parent}")
        for file in files:
            if file.is_dir():
                raise OSError(f"{file} is a directory")
    except OSError as err:
        raise OSError(f"cannot write report to {path}: {err}") from None
    return files


def emit(report: dict, format: str, path: str | Path | None) -> str | None:
    """Write the report in the requested format to the files check_destination lists.

    JSON and markdown return the rendered text when path is None (the CLI
    prints it); CSV always needs a path because it writes one file per
    record kind, each streamed to its file a chunk of rows at a time.
    """
    files = check_destination(format, path)
    if format == "csv":
        for file, (key, _, kind) in zip(files, SECTIONS):
            _write_file(file, lambda out: _write_csv(out, report.get(key, []), kind))
        return None
    text = render_json(report) if format == "json" else render_markdown(report)
    if path is None:
        return text
    _write_file(files[0], lambda out: out.write(text))
    return None
