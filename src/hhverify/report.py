"""Report serialization: JSON, CSV, and markdown renderings of a run.

JSON is the canonical format: UTF-8, fixed key order, and every float
written with 17 significant digits so values round-trip exactly and
repeated runs are byte-identical (the generated_at timestamp aside).
Non-finite floats have no JSON representation and serialize as null.
CSV output is one file per record kind, with LF line ends and a cell
quoted only when it holds a comma, double quote, CR or LF, so its bytes
too are the same on every Python; markdown renders summary tables.
Each format is rendered as a sequence of text chunks, and its text is
their join; markdown and CSV files are streamed from the chunks.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import shutil
import tempfile
from itertools import chain, islice, repeat
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

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


def _json_chunks(report: Any) -> Iterator[str]:
    """render_json's text: each element of a list at the top level of the
    report (each record of a record list) is one chunk."""
    if not isinstance(report, dict) or not report:
        yield _json(report, "") + "\n"
        return
    pad = _INDENT * 2
    text = "{\n"
    for i, (key, value) in enumerate(report.items()):
        text += (",\n" if i else "") + _INDENT + encode_basestring(str(key)) + ": "
        if isinstance(value, list) and value:
            text += "[\n"
            for element in value:
                yield text + pad + _json(element, pad)
                text = ",\n"
            text = "\n" + _INDENT + "]"
        else:
            text += _json(value, _INDENT)
    yield text + "\n}\n"


def render_json(report: dict) -> str:
    # CPython extends a string that only this name holds in place, so the
    # text is built without the second copy that a join of the chunks makes.
    text = ""
    for chunk in _json_chunks(report):
        text += chunk
    return text


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


def _csv_rows(records: Iterable[dict], kind: str, quote: bool) -> Iterator[Iterator[tuple]]:
    """The rows of each chunk of records: each record's cells in CSV_COLUMNS
    order, flattened a column at a time, with one text table per naming
    column for all chunks.  Markdown tables show the same cells unquoted."""
    tables = {col: {} for col in _NAMING}
    records = iter(records)
    while chunk := list(islice(records, _CHUNK)):
        yield zip(*_csv_columns(chunk, kind, tables, quote))


def _csv_chunks(records: Iterable[dict], kind: str) -> Iterator[str]:
    """The header, then the lines of each chunk of records, LF-terminated; a
    cell holding a comma, double quote, CR or LF is quoted, with its quotes
    doubled."""
    yield ",".join(CSV_COLUMNS[kind]) + "\n"
    for rows in _csv_rows(records, kind, quote=True):
        yield "\n".join(map(",".join, rows)) + "\n"


def render_csv(records: list[dict], kind: str) -> str:
    return "".join(_csv_chunks(records, kind))


def _md_table(headers: list[str], rows: Iterable[Sequence[str]]) -> Iterator[str]:
    yield "| " + " | ".join(headers) + " |\n"
    yield "| " + " | ".join("---" for _ in headers) + " |\n"
    for row in rows:
        yield "| " + " | ".join(row) + " |\n"


def _markdown_lines(report: dict) -> Iterator[str]:
    summary = report["summary"]
    yield (f"# hhverify run report\n\n- tool: {report['tool']} {report['version']}\n"
           f"- generated_at: {report['generated_at']}\n\n## Summary\n\n")
    yield from _md_table(
        ["total", "pass", "fail", "refuted hypothesis", "non-converged"],
        [[str(summary["total"]), str(summary["pass"]), str(summary["fail"]),
          str(summary["refuted_hypothesis"]), str(summary["non_converged"])]])
    for key, title, kind in SECTIONS:
        records = report.get(key, [])
        if records:
            yield f"\n## {title}\n\n"
            yield from _md_table(list(CSV_COLUMNS[kind]),
                                 chain.from_iterable(_csv_rows(records, kind, quote=False)))


def render_markdown(report: dict) -> str:
    return "".join(_markdown_lines(report))


# A text file is handed at most this many characters at a time, its write
# chunk: a longer text would be encoded whole before it is written.
_PIECE = 8192


def _write_files(files: Sequence[Path], contents: Iterable[Iterable[str]]) -> None:
    """Write each file's chunks to an anonymous temporary file, then copy
    every temporary into its file: a report that fails to render opens no
    file, and its temporaries vanish as they close."""
    with contextlib.ExitStack() as stack:
        temporaries = []
        try:
            for file, chunks in zip(files, contents):
                temporary = stack.enter_context(
                    tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
                temporary.writelines(chunks)
                temporaries.append(temporary)
            for file, temporary in zip(files, temporaries):
                temporary.seek(0)
                with open(file, "w", encoding="utf-8") as out:
                    shutil.copyfileobj(temporary, out, _PIECE)
        except OSError as err:
            raise OSError(f"cannot write report to {file}: {err}") from err


def check_destination(format: str, path: str | Path | None) -> list[Path]:
    """The files a report in format writes at path: the path, or for csv
    <stem>_<kind>.csv next to it per SECTIONS entry; none without a path.
    Raises ValueError if a report cannot be emitted in format to path, or
    an OSError that names the path if the path's directory is missing, a CSV
    path has no file name, a file is a directory or an existing file that
    cannot be opened for writing, or the filesystem refuses to look one up;
    the CLI calls it before a run, so a bad destination costs no work, and
    a CSV report does not rewrite some of its files before it meets one it
    cannot write."""
    if format not in FORMATS:
        raise ValueError(f"unknown report format {format!r}, expected one of {FORMATS}")
    if format == "csv" and path is None:
        raise ValueError("csv output requires an output path")
    if path is None:
        return []
    base = Path(path)
    try:  # with_name raises on an empty name, and before 3.14 a probe on a name the OS refuses
        files = [base] if format != "csv" else [
            base.with_name(f"{base.stem}_{kind}.csv") for _, _, kind in SECTIONS]
        if not base.parent.is_dir():
            raise OSError(f"no directory {base.parent}")
        for file in files:
            if file.is_dir():
                raise OSError(f"{file} is a directory")
            if file.is_file():  # opened without truncating: the file keeps its bytes
                os.close(os.open(file, os.O_WRONLY))
    except (OSError, ValueError) as err:
        raise OSError(f"cannot write report to {path}: {err}") from None
    return files


def emit(report: dict, format: str, path: str | Path | None) -> str | None:
    """Write the report in the requested format to the files check_destination lists.

    JSON and markdown return the rendered text when path is None (the CLI
    prints it); CSV always needs a path because it writes one file per
    record kind, and reads nothing but the record lists, each of which may
    be any iterable of records, read once, in SECTIONS order (the CLI
    passes runner.sections, so each record is written as it is computed).
    A markdown or CSV file is streamed a chunk at a time (a
    line, a chunk of rows); a JSON file is written from render_json's text,
    a slice at a time, as perfbench's tracer counts a JSON report's bytes
    from that text.  No file is opened before every file of the report has
    rendered (see _write_files), so a record list that raises leaves every
    file as it was.
    """
    files = check_destination(format, path)
    if path is None:
        return render_json(report) if format == "json" else render_markdown(report)
    if format == "csv":
        contents = [_csv_chunks(report.get(key, []), kind) for key, _, kind in SECTIONS]
    elif format == "json":
        text = render_json(report)
        contents = [(text[i:i + _PIECE] for i in range(0, len(text), _PIECE))]
    else:
        contents = [_markdown_lines(report)]
    _write_files(files, contents)
    return None
