"""Test-only oracle: the report renderers as they were before each record
was flattened once, kept verbatim (a row dict per column, DictWriter, one
json.dumps per string) but for the CSV line terminator and NUL, which
render_csv explains.  tests/test_report.py asserts that the package's
renderers give the same bytes on any record this oracle accepts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any

from hhverify.report import CSV_COLUMNS


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    s = format(float(x), ".17g")
    # ".17g" may drop the decimal point; keep the token a JSON float.
    if "." not in s and "e" not in s and "E" not in s and "n" not in s:
        s += ".0"
    return s


def _write_json(obj: Any, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * level)
    child_pad = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(child_pad + json.dumps(str(key), ensure_ascii=False) + ": ")
            _write_json(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(child_pad)
            _write_json(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def render_json(report: dict, indent: int = 2) -> str:
    parts: list[str] = []
    _write_json(report, parts, indent, 0)
    parts.append("\n")
    return "".join(parts)


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if (math.isnan(value) or math.isinf(value)) else format(value, ".17g")
    if isinstance(value, list):
        return ";".join(_cell(v) for v in value)
    return str(value)


def _csv_row(record: dict) -> dict[str, str]:
    kind = record["kind"]
    flat = dict(record)
    if "interval" in flat and flat["interval"] is not None:
        flat["interval_a"], flat["interval_b"] = flat["interval"]
    if "range" in flat and flat["range"] is not None:
        flat["range_lo"], flat["range_hi"] = flat["range"]
    if kind == "bound":
        hyp = flat.get("hypothesis")
        flat["hypothesis_verdict"] = None if hyp is None else hyp["verdict"]
        flat["hypothesis_max_violation"] = None if hyp is None else hyp["max_violation"]
    return {col: _cell(flat.get(col)) for col in CSV_COLUMNS[kind]}


def render_csv(records: list[dict], kind: str) -> str:
    # Rows end in CRLF so that csv quotes a cell holding CR on every Python
    # (before 3.13 it quotes only the characters of the line terminator);
    # each row's own terminator is then written as LF.  Python 3.10's csv
    # cannot write NUL, which quotes nothing: it is written as a lone
    # surrogate, which no record holds, and put back.
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS[kind], lineterminator="\r\n")
    lines = []

    def end_row() -> None:
        lines.append(buf.getvalue()[:-2].replace("\ud800", "\0") + "\n")
        buf.seek(0)
        buf.truncate()

    writer.writeheader()
    end_row()
    for record in records:
        writer.writerow({col: cell.replace("\0", "\ud800")
                         for col, cell in _csv_row(record).items()})
        end_row()
    return "".join(lines)


def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
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
    sections = (
        ("identity_checks", "Identity checks", "identity"),
        ("bound_checks", "Bound checks", "bound"),
        ("application_checks", "Application checks", "application"),
        ("searches", "Searches", "search"),
    )
    for key, title, kind in sections:
        records = report.get(key, [])
        if not records:
            continue
        lines += ["", f"## {title}", ""]
        columns = list(CSV_COLUMNS[kind])
        rows = [[_cell(_csv_row(r).get(c)) for c in columns] for r in records]
        lines += _md_table(columns, rows)
    lines.append("")
    return "\n".join(lines)
