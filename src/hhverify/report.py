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
import json
import math
from pathlib import Path
from typing import Any

FORMATS = ("json", "csv", "markdown")

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


def parse_json(text: str) -> dict:
    return json.loads(text)


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
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS[kind], lineterminator="\n")
    writer.writeheader()
    for record in records:
        writer.writerow(_csv_row(record))
    return buf.getvalue()


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


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as err:
        raise OSError(f"cannot write report to {path}: {err}") from err


def emit(report: dict, format: str, path: str | Path | None) -> str | None:
    """Write the report in the requested format.

    JSON and markdown return the rendered text when path is None (the CLI
    prints it); CSV always needs a path because it writes one file per
    record kind, named <stem>_<kind>.csv next to the given path.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown report format {format!r}, expected one of {FORMATS}")
    if format == "json":
        text = render_json(report)
        if path is None:
            return text
        _write_text(Path(path), text)
        return None
    if format == "markdown":
        text = render_markdown(report)
        if path is None:
            return text
        _write_text(Path(path), text)
        return None
    if path is None:
        raise ValueError("csv output requires an output path")
    base = Path(path)
    for key, kind in (("identity_checks", "identity"), ("bound_checks", "bound"),
                      ("application_checks", "application"), ("searches", "search")):
        target = base.with_name(f"{base.stem}_{kind}.csv")
        _write_text(target, render_csv(report.get(key, []), kind))
    return None
