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
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any

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
    if "." not in s and "e" not in s and "E" not in s and "n" not in s:
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


def parse_json(text: str) -> dict:
    return json.loads(text)


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


def _csv_row(record: dict, kind: str) -> list[str]:
    """The cells of one record of the given kind, in CSV_COLUMNS order.

    Markdown tables show the same cells, so each renderer flattens a
    record exactly once.
    """
    if record["kind"] != kind:
        raise ValueError(f"expected a {kind!r} record, got kind {record['kind']!r}")
    split = {}
    interval = record.get("interval")
    if interval is not None:
        split["interval_a"], split["interval_b"] = interval
    span = record.get("range")
    if span is not None:
        split["range_lo"], split["range_hi"] = span
    if kind == "bound":
        hyp = record.get("hypothesis")
        split["hypothesis_verdict"] = None if hyp is None else hyp["verdict"]
        split["hypothesis_max_violation"] = None if hyp is None else hyp["max_violation"]
    get = record.get
    return [_cell(split[col] if col in split else get(col)) for col in CSV_COLUMNS[kind]]


def render_csv(records: list[dict], kind: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS[kind])
    writer.writerows(_csv_row(record, kind) for record in records)
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
    for key, title, kind in SECTIONS:
        records = report.get(key, [])
        if not records:
            continue
        lines += ["", f"## {title}", ""]
        lines += _md_table(list(CSV_COLUMNS[kind]),
                           [_csv_row(record, kind) for record in records])
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
    if format != "csv":
        text = render_json(report) if format == "json" else render_markdown(report)
        if path is None:
            return text
        _write_text(Path(path), text)
        return None
    if path is None:
        raise ValueError("csv output requires an output path")
    base = Path(path)
    for key, _, kind in SECTIONS:
        target = base.with_name(f"{base.stem}_{kind}.csv")
        _write_text(target, render_csv(report.get(key, []), kind))
    return None
