"""The README's "Library surface" import block runs and names only exports,
and its bound table states each rule as THEOREMS does."""

import ast
import re
from pathlib import Path

import hhverify
from hhverify.bounds import THEOREMS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_surface_block_imports_only_exported_names():
    section = README.read_text(encoding="utf-8").split("\n## Library surface\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(block, {})
    imports = [node for node in ast.walk(ast.parse(block)) if isinstance(node, ast.ImportFrom)]
    names = [alias.name for node in imports for alias in node.names]
    assert {node.module for node in imports} == {"hhverify"}
    assert names and sorted(set(names) - set(hhverify.__all__)) == []


# The README's name of each defect kind.
_DEVIATIONS = {"trapezoid": "trapezoid", "corrected trapezoid": "trapezoid_corrected",
               "corrected midpoint": "midpoint_corrected"}


def test_the_bound_table_states_each_rules_order_and_divisor():
    # Each row's bound is (w^n / D ...) ... Mn, n the derivative order: w
    # alone is w^1, and D is the first divisor.
    table = README.read_text(encoding="utf-8").split("\n| tag ", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.split("|")[1:4]] for line in table.splitlines()[2:]]
    assert [tag for tag, *_ in rows] == list(THEOREMS)
    for tag, deviation, bound in rows:
        spec = THEOREMS[tag]
        power, divisor = re.match(r"`\(w(?:\^(\d+))? ?/ ?\(?(\d+)", bound).groups()
        order = re.search(r"M(\d)`$", bound).group(1)
        assert int(power or 1) == int(order) == spec.derivative_order, tag
        assert float(divisor) == spec.divisor, tag
        assert _DEVIATIONS[deviation] == spec.lhs_kind, tag
