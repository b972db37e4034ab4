"""The README's "Library surface" import block runs and names only exports."""

import ast
import re
from pathlib import Path

import hhverify

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_surface_block_imports_only_exported_names():
    section = README.read_text(encoding="utf-8").split("\n## Library surface\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(block, {})
    imports = [node for node in ast.walk(ast.parse(block)) if isinstance(node, ast.ImportFrom)]
    names = [alias.name for node in imports for alias in node.names]
    assert {node.module for node in imports} == {"hhverify"}
    assert names and sorted(set(names) - set(hhverify.__all__)) == []
