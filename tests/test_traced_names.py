"""The benchmark's tracer (perfbench/tracing.py) wraps hhverify functions
under the names their callers look up.  A change to src/ that drops or
renames one of them would leave the tracer's counts silently empty."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    return tracing.PATCHES


@pytest.mark.parametrize("module, attribute, span", _patches())
def test_every_traced_name_resolves(module, attribute, span):
    assert callable(getattr(importlib.import_module(f"hhverify.{module}"), attribute))
