"""The benchmark under perfbench/ binds package names by import and by
tracing. A name removed from the package must fail here, in the test suite,
and not first in a benchmark run."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_functions_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, name in tracing.TRACED:
        found = getattr(importlib.import_module(f"bisense.{module}"), name, None)
        assert callable(found), f"traced bisense.{module}.{name} is missing"


def test_imported_names_exist():
    bindings = [
        (node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bisense"
        for alias in node.names
    ]
    assert ("bisense.fisher", "precoder") in bindings
    for module, name in bindings:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name} is missing"
