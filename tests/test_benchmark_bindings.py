"""The benchmark under perfbench/ binds package names by import and by
tracing, and its traced run reads the arguments and results of `optimize`. A
name removed from the package, or a call path that no longer reaches a traced
function, must fail here, in the test suite, and not first in a benchmark
run."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import bisense.cli

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


def test_traced_cli_meets_the_tracer_contract(monkeypatch, tmp_path, capsys):
    """The traced run records each optimize call with its arguments and
    result; a map and a point solve must reach every expected wrapper."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    config = tmp_path / "run.yaml"
    config.write_text(
        "grid: {x_min_m: -20.0, x_max_m: 20.0, y_min_m: 5.0, y_max_m: 15.0, nx: 3, ny: 2}\n"
    )
    common = ["--config", str(config), "--out", str(tmp_path / "out")]
    with tracing.Tracer() as tracer:
        # look bisense.cli.main up inside, where the tracer has wrapped it
        assert bisense.cli.main(["map", "--kind", "peb", *common]) == 0
        assert bisense.cli.main(["optimize-point", *common]) == 0
        assert bisense.cli.main(["validate", "--config", str(config)]) == 0
    capsys.readouterr()
    assert tracer.missing("map_peb") == []
    assert tracer.missing("solve_wideband") == []
    assert tracer.missing("validate") == []
    assert tracer.sweeps.cells_attempted == 6
