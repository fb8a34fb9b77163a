"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from inputs import WORKLOADS, Inputs, Op, config_with, write_config  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        Inputs(workload, seed).write(tmp_path / name)
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first["ops.json"] != _files(tmp_path / "c")["ops.json"]


def test_map_draws_one_band_per_stratum():
    for seed in range(20):
        inputs = Inputs("map_peb", seed)
        assert len({op.config_name for op in inputs.ops}) == len(inputs.ops) == 3


# -----------------------------------------------------------------------------
# output checks


def _run(tmp_path: Path, op: Op, doc: dict) -> bench.Outcome:
    write_config(tmp_path / op.config_name, doc)
    return bench.run_op(op, tmp_path, "out")


# A narrow band across the baseline: excluded cells at both terminals, the
# singular strip between them and a row of ok cells, solved in well under 1 s.
SMALL_BAND = config_with(
    grid={"x_min_m": -12.0, "x_max_m": 12.0, "nx": 13, "y_min_m": 0.0, "y_max_m": 2.0, "ny": 2}
)


@pytest.fixture(scope="module")
def band_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("band")
    outcome = _run(work, Op("map", ("map", "--kind", "peb"), "band.yaml"), SMALL_BAND)
    with open(outcome.out_dir / "peb_map.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return outcome, rows


def _check_rows(tmp_path: Path, rows: list[dict], exit_code: int = 0) -> checks.CheckReport:
    with open(tmp_path / "peb_map.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return checks.check_map(tmp_path, SMALL_BAND, exit_code, random.Random(0))


def test_map_check_accepts_program_output(tmp_path, band_run):
    outcome, rows = band_run
    statuses = {row["status"] for row in rows}
    assert {"ok", "excluded-geometry", "singular-EFIM"} <= statuses
    report = _check_rows(tmp_path, rows, outcome.exit_code)
    assert report.problems == []
    assert report.attempted == sum(row["status"] == "ok" for row in rows)


def test_map_check_rejects_peb_below_lower_bound(tmp_path, band_run):
    rows = [dict(row) for row in band_run[1]]
    for row in rows:
        if row["status"] == "ok":
            row["peb"] = repr(0.9 * float(row["peb"]))
    report = _check_rows(tmp_path, rows)
    assert any("outside" in p for p in report.problems)
    assert report.failed == report.attempted


def test_map_check_rejects_status_against_geometry(tmp_path, band_run):
    rows = [dict(row) for row in band_run[1]]
    excluded = next(row for row in rows if row["status"] == "excluded-geometry")
    excluded.update(status="ok", peb="1.0", power_share="0.5")
    assert any("does not match the geometry" in p for p in _check_rows(tmp_path, rows).problems)


def test_map_check_rejects_missing_rows_and_wrong_exit(tmp_path, band_run):
    rows = band_run[1]
    assert _check_rows(tmp_path, rows[:-1]).problems
    assert any("exit 4" in p for p in _check_rows(tmp_path, rows, exit_code=4).problems)


POINT_DOC = config_with(
    scenario={"subcarrier_count": 8, "narrowband": False}, solver={"max_iters": 40}
)


@pytest.fixture(scope="module")
def point_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("point")
    op = Op("point", ("optimize-point", "--target=3.0,-7.5"), "point.yaml")
    outcome = _run(work, op, POINT_DOC)
    return outcome, json.loads((outcome.out_dir / "optimize_point.json").read_text())


def _check_payload(tmp_path: Path, payload: dict, exit_code: int) -> checks.CheckReport:
    (tmp_path / "optimize_point.json").write_text(json.dumps(payload))
    return checks.check_point(tmp_path, POINT_DOC, exit_code)


def test_point_check_accepts_honest_non_convergence(tmp_path, point_run):
    outcome, payload = point_run
    assert outcome.exit_code == checks.EXIT_NO_CONVERGENCE
    report = _check_payload(tmp_path, payload, outcome.exit_code)
    assert report.problems == []
    assert (report.attempted, report.failed) == (1, 1)


def _corrupt(payload: dict, **changes) -> dict:
    out = json.loads(json.dumps(payload))
    out["result"].update(changes)
    return out


def test_point_check_rejects_beam_over_budget(tmp_path, point_run):
    outcome, payload = point_run
    res = payload["result"]
    scaled = _corrupt(
        payload,
        beam_blocks_re=[[[2 * v for v in row] for row in b] for b in res["beam_blocks_re"]],
        beam_blocks_im=[[[2 * v for v in row] for row in b] for b in res["beam_blocks_im"]],
    )
    problems = _check_payload(tmp_path, scaled, outcome.exit_code).problems
    assert any("over the" in p for p in problems)


def test_point_check_rejects_wrong_speb_and_certificate(tmp_path, point_run):
    outcome, payload = point_run
    speb = payload["result"]["speb_m2"]
    wrong = _corrupt(payload, speb_m2=speb * (1 - 1e-4), peb_m=(speb * (1 - 1e-4)) ** 0.5)
    assert any("derivative route" in p for p in _check_payload(tmp_path, wrong, outcome.exit_code).problems)
    claimed = _corrupt(payload, converged=True)
    assert any("converged=True" in p for p in _check_payload(tmp_path, claimed, 0).problems)


def test_point_check_rejects_non_psd_blocks(tmp_path, point_run):
    outcome, payload = point_run
    res = payload["result"]
    re = json.loads(json.dumps(res["beam_blocks_re"]))
    re[0][1][1] = -abs(re[0][0][0]) - 1e-3
    problems = _check_payload(tmp_path, _corrupt(payload, beam_blocks_re=re), outcome.exit_code).problems
    assert any("not PSD" in p for p in problems)


def test_validate_check(tmp_path):
    outcome = _run(tmp_path, Op("validate", ("validate", "--seed", "5"), "default.yaml"), config_with())
    report = checks.check_validate(outcome.stdout, outcome.exit_code)
    assert report.problems == [] and report.attempted >= 7 and report.failed == 0
    assert checks.check_validate(outcome.stdout, 5).problems
    failing = outcome.stdout.replace("PASS ", "FAIL ", 1)
    report = checks.check_validate(failing, outcome.exit_code)
    assert report.problems and report.failed == report.attempted


# -----------------------------------------------------------------------------
# tracing


def _bindings() -> dict[tuple[str, str], int]:
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if name == "bisense" or name.startswith("bisense.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_tracer_records_and_restores(tmp_path):
    write_config(tmp_path / "default.yaml", config_with())
    op = Op("validate", ("validate", "--seed", "5"), "default.yaml")
    before = _bindings()
    with tracing.Tracer() as tracer:
        assert _bindings() != before
        bench.run_op(op, tmp_path, "traced")
    assert _bindings() == before
    assert tracer.missing("validate") == []
    assert tracer.missing("map_peb") == ["sweep.sweep"]
    assert tracer.layers["array_manifold.steering"].calls > 0
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_tracer_sees_every_binding_of_a_function():
    import importlib

    sweep_module = importlib.import_module("bisense.sweep")
    with tracing.Tracer():
        wrapped = sweep_module.optimize
        assert wrapped is importlib.import_module("bisense.cli").optimize
        assert wrapped is importlib.import_module("bisense.validate").optimize
        assert wrapped is importlib.import_module("bisense.beamform_opt").optimize
    assert sweep_module.optimize is not wrapped


# -----------------------------------------------------------------------------
# reporting


def test_tail_needs_ten_samples_above():
    assert bench.tail([1.0] * 19) is None
    q, _ = bench.tail([float(i) for i in range(120)])
    assert q == 91
    latencies = [float(i) for i in range(120)]
    assert sum(v > bench.tail(latencies)[1] for v in latencies) >= 10


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
