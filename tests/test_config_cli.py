"""Config parsing, the validation scoreboard, and the command line surface:
exit codes, output files, precedence of output-directory sources, and
determinism of written artifacts."""

import collections
import json
import subprocess
import sys

import numpy as np
import pytest
import yaml

import bisense
from bisense import config as config_module
from bisense import validate
from bisense.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from bisense.config import (
    GridConfig,
    RunConfig,
    ScenarioConfig,
    build_grid,
    build_scenario,
    config_from_dict,
    config_to_dict,
    default_config,
    dump_config,
    load_config,
)
from bisense.errors import ConfigError
from bisense.fisher import BeamCovariance, _Kernel, fim_entrywise
from bisense.validate import format_results, run_validation

from conftest import default_scenario

BENCH_SPEB = 0.40918482760957464


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from bisense import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(bisense.__all__)


# -----------------------------------------------------------------------------
# config parsing


def test_default_config_round_trips_through_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    dump_config(default_config(), path)
    assert load_config(path) == default_config()


def test_partial_config_inherits_defaults(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("scenario:\n  n_rx: 7\ngrid:\n  nx: 5\n")
    cfg = load_config(path)
    assert cfg.scenario.n_rx == 7
    assert cfg.scenario.n_tx == ScenarioConfig().n_tx
    assert cfg.grid.nx == 5
    assert cfg.grid.ny == GridConfig().ny
    assert cfg.out_dir is None


def test_empty_config_file_is_all_defaults(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("")
    assert load_config(path) == default_config()


@pytest.mark.parametrize(
    "doc",
    [
        {"scnario": {}},
        {"scenario": {"n_elements": 4}},
        {"solver": {"tol": 1e-6}},
        {"grid": {"x_min": -1.0}},
    ],
)
def test_unknown_keys_rejected(doc):
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"scenario": {"n_tx": 2.5}},
        {"scenario": {"n_tx": True}},
        {"scenario": {"noise_power_watts": "tiny"}},
        {"scenario": {"narrowband": 1}},
        {"scenario": {"tx_position_m": [1.0, 2.0, 3.0]}},
        {"scenario": {"tx_position_m": 5.0}},
        {"out_dir": 7},
        {"scenario": [1, 2]},
        "not a mapping",
    ],
)
def test_wrong_types_rejected(doc):
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_invalid_yaml_reports_config_error(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("scenario: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(path)


def test_pure_python_yaml_loader_parses_the_same(tmp_path, monkeypatch):
    default_path = tmp_path / "default.yaml"
    dump_config(default_config(), default_path)
    partial_path = tmp_path / "partial.yaml"
    partial_path.write_text("scenario:\n  n_rx: 7\ngrid:\n  nx: 5\n")
    bad_path = tmp_path / "bad.yaml"
    bad_path.write_text("scenario: [unclosed\n")

    def outcome():
        with pytest.raises(ConfigError, match="not valid YAML") as err:
            load_config(bad_path)
        cause = err.value.__cause__
        marks = [(m.line, m.column) for m in (cause.context_mark, cause.problem_mark)]
        return load_config(default_path), load_config(partial_path), type(cause), marks

    configured = outcome()
    monkeypatch.setattr(config_module, "_YAML_LOADER", yaml.SafeLoader)
    assert outcome() == configured


def test_missing_file_reports_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.yaml")


def test_config_to_dict_uses_plain_lists():
    d = config_to_dict(default_config())
    assert d["scenario"]["tx_position_m"] == [-10.0, 0.0]
    assert isinstance(d["scenario"]["tx_position_m"], list)


def test_built_scenario_matches_reference_construction():
    built = build_scenario(default_config())
    ref = default_scenario()
    assert built.gain == pytest.approx(ref.gain, rel=1e-15)
    assert built.subcarrier_offsets == ref.subcarrier_offsets
    assert built.n_tx == ref.n_tx and built.n_rx == ref.n_rx
    bc = BeamCovariance.uniform(built)
    assert fim_entrywise(built, bc).speb == pytest.approx(
        fim_entrywise(ref, bc).speb, rel=1e-14
    )


def test_bad_scenario_values_become_config_errors():
    cfg = RunConfig(scenario=ScenarioConfig(noise_power_watts=-1.0))
    with pytest.raises(ConfigError, match="invalid scenario"):
        build_scenario(cfg)
    with pytest.raises(ConfigError, match="invalid grid"):
        build_grid(RunConfig(grid=GridConfig(nx=1)))


def test_target_override_replaces_config_target_and_gain():
    near = build_scenario(default_config(), target=(0.0, 5.0))
    far = build_scenario(default_config(), target=(0.0, 20.0))
    assert near.p_s.y == 5.0
    assert abs(near.gain) > abs(far.gain)


# -----------------------------------------------------------------------------
# validation scoreboard


def test_validation_suite_all_green_on_defaults():
    results = run_validation()
    assert [r.name for r in results] == [
        "fim-cross-routes",
        "gradient-vs-fd",
        "objective-convexity",
        "optimal-structure",
        "known-gain-bound",
        "subcarrier-symmetry",
        "narrowband-consistency",
    ]
    assert all(r.passed for r in results), format_results(results)
    text = format_results(results)
    assert text.count("PASS") == len(results)
    assert "FAIL" not in text


def test_validation_flags_unsolvable_scenario():
    cfg = RunConfig(scenario=ScenarioConfig(target_position_m=(0.0, 0.0)))
    results = {r.name: r for r in run_validation(cfg)}
    assert not results["optimal-structure"].passed
    assert "solve failed" in results["optimal-structure"].detail
    assert not results["known-gain-bound"].passed
    assert "solve failed" in results["known-gain-bound"].detail
    assert results["fim-cross-routes"].passed  # randomized checks unaffected


def test_validation_solves_once(monkeypatch):
    solves = []
    real_optimize = validate.optimize

    def counting_optimize(*args, **kwargs):
        solves.append(args)
        return real_optimize(*args, **kwargs)

    monkeypatch.setattr(validate, "optimize", counting_optimize)
    results = run_validation()
    assert all(r.passed for r in results), format_results(results)
    assert len(solves) == 1


@pytest.mark.parametrize(
    "check", [validate.check_gradient_finite_difference, validate.check_objective_convexity]
)
def test_probing_checks_build_one_kernel_per_scene(check, monkeypatch):
    drawn = []  # holds every drawn scenario, so no id is reused
    builds = collections.Counter()
    real_draw = validate._random_scenario
    real_build = _Kernel.build

    def recording_draw(*args, **kwargs):
        drawn.append(real_draw(*args, **kwargs))
        return drawn[-1]

    def counting_build(scenario):
        builds[id(scenario)] += 1
        return real_build(scenario)

    monkeypatch.setattr(validate, "_random_scenario", recording_draw)
    monkeypatch.setattr(_Kernel, "build", staticmethod(counting_build))
    result = check(np.random.default_rng(20260819))
    assert result.passed, result.detail
    assert builds
    assert set(builds) <= {id(sc) for sc in drawn}
    assert max(builds.values()) == 1


# -----------------------------------------------------------------------------
# CLI


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_optimize_point_default_writes_report(tmp_path, capsys):
    code, out, _ = run_cli("optimize-point", "--out", str(tmp_path), capsys=capsys)
    assert code == EXIT_OK
    assert "peb:" in out and "converged: yes" in out
    report = json.loads((tmp_path / "optimize_point.json").read_text())
    assert report["kind"] == "optimize-point"
    assert report["result"]["speb_m2"] == pytest.approx(BENCH_SPEB, rel=1e-9)
    assert report["result"]["converged"] is True
    blocks = np.asarray(report["result"]["beam_blocks_re"])
    assert blocks.shape == (2, 2, 2)
    total = blocks[:, 0, 0].sum() + blocks[:, 1, 1].sum()
    assert total == pytest.approx(0.01, rel=1e-8)


def test_optimize_point_target_override(tmp_path, capsys):
    code, out, _ = run_cli(
        "optimize-point", "--target", "15,5", "--out", str(tmp_path), capsys=capsys
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "optimize_point.json").read_text())
    assert report["target_m"] == [15.0, 5.0]
    assert report["result"]["rank_profile"] == [1, 1]


@pytest.mark.parametrize(
    "target,expected",
    [
        ("0,0", EXIT_INFEASIBLE),  # on the baseline between the terminals
        ("10,0", EXIT_INFEASIBLE),  # coincides with a terminal
        ("bogus", EXIT_CONFIG),
        ("1,2,3", EXIT_CONFIG),
    ],
)
def test_optimize_point_failure_exit_codes(tmp_path, capsys, target, expected):
    code, _, err = run_cli(
        "optimize-point", "--target", target, "--out", str(tmp_path), capsys=capsys
    )
    assert code == expected
    assert err.strip()


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("scenario:\n  carrier_ghz: 3.8\n")
    code, _, err = run_cli(
        "optimize-point", "--config", str(cfg), "--out", str(tmp_path), capsys=capsys
    )
    assert code == EXIT_CONFIG
    assert "unknown key" in err


def test_non_convergence_exits_4(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    # a wideband scene: a narrowband one starts at its optimum and takes no step
    cfg.write_text("scenario:\n  narrowband: false\nsolver:\n  max_iters: 1\n")
    code, out, err = run_cli(
        "optimize-point", "--config", str(cfg), "--out", str(tmp_path), capsys=capsys
    )
    assert code == EXIT_NO_CONVERGENCE
    assert "converged: NO" in out
    # diagnostics still written for post-mortem
    report = json.loads((tmp_path / "optimize_point.json").read_text())
    assert report["result"]["converged"] is False


def test_optimize_point_reports_exit_reason(tmp_path, capsys):
    code, out, _ = run_cli("optimize-point", "--out", str(tmp_path / "ok"), capsys=capsys)
    reason = json.loads((tmp_path / "ok" / "optimize_point.json").read_text())["result"]["exit_reason"]
    assert code == EXIT_OK and reason in ("gap", "kkt")
    assert f"converged: yes  (exit {reason}," in out
    cfg = tmp_path / "cfg.yaml"
    # a wideband scene: a narrowband one starts at its optimum and takes no step
    cfg.write_text("scenario:\n  narrowband: false\nsolver:\n  max_iters: 1\n")
    code, out, _ = run_cli(
        "optimize-point", "--config", str(cfg), "--out", str(tmp_path / "capped"), capsys=capsys
    )
    report = json.loads((tmp_path / "capped" / "optimize_point.json").read_text())
    assert code == EXIT_NO_CONVERGENCE
    assert report["result"]["exit_reason"] == "max_iters"
    assert "converged: NO  (exit max_iters, 1 iterations," in out


def small_map_config(tmp_path, scenario=None, **solver):
    cfg = tmp_path / "map.yaml"
    doc = {
        "grid": {
            "x_min_m": -12.0,
            "x_max_m": 12.0,
            "y_min_m": -12.0,
            "y_max_m": 12.0,
            "nx": 5,
            "ny": 5,
        }
    }
    if scenario:
        doc["scenario"] = scenario
    if solver:
        doc["solver"] = solver
    cfg.write_text(yaml.safe_dump(doc))
    return cfg


def test_map_writes_csv_and_metadata(tmp_path, capsys):
    cfg = small_map_config(tmp_path)
    out_dir = tmp_path / "maps"
    code, out, _ = run_cli(
        "map", "--kind", "peb", "--config", str(cfg), "--out", str(out_dir), capsys=capsys
    )
    assert code == EXIT_OK
    assert "wrote:" in out
    lines = (out_dir / "peb_map.csv").read_text().splitlines()
    assert lines[0] == "x,y,peb,power_share,rank1,role_flag,status"
    assert len(lines) == 1 + 25
    meta = json.loads((out_dir / "peb_map.json").read_text())
    assert meta["kind"] == "peb-map"
    assert meta["convergence_fraction"] == 1.0
    assert meta["grid"]["nx"] == 5
    assert meta["csv"] == "peb_map.csv"
    counts = meta["status_counts"]
    assert counts["ok"] + counts["excluded"] + counts["singular"] == 25


def test_map_sidecar_reports_largest_certified_gap(tmp_path, capsys, monkeypatch):
    """optimality_gap_max is the largest gap over ok cells, over both
    assignments for role maps, and null when no cell is ok."""
    cli_module = sys.modules["bisense.cli"]
    swept = []

    def recording(real):
        def wrapped(*args, **kwargs):
            swept.append(real(*args, **kwargs))
            return swept[-1]

        return wrapped

    monkeypatch.setattr(cli_module, "sweep", recording(cli_module.sweep))
    monkeypatch.setattr(cli_module, "role_sweep", recording(cli_module.role_sweep))
    cfg = small_map_config(tmp_path)
    out_dir = tmp_path / "maps"
    for kind in ("peb", "role"):
        code, _, _ = run_cli(
            "map", "--kind", kind, "--config", str(cfg), "--out", str(out_dir), capsys=capsys
        )
        assert code == EXIT_OK
    peb_meta = json.loads((out_dir / "peb_map.json").read_text())
    role_meta = json.loads((out_dir / "role_map.json").read_text())
    peb_result, role_result = swept
    assert peb_meta["optimality_gap_max"] == np.nanmax(peb_result.gap)
    assert 0.0 <= peb_meta["optimality_gap_max"] <= 1e-6
    both = np.concatenate([role_result.forward.gap, role_result.reverse.gap])
    assert role_meta["optimality_gap_max"] == np.nanmax(both)
    assert 0.0 <= role_meta["optimality_gap_max"] <= 1e-6

    strip = tmp_path / "strip.yaml"  # every cell on the baseline strip: none is ok
    strip.write_text("grid: {x_min_m: -1.0, x_max_m: 1.0, y_min_m: -0.01, y_max_m: 0.01}\n")
    code, _, _ = run_cli("map", "--config", str(strip), "--out", str(out_dir), capsys=capsys)
    assert code == EXIT_OK
    assert json.loads((out_dir / "peb_map.json").read_text())["optimality_gap_max"] is None


def test_role_map_flags_and_counts(tmp_path, capsys):
    cfg = small_map_config(tmp_path)
    out_dir = tmp_path / "maps"
    code, _, _ = run_cli(
        "map", "--kind", "role", "--config", str(cfg), "--out", str(out_dir), capsys=capsys
    )
    assert code == EXIT_OK
    meta = json.loads((out_dir / "role_map.json").read_text())
    cells = meta["role_cells"]
    assert cells["forward"] + cells["reverse"] + cells["tie"] == 25
    rows = (out_dir / "role_map.csv").read_text().splitlines()[1:]
    flags = {row.split(",")[5] for row in rows}
    assert flags <= {"-1", "0", "1"}


def test_map_outputs_are_deterministic(tmp_path, capsys):
    cfg = small_map_config(tmp_path)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _, _ = run_cli(
            "map", "--config", str(cfg), "--out", str(d), capsys=capsys
        )
        assert code == EXIT_OK
    assert (dirs[0] / "peb_map.csv").read_bytes() == (dirs[1] / "peb_map.csv").read_bytes()


def test_map_non_convergence_exits_4(tmp_path, capsys):
    # a wideband scene: narrowband cells start at their optimum and take no step
    cfg = small_map_config(tmp_path, scenario={"narrowband": False}, max_iters=1)
    code, _, err = run_cli(
        "map", "--config", str(cfg), "--out", str(tmp_path / "m"), capsys=capsys
    )
    assert code == EXIT_NO_CONVERGENCE
    assert "below floor" in err


def test_full_res_refines_grid(tmp_path, capsys):
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(
        "grid: {x_min_m: -14.0, x_max_m: -13.0, y_min_m: 3.0, y_max_m: 4.0, nx: 2, ny: 2}\n"
    )
    out_dir = tmp_path / "m"
    code, _, _ = run_cli(
        "map", "--config", str(cfg), "--full-res", "--out", str(out_dir), capsys=capsys
    )
    assert code == EXIT_OK
    meta = json.loads((out_dir / "peb_map.json").read_text())
    assert meta["grid"]["nx"] == 5 and meta["grid"]["ny"] == 5


def test_out_dir_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.yaml"
    config_dir = tmp_path / "from_config"
    cfg.write_text(f"out_dir: {config_dir}\n")
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"

    monkeypatch.delenv("BISENSE_OUT_DIR", raising=False)
    code, _, _ = run_cli("optimize-point", "--config", str(cfg), capsys=capsys)
    assert code == EXIT_OK and (config_dir / "optimize_point.json").exists()

    monkeypatch.setenv("BISENSE_OUT_DIR", str(env_dir))
    code, _, _ = run_cli("optimize-point", "--config", str(cfg), capsys=capsys)
    assert code == EXIT_OK and (env_dir / "optimize_point.json").exists()

    code, _, _ = run_cli(
        "optimize-point", "--config", str(cfg), "--out", str(flag_dir), capsys=capsys
    )
    assert code == EXIT_OK and (flag_dir / "optimize_point.json").exists()


def test_validate_cli_green_and_red(tmp_path, capsys):
    code, out, _ = run_cli("validate", capsys=capsys)
    assert code == EXIT_OK
    assert "7/7 checks passed" in out

    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("scenario:\n  target_position_m: [0.0, 0.0]\n")
    code, out, _ = run_cli("validate", "--config", str(cfg), capsys=capsys)
    assert code == EXIT_VALIDATION
    assert "FAIL" in out


def test_console_module_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "bisense.cli", "optimize-point", "--target", "0,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_INFEASIBLE
    assert "infeasible" in proc.stderr
