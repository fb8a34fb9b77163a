"""Command line front end.

Subcommands:
    optimize-point  solve one target position, print a summary, write a JSON
                    report
    map             sweep the target over a grid and write a CSV layer plus a
                    JSON metadata sidecar (kinds: peb, power, role)
    validate        run the self-diagnostic cross-check suite

Exit codes: 0 success, 2 malformed configuration, 3 infeasible or degenerate
geometry, 4 solver non-convergence (for maps: less than 90 percent of
attempted cells converged), 5 validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .beamform_opt import optimize
from .config import (
    RunConfig,
    build_grid,
    build_options,
    build_scenario,
    default_config,
    load_config,
)
from .errors import ConfigError, DegenerateGeometry, InfeasibleScenario
from .sweep import (
    SCHEMA_VERSION,
    STATUS_EXCLUDED,
    STATUS_NO_CONVERGENCE,
    STATUS_OK,
    STATUS_SINGULAR,
    role_sweep,
    scenario_metadata,
    sweep,
    write_metadata,
    write_role_csv,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VALIDATION = 5

OUT_DIR_ENV = "BISENSE_OUT_DIR"
MAP_CONVERGENCE_FLOOR = 0.9


def _load(args) -> RunConfig:
    if args.config is None:
        return default_config()
    return load_config(args.config)


def _parse_target(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--target expects 'X,Y' in meters, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"--target expects numbers, got {text!r}") from exc


def _resolve_out_dir(args, config: RunConfig) -> Path:
    if getattr(args, "out", None):
        chosen = args.out
    elif os.environ.get(OUT_DIR_ENV):
        chosen = os.environ[OUT_DIR_ENV]
    elif config.out_dir:
        chosen = config.out_dir
    else:
        chosen = "."
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_optimize_point(args) -> int:
    config = _load(args)
    target = _parse_target(args.target) if args.target else None
    scenario = build_scenario(config, target=target)
    options = build_options(config)
    out_dir = _resolve_out_dir(args, config)
    result = optimize(scenario, options)

    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "optimize-point",
        "created_at": datetime.now(timezone.utc).isoformat(),
        "scenario": scenario_metadata(scenario, config.scenario.rcs_coeff_m),
        "target_m": [scenario.p_s.x, scenario.p_s.y],
        "solver": dataclasses.asdict(options),
        "result": {
            "speb_m2": result.speb,
            "peb_m": result.peb,
            "converged": result.converged,
            "exit_reason": result.exit_reason,
            "iterations": result.iterations,
            "kkt_residual": result.kkt_residual,
            "optimality_gap_rel": result.optimality_gap_rel,
            "power_share_toward_target": result.power_share_toward_target,
            "rank_profile": list(result.rank_profile),
            "beam_blocks_re": result.beam.blocks.real.tolist(),
            "beam_blocks_im": result.beam.blocks.imag.tolist(),
        },
    }
    report_path = out_dir / "optimize_point.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"target: ({scenario.p_s.x:g}, {scenario.p_s.y:g}) m")
    print(f"peb: {result.peb:.6g} m  (speb {result.speb:.6g} m^2)")
    status = "yes" if result.converged else "NO"
    print(
        f"converged: {status}  (exit {result.exit_reason}, {result.iterations} iterations, "
        f"kkt {result.kkt_residual:.2e}, gap {result.optimality_gap_rel:.2e})"
    )
    print(f"power share toward target: {result.power_share_toward_target:.4f}")
    print(f"rank profile: {','.join(str(r) for r in result.rank_profile)}")
    print(f"report: {report_path}")
    if not result.converged:
        print("solver did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _status_counts(status: np.ndarray) -> dict[str, int]:
    counts = np.bincount(status.ravel(), minlength=4)
    return {
        "ok": int(counts[STATUS_OK]),
        "excluded": int(counts[STATUS_EXCLUDED]),
        "singular": int(counts[STATUS_SINGULAR]),
        "no_convergence": int(counts[STATUS_NO_CONVERGENCE]),
    }


def _gap_max(*results) -> float | None:
    """Largest certified optimality gap over the ok cells of the sweeps."""
    gaps = np.concatenate([r.gap[r.status == STATUS_OK] for r in results])
    return float(gaps.max()) if gaps.size else None


def _cmd_map(args) -> int:
    config = _load(args)
    scenario = build_scenario(config)
    options = build_options(config)
    grid = build_grid(config)
    if args.full_res:
        grid = grid.refined(4)
    out_dir = _resolve_out_dir(args, config)
    rcs = config.scenario.rcs_coeff_m

    csv_path = out_dir / f"{args.kind}_map.csv"
    meta_path = out_dir / f"{args.kind}_map.json"
    if args.kind == "role":
        result = role_sweep(scenario, grid, options, rcs_coeff_m=rcs)
        write_role_csv(result, csv_path)
        fraction = min(
            result.forward.convergence_fraction(), result.reverse.convergence_fraction()
        )
        counts = _status_counts(result.best_status())
        flags = result.role_flag
        extra = {
            "convergence_fraction": fraction,
            "status_counts": counts,
            "optimality_gap_max": _gap_max(result.forward, result.reverse),
            "role_cells": {
                "forward": int((flags > 0).sum()),
                "reverse": int((flags < 0).sum()),
                "tie": int((flags == 0).sum()),
            },
            "csv": csv_path.name,
        }
    else:
        result = sweep(scenario, grid, options, rcs_coeff_m=rcs)
        write_sweep_csv(result, csv_path)
        fraction = result.convergence_fraction()
        counts = _status_counts(result.status)
        extra = {
            "convergence_fraction": fraction,
            "status_counts": counts,
            "optimality_gap_max": _gap_max(result),
            "csv": csv_path.name,
        }
    write_metadata(
        meta_path,
        f"{args.kind}-map",
        scenario,
        grid,
        options,
        rcs_coeff_m=rcs,
        extra=extra,
    )

    total = grid.nx * grid.ny
    print(
        f"grid: {grid.nx}x{grid.ny} over x [{grid.x_min:g}, {grid.x_max:g}] m, "
        f"y [{grid.y_min:g}, {grid.y_max:g}] m"
    )
    print(
        f"cells: {total} total, {counts['ok']} converged, {counts['excluded']} excluded, "
        f"{counts['singular']} singular, {counts['no_convergence']} failed"
    )
    print(f"convergence: {100.0 * fraction:.1f}% of attempted")
    print(f"wrote: {csv_path}, {meta_path}")
    if fraction < MAP_CONVERGENCE_FLOOR:
        print(
            f"convergence fraction {fraction:.3f} below floor {MAP_CONVERGENCE_FLOOR}",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .validate import format_results, run_validation

    config = _load(args)
    results = run_validation(config, seed=args.seed)
    print(format_results(results))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VALIDATION if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bisense",
        description="Position-error bounds and transmit-beam optimization "
        "for a two-site sensing link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="YAML run configuration")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument(
        "--out",
        metavar="DIR",
        help=f"output directory (overrides ${OUT_DIR_ENV} and the config)",
    )

    p_opt = sub.add_parser(
        "optimize-point",
        parents=[common, out],
        help="optimize the beam covariance for one target position",
    )
    p_opt.add_argument(
        "--target", metavar="X,Y", help="target position in meters, overrides the config"
    )
    p_opt.set_defaults(func=_cmd_optimize_point)

    p_map = sub.add_parser(
        "map", parents=[common, out], help="sweep the target over a grid"
    )
    p_map.add_argument(
        "--kind",
        choices=("peb", "power", "role"),
        default="peb",
        help="which map to produce (default: peb)",
    )
    p_map.add_argument(
        "--full-res",
        action="store_true",
        help="refine the configured grid 4x per axis",
    )
    p_map.set_defaults(func=_cmd_map)

    p_val = sub.add_parser(
        "validate", parents=[common], help="run the self-diagnostic suite"
    )
    p_val.add_argument(
        "--seed", type=int, default=20260819, help="seed for the randomized checks"
    )
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleScenario, DegenerateGeometry) as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
