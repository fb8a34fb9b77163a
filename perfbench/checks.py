"""Output checks that do not trust the solver's own certificate.

Each check reads what one operation wrote (CSV, JSON or the validate
scoreboard), recomputes what it can through a second route, and returns the
units the operation attempted, the units that failed, and the problems
found. A problem means the program's output is wrong; a unit that did not
converge but says so honestly is a failed unit, not a problem.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bisense.beamform_opt import monopulse_candidate, speb_gradient
from bisense.config import build_scenario, config_from_dict
from bisense.fisher import fim_entrywise, fim_from_derivatives, full_fim_speb, precoder
from bisense.geometry import derive_geometry

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 4
MAP_CONVERGENCE_FLOOR = 0.9
BOUND_REL_TOL = 1e-6  # slack on the SPEB bounds for rounding in the solver's last step
SPEB_REL_TOL = 1e-6  # oracle recomputation against the reported SPEB
MAP_CELLS_CHECKED = 2  # ok cells per band whose PEB is bracketed


@dataclass
class CheckReport:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _segment_distance(p, a, b) -> float:
    ab = np.subtract(b, a)
    t = np.clip(np.dot(np.subtract(p, a), ab) / np.dot(ab, ab), 0.0, 1.0)
    return float(np.hypot(*(np.subtract(p, a) - t * ab)))


def _expected_status(x: float, y: float, doc: dict) -> set[str]:
    sc, grid = doc["scenario"], doc["grid"]
    tx, rx = sc["tx_position_m"], sc["rx_position_m"]
    if min(math.dist((x, y), tx), math.dist((x, y), rx)) <= grid["exclusion_radius_m"]:
        return {"excluded-geometry"}
    if _segment_distance((x, y), tx, rx) <= grid["baseline_halfwidth_m"]:
        return {"singular-EFIM"}
    return {"ok", "non-convergence"}


def speb_bracket(doc: dict, x: float, y: float, power_share: float) -> tuple[float, float]:
    """(lower, upper) bounds on the optimal SPEB at one cell.

    The upper bound is the SPEB of the feasible two-beam candidate whose
    steering share matches the reported one; the lower bound follows from
    convexity: f* >= f(c) + min over feasible B of <G(c), B - c>.
    """
    config = config_from_dict(doc)
    scenario = build_scenario(config, target=(x, y))
    alpha = float(np.clip(power_share, 1e-3, 1.0 - 1e-3))
    cand = monopulse_candidate(scenario, alpha)
    upper = fim_entrywise(scenario, cand).speb
    grads = speb_gradient(scenario, cand)
    floor = scenario.power_budget * min(0.0, float(np.linalg.eigvalsh(grads).min()))
    lower = upper - float(np.vdot(grads, cand.blocks).real) + floor
    return lower, upper


def check_map(out_dir: Path, doc: dict, exit_code: int, rng: random.Random) -> CheckReport:
    """peb_map.csv from `bisense map --kind peb` over one grid band."""
    report = CheckReport()
    grid = doc["grid"]
    xs = np.linspace(grid["x_min_m"], grid["x_max_m"], grid["nx"])
    ys = np.linspace(grid["y_min_m"], grid["y_max_m"], grid["ny"])
    try:
        with open(out_dir / "peb_map.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        report.problems.append(f"cannot read peb_map.csv: {exc}")
        return report
    if len(rows) != len(xs) * len(ys):
        report.problems.append(f"{len(rows)} rows for a {len(xs)}x{len(ys)} grid")
        return report
    ok_cells = []
    for k, row in enumerate(rows):
        try:
            x, y = float(row["x"]), float(row["y"])
            peb, share = float(row["peb"]), float(row["power_share"])
            status = row["status"]
        except (KeyError, TypeError, ValueError) as exc:
            report.problems.append(f"row {k}: unreadable ({exc})")
            continue
        where = f"cell ({x:g}, {y:g})"
        if abs(x - xs[k % len(xs)]) > 1e-9 or abs(y - ys[k // len(xs)]) > 1e-9:
            report.problems.append(f"row {k}: {where} is off the grid")
        if status not in _expected_status(x, y, doc):
            report.problems.append(f"{where}: status {status} does not match the geometry")
        if status in ("ok", "non-convergence"):
            report.attempted += 1
        if status == "non-convergence":
            report.failed += 1
        if status == "ok":
            if not (peb > 0.0 and math.isfinite(peb) and 0.0 <= share <= 1.0):
                report.problems.append(f"{where}: peb {peb!r}, share {share!r} out of range")
            else:
                ok_cells.append((x, y, peb, share))
        elif not math.isnan(peb):
            report.problems.append(f"{where}: status {status} but peb {peb!r}")

    fraction = 1.0 if report.attempted == 0 else 1.0 - report.failed / report.attempted
    expected_exit = EXIT_NO_CONVERGENCE if fraction < MAP_CONVERGENCE_FLOOR else EXIT_OK
    if exit_code != expected_exit:
        report.problems.append(f"exit {exit_code}, expected {expected_exit}")

    for x, y, peb, share in rng.sample(ok_cells, min(MAP_CELLS_CHECKED, len(ok_cells))):
        lower, upper = speb_bracket(doc, x, y, share)
        speb = peb * peb
        if not lower * (1.0 - BOUND_REL_TOL) <= speb <= upper * (1.0 + BOUND_REL_TOL):
            report.problems.append(
                f"cell ({x:g}, {y:g}): speb {speb:.9e} outside [{lower:.9e}, {upper:.9e}]"
            )
    if report.problems:
        report.failed = report.attempted
    return report


def oracle_speb(doc: dict, target, blocks: np.ndarray) -> float:
    """SPEB of the given beam blocks through the raw-derivative FIM route."""
    scenario = build_scenario(config_from_dict(doc), target=tuple(target))
    pilots = []
    for p in range(scenario.n_subcarriers):
        lam, vec = np.linalg.eigh(blocks[p])
        pilots.append(precoder(scenario, p) @ (vec * np.sqrt(np.clip(lam, 0.0, None))))
    fim = fim_from_derivatives(scenario, pilots)
    geom = derive_geometry(scenario.p_t, scenario.p_r, scenario.p_s)
    return full_fim_speb(fim, geom.jacobian)


def check_point(out_dir: Path, doc: dict, exit_code: int) -> CheckReport:
    """optimize_point.json from `bisense optimize-point`."""
    report = CheckReport(attempted=1)
    try:
        with open(out_dir / "optimize_point.json") as fh:
            payload = json.load(fh)
        res, solver, target = payload["result"], payload["solver"], payload["target_m"]
        blocks = np.asarray(res["beam_blocks_re"]) + 1j * np.asarray(res["beam_blocks_im"])
        speb, peb = float(res["speb_m2"]), float(res["peb_m"])
        kkt, gap = float(res["kkt_residual"]), float(res["optimality_gap_rel"])
        converged, iterations = res["converged"], int(res["iterations"])
        grad_tol, gap_tol = float(solver["grad_tol"]), float(solver["gap_tol"])
        max_iters = int(solver["max_iters"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        report.failed = 1
        report.problems.append(f"unreadable optimize_point.json: {exc}")
        return report

    problems = report.problems
    sc = doc["scenario"]
    budget = sc["power_budget_watts"]
    if blocks.shape != (sc["subcarrier_count"], 2, 2):
        problems.append(f"beam blocks have shape {blocks.shape}")
    else:
        herm = float(np.abs(blocks - blocks.conj().transpose(0, 2, 1)).max())
        if herm > 1e-12 * budget:
            problems.append(f"beam blocks not Hermitian (deviation {herm:.3e})")
        blocks = 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))
        min_eig = float(np.linalg.eigvalsh(blocks).min())
        if min_eig < -1e-10 * budget:
            problems.append(f"beam blocks not PSD (min eigenvalue {min_eig:.3e})")
        total = float(np.trace(blocks, axis1=1, axis2=2).real.sum())
        if total > budget * (1.0 + 1e-9):
            problems.append(f"beam power {total:.9e} W over the {budget:g} W budget")
        recomputed = oracle_speb(doc, target, blocks)
        if not abs(recomputed - speb) <= SPEB_REL_TOL * speb:
            problems.append(f"reported speb {speb:.9e}, derivative route gives {recomputed:.9e}")
    if not abs(peb - math.sqrt(max(speb, 0.0))) <= 1e-12 * peb:
        problems.append(f"peb {peb!r} is not sqrt(speb {speb!r})")
    certified = kkt < grad_tol or gap <= gap_tol
    if converged is not certified:
        problems.append(
            f"converged={converged} but kkt {kkt:.3e} (tol {grad_tol:g}), gap {gap:.3e} (tol {gap_tol:g})"
        )
    if not 0 <= iterations <= max_iters:
        problems.append(f"{iterations} iterations with max_iters {max_iters}")
    expected_exit = EXIT_OK if converged else EXIT_NO_CONVERGENCE
    if exit_code != expected_exit:
        problems.append(f"exit {exit_code}, expected {expected_exit}")
    if problems or not converged:
        report.failed = 1
    return report


def check_validate(stdout: str, exit_code: int) -> CheckReport:
    """The PASS/FAIL scoreboard printed by `bisense validate`."""
    lines = stdout.splitlines()
    board = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    failed = [line for line in board if line.startswith("FAIL ")]
    report = CheckReport(attempted=len(board), failed=len(failed))
    summary = f"{len(board) - len(failed)}/{len(board)} checks passed"
    if not board:
        report.problems.append("no scoreboard lines")
    report.problems.extend(f"check failed: {line}" for line in failed)
    if summary not in lines:
        report.problems.append(f"summary line {summary!r} missing")
    if exit_code != EXIT_OK:
        report.problems.append(f"exit {exit_code}, expected {EXIT_OK}")
    if report.problems:
        report.failed = max(report.attempted, 1)
        report.attempted = max(report.attempted, 1)
    return report
