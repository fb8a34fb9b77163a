"""Scenario maps: the optimized position error bound swept over a grid of
target locations, plus derived layers (power split, beam rank, terminal-role
comparison) and deterministic CSV/JSON writers for them.

The per-cell channel gain follows a scalar scattering model: magnitude
rcs_coeff * wavelength / (4 pi d_ts d_sr), zero phase. Cells too close to a
terminal are excluded; cells on the strip between the terminals are marked
singular up front (forward scattering collapses the delay gradient there,
and the angle columns collapse onto the same axis, so no beam choice yields
a full-rank position FIM).
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .beamform_opt import OptOptions, OptResult, _has_reduced_start, optimize, project_feasible
from .errors import DegenerateGeometry, InfeasibleScenario
from .fisher import BeamCovariance, Scenario
from .geometry import Position2D

SCHEMA_VERSION = "1"

STATUS_OK = 0
STATUS_EXCLUDED = 1
STATUS_SINGULAR = 2
STATUS_NO_CONVERGENCE = 3

STATUS_LABELS = {
    STATUS_OK: "ok",
    STATUS_EXCLUDED: "excluded-geometry",
    STATUS_SINGULAR: "singular-EFIM",
    STATUS_NO_CONVERGENCE: "non-convergence",
}

DEFAULT_RCS_COEFF_M = 0.1
ROLE_TIE_REL_TOL = 1e-9

# Start of each cell of a scene without a reduced start (see sweep): the
# polynomial through the last h converged optima of the row's run,
# extrapolated one cell ahead (the secant predictor of predictor-corrector
# continuation). Entry h - 1 holds the weights for a run of length h, newest
# optimum first.
_PREDICTOR_WEIGHTS = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))


def channel_gain(
    p_t: Position2D,
    p_r: Position2D,
    p_s: Position2D,
    wavelength: float,
    rcs_coeff_m: float = DEFAULT_RCS_COEFF_M,
) -> float:
    """Scalar two-hop gain magnitude rcs_coeff * wavelength / (4 pi d1 d2)."""
    d_ts = np.hypot(p_s.x - p_t.x, p_s.y - p_t.y)
    d_sr = np.hypot(p_s.x - p_r.x, p_s.y - p_r.y)
    if d_ts <= 0.0 or d_sr <= 0.0:
        raise DegenerateGeometry("target coincides with a terminal")
    return float(rcs_coeff_m * wavelength / (4.0 * np.pi * d_ts * d_sr))


def swap_roles(scenario: Scenario) -> Scenario:
    """Exchange which terminal transmits: each site keeps its array."""
    return dataclasses.replace(
        scenario,
        p_t=scenario.p_r,
        p_r=scenario.p_t,
        tx_array=scenario.rx_array,
        rx_array=scenario.tx_array,
    )


@dataclass(frozen=True)
class GridSpec:
    """Rectangular target grid with terminal-exclusion and baseline-strip
    half-widths (meters)."""

    x_min: float = -40.0
    x_max: float = 40.0
    y_min: float = -40.0
    y_max: float = 40.0
    nx: int = 41
    ny: int = 41
    exclusion_radius_m: float = 0.5
    baseline_halfwidth_m: float = 0.05

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid bounds must satisfy min < max")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.exclusion_radius_m < 0 or self.baseline_halfwidth_m < 0:
            raise ValueError("grid margins must be non-negative")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    def refined(self, factor: int) -> "GridSpec":
        """Same extent with (n-1)*factor+1 points per axis."""
        return dataclasses.replace(
            self, nx=(self.nx - 1) * factor + 1, ny=(self.ny - 1) * factor + 1
        )


def _segment_distance(p: Position2D, a: Position2D, b: Position2D) -> float:
    ab = np.array([b.x - a.x, b.y - a.y])
    ap = np.array([p.x - a.x, p.y - a.y])
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*ap))
    t = np.clip(float(ap @ ab) / denom, 0.0, 1.0)
    return float(np.hypot(*(ap - t * ab)))


@dataclass(eq=False)
class SweepResult:
    """Grid-shaped layers; invalid cells carry NaN and a status reason."""

    xs: np.ndarray  # (nx,)
    ys: np.ndarray  # (ny,)
    peb: np.ndarray  # (ny, nx) meters, NaN where status != ok
    power_share: np.ndarray  # (ny, nx) steering-direction budget fraction
    rank_one: np.ndarray  # (ny, nx) bool, all active blocks rank one
    gap: np.ndarray  # (ny, nx) certified relative optimality gap, NaN where status != ok
    status: np.ndarray  # (ny, nx) int8, see STATUS_LABELS
    grid: GridSpec

    def convergence_fraction(self) -> float:
        """Converged share among cells where a solve was attempted."""
        attempted = (self.status == STATUS_OK) | (self.status == STATUS_NO_CONVERGENCE)
        n = int(attempted.sum())
        return 1.0 if n == 0 else float((self.status == STATUS_OK).sum() / n)


def _cell_solve(
    scenario: Scenario,
    p_s: Position2D,
    grid: GridSpec,
    options: OptOptions,
    rcs_coeff_m: float,
    run: deque,
) -> tuple[int, OptResult | None]:
    d_t = np.hypot(p_s.x - scenario.p_t.x, p_s.y - scenario.p_t.y)
    d_r = np.hypot(p_s.x - scenario.p_r.x, p_s.y - scenario.p_r.y)
    if min(d_t, d_r) <= grid.exclusion_radius_m:
        return STATUS_EXCLUDED, None
    if _segment_distance(p_s, scenario.p_t, scenario.p_r) <= grid.baseline_halfwidth_m:
        return STATUS_SINGULAR, None
    gain = channel_gain(scenario.p_t, scenario.p_r, p_s, scenario.wavelength, rcs_coeff_m)
    cell = dataclasses.replace(scenario, p_s=p_s, gain=complex(gain))
    # optimize itself starts a scene with a reduced start at its optimum
    warm = None if _has_reduced_start(scenario) else _predict(run, scenario.power_budget)
    try:
        res = optimize(cell, options=options, initial=warm)
        if not res.converged and warm is not None:
            res = optimize(cell, options=options)  # cold restart
    except InfeasibleScenario:
        return STATUS_SINGULAR, None
    if not res.converged:
        return STATUS_NO_CONVERGENCE, None
    return STATUS_OK, res


def _predict(run: deque, power_budget: float) -> BeamCovariance | None:
    """Feasible extrapolation of the run's optima (oldest first) to the next
    cell, or None for an empty run."""
    if not run:
        return None
    weights = _PREDICTOR_WEIGHTS[len(run) - 1]
    pred = sum(w * blocks for w, blocks in zip(weights, reversed(run)))
    return project_feasible(pred, power_budget)


def sweep(
    scenario: Scenario,
    grid: GridSpec | None = None,
    options: OptOptions | None = None,
    rcs_coeff_m: float = DEFAULT_RCS_COEFF_M,
) -> SweepResult:
    """Optimize the beams at every grid cell and collect the bound surface.

    The scenario's own target position and gain are ignored; each cell gets
    its own target and freshly derived gain. Rows are processed serially.

    A narrowband scene on a symmetric grid passes optimize no start: it
    starts each cell at the cell's exact optimum (see
    beamform_opt._reduced_start), which certifies without a step. Any other
    scene keeps, per row, a run of its last converged optima (at most four);
    a cell starts from the feasible projection of their polynomial
    extrapolation (_PREDICTOR_WEIGHTS), the first cell of a run starts cold,
    and a predicted start that fails to converge is retried cold. The run
    restarts at every row and after every cell whose status is not ok.
    """
    grid = grid or GridSpec()
    options = options or OptOptions()
    xs, ys = grid.xs(), grid.ys()
    shape = (grid.ny, grid.nx)
    peb = np.full(shape, np.nan)
    share = np.full(shape, np.nan)
    rank_one = np.zeros(shape, dtype=bool)
    gap = np.full(shape, np.nan)
    status = np.zeros(shape, dtype=np.int8)
    for i, y in enumerate(ys):
        run: deque = deque(maxlen=len(_PREDICTOR_WEIGHTS))
        for j, x in enumerate(xs):
            code, res = _cell_solve(
                scenario, Position2D(float(x), float(y)), grid, options, rcs_coeff_m, run
            )
            status[i, j] = code
            if res is None:
                run.clear()
                continue
            peb[i, j] = res.peb
            share[i, j] = res.power_share_toward_target
            rank_one[i, j] = max(res.rank_profile) == 1
            # a zero gap can come out as -1e-16 after rounding
            gap[i, j] = max(res.optimality_gap_rel, 0.0)
            run.append(res.beam.blocks)
    return SweepResult(
        xs=xs, ys=ys, peb=peb, power_share=share, rank_one=rank_one, gap=gap,
        status=status, grid=grid,
    )


@dataclass(eq=False)
class RoleSweepResult:
    """Forward (as-given) and reverse (roles exchanged) sweeps plus the
    per-cell verdict: +1 forward better, -1 reverse better, 0 tie or no data.
    A tie is a difference that the two solves cannot resolve (see role_sweep).
    """

    forward: SweepResult
    reverse: SweepResult
    role_flag: np.ndarray  # (ny, nx) int8

    def best_peb(self) -> np.ndarray:
        return np.where(self.role_flag < 0, self.reverse.peb, self.forward.peb)

    def best_power_share(self) -> np.ndarray:
        return np.where(self.role_flag < 0, self.reverse.power_share, self.forward.power_share)

    def best_rank_one(self) -> np.ndarray:
        return np.where(self.role_flag < 0, self.reverse.rank_one, self.forward.rank_one)

    def best_status(self) -> np.ndarray:
        return np.where(self.role_flag < 0, self.reverse.status, self.forward.status)


def role_sweep(
    scenario: Scenario,
    grid: GridSpec | None = None,
    options: OptOptions | None = None,
    rcs_coeff_m: float = DEFAULT_RCS_COEFF_M,
) -> RoleSweepResult:
    """Sweep both role assignments and compare the optimized bounds.

    A cell is a tie when the two bounds differ by less than ROLE_TIE_REL_TOL in
    relative terms, or when their SPEBs differ by no more than the sum of the
    two certified gaps, gap_f * pf^2 + gap_r * pr^2: by convexity each SPEB
    lies within its own gap of its optimum, so a smaller difference does not
    say which optimum is lower. Cells where only one assignment is solvable go
    to that assignment; cells with no data are flagged 0.
    """
    forward = sweep(scenario, grid, options, rcs_coeff_m)
    reverse = sweep(swap_roles(scenario), grid, options, rcs_coeff_m)
    pf, pr = forward.peb, reverse.peb
    flag = np.zeros(pf.shape, dtype=np.int8)
    both = np.isfinite(pf) & np.isfinite(pr)
    sf, sr = pf**2, pr**2
    tie = both & (
        (np.abs(pf - pr) <= ROLE_TIE_REL_TOL * np.minimum(pf, pr))
        | (np.abs(sf - sr) <= forward.gap * sf + reverse.gap * sr)
    )
    flag[both & ~tie & (pf < pr)] = 1
    flag[both & ~tie & (pr < pf)] = -1
    flag[np.isfinite(pf) & ~np.isfinite(pr)] = 1
    flag[np.isfinite(pr) & ~np.isfinite(pf)] = -1
    return RoleSweepResult(forward=forward, reverse=reverse, role_flag=flag)


# -----------------------------------------------------------------------------
# writers

_CSV_HEADER = "x,y,peb,power_share,rank1,role_flag,status\n"


def _csv_rows(xs, ys, peb, share, rank_one, role_flag, status):
    lines = [_CSV_HEADER]
    for i in range(len(ys)):
        for j in range(len(xs)):
            lines.append(
                "%.17g,%.17g,%.17g,%.17g,%d,%d,%s\n"
                % (
                    xs[j],
                    ys[i],
                    peb[i, j],
                    share[i, j],
                    int(rank_one[i, j]),
                    int(role_flag[i, j]),
                    STATUS_LABELS[int(status[i, j])],
                )
            )
    return "".join(lines)


def write_sweep_csv(result: SweepResult, path) -> None:
    """One row per cell, y-major; floats at full precision, NaN spelled nan."""
    zero_flags = np.zeros_like(result.status)
    text = _csv_rows(
        result.xs, result.ys, result.peb, result.power_share,
        result.rank_one, zero_flags, result.status,
    )
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_role_csv(result: RoleSweepResult, path) -> None:
    """Best-assignment layers with the per-cell role verdict."""
    text = _csv_rows(
        result.forward.xs, result.forward.ys, result.best_peb(),
        result.best_power_share(), result.best_rank_one(),
        result.role_flag, result.best_status(),
    )
    with open(path, "w", newline="") as fh:
        fh.write(text)


def scenario_metadata(scenario: Scenario, rcs_coeff_m: float) -> dict:
    return {
        "p_t_m": [scenario.p_t.x, scenario.p_t.y],
        "p_r_m": [scenario.p_r.x, scenario.p_r.y],
        "n_tx": scenario.n_tx,
        "n_rx": scenario.n_rx,
        "carrier_hz": scenario.omega_carrier / (2.0 * np.pi),
        "subcarrier_offsets_hz": [
            w / (2.0 * np.pi) for w in scenario.subcarrier_offsets
        ],
        "noise_power_watts": scenario.noise_power,
        "power_budget_watts": scenario.power_budget,
        "narrowband": scenario.narrowband,
        "gain_model": {"kind": "two-hop-scalar", "rcs_coeff_m": rcs_coeff_m},
    }


def write_metadata(
    path,
    kind: str,
    scenario: Scenario,
    grid: GridSpec,
    options: OptOptions,
    rcs_coeff_m: float = DEFAULT_RCS_COEFF_M,
    extra: dict | None = None,
) -> None:
    """JSON sidecar describing how the matching CSV was produced."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "scenario": scenario_metadata(scenario, rcs_coeff_m),
        "grid": dataclasses.asdict(grid),
        "solver": dataclasses.asdict(options),
        "status_labels": {str(k): v for k, v in STATUS_LABELS.items()},
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
