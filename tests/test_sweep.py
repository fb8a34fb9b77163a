"""Map-layer tests: per-cell gain model, grid bookkeeping, status coding,
mirror symmetry, deterministic outputs, and the role comparison."""

import dataclasses
import importlib
import json

import numpy as np
import pytest

from bisense.errors import DegenerateGeometry, InfeasibleScenario
from bisense.fisher import Scenario
from bisense.geometry import SPEED_OF_LIGHT, Position2D
from bisense.sweep import (
    GridSpec,
    STATUS_EXCLUDED,
    STATUS_NO_CONVERGENCE,
    STATUS_OK,
    STATUS_SINGULAR,
    channel_gain,
    role_sweep,
    swap_roles,
    sweep,
    write_metadata,
    write_role_csv,
    write_sweep_csv,
)
from bisense.beamform_opt import OptOptions, optimize, project_feasible

from conftest import CARRIER_HZ, default_scenario


def test_channel_gain_reference_value():
    wavelength = SPEED_OF_LIGHT / CARRIER_HZ
    g = channel_gain(
        Position2D(-10.0, 0.0), Position2D(10.0, 0.0), Position2D(0.0, 10.0), wavelength
    )
    # d_ts = d_sr = sqrt(200): product of hops is 200 m^2
    assert g == pytest.approx(0.1 * wavelength / (4 * np.pi * 200.0), rel=1e-15)
    assert g == pytest.approx(3.139e-6, rel=1e-3)


def test_channel_gain_scales():
    wavelength = SPEED_OF_LIGHT / CARRIER_HZ
    args = (Position2D(-10.0, 0.0), Position2D(10.0, 0.0), Position2D(3.0, 7.0), wavelength)
    assert channel_gain(*args, rcs_coeff_m=0.4) == pytest.approx(
        4.0 * channel_gain(*args), rel=0.0
    )


def test_channel_gain_degenerate():
    wavelength = SPEED_OF_LIGHT / CARRIER_HZ
    with pytest.raises(DegenerateGeometry):
        channel_gain(Position2D(0.0, 0.0), Position2D(10.0, 0.0), Position2D(0.0, 0.0), wavelength)


def test_swap_roles_exchanges_sites():
    sc = default_scenario(n_tx=15, n_rx=3)
    back = swap_roles(swap_roles(sc))
    swapped = swap_roles(sc)
    assert swapped.p_t == sc.p_r and swapped.p_r == sc.p_t
    assert swapped.tx_array is sc.rx_array and swapped.rx_array is sc.tx_array
    assert back.p_t == sc.p_t and back.tx_array is sc.tx_array


def test_grid_spec_axes_and_refinement():
    grid = GridSpec()
    xs, ys = grid.xs(), grid.ys()
    assert xs[0] == -40.0 and xs[-1] == 40.0 and len(xs) == 41
    assert ys[0] == -40.0 and ys[-1] == 40.0 and len(ys) == 41
    fine = grid.refined(4)
    assert fine.nx == 161 and fine.ny == 161
    assert fine.x_min_m == grid.x_min_m and fine.x_max_m == grid.x_max_m
    with pytest.raises(ValueError):
        GridSpec(x_min_m=1.0, x_max_m=-1.0)
    with pytest.raises(ValueError):
        GridSpec(nx=1)
    with pytest.raises(ValueError):
        GridSpec(exclusion_radius_m=-0.1)


def small_grid():
    return GridSpec(x_min_m=-15.0, x_max_m=15.0, y_min_m=-15.0, y_max_m=15.0, nx=7, ny=7)


def test_sweep_status_layout():
    """Terminals excluded, the strip between them singular, the rest solved."""
    res = sweep(default_scenario(), small_grid())
    xs, ys = res.xs, res.ys
    x_index = {x: j for j, x in enumerate(xs)}
    y0 = int(np.flatnonzero(ys == 0.0)[0])
    assert res.status[y0, x_index[-10.0]] == STATUS_EXCLUDED
    assert res.status[y0, x_index[10.0]] == STATUS_EXCLUDED
    for x in (-5.0, 0.0, 5.0):
        assert res.status[y0, x_index[x]] == STATUS_SINGULAR
    for x in (-15.0, 15.0):  # behind the terminals the geometry recovers
        assert res.status[y0, x_index[x]] == STATUS_OK
    off_axis = res.status[ys != 0.0, :]
    assert np.all(off_axis == STATUS_OK)
    assert res.convergence_fraction() == 1.0
    # NaN exactly where not solved
    assert np.array_equal(np.isfinite(res.peb), res.status == STATUS_OK)
    assert np.array_equal(np.isfinite(res.power_share), res.status == STATUS_OK)
    ok = res.status == STATUS_OK
    assert np.all(res.peb[ok] > 0.0)
    assert np.all((res.power_share[ok] > 0.0) & (res.power_share[ok] <= 1.0))


def test_sweep_behind_terminal_transect():
    """The singular strip stops at the terminals: along the baseline ray
    behind the receiver the bound is finite and grows with range."""
    grid = GridSpec(x_min_m=12.0, x_max_m=27.0, y_min_m=-1.0, y_max_m=1.0, nx=4, ny=3)
    res = sweep(default_scenario(), grid)
    row = int(np.flatnonzero(res.ys == 0.0)[0])
    assert np.all(res.status[row] == STATUS_OK)
    assert np.all(np.diff(res.peb[row]) > 0.0)


def test_sweep_mirror_symmetry_with_equal_arrays():
    """x -> -x maps the scene onto the role-swapped scene; with equal arrays
    at both sites the two sweeps must mirror each other."""
    sc = default_scenario(n_tx=5, n_rx=5)
    grid = GridSpec(x_min_m=-20.0, x_max_m=20.0, y_min_m=-20.0, y_max_m=20.0, nx=5, ny=5)
    fwd = sweep(sc, grid)
    rev = sweep(swap_roles(sc), grid)
    mirrored = rev.peb[:, ::-1]
    both = np.isfinite(fwd.peb) & np.isfinite(mirrored)
    assert both.sum() >= 20
    assert np.allclose(fwd.peb[both], mirrored[both], rtol=1e-6)
    assert np.array_equal(fwd.status, rev.status[:, ::-1])


def test_sweep_deterministic():
    sc = default_scenario()
    grid = GridSpec(x_min_m=-18.0, x_max_m=18.0, y_min_m=-18.0, y_max_m=18.0, nx=4, ny=4)
    a = sweep(sc, grid)
    b = sweep(sc, grid)
    assert np.array_equal(a.peb, b.peb, equal_nan=True)
    assert np.array_equal(a.power_share, b.power_share, equal_nan=True)
    assert np.array_equal(a.status, b.status)


def test_sweep_csv_deterministic(tmp_path):
    sc = default_scenario()
    grid = GridSpec(x_min_m=-18.0, x_max_m=18.0, y_min_m=-18.0, y_max_m=18.0, nx=4, ny=4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(sweep(sc, grid), p1)
    write_sweep_csv(sweep(sc, grid), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_scattering_scale_rescales_bound_exactly():
    """Gain magnitude scaling s multiplies the bound by 1/s; for a power of
    two the whole solve path rescales without rounding."""
    sc = default_scenario()
    grid = GridSpec(x_min_m=-18.0, x_max_m=18.0, y_min_m=-18.0, y_max_m=18.0, nx=4, ny=4)
    base = sweep(sc, grid, rcs_coeff_m=0.1)
    strong = sweep(sc, grid, rcs_coeff_m=0.4)
    assert np.array_equal(base.status, strong.status)
    ok = base.status == STATUS_OK
    assert ok.all()
    assert np.array_equal(strong.peb[ok], base.peb[ok] / 4.0)
    assert np.array_equal(strong.power_share[ok], base.power_share[ok])


def test_baseline_halfwidth_marks_strip():
    sc = default_scenario()
    grid = GridSpec(x_min_m=-1.0, x_max_m=1.0, y_min_m=0.04, y_max_m=10.0, nx=2, ny=2)
    res = sweep(sc, grid)
    assert np.all(res.status[0] == STATUS_SINGULAR)  # y = 0.04 row
    assert np.all(res.status[1] == STATUS_OK)  # y = 10 row


def test_role_sweep_closer_site_receives():
    """With identical arrays the better assignment makes the nearer site the
    receiver; the equidistant column is an exact tie."""
    sc = default_scenario(n_tx=5, n_rx=5)
    grid = GridSpec(x_min_m=-20.0, x_max_m=20.0, y_min_m=-20.0, y_max_m=20.0, nx=5, ny=5)
    rs = role_sweep(sc, grid)
    both = np.isfinite(rs.forward.peb) & np.isfinite(rs.reverse.peb)
    xs = rs.forward.xs
    for i in range(grid.ny):
        for j in range(grid.nx):
            if not both[i, j]:
                continue
            if xs[j] == 0.0:
                assert rs.role_flag[i, j] == 0  # equidistant: exact tie
            else:
                # closer to the site at +10 -> that site receives -> forward
                assert rs.role_flag[i, j] == (1 if xs[j] > 0 else -1)


def test_role_best_layers_follow_flag():
    sc = default_scenario(n_tx=5, n_rx=5)
    grid = GridSpec(x_min_m=-20.0, x_max_m=20.0, y_min_m=-20.0, y_max_m=20.0, nx=5, ny=3)
    rs = role_sweep(sc, grid)
    best = rs.best_peb()
    both = np.isfinite(rs.forward.peb) & np.isfinite(rs.reverse.peb)
    decided = both & (rs.role_flag != 0)
    assert np.all(
        best[decided] == np.minimum(rs.forward.peb[decided], rs.reverse.peb[decided])
    )
    # tie cells report the forward layer, matching the other side within the
    # tie tolerance by definition
    ties = both & (rs.role_flag == 0)
    assert ties.any()
    assert np.all(best[ties] == rs.forward.peb[ties])
    assert np.allclose(best[ties], rs.reverse.peb[ties], rtol=1e-8)


def test_csv_format_and_roundtrip(tmp_path):
    sc = default_scenario()
    grid = GridSpec(x_min_m=-18.0, x_max_m=18.0, y_min_m=-6.0, y_max_m=18.0, nx=4, ny=3)
    res = sweep(sc, grid)
    path = tmp_path / "map.csv"
    write_sweep_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,peb,power_share,rank1,role_flag,status"
    assert len(lines) == 1 + grid.nx * grid.ny
    first = lines[1].split(",")
    assert float(first[0]) == -18.0 and float(first[1]) == -6.0
    # full-precision floats survive a text round trip
    back = np.array(
        [float(line.split(",")[2]) for line in lines[1:]]
    ).reshape(grid.ny, grid.nx)
    assert np.array_equal(back, res.peb, equal_nan=True)
    statuses = {line.split(",")[6] for line in lines[1:]}
    assert statuses <= {"ok", "excluded-geometry", "singular-EFIM", "non-convergence"}


def test_role_csv_flags(tmp_path):
    sc = default_scenario(n_tx=5, n_rx=5)
    grid = GridSpec(x_min_m=-20.0, x_max_m=20.0, y_min_m=5.0, y_max_m=15.0, nx=5, ny=2)
    rs = role_sweep(sc, grid)
    path = tmp_path / "role.csv"
    write_role_csv(rs, path)
    lines = path.read_text().splitlines()
    flags = [int(line.split(",")[5]) for line in lines[1:]]
    assert set(flags) <= {-1, 0, 1}
    assert -1 in flags and 1 in flags


def test_metadata_sidecar(tmp_path):
    sc = default_scenario()
    path = tmp_path / "map.json"
    write_metadata(path, "peb", sc, OptOptions(), extra={"note": "unit test"})
    meta = json.loads(path.read_text())
    assert meta["schema_version"] == "2"
    assert meta["kind"] == "peb"
    assert meta["scenario"]["carrier_hz"] == pytest.approx(CARRIER_HZ)
    assert meta["scenario"]["n_tx"] == 15 and meta["scenario"]["n_rx"] == 3
    assert meta["solver"]["grad_tol"] == OptOptions().grad_tol
    assert meta["solver"]["gap_tol"] == OptOptions().gap_tol
    assert meta["note"] == "unit test"
    assert "created_at" in meta


@pytest.mark.parametrize("gap_tol", [1e-6, 1e-4])
def test_role_tie_within_certified_gaps(gap_tol):
    """Each solve stops somewhere inside its certificate, so two SPEBs that
    differ by less than their certified gaps do not rank the assignments: the
    equidistant column stays a tie at any valid gap_tol."""
    sc = default_scenario(n_tx=5, n_rx=5)
    grid = GridSpec(x_min_m=-20.0, x_max_m=20.0, y_min_m=-20.0, y_max_m=20.0, nx=5, ny=5)
    rs = role_sweep(sc, grid, OptOptions(gap_tol=gap_tol, grad_tol=0.0))
    column = rs.forward.xs == 0.0
    both = (np.isfinite(rs.forward.peb) & np.isfinite(rs.reverse.peb))[:, column]
    assert both.sum() == 4  # the baseline cell is singular
    assert np.all(rs.role_flag[:, column][both] == 0)


def _extrapolate(beams):
    """Polynomial through the last (at most four) optima, one cell ahead; the
    y = 12 row reaches runs of five to eight optima."""
    b = beams[-4:]
    if len(b) == 1:
        return b[-1]
    if len(b) == 2:
        return 2.0 * b[-1] - b[-2]
    if len(b) == 3:
        return 3.0 * b[-1] - 3.0 * b[-2] + b[-3]
    return 4.0 * b[-1] - 6.0 * b[-2] + 4.0 * b[-3] - b[-4]


def test_sweep_starts_cells_from_extrapolated_optima(monkeypatch):
    """On a wideband scene, each cell starts from the feasible projection of
    the extrapolated last converged optima of its row; the run restarts at
    each row and after each cell that is not ok."""
    sweep_module = importlib.import_module("bisense.sweep")
    calls = []

    def recording_optimize(cell, options=None, initial=None):
        res = optimize(cell, options=options, initial=initial)
        calls.append(((cell.p_s.x, cell.p_s.y), initial, res))
        return res

    monkeypatch.setattr(sweep_module, "optimize", recording_optimize)
    sc = default_scenario(narrowband=False)
    # y = 0: ok, ok, excluded, singular x3, excluded, ok, ok; y = 12: all ok
    grid = GridSpec(x_min_m=-20.0, x_max_m=20.0, y_min_m=0.0, y_max_m=12.0, nx=9, ny=2)
    res = sweep(sc, grid)
    assert list(res.status[0]) == [STATUS_OK] * 2 + [STATUS_EXCLUDED] + [
        STATUS_SINGULAR
    ] * 3 + [STATUS_EXCLUDED] + [STATUS_OK] * 2
    assert np.all(res.status[1] == STATUS_OK)
    assert len(calls) == int((res.status == STATUS_OK).sum())  # no cold restarts

    first = {}
    for target, initial, solved in calls:
        first.setdefault(target, (initial, solved))
    for i, y in enumerate(res.ys):
        run = []
        for j, x in enumerate(res.xs):
            if res.status[i, j] != STATUS_OK:
                run = []
                continue
            initial, solved = first[(float(x), float(y))]
            if not run:
                assert initial is None
            else:
                expected = project_feasible(_extrapolate(run), sc.power_budget)
                assert np.array_equal(initial.blocks, expected.blocks)
            run.append(solved.beam.blocks)

    ok = res.status == STATUS_OK
    assert np.array_equal(np.isfinite(res.gap), ok)
    assert np.all(res.gap[ok] >= 0.0)


def test_narrowband_cells_start_at_their_reduced_optimum(monkeypatch):
    """A narrowband map passes no start: optimize starts each cell at its
    exact optimum, which certifies on the gap before any step, and no cell is
    solved twice."""
    sweep_module = importlib.import_module("bisense.sweep")
    calls = []

    def recording_optimize(cell, options=None, initial=None):
        res = optimize(cell, options=options, initial=initial)
        calls.append((initial, res.exit_reason, res.iterations))
        return res

    monkeypatch.setattr(sweep_module, "optimize", recording_optimize)
    grid = GridSpec(x_min_m=-20.0, x_max_m=20.0, y_min_m=0.0, y_max_m=12.0, nx=9, ny=2)
    res = sweep(default_scenario(n_subcarriers=3), grid)
    assert len(calls) == int((res.status == STATUS_OK).sum()) == 13
    assert all(call == (None, "gap", 0) for call in calls)


def test_sweep_cells_skip_scene_validation(monkeypatch):
    """A cell is the map's scene with its target and gain replaced, so the
    checks of Scenario.__post_init__ do not run once per cell; the layers are
    bitwise those of solving each cell as dataclasses.replace builds it."""
    sc = default_scenario(n_subcarriers=3)
    grid = GridSpec(x_min_m=-20.0, x_max_m=20.0, y_min_m=0.0, y_max_m=12.0, nx=9, ny=2)
    checks = []
    post_init = Scenario.__post_init__

    def counted(self):
        checks.append(self.p_s)
        post_init(self)

    monkeypatch.setattr(Scenario, "__post_init__", counted)
    res = sweep(sc, grid)
    assert len(checks) <= 1  # at most the map's own scene, not one per cell
    monkeypatch.undo()

    for i, y in enumerate(res.ys):
        for j, x in enumerate(res.xs):
            p_s = Position2D(float(x), float(y))
            if min(np.hypot(x - q.x, y - q.y) for q in (sc.p_t, sc.p_r)) <= grid.exclusion_radius_m:
                assert res.status[i, j] == STATUS_EXCLUDED
                continue
            gain = channel_gain(sc.p_t, sc.p_r, p_s, sc.wavelength)
            try:
                solved = optimize(dataclasses.replace(sc, p_s=p_s, gain=complex(gain)))
            except InfeasibleScenario:
                assert res.status[i, j] == STATUS_SINGULAR
                continue
            if y == 0.0 and sc.p_t.x <= x <= sc.p_r.x:  # the baseline strip
                assert res.status[i, j] == STATUS_SINGULAR
                continue
            assert res.status[i, j] == (STATUS_OK if solved.converged else STATUS_NO_CONVERGENCE)
            assert res.peb[i, j] == solved.peb
            assert res.rank_one[i, j] == (max(solved.rank_profile) == 1)
    assert int((res.status == STATUS_OK).sum()) == 13
