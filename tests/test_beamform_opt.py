"""Optimizer tests: gradient against finite differences of the matrix route,
projection against a generic QP solver, and structural facts about optima."""

import collections
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisense import beamform_opt, fisher
from bisense.beamform_opt import (
    EXIT_REASONS,
    _QUAD,
    OptOptions,
    _FactoredBeam,
    _Kernel,
    _disk_solve,
    _has_reduced_start,
    _oracle_atom,
    _outer_equal_split,
    _reduced_start,
    _shift_to_budget,
    monopulse_candidate,
    optimize,
    project_feasible,
    rank_profile,
    speb_gradient,
)
from bisense.config import RunConfig, ScenarioConfig, build_scenario
from bisense.errors import InfeasibleScenario, InvalidAlpha, SingularEFIM
from bisense.fisher import BeamCovariance, _blocks, _coordinates
from bisense.geometry import Position2D

from conftest import (
    BUDGET_W,
    default_scenario,
    random_feasible_blocks,
    random_scenario,
    reference_gain,
)


def relocate(scenario, target):
    """Move the target, refreshing the gain for the new path lengths."""
    p_s = Position2D(*target)
    g = reference_gain(scenario.p_t, scenario.p_r, p_s)
    return dataclasses.replace(scenario, p_s=p_s, gain=complex(g))


def well_conditioned(scenario, bc, limit=1e8):
    """Position information condition number safely inside the guard."""
    A = _Kernel.build(scenario).position_fim(bc.blocks)
    lam = np.linalg.eigvalsh(A)
    return lam[0] > 0 and lam[-1] < limit * lam[0]


def random_hermitian_direction(rng, shape):
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h = 0.5 * (x + x.conj().transpose(0, 2, 1))
    return h / np.linalg.norm(h)


# -----------------------------------------------------------------------------
# gradient


def test_gradient_matches_finite_differences(rng):
    """Central differences of the matrix-route SPEB vs the aggregate-route
    gradient: two independent code paths."""
    checked = 0
    while checked < 25:
        sc = random_scenario(rng, p_choices=(2, 4, 5), nr_choices=(3, 15))
        bc = random_feasible_blocks(rng, sc, power_fraction=0.7, eig_floor=1.0)
        if not well_conditioned(sc, bc):
            continue
        grads = speb_gradient(sc, bc)
        h = 1e-6 * sc.power_budget
        for _ in range(2):
            delta = random_hermitian_direction(rng, bc.blocks.shape)
            up = fisher.fim_entrywise(sc, BeamCovariance(blocks=bc.blocks + h * delta))
            dn = fisher.fim_entrywise(sc, BeamCovariance(blocks=bc.blocks - h * delta))
            fd = (up.speb - dn.speb) / (2 * h)
            analytic = float(np.vdot(grads, delta).real)
            assert abs(fd - analytic) <= 1e-5 * max(abs(fd), abs(analytic))
        checked += 1


def test_gradient_euler_identity(rng):
    """SPEB is homogeneous of degree -1 in the blocks, so <G, B> = -speb(B)
    exactly (up to rounding)."""
    for _ in range(20):
        sc = random_scenario(rng, p_choices=(2, 4, 5), nr_choices=(3, 15))
        bc = random_feasible_blocks(rng, sc, eig_floor=0.5)
        if not well_conditioned(sc, bc):
            continue
        grads = speb_gradient(sc, bc)
        value = fisher.fim_entrywise(sc, bc).speb
        inner = float(np.vdot(grads, bc.blocks).real)
        assert abs(inner + value) <= 1e-9 * value


def test_gradient_scale_covariance(rng):
    """G(tB) = G(B) / t^2, the derivative counterpart of speb(tB) = speb(B)/t."""
    sc = default_scenario()
    bc = random_feasible_blocks(rng, sc, power_fraction=0.4, eig_floor=0.5)
    g1 = speb_gradient(sc, bc)
    g2 = speb_gradient(sc, BeamCovariance(blocks=2.0 * bc.blocks))
    assert np.allclose(g2, g1 / 4.0, rtol=1e-12, atol=0.0)


def test_gradient_real_cross_part_vanishes_on_pure_imag_cross(rng):
    """With sum_p Re(b_{p,21}) mass absent the real-part sensitivity is
    exactly zero, which is why optima keep Re(b21) = 0 once they reach it."""
    sc = default_scenario()
    blocks = np.zeros((2, 2, 2), dtype=complex)
    for p, s in ((0, 1.0), (1, -1.0)):
        blocks[p] = np.array([[3e-3, s * 1e-3j], [-s * 1e-3j, 1.5e-3]])
    grads = speb_gradient(sc, BeamCovariance(blocks=blocks))
    assert np.all(grads[:, 1, 0].real == 0.0)
    assert np.any(grads[:, 1, 0].imag != 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"n_subcarriers": 8, "narrowband": False},
        {"n_tx": 1, "n_subcarriers": 4},
        {"n_tx": 1, "n_subcarriers": 4, "narrowband": False, "spacing_hz": 2.4e7},
    ],
    ids=["narrowband_2x2", "wideband_2x2", "narrowband_1x1", "wideband_1x1"],
)
def test_gradient_is_the_adjoint_of_the_aggregates(rng, kwargs):
    """Re<G, Delta> equals the aggregate gradient times the aggregates of
    Delta to rounding, not just to finite-difference accuracy. The scale is
    the sum of the magnitudes of the eight products."""
    sc = default_scenario(target=(6.0, 9.0), **kwargs)
    kernel = _Kernel.build(sc)
    bc = random_feasible_blocks(rng, sc, power_fraction=0.7, eig_floor=0.5)
    assert well_conditioned(sc, bc)
    grads = kernel.gradient(bc.blocks)
    g = kernel._aggregate_gradient(kernel._aggregates(bc.blocks))
    for _ in range(5):
        delta = random_hermitian_direction(rng, bc.blocks.shape)
        dz = kernel._aggregates(delta)
        lhs = float(np.vdot(grads, delta).real)
        assert abs(lhs - g @ dz) <= 1e-12 * (np.abs(g) @ np.abs(dz))


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"n_subcarriers": 8, "narrowband": False},
        {"n_tx": 1, "n_subcarriers": 4},
        {"n_tx": 1, "n_subcarriers": 4, "narrowband": False, "spacing_hz": 2.4e7},
    ],
    ids=["narrowband_2x2", "wideband_2x2", "narrowband_1x1", "wideband_1x1"],
)
def test_aggregate_gradient_matches_complex_step(rng, kwargs):
    """The chain rule in _aggregate_gradient against the complex-step
    derivative of tr(inv(_position_fim)) along aggregate directions, which
    takes no difference and so agrees to rounding."""
    sc = default_scenario(target=(6.0, 9.0), **kwargs)
    kernel = _Kernel.build(sc)
    bc = random_feasible_blocks(rng, sc, power_fraction=0.7, eig_floor=0.5)
    assert well_conditioned(sc, bc)
    z = kernel._aggregates(bc.blocks)
    g = kernel._aggregate_gradient(z)
    for _ in range(5):
        dz = kernel._aggregates(sc.power_budget * random_hermitian_direction(rng, bc.blocks.shape))
        h = 1e-20
        probe = np.trace(np.linalg.inv(kernel._position_fim(z + 1j * h * dz)))
        assert abs(probe.imag / h - g @ dz) <= 1e-12 * (np.abs(g) @ np.abs(dz))


def test_gradient_rejects_singular_point():
    sc = default_scenario(n_subcarriers=1, n_rx=1)
    bc = BeamCovariance.uniform(sc)
    with pytest.raises(SingularEFIM):
        speb_gradient(sc, bc)


# -----------------------------------------------------------------------------
# projection


def test_projection_fixes_feasible_points(rng):
    for _ in range(10):
        sc = random_scenario(rng)
        bc = random_feasible_blocks(rng, sc)
        out = project_feasible(bc, sc.power_budget)
        assert np.allclose(out.blocks, bc.blocks, rtol=0.0, atol=1e-13 * sc.power_budget)


def test_projection_idempotent(rng):
    for _ in range(10):
        m = int(rng.integers(1, 3))
        p_count = int(rng.integers(1, 6))
        x = rng.normal(size=(p_count, m, m)) + 1j * rng.normal(size=(p_count, m, m))
        once = project_feasible(x, 1.0)
        twice = project_feasible(once, 1.0)
        assert np.allclose(twice.blocks, once.blocks, rtol=0.0, atol=1e-13)


def test_projection_output_feasible(rng):
    for _ in range(50):
        m = int(rng.integers(1, 3))
        p_count = int(rng.integers(1, 6))
        scale = 10.0 ** rng.integers(-3, 4)
        x = scale * (rng.normal(size=(p_count, m, m)) + 1j * rng.normal(size=(p_count, m, m)))
        out = project_feasible(x, 1.0)
        eigs = np.linalg.eigvalsh(out.blocks)
        assert eigs.min() >= -1e-12 * scale
        assert out.total_power() <= 1.0 + 1e-12


def test_projection_single_block_by_hand():
    # eigenvalues (3, -1): clamp to (3, 0), then shift to the unit budget
    x = np.diag([3.0, -1.0]).astype(complex)
    out = project_feasible(x, 1.0)
    assert np.allclose(out.blocks[0], np.diag([1.0, 0.0]), atol=1e-14)


def test_projection_preserves_eigenvectors():
    v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    x = v @ np.diag([5.0, 2.0]) @ v.T
    out = project_feasible(x.astype(complex), 3.0)
    lam, vec = np.linalg.eigh(out.blocks[0])
    # budget 3 across raw eigenvalues (5, 2): shift mu = 2 -> (3, 0)
    assert np.allclose(lam, [0.0, 3.0], atol=1e-12)
    top = vec[:, 1]
    assert abs(abs(top @ v[:, 0]) - 1.0) < 1e-12


def test_projection_matches_eigenvalue_qp(rng):
    """The exact projection reduces to a QP on eigenvalues; solve that QP
    with a generic solver and compare."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    for _ in range(8):
        p_count = int(rng.integers(1, 5))
        x = rng.normal(size=(p_count, 2, 2)) + 1j * rng.normal(size=(p_count, 2, 2))
        x = 0.5 * (x + x.conj().transpose(0, 2, 1))
        budget = float(rng.uniform(0.5, 4.0))
        lam = np.linalg.eigvalsh(x).ravel()
        start = np.clip(lam, 0.0, None)
        if start.sum() > budget:
            start *= budget / start.sum()
        res = scipy_opt.minimize(
            lambda v: ((v - lam) ** 2).sum(),
            start,
            jac=lambda v: 2 * (v - lam),
            bounds=[(0.0, None)] * lam.size,
            constraints=[{"type": "ineq", "fun": lambda v: budget - v.sum()}],
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-14},
        )
        assert res.success
        ours = np.sort(np.linalg.eigvalsh(project_feasible(x, budget).blocks).ravel())
        assert np.allclose(ours, np.sort(res.x), atol=1e-7 * max(budget, 1.0))


def test_projection_budget_exact_when_active(rng):
    for _ in range(20):
        x = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        x = 0.5 * (x + x.conj().transpose(0, 2, 1)) + 2.0 * np.eye(2)
        out = project_feasible(x, 1.0)
        assert abs(out.total_power() - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    lam=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12),
    budget=st.floats(0.05, 10.0),
)
def test_shift_to_budget_invariants(lam, budget):
    arr = np.array(lam)
    if np.maximum(arr, 0.0).sum() <= budget:
        return  # shift is only ever called with the constraint active
    out = _shift_to_budget(arr, budget)
    assert np.all(out >= 0.0)
    assert abs(out.sum() - budget) <= 1e-10 * max(budget, 1.0)
    # uniform shift: strictly positive entries all moved by the same amount
    moved = arr - out
    active = out > 1e-12
    if active.any():
        assert np.ptp(moved[active]) <= 1e-10


# -----------------------------------------------------------------------------
# optimizer behavior


def test_optimize_converges_and_beats_random_search(rng):
    sc = default_scenario()
    res = optimize(sc)
    assert res.converged
    assert res.kkt_residual < OptOptions().grad_tol
    assert res.peb == pytest.approx(np.sqrt(res.speb))
    for _ in range(400):
        bc = random_feasible_blocks(rng, sc)
        bundle = fisher.fim_entrywise(sc, bc)
        if not bundle.singular:
            assert bundle.speb >= res.speb * (1 - 1e-9)


def test_optimize_trace_monotone_and_consistent():
    sc = default_scenario()
    res = optimize(sc)
    assert np.all(np.diff(res.speb_trace) <= 0.0)
    assert res.speb_trace[-1] == res.speb
    assert res.iterations == len(res.speb_trace) - 1
    # reported objective must be the matrix-route value at the returned blocks
    check = fisher.fim_entrywise(sc, res.beam)
    assert res.speb == pytest.approx(check.speb, rel=1e-12)


def test_optimize_structure_at_benchmark_point():
    sc = default_scenario()
    res = optimize(sc)
    B = res.beam.blocks
    budget = sc.power_budget
    # real cross terms die exactly (their gradient vanishes on the axis)
    assert np.abs(B[:, 1, 0].real).max() <= 1e-10 * budget
    # mirror symmetry across the subcarrier pair
    assert B[0, 0, 0].real == pytest.approx(B[1, 0, 0].real, rel=1e-6)
    assert B[0, 1, 1].real == pytest.approx(B[1, 1, 1].real, rel=1e-6)
    assert B[0, 1, 0].imag == pytest.approx(-B[1, 1, 0].imag, rel=1e-4, abs=1e-9 * budget)
    # the budget constraint is active and met exactly by the water filling
    assert res.beam.total_power() == pytest.approx(budget, rel=1e-12)
    assert 0.0 < res.power_share_toward_target < 1.0


def test_optimize_start_point_invariance(rng):
    sc = default_scenario(target=(4.0, 9.0))
    sc = relocate(sc, (4.0, 9.0))
    res_default = optimize(sc)
    res_uniform = optimize(sc, initial=BeamCovariance.uniform(sc))
    res_random = optimize(sc, initial=random_feasible_blocks(rng, sc, eig_floor=0.2))
    # each run certifies f - f_min <= gap_tol * f, so values agree within 2x
    slack = 2 * OptOptions().gap_tol
    assert res_uniform.speb == pytest.approx(res_default.speb, rel=slack)
    assert res_random.speb == pytest.approx(res_default.speb, rel=slack)


def test_objective_convex_along_segments(rng):
    """Jensen inequality spot check on the exact objective."""
    sc = default_scenario()
    kernel = _Kernel.build(sc)
    for _ in range(40):
        a = random_feasible_blocks(rng, sc, eig_floor=0.1).blocks
        b = random_feasible_blocks(rng, sc, eig_floor=0.1).blocks
        fa, fb = kernel.speb(a), kernel.speb(b)
        for lam in (0.25, 0.5, 0.75):
            mid = kernel.speb(lam * a + (1 - lam) * b)
            assert mid <= lam * fa + (1 - lam) * fb + 1e-9 * max(fa, fb)


def test_b22_reallocation_is_flat_in_narrowband():
    """Moving derivative-beam power between subcarriers changes nothing when
    the derivative norms match across the band."""
    sc = default_scenario()
    kernel = _Kernel.build(sc)
    base = np.zeros((2, 2, 2), dtype=complex)
    base[0] = np.diag([3e-3, 2e-3])
    base[1] = np.diag([3e-3, 0.0])
    moved = np.zeros_like(base)
    moved[0] = np.diag([3e-3, 0.5e-3])
    moved[1] = np.diag([3e-3, 1.5e-3])
    assert kernel.speb(base) == pytest.approx(kernel.speb(moved), rel=1e-12)


def test_optimize_drains_inner_subcarrier_steering_power():
    """With more than one subcarrier pair the steering power concentrates on
    the outermost pair; inner blocks keep at most derivative-beam power."""
    sc = default_scenario(n_subcarriers=4)
    res = optimize(sc)
    assert res.converged
    om = np.asarray(sc.subcarrier_offsets)
    inner = np.abs(om) < np.abs(om).max() * (1 - 1e-9)
    b11 = res.beam.blocks[:, 0, 0].real
    assert b11[inner].max() <= 1e-10 * sc.power_budget
    assert b11[~inner].min() >= 0.1 * sc.power_budget


def test_optimize_infeasible_scenarios():
    # single DC subcarrier kills delay information; a single receive element
    # kills arrival information; together the position FIM cannot be full
    with pytest.raises(InfeasibleScenario):
        optimize(default_scenario(n_subcarriers=1, n_rx=1))
    # a target on the baseline segment degenerates the delay gradient
    sc = relocate(default_scenario(), (0.0, 0.0))
    with pytest.raises(InfeasibleScenario):
        optimize(sc)
    # contrast: two subcarriers rescue the first case even with one receiver
    assert optimize(default_scenario(n_subcarriers=2, n_rx=1)).converged


def test_infeasibility_probe_is_representative(rng):
    """When the full-rank uniform point is singular, every random feasible
    point is singular too (the probe dominates the feasible set up to scale)."""
    sc = default_scenario(n_subcarriers=1, n_rx=1)
    for _ in range(10):
        bc = random_feasible_blocks(rng, sc)
        assert fisher.fim_entrywise(sc, bc).singular


def test_optimize_respects_iteration_cap():
    sc = default_scenario()
    start = BeamCovariance(blocks=_outer_equal_split(sc))
    res = optimize(sc, options=OptOptions(max_iters=3), initial=start)
    assert res.iterations <= 3
    assert not res.converged


# -----------------------------------------------------------------------------
# two-beam candidate and rank reporting


def test_monopulse_alpha_validation():
    sc = default_scenario()
    for alpha in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(InvalidAlpha):
            monopulse_candidate(sc, alpha)


def test_monopulse_needs_room():
    with pytest.raises(InfeasibleScenario):
        monopulse_candidate(default_scenario(n_subcarriers=1), 0.5)
    with pytest.raises(InfeasibleScenario):
        monopulse_candidate(default_scenario(n_tx=1), 0.5)


def test_monopulse_structure():
    sc = default_scenario(n_subcarriers=4)
    for alpha in (0.2, 0.5, 0.9):
        bc = monopulse_candidate(sc, alpha)
        fisher.check_beam_covariance(bc, sc)
        assert bc.total_power() == pytest.approx(sc.power_budget, rel=1e-12)
        om = np.asarray(sc.subcarrier_offsets)
        outer = np.abs(om) >= np.abs(om).max() * (1 - 1e-12)
        assert np.all(bc.blocks[~outer] == 0.0)
        dets = np.linalg.det(bc.blocks[outer])
        assert np.abs(dets).max() <= 1e-15 * sc.power_budget**2
        crosses = bc.blocks[outer][:, 1, 0].imag
        assert crosses[0] == pytest.approx(-crosses[1], rel=1e-12)


def test_monopulse_picks_the_better_rotation_sense():
    """The sign of the exploited delay/departure coupling depends on the
    geometry; the constructor must return the favorable assignment."""
    for target in ((0.0, 10.0), (5.0, 7.0), (-8.0, 3.0), (2.0, -12.0)):
        sc = relocate(default_scenario(), target)
        kernel = _Kernel.build(sc)
        bc = monopulse_candidate(sc, 0.7)
        assert kernel.speb(bc.blocks) <= kernel.speb(bc.blocks.conj())


def test_monopulse_sweep_attains_rank_one_optimum():
    scipy_opt = pytest.importorskip("scipy.optimize")
    sc = relocate(default_scenario(), (15.0, 5.0))
    res = optimize(sc)
    assert res.rank_profile == (1, 1)
    kernel = _Kernel.build(sc)
    sweep = scipy_opt.minimize_scalar(
        lambda a: kernel.speb(monopulse_candidate(sc, a).blocks),
        bounds=(1e-9, 1 - 1e-9),
        method="bounded",
        options={"xatol": 1e-12},
    )
    assert sweep.fun == pytest.approx(res.speb, rel=1e-6)
    # restriction bound: the family can undercut the optimizer by at most its
    # own optimality-gap certificate
    assert sweep.fun >= res.speb * (1 - 2 * OptOptions().gap_tol)


def test_monopulse_sweep_stays_above_rank_two_optimum():
    sc = default_scenario()
    res = optimize(sc)
    assert res.rank_profile == (2, 2)
    kernel = _Kernel.build(sc)
    best = min(
        kernel.speb(monopulse_candidate(sc, a).blocks) for a in np.linspace(0.01, 0.99, 197)
    )
    assert best > res.speb * (1 + 1e-6)


def test_monopulse_blocks_are_the_disk_boundary_point():
    """Explicit outer blocks for two alphas; this target takes one rotation
    sense at alpha = 0.2 and the other at 0.75. The inner blocks are zero."""
    sc = relocate(default_scenario(n_subcarriers=4), (5.0, 7.0))
    beta = sc.power_budget / 2
    s = np.sqrt(0.75 * 0.25)
    lowest_edge = {
        0.2: [[0.2, 0.4j], [-0.4j, 0.8]],
        0.75: [[0.75, -1j * s], [1j * s, 0.25]],
    }
    for alpha, low in lowest_edge.items():
        expected = np.zeros((4, 2, 2), dtype=complex)
        expected[0] = beta * np.array(low)
        expected[3] = beta * np.array(low).conj()
        got = monopulse_candidate(sc, alpha).blocks
        assert np.allclose(got, expected, rtol=0.0, atol=1e-15 * beta)


def test_monopulse_spends_the_budget_on_repeated_outer_offsets():
    """A symmetric grid may list its band edges more than once; the budget is
    shared by all outermost blocks, not given in halves to each."""
    sc = default_scenario()
    w = sc.subcarrier_offsets[1]
    sc = dataclasses.replace(sc, subcarrier_offsets=(-w, -w, w, w))
    bc = monopulse_candidate(sc, 0.5)
    fisher.check_beam_covariance(bc, sc)
    assert bc.total_power() == pytest.approx(sc.power_budget, rel=1e-12)


def test_rank_profile_reporting():
    sc = default_scenario(n_subcarriers=2)
    assert rank_profile(BeamCovariance.zero(sc)) == (0, 0)
    assert rank_profile(BeamCovariance.uniform(sc)) == (2, 2)
    assert rank_profile(monopulse_candidate(sc, 0.5)) == (1, 1)
    blocks = np.zeros((2, 2, 2), dtype=complex)
    blocks[0] = np.diag([1.0, 1.0])
    blocks[1] = np.diag([1e-6, 1e-6])
    # cutoff is relative to the largest eigenvalue across all blocks
    assert rank_profile(BeamCovariance(blocks=blocks), 1e-4) == (2, 0)


# -----------------------------------------------------------------------------
# active-set solver: hard cases, pinned optima and internals


# The hard-case panel of the benchmark (perfbench/inputs.py PANEL): many
# wideband subcarriers, a target near the baseline, and a hard cold start.
# (scenario overrides, target)
HARD_CASES = {
    "p64_wideband": ({"subcarrier_count": 64, "narrowband": False}, (0.0, 10.0)),
    "p3_near_baseline": ({"subcarrier_count": 3}, (-9.0, 0.5)),
    "p256_wideband_30khz": (
        {"subcarrier_count": 256, "narrowband": False, "subcarrier_spacing_hz": 3.0e4},
        (-9.0, 0.5),
    ),
    "default_cold": ({}, (-8.0, 2.0)),
}


@pytest.mark.parametrize("name", sorted(HARD_CASES))
def test_hard_cases_converge(name):
    overrides, target = HARD_CASES[name]
    config = RunConfig(scenario=ScenarioConfig(**overrides))
    res = optimize(build_scenario(config, target=target))
    assert res.converged, (res.exit_reason, res.kkt_residual, res.optimality_gap_rel)
    assert res.exit_reason in ("gap", "kkt")
    assert res.iterations <= 100


@pytest.mark.parametrize(
    "target,speb",
    [
        ((0.0, 10.0), 0.4091848276096),
        ((15.0, 5.0), 0.2168433202237),
        ((30.0, 30.0), 79.42311715002),
    ],
)
def test_optimum_matches_pinned_values(target, speb):
    """Optima certified by an independent solver (projected gradient); each
    run certifies f - f_min <= gap_tol * f, so they agree within twice that."""
    res = optimize(relocate(default_scenario(), target))
    assert res.converged
    assert res.speb == pytest.approx(speb, rel=2 * OptOptions().gap_tol)


def test_exit_reason_reports_the_stop():
    sc = default_scenario()
    start = BeamCovariance(blocks=_outer_equal_split(sc))
    res = optimize(sc, initial=start)
    assert res.exit_reason in ("gap", "kkt")
    tol = OptOptions()
    if res.exit_reason == "gap":
        assert res.optimality_gap_rel <= tol.gap_tol
    else:
        assert res.kkt_residual < tol.grad_tol
    capped = optimize(sc, options=OptOptions(max_iters=2), initial=start)
    assert capped.exit_reason == "max_iters" and not capped.converged
    assert set(EXIT_REASONS) == {"gap", "kkt", "max_iters", "stalled"}


def test_aggregate_hessian_matches_central_differences(rng):
    """Complex-step Hessian in the eight aggregates against central
    differences of the analytic aggregate gradient."""
    checked = 0
    while checked < 10:
        sc = random_scenario(rng, p_choices=(2, 4, 5), nt_choices=(2, 8, 15), nr_choices=(3, 15))
        bc = random_feasible_blocks(rng, sc, power_fraction=0.7, eig_floor=1.0)
        if not well_conditioned(sc, bc):
            continue
        kernel = _Kernel.build(sc)
        scale = _FactoredBeam(kernel, bc.blocks).agg_scale
        z = np.array(kernel._aggregates(bc.blocks))
        grad, hess = kernel._aggregate_hessian(z, scale)
        assert np.allclose(grad, kernel._aggregate_gradient(z), rtol=1e-14, atol=0.0)
        fd = np.zeros((8, 8))
        for k in range(8):
            step = np.zeros(8)
            step[k] = 1e-6 * scale[k]
            up = kernel._aggregate_gradient(z + step)
            dn = kernel._aggregate_gradient(z - step)
            fd[:, k] = (up - dn) / (2 * step[k])
        # compare in aggregates scaled to their ranges, where entries are commensurate
        dimless = np.outer(scale, scale)
        ref = np.abs(hess * dimless).max()
        assert np.abs((hess - fd) * dimless).max() <= 1e-5 * ref
        assert np.allclose(hess, hess.T, rtol=0.0, atol=1e-14 * ref / dimless.max())
        checked += 1


def test_cold_solve_takes_the_aggregate_gradient_once_per_pass(monkeypatch):
    """Each pass of the solver loop gets the aggregate gradient and Hessian
    from one call and maps the gradient to blocks through the adjoint, so the
    block gradient is never evaluated from the blocks. The default scene,
    started from the equal split, prices no Frank-Wolfe step, whose chord
    search would add calls."""
    calls = collections.Counter()
    for name in ("gradient", "_aggregate_gradient"):
        original = getattr(_Kernel, name)

        def counted(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(_Kernel, name, counted)
    sc = default_scenario()
    res = optimize(sc, initial=BeamCovariance(blocks=_outer_equal_split(sc)))
    assert res.converged
    assert calls["gradient"] == 0
    assert calls["_aggregate_gradient"] == res.iterations + 1


@pytest.mark.parametrize("k", [4, 1])
def test_quad_gives_the_coordinates_of_the_factor(rng, k):
    """y^T Q_j y are the coordinates of L L^H for the factor y, and _blocks
    inverts _coordinates on Hermitian blocks."""
    y = rng.normal(size=(6, k))
    L = np.zeros((6, 2, 2), dtype=complex)
    L[:, 0, 0] = y[:, 0]
    if k == 4:
        L[:, 1, 1] = y[:, 1]
        L[:, 1, 0] = y[:, 2] + 1j * y[:, 3]
    m = 2 if k == 4 else 1
    B = (L @ L.conj().transpose(0, 2, 1))[:, :m, :m]
    x = np.einsum("na,jab,nb->nj", y, _QUAD[:k, :k, :k], y)
    assert np.allclose(x, _coordinates(B), rtol=0.0, atol=1e-14 * np.abs(x).max())
    H = rng.normal(size=(6, m, m)) + 1j * rng.normal(size=(6, m, m))
    H = 0.5 * (H + H.conj().transpose(0, 2, 1))
    assert np.array_equal(_blocks(_coordinates(H)), H)


def test_optimize_projects_once_per_certificate(monkeypatch):
    """A checked initial beam is used as given: the only projections are
    those of the stationarity certificate, one per pass of the loop."""
    calls = collections.Counter()
    original = beamform_opt.project_feasible

    def counted(*args):
        calls["project_feasible"] += 1
        return original(*args)

    monkeypatch.setattr(beamform_opt, "project_feasible", counted)
    sc = default_scenario()
    res = optimize(sc, initial=BeamCovariance.uniform(sc))
    assert res.converged
    assert calls["project_feasible"] == res.iterations + 1


def test_oracle_atom_beats_random_unit_vectors(rng):
    """The atom attains budget * lambda_min(G); no rank-one point from a
    brute-force search over random unit vectors on any block goes lower."""
    for _ in range(5):
        sc = random_scenario(rng, p_choices=(2, 4, 5), nt_choices=(2, 8, 15), nr_choices=(3, 15))
        bc = random_feasible_blocks(rng, sc, eig_floor=0.5)
        if not well_conditioned(sc, bc):
            continue
        grads = speb_gradient(sc, bc)
        budget = sc.power_budget
        atom, tied = _oracle_atom(grads, budget)
        fisher.check_beam_covariance(BeamCovariance(blocks=atom), sc)
        assert atom.trace(axis1=1, axis2=2).real.sum() == pytest.approx(budget, rel=1e-12)
        value = float(np.vdot(grads, atom).real)
        floor = budget * float(np.linalg.eigvalsh(grads).min())
        assert value == pytest.approx(floor, rel=1e-12)
        u = rng.normal(size=(20000, 2)) + 1j * rng.normal(size=(20000, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        brute = min(
            budget * float(np.einsum("ni,ij,nj->n", u.conj(), g, u).real.min()) for g in grads
        )
        assert brute >= value - 1e-12 * abs(value)
        assert brute <= value + 1e-3 * abs(value)


def test_rank_grows_from_rank_one_start():
    """A rank-one start cannot gain a second rank through its factors alone;
    the Frank-Wolfe step adds it, and the run ends at the cold optimum."""
    sc = default_scenario()
    cold = optimize(sc)
    warm = optimize(sc, initial=monopulse_candidate(sc, 0.5))
    assert rank_profile(monopulse_candidate(sc, 0.5)) == (1, 1)
    assert warm.converged
    assert warm.rank_profile == (2, 2)
    assert warm.speb == pytest.approx(cold.speb, rel=2 * OptOptions().gap_tol)


def test_drains_steering_power_placed_on_inner_subcarriers():
    sc = default_scenario(n_subcarriers=4)
    res = optimize(sc, initial=BeamCovariance.uniform(sc))
    assert res.converged
    om = np.asarray(sc.subcarrier_offsets)
    inner = np.abs(om) < np.abs(om).max() * (1 - 1e-9)
    assert res.beam.blocks[inner, 0, 0].real.max() <= 1e-10 * sc.power_budget
    assert res.speb == pytest.approx(optimize(sc).speb, rel=2 * OptOptions().gap_tol)


def test_single_transmit_element_scene():
    """block_dim 1: each block is one steering power, factored as l1^2. A
    wideband grid makes the optimal split lopsided, and a simplex search over
    the powers finds the same optimum."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    sc = default_scenario(
        n_tx=1, n_subcarriers=4, narrowband=False, spacing_hz=2.4e7, target=(6.0, 9.0)
    )
    assert sc.block_dim == 1
    res = optimize(sc)
    assert res.converged
    assert res.iterations > 0
    assert res.beam.blocks.shape == (4, 1, 1)
    assert res.beam.total_power() == pytest.approx(sc.power_budget, rel=1e-12)
    kernel = _Kernel.build(sc)
    budget = sc.power_budget

    def speb_of(weights):
        w = np.abs(weights)
        return kernel.speb((budget * w / w.sum()).reshape(-1, 1, 1).astype(complex))

    best = min(
        scipy_opt.minimize(
            speb_of, start, method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 20000},
        ).fun
        for start in 0.5 * np.eye(4) + 0.125
    )
    assert res.speb <= best * (1 + 1e-12)
    assert res.speb >= best * (1 - 2 * OptOptions().gap_tol)


def test_warm_start_at_its_optimum_evaluates_the_objective_twice(monkeypatch):
    """One evaluation probes the uniform beam for feasibility and one scores
    the start, which also decides the fallback to the uniform start."""
    sc = default_scenario()
    optimum = optimize(sc).beam
    calls = collections.Counter()
    original = _Kernel._speb_from_aggregates

    def counted(self, z):
        calls["speb"] += 1
        return original(self, z)

    monkeypatch.setattr(_Kernel, "_speb_from_aggregates", counted)
    res = optimize(sc, initial=optimum)
    assert res.iterations == 0 and res.exit_reason == "gap"
    assert calls["speb"] == 2


def test_zero_power_start_falls_back_to_uniform():
    """An initial beam with no power has no factor to scale onto the budget
    sphere; optimize starts from the uniform beam instead, without warnings."""
    sc = default_scenario(n_subcarriers=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = optimize(sc, initial=BeamCovariance.zero(sc))
    assert res.speb_trace[0] == _Kernel.build(sc).speb(BeamCovariance.uniform(sc).blocks)
    assert res.converged
    assert res.speb == pytest.approx(optimize(sc).speb, rel=2 * OptOptions().gap_tol)


# -----------------------------------------------------------------------------
# the reduced start: the exact optimum of a narrowband scene in two variables


# Columns across the terminals, rows through the rank-one region near the
# baseline, and y = 0 beyond the terminals, where A_c has zero trace and the
# quadratic for u loses its leading coefficient.
ORACLE_XS = np.linspace(-30.0, 30.0, 11)
ORACLE_YS = (-6.0, -2.0, 0.0, 4.0, 16.0)


@pytest.mark.parametrize("overrides", [{}, {"n_subcarriers": 3}, {"n_tx": 4, "n_rx": 8}])
def test_reduced_start_is_the_solver_optimum(overrides):
    """On a coarse narrowband grid, a solve from the equal split certifies
    reduced <= solver <= reduced (1 + gap) up to rounding, and the two agree
    on which cells are rank one."""
    base = default_scenario(**overrides)
    rank_one = []
    for x in ORACLE_XS:
        for y in ORACLE_YS:
            sc = relocate(base, (x, y))
            try:
                res = optimize(sc, initial=BeamCovariance(blocks=_outer_equal_split(sc)))
            except InfeasibleScenario:  # the baseline strip
                continue
            assert res.converged
            kernel = _Kernel.build(sc)
            reduced = BeamCovariance(blocks=_reduced_start(kernel, sc))
            fisher.check_beam_covariance(reduced, sc)
            f = kernel.speb(reduced.blocks)
            gap = max(res.optimality_gap_rel, 0.0)
            assert f <= res.speb * (1 + 1e-14), (x, y)
            assert res.speb <= f * (1 + gap + 1e-14), (x, y)
            rank_one.append(max(rank_profile(reduced)) == 1)
            assert rank_one[-1] == (max(res.rank_profile) == 1), (x, y)
    assert len(rank_one) >= 50
    assert 0 < sum(rank_one) < len(rank_one)


def test_default_solve_of_a_narrowband_scene_takes_no_step(rng):
    """Started at its reduced optimum, every narrowband solve with an outer
    subcarrier pair ends on the gap certificate before its first step."""
    checked = 0
    while checked < 40:
        sc = random_scenario(rng, p_choices=(2, 3, 4, 5))
        sc = dataclasses.replace(sc, narrowband=True)
        assert _has_reduced_start(sc)
        try:
            res = optimize(sc)
        except InfeasibleScenario:
            continue
        assert (res.exit_reason, res.iterations) == ("gap", 0)
        checked += 1


def test_reduced_start_scope():
    """Wideband scenes, asymmetric grids and single subcarriers keep the
    equal split; a single transmit element puts all power on steering."""
    assert _has_reduced_start(default_scenario())
    assert not _has_reduced_start(default_scenario(narrowband=False))
    assert not _has_reduced_start(default_scenario(n_subcarriers=1))
    asymmetric = dataclasses.replace(default_scenario(), symmetric_subcarriers=False)
    assert not _has_reduced_start(asymmetric)
    sc = default_scenario(n_tx=1, n_subcarriers=3)
    blocks = _reduced_start(_Kernel.build(sc), sc)
    assert np.array_equal(blocks, _outer_equal_split(sc))
    wide = default_scenario(narrowband=False, n_subcarriers=5)
    offsets = np.abs(np.asarray(wide.subcarrier_offsets))
    outer = offsets == offsets.max()
    expected = np.zeros((wide.n_subcarriers, 2, 2), dtype=complex)
    expected[outer] = wide.power_budget / (2 * outer.sum()) * np.eye(2)
    assert outer.sum() == 2 and wide.n_subcarriers > 2
    assert np.array_equal(_outer_equal_split(wide), expected)


def test_disk_solve_beats_a_dense_search(rng):
    """Against a dense search over the disk, for position information of the
    shape the scenes give: A_a from delay and arrival, A_b rank one from
    departure, A_c their delay/departure coupling. Includes A_c = 0 and a
    trace-free A_c (orthogonal delay and departure columns)."""
    alpha = np.linspace(0.0, 1.0, 501)[1:-1, None]
    u = np.sqrt(alpha * (1 - alpha)) * np.linspace(-1.0, 1.0, 501)
    for case in range(12):
        K = rng.normal(size=(2, 3))
        if case == 1:
            K[:, 1] = np.array([-K[1, 0], K[0, 0]]) * rng.uniform(0.5, 2.0)
        J = np.zeros((3, 3, 3))
        J[0, 0, 0], J[0, 2, 2] = rng.uniform(0.2, 5.0, 2)
        J[1, 1, 1] = rng.uniform(0.2, 5.0)
        J[2, 0, 1] = J[2, 1, 0] = 0.0 if case == 0 else rng.uniform(-3.0, 3.0)
        A = K @ J @ K.T
        a_opt, u_opt = _disk_solve(A)
        assert 0.0 < a_opt <= 1.0 and u_opt**2 <= a_opt * (1 - a_opt) * (1 + 1e-12)
        if case == 0:
            assert u_opt == 0.0

        def f(a, v):
            M = a[..., None, None] * A[0] + (1 - a)[..., None, None] * A[1]
            M = M + v[..., None, None] * A[2]
            det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] ** 2
            return np.where(det > 0, (M[..., 0, 0] + M[..., 1, 1]) / det, np.inf)

        best = f(np.broadcast_to(alpha, u.shape), u).min()
        assert f(np.array(a_opt), np.array(u_opt)) <= best * (1 + 1e-12)
