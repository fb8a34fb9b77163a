"""Self-diagnostic suite: independent cross-checks of the numeric core.

Each check recomputes a quantity through a second route (closed-form entries
vs raw observation derivatives, analytic gradient vs finite differences, ...)
and reports pass/fail with the measured residual. A failure means an install
problem or a configuration for which the solver's assumptions do not hold.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .beamform_opt import OptResult, optimize
from .config import RunConfig, ScenarioConfig, build_options, build_scenario, default_config
from .errors import BisenseError
from .fisher import (
    BeamCovariance,
    Scenario,
    _Kernel,
    fim_entrywise,
    fim_from_derivatives,
    fim_xform,
    full_fim_speb,
    precoder,
    subcarrier_offsets_rad,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def format_results(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}" for r in results
    ]
    return "\n".join(lines)


# -----------------------------------------------------------------------------
# randomized inputs


def _random_scenario(rng: np.random.Generator, min_subcarriers: int = 1) -> Scenario:
    counts = [p for p in (1, 2, 4, 5) if p >= min_subcarriers]
    base = ScenarioConfig(
        subcarrier_count=int(rng.choice(counts)),
        n_tx=int(rng.choice([2, 8, 15])),
        n_rx=int(rng.choice([3, 15])),
        gain_phase_rad=float(rng.uniform(0.0, 2.0 * np.pi)),
    )
    target = (
        float(rng.uniform(-25.0, 25.0)),
        float(rng.choice([-1.0, 1.0]) * rng.uniform(3.0, 25.0)),
    )
    return build_scenario(RunConfig(scenario=base), target=target)


def _random_blocks(
    rng: np.random.Generator,
    scenario: Scenario,
    fraction: float = 0.7,
    eig_floor_fraction: float = 0.0,
) -> BeamCovariance:
    p, m = scenario.n_subcarriers, scenario.block_dim
    raw = rng.normal(size=(p, m, m)) + 1j * rng.normal(size=(p, m, m))
    blocks = raw @ raw.conj().transpose(0, 2, 1)
    if eig_floor_fraction > 0.0:
        blocks += eig_floor_fraction * scenario.power_budget / (p * m) * np.eye(m)
    total = float(np.trace(blocks, axis1=1, axis2=2).real.sum())
    blocks *= fraction * scenario.power_budget / total
    return BeamCovariance(blocks=blocks)


# -----------------------------------------------------------------------------
# checks


def check_fim_cross_routes(rng: np.random.Generator, trials: int = 8) -> CheckResult:
    """The closed form (fim_xform, fim_entrywise) must agree with the
    derivative oracle (fim_from_derivatives) to near machine precision."""
    worst = 0.0
    for _ in range(trials):
        scenario = _random_scenario(rng)
        bc = _random_blocks(rng, scenario)
        pilots = []
        for p in range(scenario.n_subcarriers):
            lam, vec = np.linalg.eigh(bc.blocks[p])
            pilots.append(precoder(scenario, p) @ (vec * np.sqrt(np.clip(lam, 0.0, None))))
        j_x = fim_xform(scenario, bc)
        j_d = fim_from_derivatives(scenario, pilots)
        scale = max(float(np.abs(j_x).max()), 1e-300)
        worst = max(worst, float(np.abs(j_x - j_d).max()) / scale)
        bundle = fim_entrywise(scenario, bc)
        s_deriv = full_fim_speb(j_d, bundle.jacobian)
        if np.isfinite(bundle.speb) and np.isfinite(s_deriv):
            worst = max(worst, abs(bundle.speb - s_deriv) / max(bundle.speb, 1e-300))
    passed = worst < 1e-8
    return CheckResult(
        "fim-cross-routes", passed, f"max relative disagreement {worst:.3e} (limit 1e-08)"
    )


def check_gradient_finite_difference(rng: np.random.Generator, trials: int = 4) -> CheckResult:
    """Analytic objective gradient vs central differences of the closed form.

    One kernel per drawn scene supplies the conditioning screen, the
    gradient and both SPEB probes."""
    worst = 0.0
    done = 0
    attempts = 0
    while done < trials and attempts < 20 * trials:
        attempts += 1
        scenario = _random_scenario(rng, min_subcarriers=2)
        bc = _random_blocks(rng, scenario, fraction=0.6, eig_floor_fraction=0.05)
        kernel = _Kernel.build(scenario)
        eigs = np.linalg.eigvalsh(kernel.position_fim(bc.blocks))
        if not eigs[0] > 0.0 or eigs[-1] / eigs[0] > 1e8:
            continue
        grad = kernel.gradient(bc.blocks)
        p, m = scenario.n_subcarriers, scenario.block_dim
        raw = rng.normal(size=(p, m, m)) + 1j * rng.normal(size=(p, m, m))
        direction = raw + raw.conj().transpose(0, 2, 1)
        direction /= np.linalg.norm(direction)
        h = 1e-6 * scenario.power_budget
        f_plus = kernel.speb(bc.blocks + h * direction)
        f_minus = kernel.speb(bc.blocks - h * direction)
        fd = (f_plus - f_minus) / (2.0 * h)
        pred = float(np.vdot(grad, direction).real)
        worst = max(worst, abs(fd - pred) / max(abs(fd), abs(pred), 1e-300))
        done += 1
    passed = done == trials and worst < 1e-5
    return CheckResult(
        "gradient-vs-fd",
        passed,
        f"{done}/{trials} points, max relative error {worst:.3e} (limit 1e-05)",
    )


def check_objective_convexity(rng: np.random.Generator, trials: int = 12) -> CheckResult:
    """Jensen inequality along random feasible segments, all five SPEBs of a
    segment from one kernel."""
    worst = -np.inf
    done = 0
    attempts = 0
    while done < trials and attempts < 20 * trials:
        attempts += 1
        scenario = _random_scenario(rng)
        b0 = _random_blocks(rng, scenario, fraction=float(rng.uniform(0.3, 1.0)))
        b1 = _random_blocks(rng, scenario, fraction=float(rng.uniform(0.3, 1.0)))
        kernel = _Kernel.build(scenario)
        f0 = kernel.speb(b0.blocks)
        f1 = kernel.speb(b1.blocks)
        if not (np.isfinite(f0) and np.isfinite(f1)):
            continue
        for lam in (0.25, 0.5, 0.75):
            f_mix = kernel.speb(lam * b0.blocks + (1.0 - lam) * b1.blocks)
            chord = lam * f0 + (1.0 - lam) * f1
            if not np.isfinite(f_mix):
                worst = np.inf  # singular between finite endpoints breaks convexity
            else:
                worst = max(worst, (f_mix - chord) / max(abs(chord), 1e-300))
        done += 1
    passed = done == trials and worst <= 1e-9
    return CheckResult(
        "objective-convexity",
        passed,
        f"{done}/{trials} segments, worst Jensen violation {worst:.3e} (limit 1e-09)",
    )


Solved = tuple[Scenario, OptResult] | BisenseError


def solve_configured(config: RunConfig) -> Solved:
    """The configured scenario and its optimum, or the error that stopped
    the solve; shared by the checks that inspect the optimum."""
    try:
        scenario = build_scenario(config)
        return scenario, optimize(scenario, build_options(config))
    except BisenseError as exc:
        return exc


def check_optimal_structure(solved: Solved) -> CheckResult:
    """Test the expected shape of the configured optimum: full budget spent,
    and for a symmetric grid a mirror-symmetric steering profile with a
    purely imaginary steering/derivative cross term."""
    if isinstance(solved, BisenseError):
        return CheckResult("optimal-structure", False, f"solve failed: {solved}")
    scenario, res = solved
    budget = scenario.power_budget
    blocks = res.beam.blocks
    trace_err = abs(res.beam.total_power() - budget) / budget
    problems = []
    if not res.converged:
        problems.append(f"not converged (kkt {res.kkt_residual:.2e})")
    if trace_err > 1e-8:
        problems.append(f"budget not exhausted (relative slack {trace_err:.2e})")
    detail = f"trace error {trace_err:.2e}"
    if scenario.block_dim == 2:
        re_cross = float(np.abs(blocks[:, 1, 0].real).max()) / budget
        detail += f", max |Re cross|/budget {re_cross:.2e}"
        if re_cross > 1e-6:
            problems.append("cross term not purely imaginary")
    if scenario.symmetric_subcarriers and scenario.n_subcarriers >= 2:
        order = np.argsort(scenario.subcarrier_offsets)
        b11 = blocks[order, 0, 0].real
        mirror_err = float(np.abs(b11 - b11[::-1]).max()) / budget
        detail += f", steering-power mirror asymmetry {mirror_err:.2e}"
        if mirror_err > 1e-5:
            problems.append("steering power not mirror-symmetric across subcarriers")
    if problems:
        return CheckResult("optimal-structure", False, "; ".join(problems))
    return CheckResult("optimal-structure", True, detail)


def check_known_gain_bound(solved: Solved) -> CheckResult:
    """Knowing the channel gain can only help; at a symmetric optimum the
    delay/gain coupling cancels and the two bounds coincide."""
    if isinstance(solved, BisenseError):
        return CheckResult("known-gain-bound", False, f"solve failed: {solved}")
    scenario, res = solved
    bundle = fim_entrywise(scenario, res.beam)
    s, skg = bundle.speb, bundle.speb_known_gain
    if not (np.isfinite(s) and np.isfinite(skg)):
        return CheckResult("known-gain-bound", False, "singular information matrix at optimum")
    if skg > s * (1.0 + 1e-12):
        return CheckResult(
            "known-gain-bound", False, f"known-gain bound larger: {skg:.6e} > {s:.6e}"
        )
    omegas = np.asarray(scenario.subcarrier_offsets)
    b11 = res.beam.blocks[:, 0, 0].real
    coupling = abs(float(omegas @ b11))
    decoupled = coupling <= 1e-9 * float(np.abs(omegas).max(initial=0.0)) * float(b11.sum())
    rel_gap = (s - skg) / s
    if decoupled and rel_gap > 1e-9:
        return CheckResult(
            "known-gain-bound",
            False,
            f"bounds should coincide at the symmetric optimum, relative gap {rel_gap:.3e}",
        )
    return CheckResult("known-gain-bound", True, f"relative gap {rel_gap:.3e}")


def check_subcarrier_symmetry(config: RunConfig) -> CheckResult:
    """The generated offset grid must be symmetric about the carrier."""
    sc = config.scenario
    try:
        offs = np.asarray(subcarrier_offsets_rad(sc.subcarrier_count, sc.subcarrier_spacing_hz))
    except ValueError as exc:
        return CheckResult("subcarrier-symmetry", False, str(exc))
    scale = max(float(np.abs(offs).max()), 1.0)
    err = float(np.abs(np.sort(offs) + np.sort(-offs)[::-1]).max()) / scale
    passed = err <= 1e-12
    return CheckResult(
        "subcarrier-symmetry",
        passed,
        f"{len(offs)} offsets, mirror residual {err:.3e}",
    )


def check_narrowband_consistency(config: RunConfig) -> CheckResult:
    """The carrier-only steering approximation must be a small perturbation
    at the configured subcarrier spread; otherwise narrowband=true is lying."""
    if not config.scenario.narrowband:
        return CheckResult(
            "narrowband-consistency", True, "wideband evaluation configured; nothing to check"
        )
    try:
        scenario = build_scenario(config)
    except BisenseError as exc:
        return CheckResult("narrowband-consistency", False, f"scenario invalid: {exc}")
    bc = BeamCovariance.uniform(scenario)
    s_nb = fim_entrywise(scenario, bc).speb
    wide = dataclasses.replace(scenario, narrowband=False)
    s_wb = fim_entrywise(wide, bc).speb
    if not (np.isfinite(s_nb) and np.isfinite(s_wb)):
        return CheckResult(
            "narrowband-consistency", True, "singular at uniform beam; comparison skipped"
        )
    rel = abs(s_nb - s_wb) / s_wb
    passed = rel < 5e-2
    return CheckResult(
        "narrowband-consistency",
        passed,
        f"relative bound shift {rel:.3e} (limit 5e-02)",
    )


def run_validation(config: RunConfig | None = None, seed: int = 20260819) -> list[CheckResult]:
    if config is None:
        config = default_config()
    rng = np.random.default_rng(seed)
    solved = solve_configured(config)
    return [
        check_fim_cross_routes(rng),
        check_gradient_finite_difference(rng),
        check_objective_convexity(rng),
        check_optimal_structure(solved),
        check_known_gain_bound(solved),
        check_subcarrier_symmetry(config),
        check_narrowband_consistency(config),
    ]
