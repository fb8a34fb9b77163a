"""Transmit beam optimization: minimize the position error bound over
per-subcarrier 2x2 beam covariances under a total power budget.

The feasible set is a product of PSD cones (one block per subcarrier)
intersected with a trace ball; the objective tr((K J_e K^T)^{-1}) is convex
in the blocks and sees them only through eight linear aggregates, in which
the effective 3x3 information is explicit and the position information is a
closed-form 2x2. The solver never rebuilds steering vectors or the 5x5
information matrix.

It is an active-set method with two kinds of step. A Newton step works on
the blocks that carry power, each stored as a factor B_p = L_p L_p^H with
L_p lower triangular and a real diagonal, on the sphere sum_p ||L_p||^2 =
budget. A Frank-Wolfe step adds what the Newton step cannot reach (a new
block, or a second rank on a rank-one block): the linear minimizer over the
feasible set is the whole budget on the bottom eigenvector of one gradient
block, mixed in by a line search along the chord.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleScenario, InvalidAlpha, SingularEFIM
from .fisher import (
    BeamCovariance,
    Scenario,
    _manifolds,
    _trace_inverse_2x2,
    check_beam_covariance,
)
from .geometry import derive_geometry


@dataclass(frozen=True)
class OptOptions:
    """Solver settings.

    max_iters caps the accepted steps, Newton and Frank-Wolfe together.
    Convergence is declared on either of two certificates: grad_tol bounds
    the relative stationarity residual ||B - proj(B - s G)|| / (s ||G||) at
    probe step s = budget / ||G||, and gap_tol bounds (f - f_min) / f through
    the Frank-Wolfe duality gap <G, B> - budget * min(0, lambda_min(G)),
    valid because the objective is convex over the feasible set. rank_tol is
    the relative eigenvalue cutoff for rank reporting.
    """

    max_iters: int = 5000
    grad_tol: float = 1e-7
    gap_tol: float = 1e-8
    rank_tol: float = 1e-4


EXIT_REASONS = ("gap", "kkt", "max_iters", "stalled")


@dataclass(eq=False)
class OptResult:
    """Optimizer output.

    speb_trace holds the objective at the initial point (scaled to the full
    budget) and after every accepted step; it is non-increasing by
    construction. kkt_residual is the final relative projected-gradient norm
    (see OptOptions.grad_tol) and optimality_gap_rel the final Frank-Wolfe
    gap, an upper bound on (f - f_min) / f. power_share_toward_target is
    sum_p b_{p,11} / budget, the fraction of the budget spent on the steering
    (as opposed to derivative) direction. exit_reason is one of EXIT_REASONS:
    the certificate that held ("gap" is checked first, then "kkt"), the step
    cap, or "stalled" when neither kind of step lowers the objective while no
    certificate holds; the last two mean converged is False.
    """

    beam: BeamCovariance
    speb: float
    peb: float
    speb_trace: np.ndarray
    iterations: int
    converged: bool
    kkt_residual: float
    optimality_gap_rel: float
    grad_norm: float
    rank_profile: tuple[int, ...]
    power_share_toward_target: float
    exit_reason: str


# -----------------------------------------------------------------------------
# fast objective/gradient kernel


def _trace_inverse_guarded(A: np.ndarray) -> float:
    """tr(A^{-1}) of a symmetric 2x2; +inf when A fails the condition guard."""
    value, singular = _trace_inverse_2x2(A)
    return float("inf") if singular else value


@dataclass(eq=False)
class _Kernel:
    """Scenario constants folded for repeated objective/gradient evaluation."""

    omegas: np.ndarray  # (P,)
    nda_t: np.ndarray  # (P,) transmit derivative norms
    nda_r: np.ndarray  # (P,) receive derivative norms
    c1: float  # kappa |g|^2 n_rx n_tx
    c2: float  # kappa |g|^2 n_rx sqrt(n_tx)
    c3: float  # kappa |g|^2 n_rx
    c4: float  # kappa |g|^2 n_tx
    jac: np.ndarray  # (2,3) position Jacobian
    budget: float
    block_dim: int

    @staticmethod
    def build(scenario: Scenario) -> "_Kernel":
        geom = derive_geometry(scenario.p_t, scenario.p_r, scenario.p_s)
        tx, rx = _manifolds(scenario, geom)
        kappa = 2.0 / scenario.noise_power
        mag2 = abs(scenario.gain) ** 2
        return _Kernel(
            omegas=np.array(scenario.subcarrier_offsets, dtype=float),
            nda_t=np.array([sp.norm_a_dot for sp in tx]),
            nda_r=np.array([sp.norm_a_dot for sp in rx]),
            c1=kappa * mag2 * scenario.n_rx * scenario.n_tx,
            c2=kappa * mag2 * scenario.n_rx * np.sqrt(scenario.n_tx),
            c3=kappa * mag2 * scenario.n_rx,
            c4=kappa * mag2 * scenario.n_tx,
            jac=geom.jacobian,
            budget=scenario.power_budget,
            block_dim=scenario.block_dim,
        )

    def _aggregates(self, blocks: np.ndarray):
        b11 = blocks[:, 0, 0].real
        if self.block_dim == 2:
            b22 = blocks[:, 1, 1].real
            b21 = blocks[:, 1, 0]
        else:
            b22 = np.zeros_like(b11)
            b21 = np.zeros_like(b11, dtype=complex)
        return (
            float(b11.sum()),  # s0
            float((self.omegas * b11).sum()),  # s1
            float((self.omegas**2 * b11).sum()),  # s2
            float((self.nda_r**2 * b11).sum()),  # s3
            float((self.nda_t**2 * b22).sum()),  # t0
            float((self.nda_t * b21.real).sum()),  # d_re
            float((self.nda_t * b21.imag).sum()),  # d_im
            float((self.omegas * self.nda_t * b21.imag).sum()),  # cw
        )

    def _efim(self, s0, s1, s2, s3, t0, d_re, d_im, cw) -> np.ndarray:
        E = np.zeros((3, 3))
        if s0 > 0.0:
            E[0, 0] = self.c1 * (s2 - s1 * s1 / s0)
            E[0, 1] = E[1, 0] = self.c2 * (s1 * d_im / s0 - cw)
            E[1, 1] = self.c3 * (t0 - (d_re * d_re + d_im * d_im) / s0)
        E[2, 2] = self.c4 * s3
        return E

    def position_fim(self, blocks: np.ndarray) -> np.ndarray:
        E = self._efim(*self._aggregates(blocks))
        return self.jac @ E @ self.jac.T

    def speb(self, blocks: np.ndarray) -> float:
        """Objective value; +inf when the position information fails the
        condition guard (treated as out of domain by the line search)."""
        return _trace_inverse_guarded(self.position_fim(blocks))

    def _speb_from_aggregates(self, z: np.ndarray) -> float:
        return _trace_inverse_guarded(self.jac @ self._efim(*z) @ self.jac.T)

    def _aggregate_gradient(self, z: np.ndarray) -> np.ndarray:
        """Partial derivatives of the objective in the aggregates.

        z has shape (..., 8) in the order of _aggregates; the result has the
        same shape. Every operation is analytic, so complex z gives exact
        second derivatives by complex-step differentiation. No domain checks.
        """
        s0, s1, s2, s3, t0, d_re, d_im, cw = np.moveaxis(np.asarray(z), -1, 0)
        E = np.zeros(np.shape(s0) + (3, 3), dtype=np.result_type(s0, float))
        E[..., 0, 0] = self.c1 * (s2 - s1 * s1 / s0)
        E[..., 0, 1] = E[..., 1, 0] = self.c2 * (s1 * d_im / s0 - cw)
        E[..., 1, 1] = self.c3 * (t0 - (d_re * d_re + d_im * d_im) / s0)
        E[..., 2, 2] = self.c4 * s3
        A = self.jac @ E @ self.jac.T
        a, b, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 1]
        inv = np.stack([np.stack([d, -b], -1), np.stack([-b, a], -1)], -2)
        inv /= (a * d - b * b)[..., None, None]
        p3 = self.jac.T @ (inv @ inv) @ self.jac  # 3x3 sensitivity carrier

        g_e11 = -p3[..., 0, 0]
        g_e12 = -2.0 * p3[..., 0, 1]
        g_e22 = -p3[..., 1, 1]
        g_e33 = -p3[..., 2, 2]

        g_s0 = (
            g_e11 * self.c1 * s1 * s1 / s0**2
            - g_e12 * self.c2 * s1 * d_im / s0**2
            + g_e22 * self.c3 * (d_re * d_re + d_im * d_im) / s0**2
        )
        g_s1 = -2.0 * g_e11 * self.c1 * s1 / s0 + g_e12 * self.c2 * d_im / s0
        g_s2 = g_e11 * self.c1
        g_s3 = g_e33 * self.c4
        g_t0 = g_e22 * self.c3
        g_dre = -2.0 * g_e22 * self.c3 * d_re / s0
        g_dim = g_e12 * self.c2 * s1 / s0 - 2.0 * g_e22 * self.c3 * d_im / s0
        g_cw = -g_e12 * self.c2
        return np.stack([g_s0, g_s1, g_s2, g_s3, g_t0, g_dre, g_dim, g_cw], axis=-1)

    def _aggregate_hessian(self, z: np.ndarray, scale: np.ndarray):
        """(gradient, 8x8 Hessian) in the aggregates at real z.

        The Hessian comes column by column from complex steps i h_k e_k with
        h_k = 1e-20 scale_k; no difference is taken, so it is exact to
        rounding.
        """
        h = 1e-20 * scale
        probe = np.tile(np.asarray(z, dtype=complex), (9, 1))
        probe[1:] += 1j * np.diag(h)
        out = self._aggregate_gradient(probe)
        hess = (out[1:].imag / h[:, None]).T
        return out[0].real, 0.5 * (hess + hess.T)

    def _coefficients(self) -> np.ndarray:
        """(P, 8, k) coefficients of the aggregates in each block's real
        coordinates (b11, b22, Re b21, Im b21); k = 1 (b11 only) when
        block_dim is 1."""
        p_count = len(self.omegas)
        coef = np.zeros((p_count, 8, 4 if self.block_dim == 2 else 1))
        coef[:, 0, 0] = 1.0
        coef[:, 1, 0] = self.omegas
        coef[:, 2, 0] = self.omegas**2
        coef[:, 3, 0] = self.nda_r**2
        if self.block_dim == 2:
            coef[:, 4, 1] = self.nda_t**2
            coef[:, 5, 2] = self.nda_t
            coef[:, 6, 3] = self.nda_t
            coef[:, 7, 3] = self.omegas * self.nda_t
        return coef

    def gradient(self, blocks: np.ndarray) -> np.ndarray:
        """Hermitian per-block gradients G_p of the objective.

        Convention: d/dt speb(B + t Delta) at t=0 equals
        sum_p Re tr(G_p^H Delta_p).
        """
        z = self._aggregates(blocks)
        if z[0] <= 0.0:
            raise SingularEFIM("gradient undefined without steering-direction power")
        A = self.jac @ self._efim(*z) @ self.jac.T
        det = A[0, 0] * A[1, 1] - A[0, 1] ** 2
        if det <= 0.0 or not np.isfinite(det):
            raise SingularEFIM("gradient undefined at a singular point")
        g_s0, g_s1, g_s2, g_s3, g_t0, g_dre, g_dim, g_cw = self._aggregate_gradient(z)

        p_count = len(self.omegas)
        g_b11 = g_s0 + g_s1 * self.omegas + g_s2 * self.omegas**2 + g_s3 * self.nda_r**2
        grads = np.zeros((p_count, self.block_dim, self.block_dim), dtype=complex)
        grads[:, 0, 0] = g_b11
        if self.block_dim == 2:
            grads[:, 1, 1] = g_t0 * self.nda_t**2
            cross = 0.5 * (g_dre + 1j * (g_dim + g_cw * self.omegas)) * self.nda_t
            grads[:, 1, 0] = cross
            grads[:, 0, 1] = np.conj(cross)
        return grads


# -----------------------------------------------------------------------------
# projection onto {blocks PSD, total trace <= budget}


def _shift_to_budget(lam: np.ndarray, budget: float, floor: float) -> np.ndarray:
    """Project eigenvalues onto {x >= floor, sum x = budget} by uniform shift.

    Assumes sum(max(lam, floor)) > budget so the trace constraint is active.
    """
    flat = np.sort(lam.ravel())[::-1]
    n = flat.size
    ks = np.arange(1, n + 1)
    mus = (np.cumsum(flat) + (n - ks) * floor - budget) / ks
    above = np.flatnonzero(flat - mus > floor)
    if above.size == 0:
        # budget barely covers the floors: spread it evenly
        return np.full_like(lam, budget / n)
    mu = mus[above.max()]
    return np.maximum(lam - mu, floor)


def project_feasible(
    blocks, power_budget: float, eig_floor: float = 0.0
) -> BeamCovariance:
    """Nearest (Frobenius) feasible beam covariance to the given blocks.

    Eigendecomposes each block, clamps eigenvalues at eig_floor, and if the
    total trace still exceeds the budget applies one joint uniform-shift
    projection across all eigenvalues with re-clamping. Eigenvectors are
    untouched, which is what makes this the exact Euclidean projection.
    """
    raw = blocks.blocks if isinstance(blocks, BeamCovariance) else np.asarray(blocks, complex)
    if raw.ndim == 2:
        raw = raw[None, :, :]
    herm = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
    lam, vecs = np.linalg.eigh(herm)
    clamped = np.maximum(lam, eig_floor)
    if clamped.sum() > power_budget:
        clamped = _shift_to_budget(lam, power_budget, eig_floor)
    rebuilt = (vecs * clamped[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    rebuilt = 0.5 * (rebuilt + rebuilt.conj().transpose(0, 2, 1))
    return BeamCovariance(blocks=rebuilt)


# -----------------------------------------------------------------------------
# public operations


def speb_gradient(scenario: Scenario, bc: BeamCovariance) -> np.ndarray:
    """Per-block Hermitian gradient of the SPEB at feasible blocks.

    Raises SingularEFIM where the objective itself is undefined.
    """
    check_beam_covariance(bc, scenario)
    kernel = _Kernel.build(scenario)
    if not np.isfinite(kernel.speb(bc.blocks)):
        raise SingularEFIM("SPEB is singular at the requested blocks")
    return kernel.gradient(bc.blocks)


def _outer_equal_split(scenario: Scenario) -> np.ndarray:
    """Default start: budget split evenly over the outermost subcarrier pair
    and both beam directions (full-rank blocks there, zero elsewhere)."""
    omegas = np.abs(np.asarray(scenario.subcarrier_offsets))
    outer = omegas >= omegas.max() - 1e-12 * max(omegas.max(), 1.0)
    m = scenario.block_dim
    blocks = np.zeros((scenario.n_subcarriers, m, m), dtype=complex)
    per_entry = scenario.power_budget / (outer.sum() * m)
    for p in np.flatnonzero(outer):
        blocks[p] = np.eye(m) * per_entry
    return blocks


# -----------------------------------------------------------------------------
# active-set solver on factored blocks

ARMIJO_DECREASE = 1e-4
MIN_NEWTON_STEP = 2.0**-30  # backtracking floor on the Newton step length
EIG_RCOND = 1e-10  # Hessian eigenvalues below this share of the largest are not stepped along
NEWTON_FLOOR = 1e-20  # predicted relative decrease below which the Newton step is spent
NEWTON_VS_GAP = 1e-3  # below this times min(gap, 1)^2 the Frank-Wolfe step is priced too
MAX_FLAT_STEPS = 3  # Newton steps in a row that leave the objective unchanged
ATOM_TIE_REL = 1e-9  # gradient blocks this close to the lowest eigenvalue share the atom


def _factor(blocks: np.ndarray) -> np.ndarray:
    """Factors y of PSD blocks, B = L L^H with L = [[l1, 0], [l3 + j l4, l2]]
    and y = (l1, l2, l3, l4); a 1x1 block gives y = (l1,). Rank one and rank
    two are both covered, and l1, l2 >= 0 leave no gauge freedom."""
    l1 = np.sqrt(np.maximum(blocks[:, 0, 0].real, 0.0))
    if blocks.shape[1] == 1:
        return l1[:, None]
    safe = np.where(l1 > 0.0, l1, 1.0)
    c = np.where(l1 > 0.0, blocks[:, 1, 0] / safe, 0.0)
    l2 = np.sqrt(np.maximum(blocks[:, 1, 1].real - np.abs(c) ** 2, 0.0))
    return np.stack([l1, l2, c.real, c.imag], axis=-1)


def _coordinate_jacobian(y: np.ndarray) -> np.ndarray:
    """(n, k, k) derivatives of each block's coordinates (b11, b22, Re b21,
    Im b21) = (l1^2, l2^2 + l3^2 + l4^2, l1 l3, l1 l4) in its factor."""
    n, k = y.shape
    jac = np.zeros((n, k, k))
    jac[:, 0, 0] = 2.0 * y[:, 0]
    if k == 4:
        l1, l2, l3, l4 = y.T
        jac[:, 1, 1:] = 2.0 * y[:, 1:]
        jac[:, 2, 0], jac[:, 2, 2] = l3, l1
        jac[:, 3, 0], jac[:, 3, 3] = l4, l1
    return jac


def _coordinate_curvature(gx: np.ndarray) -> np.ndarray:
    """(n, k, k) sum_j gx_j * Hessian of coordinate j in the factor; each
    coordinate is a fixed quadratic, so this depends on gx only."""
    n, k = gx.shape
    curv = np.zeros((n, k, k))
    curv[:, 0, 0] = 2.0 * gx[:, 0]
    if k == 4:
        for i in (1, 2, 3):
            curv[:, i, i] = 2.0 * gx[:, 1]
        curv[:, 0, 2] = curv[:, 2, 0] = gx[:, 2]
        curv[:, 0, 3] = curv[:, 3, 0] = gx[:, 3]
    return curv


def _oracle_atom(grads: np.ndarray, budget: float) -> tuple[np.ndarray, np.ndarray]:
    """(atom, blocks it uses): a minimizer of <G, S> over feasible S.

    The minimizer puts the whole budget on the bottom eigenvector of the
    gradient block with the lowest eigenvalue. Blocks that tie for it
    (mirror-image subcarriers do, exactly) share the budget equally, which is
    a minimizer too and keeps symmetric beams symmetric.
    """
    lam, vec = np.linalg.eigh(grads)
    low = lam[:, 0]
    tied = np.flatnonzero(low <= low.min() + ATOM_TIE_REL * abs(low.min()))
    v = vec[tied, :, 0]
    atom = np.zeros(grads.shape, dtype=complex)
    atom[tied] = (budget / tied.size) * (v[:, :, None] * v[:, None, :].conj())
    return atom, tied


class _FactoredBeam:
    """Active blocks as factors on the budget sphere, with the two steps.

    The blocks are a function of y alone: B_p = L_p L_p^H for p in active,
    zero elsewhere, and sum ||y||^2 = budget is the total power. On that
    sphere psi(y) = speb(B(y)) ||y||^2 / budget equals the objective and is
    invariant under scaling y, because the SPEB is homogeneous of degree -1
    in the blocks.
    """

    def __init__(self, kernel: _Kernel, blocks: np.ndarray):
        self.kernel = kernel
        self.budget = kernel.budget
        self.shape = blocks.shape
        self.coef = kernel._coefficients()
        scale = self.budget * np.abs(self.coef).max(axis=(0, 2))
        self.agg_scale = np.where(scale > 0.0, scale, 1.0)
        active = np.flatnonzero(np.trace(blocks, axis1=1, axis2=2).real > 0.0)
        self.active = active
        self.y, self.blocks, self.f = self._evaluate(active, _factor(blocks[active]))

    def _evaluate(self, active: np.ndarray, y: np.ndarray):
        """(y scaled onto the sphere, its blocks, their objective)."""
        y = y * (np.sqrt(self.budget) / np.linalg.norm(y))
        blocks = np.zeros(self.shape, dtype=complex)
        blocks[active, 0, 0] = y[:, 0] ** 2
        if self.shape[1] == 2:
            c = y[:, 2] + 1j * y[:, 3]
            blocks[active, 1, 0] = y[:, 0] * c
            blocks[active, 0, 1] = y[:, 0] * c.conj()
            blocks[active, 1, 1] = y[:, 1] ** 2 + y[:, 2] ** 2 + y[:, 3] ** 2
        return y, blocks, self.kernel.speb(blocks)

    def step(self, grads: np.ndarray, gap_rel: float, newton: bool) -> bool:
        """Take one step that lowers the objective (a Newton step may also
        leave it unchanged at rounding level); False when neither can.

        Newton comes first. Its predicted decrease shrinks quadratically near
        the optimum of the active blocks, but so does the gap near the global
        optimum; when the prediction is small next to gap^2, the Frank-Wolfe
        step is priced too and taken first if it promises more. That is how
        a new block or rank enters, and how a saddle of the factors (a
        rank-one block whose optimum has rank two) is left.
        """
        promise, direction = 0.0, None
        if newton:
            direction = self.newton_direction()
            promise = -0.5 * direction[1]
            if not promise > NEWTON_FLOOR * self.f:
                promise, direction = 0.0, None
        frank_wolfe = None
        if promise <= NEWTON_VS_GAP * min(gap_rel, 1.0) ** 2 * self.f:
            frank_wolfe = self.frank_wolfe_direction(grads)
        frank_wolfe_first = frank_wolfe is not None and frank_wolfe[3] > promise
        if frank_wolfe_first and self.frank_wolfe_step(*frank_wolfe[:3]):
            return True
        if direction is not None and self.newton_step(*direction):
            return True
        if frank_wolfe_first:
            return False
        return self.frank_wolfe_step(*(frank_wolfe or self.frank_wolfe_direction(grads))[:3])

    def newton_direction(self) -> tuple[np.ndarray, float]:
        """(step, slope): the Newton step for psi on the tangent space of the
        sphere, with |lambda|-modified Hessian eigenvalues, and the
        directional derivative along it; -slope / 2 is the decrease that the
        quadratic model predicts."""
        n, k = self.y.shape
        z = np.array(self.kernel._aggregates(self.blocks))
        g, hess_agg = self.kernel._aggregate_hessian(z, self.agg_scale)
        coef = self.coef[self.active]
        dx = _coordinate_jacobian(self.y)
        jz = np.einsum("nak,nkj->anj", coef, dx).reshape(8, n * k)
        gx = np.einsum("nak,a->nk", coef, g)
        grad = np.einsum("nkj,nk->nj", dx, gx).ravel()
        # Hessian of psi: J^T H_F J + sum_k g_k Hess(z_k) + (2 f / budget) I
        hess = jz.T @ hess_agg @ jz
        idx = np.arange(n)
        hess.reshape(n, k, n, k)[idx, :, idx, :] += _coordinate_curvature(gx)
        hess[np.diag_indices(n * k)] += 2.0 * self.f / self.budget

        y = self.y.ravel()
        u = y / np.linalg.norm(y)
        grad -= u * (u @ grad)
        hu = hess @ u
        hess += (u @ hu) * np.outer(u, u) - np.outer(u, hu) - np.outer(hu, u)
        lam, vec = np.linalg.eigh(hess)
        mag = np.abs(lam)
        keep = mag > EIG_RCOND * mag.max()
        step = -vec[:, keep] @ ((vec[:, keep].T @ grad) / mag[keep])
        step -= u * (u @ step)
        return step, float(grad @ step)

    def newton_step(self, step: np.ndarray, slope: float) -> bool:
        """Armijo backtracking along the step, each trial point scaled back
        onto the sphere; False when no step length lowers the objective."""
        y = self.y.ravel()
        t = 1.0
        while t >= MIN_NEWTON_STEP:
            trial = self._evaluate(self.active, (y + t * step).reshape(self.y.shape))
            if trial[2] <= self.f + ARMIJO_DECREASE * t * slope:
                self.y, self.blocks, self.f = trial
                return True
            t *= 0.5
        return False

    def frank_wolfe_direction(self, grads: np.ndarray):
        """(gamma, atom, tied, decrease): the oracle atom (see _oracle_atom),
        the best mixing weight along the chord towards it, and the decrease
        that weight gives before the blocks are re-factored."""
        atom, tied = _oracle_atom(grads, self.budget)
        z = np.array(self.kernel._aggregates(self.blocks))
        dz = np.array(self.kernel._aggregates(atom)) - z
        gamma, f_mixed = self._chord_search(z, dz)
        return gamma, atom, tied, self.kernel._speb_from_aggregates(z) - f_mixed

    def frank_wolfe_step(self, gamma: float, atom: np.ndarray, tied: np.ndarray) -> bool:
        """Mix the atom in with weight gamma and re-factor; False unless the
        objective drops."""
        if not gamma > 0.0:
            return False
        mixed = (1.0 - gamma) * self.blocks + gamma * atom
        carries = np.zeros(self.shape[0], dtype=bool)
        carries[self.active] = carries[tied] = True
        active = np.flatnonzero(carries)
        trial = self._evaluate(active, _factor(mixed[active]))
        if not trial[2] < self.f:
            return False
        self.active = active
        self.y, self.blocks, self.f = trial
        return True

    def _chord_search(self, z: np.ndarray, dz: np.ndarray) -> tuple[float, float]:
        """(minimizer, minimum) over [0, 1] of the convex phi(gamma) =
        speb(z + gamma dz), by safeguarded Newton on phi' with phi'' from a
        complex step."""
        kernel = self.kernel

        def slope_and_curvature(gamma):
            g = kernel._aggregate_gradient(z + gamma * dz + 1e-20j * dz)
            return float(g.real @ dz), float(g.imag @ dz) / 1e-20

        slope0, curv = slope_and_curvature(0.0)
        lo, hi = 0.0, 1.0
        gamma = min(1.0, -slope0 / curv) if curv > 0.0 else 1.0
        best, best_f = 0.0, kernel._speb_from_aggregates(z)
        for _ in range(60):
            f = kernel._speb_from_aggregates(z + gamma * dz)
            if not np.isfinite(f):
                hi = gamma
                gamma = 0.5 * (lo + hi)
                continue
            if f < best_f:
                best, best_f = gamma, f
            slope, curv = slope_and_curvature(gamma)
            if slope <= 0.0:
                lo = gamma
            else:
                hi = gamma
            if lo == 1.0 or abs(slope) <= 1e-10 * abs(slope0) or hi - lo <= 1e-12 * hi:
                break
            nxt = gamma - slope / curv if curv > 0.0 else -1.0
            gamma = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        return best, best_f


def optimize(
    scenario: Scenario,
    options: OptOptions | None = None,
    initial: BeamCovariance | None = None,
) -> OptResult:
    """Minimize the SPEB over feasible beam covariances.

    Each iteration first checks the two certificates. If neither holds it
    takes one step (see _FactoredBeam.step): a Newton step on the active
    factored blocks, or a Frank-Wolfe step that can add a block or a rank.
    Steps never raise the objective; a Newton step may leave it unchanged at
    rounding level, at most MAX_FLAT_STEPS times in a row. The run ends on a
    certificate, after options.max_iters accepted steps, or when no step
    makes progress (exit_reason "stalled").

    Raises:
        InfeasibleScenario: every feasible choice of blocks is singular
            (checked at the full-rank uniform point, which dominates the
            feasible set up to scale).
    """
    opts = options or OptOptions()
    kernel = _Kernel.build(scenario)
    budget = scenario.power_budget

    uniform = BeamCovariance.uniform(scenario).blocks
    if not np.isfinite(kernel.speb(uniform)):
        raise InfeasibleScenario(
            "position information is singular for every feasible beam choice"
        )

    if initial is not None:
        check_beam_covariance(initial, scenario)
        blocks = project_feasible(initial, budget).blocks
    else:
        blocks = _outer_equal_split(scenario)
    if not np.isfinite(kernel.speb(blocks)):
        blocks = uniform
    beam = _FactoredBeam(kernel, blocks)
    trace = [beam.f]

    def residuals(b, f, grads, grad_norm):
        """(stationarity residual, relative optimality gap) at b."""
        if grad_norm == 0.0:
            return 0.0, 0.0
        probe = budget / grad_norm
        moved = project_feasible(b - probe * grads, budget).blocks
        kkt = float(np.linalg.norm(b - moved)) / (probe * grad_norm)
        descent_floor = budget * min(0.0, float(np.linalg.eigvalsh(grads).min()))
        gap = (float(np.vdot(grads, b).real) - descent_floor) / f
        return kkt, gap

    iters = 0
    flat = 0
    while True:
        grads = kernel.gradient(beam.blocks)
        grad_norm = float(np.linalg.norm(grads))
        kkt_rel, gap_rel = residuals(beam.blocks, beam.f, grads, grad_norm)
        if gap_rel <= opts.gap_tol:
            exit_reason = "gap"
            break
        if kkt_rel < opts.grad_tol:
            exit_reason = "kkt"
            break
        if iters >= opts.max_iters:
            exit_reason = "max_iters"
            break
        f_before = beam.f
        if not beam.step(grads, gap_rel, newton=flat < MAX_FLAT_STEPS):
            exit_reason = "stalled"
            break
        flat = flat + 1 if beam.f == f_before else 0
        trace.append(beam.f)
        iters += 1

    bc = BeamCovariance(blocks=beam.blocks)
    b11_share = float(np.clip(beam.blocks[:, 0, 0].real.sum() / budget, 0.0, 1.0))
    return OptResult(
        beam=bc,
        speb=beam.f,
        peb=float(np.sqrt(beam.f)),
        speb_trace=np.array(trace),
        iterations=iters,
        converged=exit_reason in ("gap", "kkt"),
        kkt_residual=kkt_rel,
        optimality_gap_rel=gap_rel,
        grad_norm=grad_norm,
        rank_profile=rank_profile(bc, opts.rank_tol),
        power_share_toward_target=b11_share,
        exit_reason=exit_reason,
    )


def monopulse_candidate(scenario: Scenario, alpha: float) -> BeamCovariance:
    """Two-beam rank-one candidate on the outermost subcarrier pair.

    Each outer block is (budget/2) * [[a, +-j s], [-+j s, 1-a]] with
    s = sqrt(a(1-a)): a sum beam toward the target plus a quadrature
    difference beam, opposite rotation senses on the two band edges. Blocks
    are rank one for every alpha in (0, 1). Which band edge carries which
    sense is decided by the scene geometry (the coupling they exploit is
    signed), so the better of the two assignments is returned.

    Raises:
        InvalidAlpha: alpha outside (0, 1).
        InfeasibleScenario: fewer than two subcarriers or a single-element
            transmitter, where the construction has no room to live.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
    if scenario.n_subcarriers < 2 or scenario.block_dim != 2:
        raise InfeasibleScenario(
            "two-beam candidate needs >= 2 subcarriers and >= 2 transmit elements"
        )
    if not scenario.symmetric_subcarriers:
        raise InfeasibleScenario("two-beam candidate assumes a symmetric subcarrier grid")
    omegas = np.asarray(scenario.subcarrier_offsets)
    blocks = np.zeros((scenario.n_subcarriers, 2, 2), dtype=complex)
    w_max = np.abs(omegas).max()
    s = np.sqrt(alpha * (1.0 - alpha))
    half = scenario.power_budget / 2.0
    for p, w in enumerate(omegas):
        if abs(abs(w) - w_max) <= 1e-12 * max(w_max, 1.0):
            sign = 1.0 if w > 0 else -1.0
            blocks[p] = half * np.array(
                [[alpha, sign * 1j * s], [-sign * 1j * s, 1.0 - alpha]]
            )
    kernel = _Kernel.build(scenario)
    if kernel.speb(blocks.conj()) < kernel.speb(blocks):
        blocks = blocks.conj()
    return BeamCovariance(blocks=blocks)


def rank_profile(bc: BeamCovariance, rank_tol: float = 1e-4) -> tuple[int, ...]:
    """Per-block numerical ranks, relative to the largest eigenvalue anywhere."""
    eigs = np.linalg.eigvalsh(bc.blocks)
    ref = float(eigs.max(initial=0.0))
    if ref <= 0.0:
        return tuple(0 for _ in range(bc.n_blocks))
    return tuple(int((e > rank_tol * ref).sum()) for e in eigs)
