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

A narrowband scene on a symmetric grid needs no solver: its optimum lies on
the outer subcarrier pair and is fixed by two variables on a disk
(_reduced_start). optimize starts there, so the run is one certificate pass:
one aggregate gradient, its block gradient, one projection and one eigvalsh,
with neither the Hessian nor the uniform-beam infeasibility probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleScenario, InvalidAlpha
from .fisher import BeamCovariance, Scenario, _Kernel, _blocks, check_beam_covariance


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
# projection onto {blocks PSD, total trace <= budget}


def _shift_to_budget(lam: np.ndarray, budget: float) -> np.ndarray:
    """Project eigenvalues onto {x >= 0, sum x = budget} by uniform shift.

    Assumes sum(max(lam, 0)) > budget so the trace constraint is active. The
    largest eigenvalue always stays above its shift (by budget > 0), so some
    eigenvalue survives.
    """
    flat = np.sort(lam.ravel())[::-1]
    ks = np.arange(1, flat.size + 1)
    mus = (np.cumsum(flat) - budget) / ks
    mu = mus[np.flatnonzero(flat > mus).max()]
    return np.maximum(lam - mu, 0.0)


def project_feasible(blocks, power_budget: float) -> BeamCovariance:
    """Nearest (Frobenius) feasible beam covariance to the given blocks.

    Eigendecomposes each block, clamps eigenvalues at zero, and if the total
    trace still exceeds the budget applies one joint uniform-shift
    projection across all eigenvalues with re-clamping. Eigenvectors are
    untouched, which is what makes this the exact Euclidean projection.
    """
    raw = blocks.blocks if isinstance(blocks, BeamCovariance) else np.asarray(blocks, complex)
    if raw.ndim == 2:
        raw = raw[None, :, :]
    herm = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
    lam, vecs = np.linalg.eigh(herm)
    clamped = np.maximum(lam, 0.0)
    if clamped.sum() > power_budget:
        clamped = _shift_to_budget(lam, power_budget)
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
    return _Kernel.build(scenario).gradient(bc.blocks)


def _outer(scenario: Scenario) -> np.ndarray:
    """Mask of the outermost subcarriers, |omega_p| = max |omega|."""
    omegas = np.abs(np.asarray(scenario.subcarrier_offsets))
    return omegas >= omegas.max() - 1e-12 * max(omegas.max(), 1.0)


def _outer_equal_split(scenario: Scenario) -> np.ndarray:
    """Start of scenes without a reduced start: budget split evenly over the
    outermost subcarrier pair and both beam directions (full-rank blocks
    there, zero elsewhere), the centre of the disk of _mirror_coordinates."""
    return _blocks(_mirror_coordinates(scenario, 0.5 if scenario.block_dim == 2 else 1.0, 0.0))


def _mirror_coordinates(scenario: Scenario, alpha, u) -> np.ndarray:
    """Block coordinates (see fisher._coordinates), shape (..., P, k), of the
    beams on the outermost subcarriers alone, with beta = budget / (their
    count) on each: b11 = beta alpha, b22 = beta (1 - alpha), Re b21 = 0 and
    Im b21 = sign(omega_p) beta u, so the two band edges turn opposite ways.
    Each block is PSD for u^2 <= alpha (1 - alpha) and one beam (rank one)
    on that circle; 1x1 blocks keep b11 alone. alpha and u broadcast."""
    outer = _outer(scenario)
    weight = np.where(outer, scenario.power_budget / outer.sum(), 0.0)
    turn = weight * np.sign(np.asarray(scenario.subcarrier_offsets))
    alpha = np.asarray(alpha, dtype=float)[..., None]
    u = np.asarray(u, dtype=float)[..., None]
    x = np.zeros(np.broadcast_shapes(alpha.shape, u.shape)[:-1] + (len(weight), 4))
    x[..., 0] = weight * alpha
    x[..., 1] = weight * (1.0 - alpha)
    x[..., 3] = turn * u
    return x if scenario.block_dim == 2 else x[..., :1]


def _has_reduced_start(scenario: Scenario) -> bool:
    """Whether optimize starts from _reduced_start: a narrowband scene on a
    symmetric grid with an outer subcarrier pair."""
    return scenario.narrowband and scenario.symmetric_subcarriers and scenario.n_subcarriers >= 2


def _reduced_start(kernel: _Kernel, scenario: Scenario) -> np.ndarray:
    """The optimum of a scene with _has_reduced_start, from two variables.

    On such a scene some optimum has Re b21 = 0, since Re b21 feeds only the
    gain coupling. Some optimum is also its own mirror image, since the
    objective is convex and does not change when each block is replaced by
    the conjugate of its mirror block. That optimum has no gain coupling, so
    its information is J22, and moving an inner block's power to the outer
    pair keeps every aggregate of J22 but s2, which it raises. What is left
    are the beams of _mirror_coordinates on the disk u^2 <= alpha (1 - alpha),
    whose position information alpha A_a + (1 - alpha) A_b + u A_c is affine
    in (alpha, u); _disk_solve finds their optimum. With one transmit element
    the blocks are 1x1 and alpha = 1.
    """
    if scenario.block_dim == 1:
        return _blocks(_mirror_coordinates(scenario, 1.0, 0.0))
    # (alpha, u) = (1, 0), (0, 0) and the step from there to (0, 1)
    x = _mirror_coordinates(scenario, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    x[2] -= x[1]
    z = np.einsum("pak,npk->na", kernel.coef, x)
    # J22 straight from info: its Schur complement would divide by s0 = 0 at (0, 0)
    A = kernel.jac @ np.einsum("na,aij->nij", z, kernel.info[:, 2:, 2:]) @ kernel.jac.T
    return _blocks(_mirror_coordinates(scenario, *_disk_solve(A / np.abs(A).max())))


DISK_STEP_TOL = 4.0 * float(np.finfo(float).eps)  # relative step or bracket that ends _disk_solve


def _disk_solve(A: np.ndarray) -> tuple[float, float]:
    """(alpha, u) minimizing f = tr(M^-1) = tr(M) / det(M) over the disk
    u^2 <= alpha (1 - alpha), where M = alpha A_a + (1 - alpha) A_b + u A_c
    and A stacks the symmetric 2x2 matrices A_a, A_b, A_c.

    For fixed alpha, f is convex in u on the interval where M is positive
    definite, and it tends to +inf at both ends, since det(A_c) <= 0 makes
    det(M) concave in u. Its minimizer is the root of the quadratic
    numerator of df/du where the numerator turns positive, taken in the
    cancellation-free form; a zero leading coefficient or A_c = 0 needs no
    special case. Clipped to |u| <= r = sqrt(alpha (1 - alpha)), it gives the
    partial minimum phi(alpha), which is convex. By the envelope theorem,
    phi' = df/dalpha, plus df/du * du/dalpha when u = +-r sits on the circle.
    Safeguarded Newton steps solve phi' = 0, with phi'' from a complex step.
    """
    (pa, qa, sa), (pb, qb, sb), (pc, qc, sc) = (
        (float(m[0, 0]), float(m[0, 1]), float(m[1, 1])) for m in A
    )
    pd, qd, sd = pa - pb, qa - qb, sa - sb
    t_c = pc + sc
    # A_c = K J_c K^T, and J_c couples delay and departure only: det(A_c) <= 0
    det_c = min(pc * sc - qc * qc, 0.0)

    def det_slope(p, q, s, x, y, z):
        """tr(adj(M) N), the derivative of det(M) along N, for the symmetric
        M = [[p, q], [q, s]] and N = [[x, y], [y, z]]."""
        return s * x + p * z - 2.0 * q * y

    def slope(alpha):
        """(phi'(alpha), u(alpha)); analytic in alpha except at branch
        switches, which are decided on the real part."""
        p, q, s = pb + alpha * pd, qb + alpha * qd, sb + alpha * sd
        t = p + s
        # df/du is proportional to -(a u^2 + b u + c)
        a, b = t_c * det_c, 2.0 * t * det_c
        c = t * det_slope(p, q, s, pc, qc, sc) - t_c * (p * s - q * q)
        den = (b * b - 4.0 * a * c) ** 0.5 - b
        r = (alpha * (1.0 - alpha)) ** 0.5
        if den.real > 0.0:
            u = 2.0 * c / den
        else:  # det(M) linear or constant in u: f is monotone
            u = math.copysign(math.inf, c.real) if c.real != 0.0 else 0.0
        side = math.copysign(1.0, u.real)
        on_circle = abs(u.real) > r.real
        if on_circle:
            u = side * r
        p, q, s = p + u * pc, q + u * qc, s + u * sc
        t, det = p + s, p * s - q * q
        if not det.real > 0.0:  # rounding at an end of (0, 1), where phi -> +inf
            return complex(-math.inf if alpha.real < 0.5 else math.inf), u
        df_dalpha = ((pd + sd) * det - t * det_slope(p, q, s, pd, qd, sd)) / det**2
        if not on_circle:
            return df_dalpha, u
        df_du = (t_c * det - t * det_slope(p, q, s, pc, qc, sc)) / det**2
        return df_dalpha + df_du * side * (1.0 - 2.0 * alpha) / (2.0 * r), u

    lo, hi, alpha = 0.0, 1.0, 0.5
    for _ in range(100):
        g, u = slope(complex(alpha, 1e-20))
        if g.real <= 0.0:
            lo = alpha
        if g.real >= 0.0:
            hi = alpha
        curv = g.imag / 1e-20
        step = g.real / curv if curv > 0.0 and math.isfinite(g.real) else math.inf
        # tested before the bracket: a step below rounding may land on its end;
        # the bracket closes on alpha = 1 when the whole budget goes to b11
        if abs(step) <= DISK_STEP_TOL * alpha or hi - lo <= DISK_STEP_TOL * hi:
            break
        alpha = alpha - step if lo < alpha - step < hi else 0.5 * (lo + hi)
    return alpha, float(u.real)


# -----------------------------------------------------------------------------
# active-set solver on factored blocks

ARMIJO_DECREASE = 1e-4
MIN_NEWTON_STEP = 2.0**-30  # backtracking floor on the Newton step length
EIG_RCOND = 1e-10  # Hessian eigenvalues below this share of the largest are not stepped along
NEWTON_FLOOR = 1e-20  # predicted relative decrease below which the Newton step is spent
NEWTON_VS_GAP = 1e-3  # below this times min(gap, 1)^2 the Frank-Wolfe step is priced too
MAX_FLAT_STEPS = 3  # Newton steps in a row that leave the objective unchanged
ATOM_TIE_REL = 1e-9  # gradient blocks this close to the lowest eigenvalue share the atom


# x_j = y^T _QUAD[j] y: the block coordinates (b11, b22, Re b21, Im b21) =
# (l1^2, l2^2 + l3^2 + l4^2, l1 l3, l1 l4) of the factor y = (l1, l2, l3, l4)
# (see _factor). Its [:1, :1, :1] corner serves 1x1 blocks, b11 = l1^2.
_QUAD = np.zeros((4, 4, 4))
_QUAD[0, 0, 0] = 1.0
_QUAD[1, [1, 2, 3], [1, 2, 3]] = 1.0
_QUAD[2, [0, 2], [2, 0]] = 0.5
_QUAD[3, [0, 3], [3, 0]] = 0.5
_QUAD.flags.writeable = False


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
    in the blocks. The block coordinates are quadratic forms x_j = y^T Q_j y
    with the constant Q = _QUAD, whose Jacobian 2 Q y and curvature
    2 sum_j gx_j Q_j the Newton step uses. The beam carries its blocks'
    eight aggregates z next to their objective f, so each point is mapped
    to the aggregates once.
    """

    def __init__(self, kernel: _Kernel, blocks: np.ndarray):
        self.kernel = kernel
        self.budget = kernel.budget
        self.shape = blocks.shape
        scale = self.budget * np.abs(kernel.coef).max(axis=(0, 2))
        self.agg_scale = np.where(scale > 0.0, scale, 1.0)
        k = kernel.coef.shape[2]
        self.quad = _QUAD[:k, :k, :k]
        active = np.flatnonzero(np.trace(blocks, axis1=1, axis2=2).real > 0.0)
        self.active = active
        self.y, self.blocks, self.z, self.f = self._evaluate(active, _factor(blocks[active]))

    def _evaluate(self, active: np.ndarray, y: np.ndarray):
        """(y scaled onto the sphere, its blocks, their aggregates, their
        objective)."""
        y = y * (np.sqrt(self.budget) / np.linalg.norm(y))
        x = np.einsum("na,jab,nb->nj", y, self.quad, y)
        blocks = np.zeros(self.shape, dtype=complex)
        blocks[active] = _blocks(x)
        z = np.einsum("pak,pk->a", self.kernel.coef[active], x)
        return y, blocks, z, self.kernel._speb_from_aggregates(z)

    def step(
        self, g: np.ndarray, hess_agg: np.ndarray, grads: np.ndarray, gap_rel: float, newton: bool
    ) -> bool:
        """Take one step that lowers the objective (a Newton step may also
        leave it unchanged at rounding level); False when neither can. g and
        hess_agg are the objective's gradient and Hessian in the aggregates
        at the current point, and grads its block gradient.

        Newton comes first. Its predicted decrease shrinks quadratically near
        the optimum of the active blocks, but so does the gap near the global
        optimum; when the prediction is small next to gap^2, the Frank-Wolfe
        step is priced too and taken first if it promises more. That is how
        a new block or rank enters, and how a saddle of the factors (a
        rank-one block whose optimum has rank two) is left.
        """
        promise, direction = 0.0, None
        if newton:
            direction = self.newton_direction(g, hess_agg)
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

    def newton_direction(self, g: np.ndarray, hess_agg: np.ndarray) -> tuple[np.ndarray, float]:
        """(step, slope): the Newton step for psi on the tangent space of the
        sphere, with |lambda|-modified Hessian eigenvalues, and the
        directional derivative along it; -slope / 2 is the decrease that the
        quadratic model predicts. g and hess_agg are the gradient and Hessian
        of the objective in the aggregates at the current point."""
        n, k = self.y.shape
        coef = self.kernel.coef[self.active]
        dx = 2.0 * np.einsum("jab,nb->nja", self.quad, self.y)
        jz = np.einsum("nak,nkj->anj", coef, dx).reshape(8, n * k)
        gx = np.einsum("nak,a->nk", coef, g)
        grad = np.einsum("nkj,nk->nj", dx, gx).ravel()
        # Hessian of psi: J^T H_F J + sum_k g_k Hess(z_k) + (2 f / budget) I
        hess = jz.T @ hess_agg @ jz
        idx = np.arange(n)
        hess.reshape(n, k, n, k)[idx, :, idx, :] += 2.0 * np.einsum("nj,jab->nab", gx, self.quad)
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
            if trial[3] <= self.f + ARMIJO_DECREASE * t * slope:
                self.y, self.blocks, self.z, self.f = trial
                return True
            t *= 0.5
        return False

    def frank_wolfe_direction(self, grads: np.ndarray):
        """(gamma, atom, tied, decrease): the oracle atom (see _oracle_atom),
        the best mixing weight along the chord towards it, and the decrease
        that weight gives before the blocks are re-factored."""
        atom, tied = _oracle_atom(grads, self.budget)
        gamma, f_mixed = self._chord_search(self.kernel._aggregates(atom) - self.z)
        return gamma, atom, tied, self.f - f_mixed

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
        if not trial[3] < self.f:
            return False
        self.active = active
        self.y, self.blocks, self.z, self.f = trial
        return True

    def _chord_search(self, dz: np.ndarray) -> tuple[float, float]:
        """(minimizer, minimum) over [0, 1] of the convex phi(gamma) =
        speb(z + gamma dz) from the current aggregates z, by safeguarded
        Newton on phi' with phi'' from a complex step."""
        kernel, z = self.kernel, self.z

        def slope_and_curvature(gamma):
            g = kernel._aggregate_gradient(z + gamma * dz + 1e-20j * dz)
            return float(g.real @ dz), float(g.imag @ dz) / 1e-20

        slope0, curv = slope_and_curvature(0.0)
        lo, hi = 0.0, 1.0
        gamma = min(1.0, -slope0 / curv) if curv > 0.0 else 1.0
        best, best_f = 0.0, self.f
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

    The run starts from initial when given. Otherwise a narrowband scene on
    a symmetric grid with at least two subcarriers starts at its exact
    optimum (_reduced_start), so it normally ends on the gap certificate
    before any step, and every other scene starts from the equal split over
    the outer subcarrier pair (_outer_equal_split). A start with no power or
    a singular objective is replaced by the uniform beam.

    Each iteration first checks the two certificates. The first pass at the
    exact start evaluates the aggregate gradient alone and prices the
    Hessian only if a step is due; every other pass gets both from one
    call. If neither certificate holds the iteration takes one step (see
    _FactoredBeam.step): a Newton step on the active factored blocks, or a
    Frank-Wolfe step that can add a block or a rank. Steps never raise the
    objective; a Newton step may leave it unchanged at rounding level, at
    most MAX_FLAT_STEPS times in a row. The run ends on a certificate, after
    options.max_iters accepted steps, or when no step makes progress
    (exit_reason "stalled").

    Raises:
        InfeasibleScenario: the start and the full-rank uniform beam are both
            singular. The uniform beam dominates the feasible set up to
            scale, so where its information is singular every feasible
            choice of blocks is singular too. It is scored only for a
            singular start: a start with a finite SPEB is a feasible beam
            that passes the condition guard (fisher.COND_LIMIT), which the
            uniform beam may fail even then.
    """
    opts = options or OptOptions()
    kernel = _Kernel.build(scenario)
    budget = scenario.power_budget

    exact_start = initial is None and _has_reduced_start(scenario)
    if initial is not None:
        # no projection: _FactoredBeam clamps the factor and scales it onto
        # the budget sphere
        check_beam_covariance(initial, scenario)
        blocks = initial.blocks
    elif exact_start:
        blocks = _reduced_start(kernel, scenario)
    else:
        blocks = _outer_equal_split(scenario)
    # a start without power has no factor to scale onto the budget sphere
    has_power = np.trace(blocks, axis1=1, axis2=2).real.sum() > 0.0
    beam = _FactoredBeam(kernel, blocks) if has_power else None
    if beam is None or not np.isfinite(beam.f):
        uniform = BeamCovariance.uniform(scenario).blocks
        if not np.isfinite(kernel.speb(uniform)):
            raise InfeasibleScenario(
                "position information is singular for every feasible beam choice"
            )
        beam = _FactoredBeam(kernel, uniform)
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
        if exact_start and iters == 0:
            # the exact start normally certifies here, so the Hessian waits
            # until a step is due; a complex z rounds g as the Hessian's first
            # row does, which keeps the certificates bit for bit
            g, hess_agg = kernel._aggregate_gradient(beam.z.astype(complex)).real, None
        else:
            g, hess_agg = kernel._aggregate_hessian(beam.z, beam.agg_scale)
        grads = kernel.block_gradient(g)
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
        if hess_agg is None:
            hess_agg = kernel._aggregate_hessian(beam.z, beam.agg_scale)[1]
        f_before = beam.f
        if not beam.step(g, hess_agg, grads, gap_rel, newton=flat < MAX_FLAT_STEPS):
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

    The boundary point u = +-sqrt(alpha (1 - alpha)) of the disk of
    _reduced_start: each outer block is (budget/2) * [[a, +-j s], [-+j s, 1-a]]
    with s = sqrt(a(1-a)), a sum beam toward the target plus a quadrature
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
    blocks = _blocks(_mirror_coordinates(scenario, alpha, -np.sqrt(alpha * (1.0 - alpha))))
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
