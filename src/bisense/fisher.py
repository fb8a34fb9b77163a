"""Fisher information and position error bounds for a single bistatic path.

The unknown parameter vector has five entries, in this order:

    [gain_re, gain_im, delay, aod, aoa]

gain_re/gain_im are the real and imaginary parts of the complex path gain,
delay is the bistatic propagation delay, and aod/aoa are the local departure
and arrival bearings at the transmit and receive arrays. The noiseless
observation on subcarrier p with transmit vector s is

    m[p] = gain * a_r (a_t^T s) * exp(-1j * w_p * delay)

where w_p is the subcarrier's radian frequency offset from the carrier and
a_t, a_r are the steering vectors. Per-subcarrier transmit covariances are
constrained to the two-column subspace spanned by conj(a_t) and
conj(a_dot_t); the 2x2 coefficient matrices B_p are the beam covariances
the optimizer works on.

The blocks enter the information matrix only through eight linear
aggregates, and the matrix is linear in them. ``_Kernel`` holds that one
closed form as two constant arrays: ``coef`` maps the blocks' real
coordinates to the aggregates, and ``info`` maps the aggregates to the 5x5
matrix. The effective forms are one Schur complement over the gain
directions that are nuisance parameters (``_schur``): both gain coordinates
for ``speb``, the gain phase alone for ``speb_known_gain``. The gradients
follow by the chain rule through the two maps. ``fim_xform`` returns the 5x5
matrix, ``fim_entrywise`` the matrix with its effective forms and bounds, and
the solver its effective 3x3 form. ``fim_from_derivatives``
(raw derivative outer products over explicit pilot vectors) never touches the
closed form and is the oracle that tests and ``bisense validate`` check it
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .array_manifold import ArrayModel, steering
from .errors import SingularEFIM
from .geometry import Position2D, derive_geometry

COND_LIMIT = 1e12  # position FIM condition number beyond which SPEB is refused

# -----------------------------------------------------------------------------
# scenario


def subcarrier_offsets_rad(count: int, spacing_hz: float) -> tuple[float, ...]:
    """Symmetric subcarrier offset grid in rad/s.

    Even counts use indices {+-1, ..., +-count/2} (no DC line); odd counts use
    {0, +-1, ..., +-(count-1)/2}. Offsets are index * 2*pi*spacing_hz, sorted
    ascending.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count % 2 == 0:
        half = count // 2
        idx = [p for p in range(-half, half + 1) if p != 0]
    else:
        half = (count - 1) // 2
        idx = list(range(-half, half + 1))
    return tuple(2.0 * np.pi * spacing_hz * p for p in idx)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything that fixes the estimation problem except the beam blocks.

    Attributes:
        p_t, p_r, p_s: transmitter, receiver, scatterer positions, m.
        tx_array, rx_array: antenna arrays at the two terminals.
        omega_carrier: carrier radian frequency, rad/s.
        subcarrier_offsets: radian offsets of the active subcarriers, rad/s.
        noise_power: per-element complex noise variance, W.
        power_budget: total transmit power across all subcarriers, W.
        gain: complex path gain (carrier phase absorbed here).
        narrowband: evaluate steering at the carrier only (True) or per
            subcarrier (False).
        symmetric_subcarriers: declare that the offset grid is symmetric
            about zero; verified at construction when True.
    """

    p_t: Position2D
    p_r: Position2D
    p_s: Position2D
    tx_array: ArrayModel
    rx_array: ArrayModel
    omega_carrier: float
    subcarrier_offsets: tuple[float, ...]
    noise_power: float
    power_budget: float
    gain: complex
    narrowband: bool = True
    symmetric_subcarriers: bool = True

    def __post_init__(self):
        if not self.omega_carrier > 0:
            raise ValueError("omega_carrier must be positive")
        if not self.noise_power > 0:
            raise ValueError("noise_power must be positive")
        if not self.power_budget > 0:
            raise ValueError("power_budget must be positive")
        if len(self.subcarrier_offsets) < 1:
            raise ValueError("need at least one subcarrier")
        offs = np.asarray(self.subcarrier_offsets, dtype=float)
        if not np.all(np.isfinite(offs)):
            raise ValueError("subcarrier offsets must be finite")
        reach = float(np.max(np.abs(offs)))
        if not reach < self.omega_carrier:
            raise ValueError("every subcarrier must lie above zero frequency")
        if self.symmetric_subcarriers:
            mirrored = np.sort(-offs)
            scale = max(1.0, reach)
            if not np.allclose(np.sort(offs), mirrored, atol=1e-9 * scale, rtol=0):
                raise ValueError(
                    "subcarrier offsets declared symmetric but the grid is not"
                )

    @property
    def n_tx(self) -> int:
        return self.tx_array.n_elements

    @property
    def n_rx(self) -> int:
        return self.rx_array.n_elements

    @property
    def n_subcarriers(self) -> int:
        return len(self.subcarrier_offsets)

    @property
    def wavelength(self) -> float:
        from .geometry import SPEED_OF_LIGHT

        return 2.0 * np.pi * SPEED_OF_LIGHT / self.omega_carrier

    @property
    def block_dim(self) -> int:
        """Beam covariance block size: 1 for a single transmit element, else 2."""
        return 1 if self.n_tx == 1 else 2


# -----------------------------------------------------------------------------
# beam covariance blocks


@dataclass(frozen=True, eq=False)
class BeamCovariance:
    """Per-subcarrier beam covariance blocks, shape (P, m, m), m in {1, 2}.

    blocks[p] is the Hermitian PSD coefficient matrix of subcarrier p in the
    ordered basis (steering direction, steering-derivative direction). The sum
    of traces is bounded by the scenario power budget; validation happens at
    the information-matrix entry points, not on construction.
    """

    blocks: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.blocks, dtype=complex)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[1] not in (1, 2):
            raise ValueError(f"blocks must be (P, m, m) with m in {{1,2}}, got {arr.shape}")
        object.__setattr__(self, "blocks", arr)
        arr.flags.writeable = False

    @property
    def n_blocks(self) -> int:
        return self.blocks.shape[0]

    @property
    def block_dim(self) -> int:
        return self.blocks.shape[1]

    def total_power(self) -> float:
        return float(np.trace(self.blocks, axis1=1, axis2=2).real.sum())

    @staticmethod
    def uniform(scenario: Scenario) -> "BeamCovariance":
        """Full power spread evenly over all subcarriers and both directions."""
        p_count = scenario.n_subcarriers
        m = scenario.block_dim
        per_entry = scenario.power_budget / (p_count * m)
        blocks = np.stack([np.eye(m, dtype=complex) * per_entry] * p_count)
        return BeamCovariance(blocks=blocks)

    @staticmethod
    def zero(scenario: Scenario) -> "BeamCovariance":
        m = scenario.block_dim
        return BeamCovariance(blocks=np.zeros((scenario.n_subcarriers, m, m), complex))


def check_beam_covariance(bc: BeamCovariance, scenario: Scenario) -> None:
    """Raise ValueError unless bc is Hermitian, PSD, in-budget, and well-shaped."""
    blocks = bc.blocks
    if bc.n_blocks != scenario.n_subcarriers:
        raise ValueError(
            f"{bc.n_blocks} blocks for {scenario.n_subcarriers} subcarriers"
        )
    if bc.block_dim != scenario.block_dim:
        raise ValueError(
            f"block dim {bc.block_dim} does not match scenario dim {scenario.block_dim}"
        )
    scale = max(1.0, float(np.max(np.abs(blocks))) if blocks.size else 1.0)
    herm_gap = float(np.max(np.abs(blocks - blocks.conj().transpose(0, 2, 1))))
    if herm_gap > 1e-12 * scale:
        raise ValueError(f"blocks not Hermitian (max deviation {herm_gap:.3e})")
    eigs = np.linalg.eigvalsh(blocks)
    traces = np.trace(blocks, axis1=1, axis2=2).real
    floor = -1e-10 * np.maximum(traces, 1e-300)
    if np.any(eigs[:, 0] < floor):
        raise ValueError(f"block not PSD (min eigenvalue {eigs.min():.3e})")
    total = float(traces.sum())
    if total > scenario.power_budget + 1e-10:
        raise ValueError(
            f"total power {total:.6e} exceeds budget {scenario.power_budget:.6e}"
        )


# -----------------------------------------------------------------------------
# manifold evaluation and precoding


def _omega_total(scenario: Scenario, offset: float) -> float:
    """Radian frequency the steering of a subcarrier is evaluated at."""
    return scenario.omega_carrier + (0.0 if scenario.narrowband else offset)


def precoder(scenario: Scenario, subcarrier_index: int) -> np.ndarray:
    """Beam basis matrix F_p for one subcarrier; R_s[p] = F_p B_p F_p^H.

    F_p = [conj(a)/|a|, conj(a_dot)/|a_dot|] is orthonormal. The derivative
    column is dropped for single-element transmitters and zeroed in the
    measure-zero case of a vanishing derivative norm, where the closed form
    gives that direction no information either.
    """
    geom = derive_geometry(scenario.p_t, scenario.p_r, scenario.p_s)
    w_total = _omega_total(scenario, scenario.subcarrier_offsets[subcarrier_index])
    pair = steering(scenario.tx_array, geom.theta_t, w_total)
    cols = [pair.a.conj() / pair.norm_a]
    if scenario.block_dim == 2:
        if pair.norm_a_dot > 0.0:
            cols.append(pair.a_dot.conj() / pair.norm_a_dot)
        else:
            cols.append(np.zeros_like(pair.a))
    return np.column_stack(cols)


# -----------------------------------------------------------------------------
# information matrices


@dataclass(frozen=True, eq=False)
class FisherBundle:
    """Information matrix, its partition, both effective forms, and bounds.

    Attributes:
        J: 5x5 information matrix over [gain_re, gain_im, delay, aod, aoa].
        J11, J12, J22: partition into gain block (2x2), cross block (2x3),
            and observable block (3x3).
        J_e: 3x3 effective information for (delay, aod, aoa) with the complex
            gain unknown: the Schur complement over both gain coordinates.
        J_eh: same with the gain magnitude known: the Schur complement over
            the gain-phase direction alone.
        jacobian: 2x3 position Jacobian of (delay, aod, aoa).
        position_fim: 2x2 position information of J_e.
        speb / speb_known_gain: trace of the inverse position information of
            J_e / J_eh, m^2; NaN when flagged singular.
        singular / singular_known_gain: condition-guard flags.
    """

    J: np.ndarray
    J11: np.ndarray
    J12: np.ndarray
    J22: np.ndarray
    J_e: np.ndarray
    J_eh: np.ndarray
    jacobian: np.ndarray
    position_fim: np.ndarray
    speb: float
    speb_known_gain: float
    singular: bool
    singular_known_gain: bool

    def __post_init__(self):
        for name in ("J", "J11", "J12", "J22", "J_e", "J_eh", "jacobian", "position_fim"):
            getattr(self, name).flags.writeable = False


def _trace_inverse_2x2(a_mat: np.ndarray) -> tuple[float, bool]:
    """(trace of inverse, singular flag) for a symmetric 2x2 matrix.

    Flags singular when an eigenvalue is non-positive or the eigenvalue
    ratio exceeds COND_LIMIT.
    """
    a, b, d = a_mat[0, 0], a_mat[0, 1], a_mat[1, 1]
    mean = 0.5 * (a + d)
    half_gap = np.hypot(0.5 * (a - d), b)
    lam_min = mean - half_gap
    lam_max = mean + half_gap
    if not np.isfinite(lam_min) or lam_min <= 0.0 or lam_max > COND_LIMIT * lam_min:
        return float("nan"), True
    det = a * d - b * b
    return float((a + d) / det), False


def _schur(J: np.ndarray, nuisance: np.ndarray | None = None) -> np.ndarray:
    """Effective (delay, aod, aoa) information of (..., 5, 5) matrices whose
    gain block is j11 times the identity: J22 - J12^T P J12 / j11, the Schur
    complement over the gain directions that are nuisance parameters.

    P is the 2x2 orthogonal projector onto those directions; None stands for
    the identity (an unknown complex gain) and skips the product. A known
    gain magnitude leaves the phase direction u alone unknown, P = u u^T.
    Every operation is analytic, so complex J is fine."""
    J12 = J[..., :2, 2:]
    PJ12 = J12 if nuisance is None else nuisance @ J12
    return J[..., 2:, 2:] - J12.swapaxes(-1, -2) @ PJ12 / J[..., 0, 0, None, None]


# -----------------------------------------------------------------------------
# the closed form


def _coordinates(blocks: np.ndarray) -> np.ndarray:
    """(P, k) real coordinates of each block: (b11, b22, Re b21, Im b21), or
    (b11,) for 1x1 blocks."""
    if blocks.shape[1] == 1:
        return blocks[:, 0, :].real
    b21 = blocks[:, 1, 0]
    return np.stack([blocks[:, 0, 0].real, blocks[:, 1, 1].real, b21.real, b21.imag], axis=-1)


def _blocks(x: np.ndarray) -> np.ndarray:
    """Hermitian blocks with real coordinates x, shape (P, k): the inverse of
    _coordinates."""
    m = 1 if x.shape[1] == 1 else 2
    blocks = np.empty((len(x), m, m), dtype=complex)
    blocks[:, 0, 0] = x[:, 0]
    if m == 2:
        blocks[:, 1, 1] = x[:, 1]
        blocks[:, 1, 0] = x[:, 2] + 1j * x[:, 3]
        blocks[:, 0, 1] = x[:, 2] - 1j * x[:, 3]
    return blocks


@dataclass(eq=False)
class _Kernel:
    """Scenario constants of the closed-form information matrix.

    The blocks enter the information matrix only through the eight linear
    aggregates z = (s0, s1, s2, s3, t0, d_re, d_im, cw), and two constant
    arrays are the closed form: coef (P, 8, k) defines z = sum_p coef[p] @
    x_p, with x_p the real coordinates of block p (_coordinates), and info
    (8, 5, 5) holds the matrix each aggregate contributes, fim(z) = sum_a
    z_a info[a]. The rest is generic linear algebra: contractions, their
    adjoints (block_gradient, _aggregate_gradient) and the Schur complement
    of the gain block (_schur). fim_from_derivatives touches neither array
    and is the oracle they are checked against.

    The antenna arrays enter only through the derivative norms, which are
    linear in frequency: build evaluates one steering pair per terminal at
    the carrier and scales its norm by omega_total / omega_carrier for each
    subcarrier (exactly 1.0 for narrowband scenes).
    """

    nda_t: np.ndarray  # (P,) transmit derivative norms
    nda_r: np.ndarray  # (P,) receive derivative norms
    coef: np.ndarray  # (P, 8, k) aggregates per block coordinate
    info: np.ndarray  # (8, 5, 5) information matrix per aggregate, with the gain
    jac: np.ndarray  # (2,3) position Jacobian
    budget: float

    @staticmethod
    def build(scenario: Scenario) -> "_Kernel":
        geom = derive_geometry(scenario.p_t, scenario.p_r, scenario.p_s)
        carrier = scenario.omega_carrier
        ratios = np.array(
            [_omega_total(scenario, w) / carrier for w in scenario.subcarrier_offsets]
        )
        omegas = np.array(scenario.subcarrier_offsets, dtype=float)
        nda_t = steering(scenario.tx_array, geom.theta_t, carrier).norm_a_dot * ratios
        nda_r = steering(scenario.rx_array, geom.theta_r, carrier).norm_a_dot * ratios
        # coordinates (b11, b22, Re b21, Im b21); b11 only for 1x1 blocks
        coef = np.zeros((len(omegas), 8, 4 if scenario.block_dim == 2 else 1))
        coef[:, 0, 0] = 1.0  # s0
        coef[:, 1, 0] = omegas  # s1
        coef[:, 2, 0] = omegas**2  # s2
        coef[:, 3, 0] = nda_r**2  # s3
        if scenario.block_dim == 2:
            coef[:, 4, 1] = nda_t**2  # t0
            coef[:, 5, 2] = nda_t  # d_re
            coef[:, 6, 3] = nda_t  # d_im
            coef[:, 7, 3] = omegas * nda_t  # cw
        # per aggregate, its 5x5 matrix over [gain_re, gain_im, delay, aod, aoa]:
        # a^T conj(a_dot) = 0 in the steering/derivative basis leaves nine entries
        g = complex(scenario.gain)
        kappa = 2.0 / scenario.noise_power
        mag2 = abs(g) ** 2
        n_rx, n_tx = scenario.n_rx, scenario.n_tx
        c0 = kappa * n_rx * n_tx
        r0 = kappa * n_rx * np.sqrt(n_tx)
        info = np.zeros((8, 5, 5))
        info[0, 0, 0] = info[0, 1, 1] = c0  # s0
        info[1, 0, 2] = info[1, 2, 0] = c0 * g.imag  # s1
        info[1, 1, 2] = info[1, 2, 1] = -c0 * g.real
        info[2, 2, 2] = kappa * mag2 * n_rx * n_tx  # s2
        info[3, 4, 4] = kappa * mag2 * n_tx  # s3
        info[4, 3, 3] = kappa * mag2 * n_rx  # t0
        info[5, 0, 3] = info[5, 3, 0] = info[6, 1, 3] = info[6, 3, 1] = r0 * g.real  # d_re, d_im
        info[5, 1, 3] = info[5, 3, 1] = r0 * g.imag
        info[6, 0, 3] = info[6, 3, 0] = -r0 * g.imag
        info[7, 2, 3] = info[7, 3, 2] = -kappa * mag2 * n_rx * np.sqrt(n_tx)  # cw
        return _Kernel(
            nda_t=nda_t,
            nda_r=nda_r,
            coef=coef,
            info=info,
            jac=geom.jacobian,
            budget=scenario.power_budget,
        )

    def _aggregates(self, blocks: np.ndarray) -> np.ndarray:
        """The eight aggregates z of the blocks, shape (8,)."""
        return np.einsum("pak,pk->a", self.coef, _coordinates(blocks))

    def fim(self, z) -> np.ndarray:
        """5x5 information matrix over [gain_re, gain_im, delay, aod, aoa] at
        the aggregates z, shape (8,) or (n, 8); the result has shape (5, 5)
        or (n, 5, 5). Linear, so complex z is fine."""
        z = np.asarray(z)
        return (z @ self.info.reshape(8, 25)).reshape(z.shape[:-1] + (5, 5))

    def _position_fim(self, z) -> np.ndarray:
        """2x2 position information of the effective form, shape (2, 2) or
        (n, 2, 2), at aggregates z of shape (8,) or (n, 8). Analytic, so
        complex z is fine. No domain checks: s0 must be nonzero."""
        return self.jac @ _schur(self.fim(z)) @ self.jac.T

    def position_fim(self, blocks: np.ndarray) -> np.ndarray:
        return self._position_fim(self._aggregates(blocks))

    def speb(self, blocks: np.ndarray) -> float:
        """Objective value; +inf when the position information fails the
        condition guard (treated as out of domain by the line search)."""
        return self._speb_from_aggregates(self._aggregates(blocks))

    def _speb_from_aggregates(self, z) -> float:
        # without steering-direction power s1 = s2 = s3 = 0: only the
        # departure angle is informed, so the position information is singular
        if not z[0] > 0.0:
            return float("inf")
        value, singular = _trace_inverse_2x2(self._position_fim(z))
        return float("inf") if singular else value

    def _aggregate_gradient(self, z: np.ndarray) -> np.ndarray:
        """Partial derivatives of the objective in the aggregates.

        z has shape (8,) or (n, 8) in the order of _aggregates; the result
        has the same shape. It is the chain rule through tr(A^-1), A = K J_e
        K^T, _schur and info: with p3 = K^T A^-2 K and M = J12 p3 / j11,
        g = 2 <M, info[:, :2, 2:]> - <p3, info[:, 2:, 2:]>
            - <M, J12 / j11> info[:, 0, 0].
        Every operation is analytic, so complex z gives exact second
        derivatives by complex-step differentiation. No domain checks.
        """
        J = self.fim(z)
        j11 = J[..., 0, 0, None, None]
        J12 = J[..., :2, 2:]
        A = self.jac @ _schur(J) @ self.jac.T
        a, b, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 1]
        inv = np.stack([np.stack([d, -b], -1), np.stack([-b, a], -1)], -2)
        inv /= (a * d - b * b)[..., None, None]
        p3 = self.jac.T @ (inv @ inv) @ self.jac
        M = J12 @ p3 / j11
        return (
            2.0 * np.einsum("...ij,aij->...a", M, self.info[:, :2, 2:])
            - np.einsum("...ij,aij->...a", p3, self.info[:, 2:, 2:])
            - np.einsum("...ij,...ij->...", M, J12 / j11)[..., None] * self.info[:, 0, 0]
        )

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

    def block_gradient(self, g: np.ndarray) -> np.ndarray:
        """Hermitian per-block gradients G_p of a function of the aggregates
        whose partial derivatives are g, shape (8,): the adjoint of
        _aggregates, so sum_p Re tr(G_p^H Delta_p) = g @ _aggregates(Delta).
        """
        gx = np.einsum("pak,a->pk", self.coef, g)
        # Re tr(G^H Delta) counts the off-diagonal pair twice
        gx[:, 2:] *= 0.5
        return _blocks(gx)

    def gradient(self, blocks: np.ndarray) -> np.ndarray:
        """Hermitian per-block gradients G_p of the objective.

        Convention: d/dt speb(B + t Delta) at t=0 equals
        sum_p Re tr(G_p^H Delta_p). Raises SingularEFIM where the objective
        is +inf.
        """
        z = self._aggregates(blocks)
        if not np.isfinite(self._speb_from_aggregates(z)):
            raise SingularEFIM("gradient undefined at a singular point")
        return self.block_gradient(self._aggregate_gradient(z))


def _closed_form(scenario: Scenario, bc: BeamCovariance) -> tuple[np.ndarray, np.ndarray]:
    """(5x5 information matrix, 2x3 position Jacobian) from one geometry."""
    check_beam_covariance(bc, scenario)
    kernel = _Kernel.build(scenario)
    return kernel.fim(kernel._aggregates(bc.blocks)), kernel.jac


def fim_xform(scenario: Scenario, bc: BeamCovariance) -> np.ndarray:
    """5x5 information matrix over [gain_re, gain_im, delay, aod, aoa]: the
    closed form, a fixed linear map of the eight aggregates of the blocks
    (see _Kernel.fim)."""
    return _closed_form(scenario, bc)[0]


def fim_entrywise(scenario: Scenario, bc: BeamCovariance) -> FisherBundle:
    """Bundle of the closed-form information matrix (fim_xform's matrix).

    Returns the matrix with its partition, both effective forms and SPEB
    values (NaN + flag when the position information fails the condition
    guard).
    """
    J, jacobian = _closed_form(scenario, bc)
    return bundle_from_fim(J, jacobian, scenario.gain)


def bundle_from_fim(J: np.ndarray, jacobian: np.ndarray, gain: complex) -> FisherBundle:
    """Partition a 5x5 information matrix and derive bounds; gain fixes the
    gain-phase direction u = [-Im g, Re g] / |g| of the known-gain form (at
    zero gain every cross entry of the closed form vanishes, and u = 0)."""
    J = np.asarray(J, dtype=float)
    J22 = J[2:, 2:].copy()
    # a zero gain block means zero cross terms too, so there is no penalty
    if J[0, 0] <= 0.0:
        J_e, J_eh = J22.copy(), J22.copy()
    else:
        mag = abs(gain)
        u = np.array([-gain.imag, gain.real]) / mag if mag > 0.0 else np.zeros(2)
        J_e, J_eh = _schur(J), _schur(J, np.outer(u, u))
    jacobian = np.asarray(jacobian, dtype=float).copy()
    pos_fim = jacobian @ J_e @ jacobian.T
    speb, singular = _trace_inverse_2x2(pos_fim)
    speb_kg, singular_kg = _trace_inverse_2x2(jacobian @ J_eh @ jacobian.T)
    return FisherBundle(
        J=J,
        J11=J[:2, :2].copy(),
        J12=J[:2, 2:].copy(),
        J22=J22,
        J_e=J_e,
        J_eh=J_eh,
        jacobian=jacobian,
        position_fim=pos_fim,
        speb=speb,
        speb_known_gain=speb_kg,
        singular=singular,
        singular_known_gain=singular_kg,
    )


def speb(bundle: FisherBundle) -> float:
    """Squared position error bound, m^2.

    Raises:
        SingularEFIM: position information failed the condition guard.
    """
    if bundle.singular:
        raise SingularEFIM(
            f"position information condition number exceeds {COND_LIMIT:.1e}"
        )
    return bundle.speb


def peb(bundle: FisherBundle) -> float:
    """Position error bound, m (square root of the SPEB)."""
    return float(np.sqrt(speb(bundle)))


def speb_known_gain(bundle: FisherBundle) -> float:
    """SPEB with the gain magnitude known (phase still unknown), m^2: the
    bound of J_eh, the Schur complement over the gain-phase direction alone.

    Never larger than speb(bundle); equal whenever the beam blocks put no
    real part into the cross-direction entries.

    Raises:
        SingularEFIM: known-gain position information failed the condition
            guard.
    """
    if bundle.singular_known_gain:
        raise SingularEFIM(
            f"known-gain position information condition number exceeds {COND_LIMIT:.1e}"
        )
    return bundle.speb_known_gain


def fim_from_derivatives(
    scenario: Scenario, pilots: Sequence[np.ndarray]
) -> np.ndarray:
    """Information matrix summed from raw observation derivatives.

    pilots[p] is an (n_tx, k_p) array whose columns are deterministic
    transmit vectors for subcarrier p; their sample covariance
    sum_i s_i s_i^H stands in for R_s[p]. For each pilot the five derivative
    vectors of the observation are stacked and accumulated as
    kappa * Re(D^H D). This route never touches the closed form and serves
    as its oracle.
    """
    if len(pilots) != scenario.n_subcarriers:
        raise ValueError(
            f"{len(pilots)} pilot sets for {scenario.n_subcarriers} subcarriers"
        )
    geom = derive_geometry(scenario.p_t, scenario.p_r, scenario.p_s)
    kappa = 2.0 / scenario.noise_power
    g = complex(scenario.gain)

    J = np.zeros((5, 5))
    for p, w in enumerate(scenario.subcarrier_offsets):
        w_total = _omega_total(scenario, w)
        tx = steering(scenario.tx_array, geom.theta_t, w_total)
        rx = steering(scenario.rx_array, geom.theta_r, w_total)
        a_t, da_t = tx.a, tx.a_dot
        a_r, da_r = rx.a, rx.a_dot
        phase = np.exp(-1j * w * geom.tau)
        block = np.asarray(pilots[p], dtype=complex)
        if block.ndim != 2 or block.shape[0] != scenario.n_tx:
            raise ValueError(f"pilots[{p}] must be (n_tx, k), got {block.shape}")
        for i in range(block.shape[1]):
            s = block[:, i]
            through_a = complex(a_t @ s) * phase
            through_da = complex(da_t @ s) * phase
            d_gain_re = a_r * through_a
            derivs = np.column_stack(
                [
                    d_gain_re,
                    1j * d_gain_re,
                    -1j * w * g * d_gain_re,
                    g * a_r * through_da,
                    g * da_r * through_a,
                ]
            )
            J += kappa * (derivs.conj().T @ derivs).real
    return J


# -----------------------------------------------------------------------------
# whole-matrix cross-check forms (used by tests and the validate suite)


def _balanced_inverse(y: np.ndarray) -> np.ndarray:
    """Inverse via symmetric diagonal balancing; accurate for graded matrices."""
    d = np.sqrt(np.abs(np.diag(y)))
    d[d == 0.0] = 1.0
    scale = np.outer(1.0 / d, 1.0 / d)
    return np.linalg.inv(y * scale) * scale


def full_fim_speb(J: np.ndarray, jacobian: np.ndarray) -> float:
    """SPEB straight from the 5x5 matrix: lift the Jacobian around the gain
    block and read the position sub-block of the inverse. Agrees with the
    reduced route by the block-inverse identity."""
    k1 = np.zeros((4, 5))
    k1[0, 0] = 1.0
    k1[1, 1] = 1.0
    k1[2:, 2:] = jacobian
    y = k1 @ J @ k1.T
    return float(np.trace(_balanced_inverse(y)[2:, 2:]))


def full_fim_speb_known_gain(J: np.ndarray, jacobian: np.ndarray, gain: complex) -> float:
    """Known-gain SPEB from the 5x5 matrix, keeping only the gain-phase row."""
    mag = abs(gain)
    if mag == 0.0:
        raise ValueError("known-gain form needs a nonzero gain")
    k2 = np.zeros((3, 5))
    k2[0, 0] = -gain.imag / mag
    k2[0, 1] = gain.real / mag
    k2[1:, 2:] = jacobian
    y = k2 @ J @ k2.T
    return float(np.trace(_balanced_inverse(y)[1:, 1:]))
