"""Uniform circular arrays and their narrowband steering vectors.

Element positions are 2-D offsets from the array phase center (the centroid),
in meters. Steering is evaluated for a planar wavefront at a global bearing;
the array's own orientation is subtracted to get the local angle, which is
also the angle the derivative is taken against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArray
from .geometry import SPEED_OF_LIGHT, polar_units

CENTROID_TOL = 1e-9  # largest centroid offset accepted, relative to the array radius


@dataclass(frozen=True, eq=False)
class ArrayModel:
    """Antenna array described by centered element positions.

    Attributes:
        element_positions: (n, 2) offsets from the phase center, m. The
            centroid must be (numerically) zero; this is what makes steering
            vectors orthogonal to their angle derivatives, which every closed
            form of the information matrix assumes.
        orientation: array rotation in the global frame, rad.

    Raises:
        InvalidArray: positions not (n, 2) and finite, or a centroid farther
            than CENTROID_TOL times the largest element radius from the
            phase center.
    """

    element_positions: np.ndarray
    orientation: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.element_positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise InvalidArray(f"element_positions must be (n, 2), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise InvalidArray("element_positions contain non-finite values")
        offset = float(np.hypot(*pos.mean(axis=0)))
        radius = float(np.hypot(pos[:, 0], pos[:, 1]).max())
        if offset > CENTROID_TOL * radius:
            raise InvalidArray(
                f"element positions are not centered: centroid {offset:.3e} m "
                f"from the phase center (largest radius {radius:.3e} m)"
            )
        object.__setattr__(self, "element_positions", pos)
        pos.flags.writeable = False

    @property
    def n_elements(self) -> int:
        return self.element_positions.shape[0]


@dataclass(frozen=True, eq=False)
class SteeringPair:
    """Steering vector and its derivative w.r.t. the local arrival angle.

    norm_a equals sqrt(n) exactly (unit-modulus entries); norm_a_dot scales
    linearly with the evaluation frequency. a and a_dot are orthogonal
    because the element positions are centered.
    """

    a: np.ndarray
    a_dot: np.ndarray
    norm_a: float
    norm_a_dot: float

    def __post_init__(self):
        self.a.flags.writeable = False
        self.a_dot.flags.writeable = False


def build_uca(n_elements: int, spacing_m: float, orientation: float = 0.0) -> ArrayModel:
    """Uniform circular array with a given chord spacing between neighbors.

    The circle radius is spacing_m / (2 sin(pi / n)), which places adjacent
    elements exactly spacing_m apart (chord convention). n_elements = 1 is a
    single element at the phase center.

    Raises:
        InvalidArray: n_elements < 1 or spacing_m <= 0.
    """
    if n_elements < 1:
        raise InvalidArray(f"n_elements must be >= 1, got {n_elements}")
    if not spacing_m > 0.0:
        raise InvalidArray(f"spacing_m must be positive, got {spacing_m}")
    if n_elements == 1:
        positions = np.zeros((1, 2))
    else:
        radius = spacing_m / (2.0 * np.sin(np.pi / n_elements))
        angles = 2.0 * np.pi * np.arange(n_elements) / n_elements
        positions = radius * np.column_stack([np.cos(angles), np.sin(angles)])
        positions -= positions.mean(axis=0)  # kill float residue in the centroid
    return ArrayModel(element_positions=positions, orientation=orientation)


def steering(array: ArrayModel, global_angle: float, omega_total: float) -> SteeringPair:
    """Steering vector at a global bearing and total radian frequency.

    Element k gets exp(j * (omega_total / c) * e_r(local_angle) . pos_k) with
    local_angle = global_angle - array.orientation. The derivative is taken
    w.r.t. the local angle:

        a_dot_k = j * (omega_total / c) * (e_phi(local_angle) . pos_k) * a_k
    """
    local = global_angle - array.orientation
    e_r, e_phi = polar_units(local)
    k_wave = omega_total / SPEED_OF_LIGHT
    radial = array.element_positions @ e_r  # (n,)
    tangential = array.element_positions @ e_phi
    a = np.exp(1j * k_wave * radial)
    a_dot = 1j * k_wave * tangential * a
    return SteeringPair(
        a=a,
        a_dot=a_dot,
        norm_a=float(np.sqrt(array.n_elements)),
        norm_a_dot=float(np.linalg.norm(a_dot)),
    )

