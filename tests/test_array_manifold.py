"""Circular arrays and steering-vector properties."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bisense.array_manifold import ArrayModel, build_uca, steering
from bisense.errors import InvalidArray
from bisense.geometry import SPEED_OF_LIGHT

OMEGA_C = 2 * np.pi * 3.8e9
HALF_WAVE = SPEED_OF_LIGHT / 3.8e9 / 2


def numeric_a_dot(array, angle, omega, step=1e-5):
    hi = steering(array, angle + step, omega).a
    lo = steering(array, angle - step, omega).a
    return (hi - lo) / (2 * step)


def test_uca_radius_two_elements():
    arr = build_uca(2, 0.04)
    d = np.linalg.norm(arr.element_positions[0] - arr.element_positions[1])
    assert d == pytest.approx(0.04, rel=1e-12)
    # antipodal pair: radius is half the spacing
    assert np.linalg.norm(arr.element_positions[0]) == pytest.approx(0.02, rel=1e-12)


def test_uca_radius_four_elements():
    arr = build_uca(4, 0.04)
    # radius = s / (2 sin(pi/4)) = s / sqrt(2)
    assert np.linalg.norm(arr.element_positions[0]) == pytest.approx(
        0.04 / np.sqrt(2), rel=1e-12
    )


def test_uca_chord_spacing_fifteen():
    arr = build_uca(15, HALF_WAVE)
    pos = arr.element_positions
    for k in range(15):
        chord = np.linalg.norm(pos[k] - pos[(k + 1) % 15])
        assert chord == pytest.approx(HALF_WAVE, abs=1e-12)


def test_uca_centroid_zero():
    for n in (2, 3, 7, 15):
        arr = build_uca(n, HALF_WAVE)
        assert np.linalg.norm(arr.element_positions.sum(axis=0)) < 1e-12


def test_off_centre_array_rejected():
    for n in range(1, 17):
        for spacing in (HALF_WAVE, 1e-3, 10.0):
            build_uca(n, spacing)  # centred to rounding: accepted
    shifted = build_uca(15, HALF_WAVE).element_positions + np.array([0.01, 0.0])
    with pytest.raises(InvalidArray, match="centered"):
        ArrayModel(element_positions=shifted)
    with pytest.raises(InvalidArray, match="centered"):
        ArrayModel(element_positions=np.array([[0.01, 0.0]]))


def test_invalid_array_args():
    with pytest.raises(InvalidArray):
        build_uca(0, 0.04)
    with pytest.raises(InvalidArray):
        build_uca(4, 0.0)
    with pytest.raises(InvalidArray):
        build_uca(4, -1.0)


def test_single_element():
    arr = build_uca(1, HALF_WAVE)
    sp = steering(arr, 0.7, OMEGA_C)
    assert sp.a.shape == (1,)
    assert sp.a[0] == pytest.approx(1.0 + 0j)
    assert sp.norm_a_dot == 0.0


def test_unit_modulus_and_norm():
    arr = build_uca(15, HALF_WAVE)
    sp = steering(arr, -2.1, OMEGA_C)
    assert np.allclose(np.abs(sp.a), 1.0, atol=1e-14)
    assert sp.norm_a == pytest.approx(np.sqrt(15), rel=1e-15)


@pytest.mark.parametrize("n", range(1, 17))
def test_orthogonality_many_angles(n):
    arr = build_uca(n, HALF_WAVE)
    for angle in np.linspace(-np.pi, np.pi, 64, endpoint=False):
        sp = steering(arr, float(angle), OMEGA_C)
        bound = 1e-9 * sp.norm_a * sp.norm_a_dot
        assert abs(np.vdot(sp.a, sp.a_dot)) <= max(bound, 1e-30)


@settings(max_examples=60)
@given(
    st.integers(2, 16),
    st.floats(-np.pi, np.pi),
    st.floats(0.5e9, 10e9),
)
@example(n=2, angle=1e-10, freq_ghz=0.5e9)  # |a_dot| 3e-11, below the oracle's rounding
def test_a_dot_matches_finite_differences(n, angle, freq_ghz):
    omega = 2 * np.pi * freq_ghz
    arr = build_uca(n, HALF_WAVE)
    sp = steering(arr, angle, omega)
    step = 1e-5
    num = numeric_a_dot(arr, angle, omega, step)
    err = np.linalg.norm(sp.a_dot - num)
    # Rounding floor of the central difference: each entry of a has unit
    # modulus and a phase k (pos . e_r) of size at most k r_max, so it is
    # computed to within about (1 + k r_max) eps. The difference of two
    # entries over 2 step then errs by up to (1 + k r_max) eps / step, and
    # the vector of n entries by |a| (1 + k r_max) eps / step; the factor 4
    # covers the constants in "about".
    k_r_max = omega / SPEED_OF_LIGHT * np.linalg.norm(arr.element_positions, axis=1).max()
    floor = 4 * sp.norm_a * (1 + k_r_max) * np.finfo(float).eps / step
    assert err < 1e-6 * np.linalg.norm(num) + floor


def test_a_dot_norm_linear_in_frequency():
    arr = build_uca(15, HALF_WAVE)
    base = steering(arr, 0.3, OMEGA_C)
    doubled = steering(arr, 0.3, 2 * OMEGA_C)
    assert doubled.norm_a_dot == pytest.approx(2 * base.norm_a_dot, rel=1e-12)


def test_a_dot_norm_angle_independent_for_big_uca():
    # symmetric rings (n >= 3) have bearing-independent derivative norms
    arr = build_uca(15, HALF_WAVE)
    norms = [steering(arr, a, OMEGA_C).norm_a_dot for a in np.linspace(0, 2 * np.pi, 17)]
    assert np.ptp(norms) < 1e-9 * norms[0]


def test_orientation_shifts_local_angle():
    arr0 = build_uca(15, HALF_WAVE, orientation=0.0)
    arr1 = build_uca(15, HALF_WAVE, orientation=0.4)
    sp0 = steering(arr0, 1.0 - 0.4, OMEGA_C)
    sp1 = steering(arr1, 1.0, OMEGA_C)
    assert np.allclose(sp0.a, sp1.a)
    assert np.allclose(sp0.a_dot, sp1.a_dot)

