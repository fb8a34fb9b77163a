"""Information-matrix routes, effective forms, and bound properties."""

import numpy as np
import pytest

from conftest import (
    default_scenario,
    pilots_from_blocks,
    random_feasible_blocks,
    random_scenario,
)

from bisense.array_manifold import steering
from bisense.errors import SingularEFIM
from bisense.fisher import (
    BeamCovariance,
    _Kernel,
    bundle_from_fim,
    check_beam_covariance,
    fim_entrywise,
    fim_from_derivatives,
    fim_xform,
    full_fim_speb,
    full_fim_speb_known_gain,
    peb,
    precoder,
    speb,
    speb_known_gain,
    subcarrier_offsets_rad,
)
from bisense.geometry import Position2D, derive_geometry


def rel_frob(a, b):
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return np.linalg.norm(a - b) / scale


def test_subcarrier_grids():
    assert subcarrier_offsets_rad(1, 2.4e6) == (0.0,)
    offs = np.array(subcarrier_offsets_rad(2, 2.4e6))
    assert np.allclose(offs, [-2 * np.pi * 2.4e6, 2 * np.pi * 2.4e6])
    offs4 = np.array(subcarrier_offsets_rad(4, 1e6)) / (2 * np.pi * 1e6)
    assert np.allclose(offs4, [-2, -1, 1, 2])
    offs5 = np.array(subcarrier_offsets_rad(5, 1e6)) / (2 * np.pi * 1e6)
    assert np.allclose(offs5, [-2, -1, 0, 1, 2])


def test_asymmetric_grid_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        default_scenario().__class__(
            **{
                **default_scenario().__dict__,
                "subcarrier_offsets": (1e6, 2e6),
            }
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_subcarriers": 64, "narrowband": False},
        {"n_subcarriers": 256, "narrowband": False, "spacing_hz": 30e3},
        {"n_subcarriers": 4, "narrowband": False, "n_tx": 1},
        {"n_subcarriers": 4},
    ],
    ids=["p64_wideband", "p256_wideband_30khz", "single_tx_wideband", "p4_narrowband"],
)
def test_kernel_norms_match_per_subcarrier_steering(kwargs):
    scn = default_scenario(**kwargs)
    kernel = _Kernel.build(scn)
    geom = derive_geometry(scn.p_t, scn.p_r, scn.p_s)
    for array, angle, got in (
        (scn.tx_array, geom.theta_t, kernel.nda_t),
        (scn.rx_array, geom.theta_r, kernel.nda_r),
    ):
        want = np.array(
            [
                steering(array, angle, scn.omega_carrier + (0.0 if scn.narrowband else w)).norm_a_dot
                for w in scn.subcarrier_offsets
            ]
        )
        if scn.narrowband:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    if scn.n_tx == 1:
        assert not kernel.nda_t.any()


def test_fim_contracts_stacked_aggregates(rng):
    """fim takes aggregates of shape (n, 8) and returns the stack of the
    per-row matrices, each symmetric."""
    for _ in range(10):
        scn = random_scenario(rng)
        kernel = _Kernel.build(scn)
        Z = np.stack(
            [kernel._aggregates(random_feasible_blocks(rng, scn).blocks) for _ in range(5)]
        )
        stacked = kernel.fim(Z)
        assert stacked.shape == (5, 5, 5)
        for z, J in zip(Z, stacked):
            one = kernel.fim(z)
            scale = np.abs(one).max()
            assert np.abs(J - one).max() <= 1e-15 * scale
            assert np.abs(J - J.T).max() <= 1e-15 * scale


def test_precoder_orthonormal_columns():
    scn = default_scenario()
    for p in range(scn.n_subcarriers):
        f_mat = precoder(scn, p)
        assert f_mat.shape == (15, 2)
        gram = f_mat.conj().T @ f_mat
        assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_precoder_alignment_with_steering():
    from bisense.array_manifold import steering
    from bisense.geometry import derive_geometry

    scn = default_scenario()
    geom = derive_geometry(scn.p_t, scn.p_r, scn.p_s)
    pair = steering(scn.tx_array, geom.theta_t, scn.omega_carrier)
    f_mat = precoder(scn, 0)
    proj = pair.a @ f_mat
    assert proj[0] == pytest.approx(pair.norm_a, rel=1e-12)
    assert abs(proj[1]) < 1e-9 * pair.norm_a


def test_precoder_single_element():
    scn = default_scenario(n_tx=1)
    f_mat = precoder(scn, 0)
    assert f_mat.shape == (1, 1)
    assert f_mat[0, 0] == pytest.approx(1.0 + 0j)


def test_three_routes_agree(rng):
    for _ in range(40):
        scn = random_scenario(rng)
        bc = random_feasible_blocks(rng, scn)
        j_entry = fim_entrywise(scn, bc).J
        j_x = fim_xform(scn, bc)
        j_deriv = fim_from_derivatives(scn, pilots_from_blocks(scn, bc))
        assert rel_frob(j_entry, j_x) < 1e-8
        assert rel_frob(j_entry, j_deriv) < 1e-8


def test_block_sparsity_of_arrival_row(rng):
    for _ in range(10):
        scn = random_scenario(rng)
        bc = random_feasible_blocks(rng, scn)
        J = fim_entrywise(scn, bc).J
        assert np.all(J[:4, 4] == 0.0)
        assert np.all(J[4, :4] == 0.0)
        assert J[0, 1] == 0.0
        assert J[0, 0] == J[1, 1]


def test_fim_symmetric_psd(rng):
    for _ in range(10):
        scn = random_scenario(rng)
        bc = random_feasible_blocks(rng, scn)
        J = fim_entrywise(scn, bc).J
        assert np.array_equal(J, J.T)
        assert np.linalg.eigvalsh(J).min() > -1e-8 * np.linalg.norm(J)


def test_single_subcarrier_delay_information_cancels(rng):
    # with one subcarrier the gain uncertainty absorbs all delay information
    for n_sub, spacing in ((1, 2.4e6), (1, 0.0)):
        scn = default_scenario(n_subcarriers=n_sub, spacing_hz=spacing)
        bc = random_feasible_blocks(rng, scn)
        b = fim_entrywise(scn, bc)
        j11 = b.J11[0, 0]
        gap = b.J22[0, 0] - (b.J12[0, 0] ** 2 + b.J12[1, 0] ** 2) / j11
        assert abs(gap) <= 1e-12 * max(b.J22[0, 0], 1e-300)
        assert np.all(np.abs(b.J_e[0]) <= 1e-12 * max(np.abs(b.J_e).max(), 1e-300))


def test_offset_single_subcarrier_also_cancels(rng):
    scn = default_scenario()
    scn = scn.__class__(
        **{
            **scn.__dict__,
            "subcarrier_offsets": (2 * np.pi * 2.4e6,),
            "symmetric_subcarriers": False,
        }
    )
    bc = random_feasible_blocks(rng, scn)
    b = fim_entrywise(scn, bc)
    assert abs(b.J_e[0, 0]) <= 1e-12 * b.J22[0, 0]


def test_zero_blocks_singular():
    scn = default_scenario()
    bundle = fim_entrywise(scn, BeamCovariance.zero(scn))
    assert np.all(bundle.J == 0.0)
    assert bundle.singular
    with pytest.raises(SingularEFIM):
        speb(bundle)


def test_rank_one_pilot_gives_no_departure_information():
    scn = default_scenario(n_subcarriers=1)
    f_mat = precoder(scn, 0)
    pilot = np.sqrt(scn.power_budget) * f_mat[:, :1]
    J = fim_from_derivatives(scn, [pilot])
    # same power on the derivative direction, for scale
    J_ref = fim_from_derivatives(scn, [np.sqrt(scn.power_budget) * f_mat[:, 1:]])
    assert J[3, 3] < 1e-20 * J_ref[3, 3]


def test_speb_reference_values():
    # hand-buildable information matrix: unit observable block, no cross terms
    J = np.eye(5)
    jac = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    bundle = bundle_from_fim(J, jac, gain=1.0 + 0j)
    assert speb(bundle) == pytest.approx(2.0, rel=1e-15)
    jac2 = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    bundle2 = bundle_from_fim(J, jac2, gain=1.0 + 0j)
    assert speb(bundle2) == pytest.approx(0.25 + 1.0, rel=1e-15)
    assert peb(bundle2) == pytest.approx(np.sqrt(1.25), rel=1e-15)


def test_speb_scales_inversely_with_power(rng):
    scn = default_scenario()
    bc = random_feasible_blocks(rng, scn, power_fraction=0.5)
    s1 = speb(fim_entrywise(scn, bc))
    s2 = speb(fim_entrywise(scn, BeamCovariance(blocks=bc.blocks * 2.0)))
    assert s2 == pytest.approx(s1 / 2.0, rel=1e-12)


def test_full_matrix_form_matches_reduced_form(rng):
    for _ in range(15):
        scn = random_scenario(rng, nt_choices=(2, 8, 15), nr_choices=(3, 15))
        bc = random_feasible_blocks(rng, scn)
        bundle = fim_entrywise(scn, bc)
        if bundle.singular:
            continue
        assert full_fim_speb(bundle.J, bundle.jacobian) == pytest.approx(
            speb(bundle), rel=1e-10
        )
        if not bundle.singular_known_gain:
            assert full_fim_speb_known_gain(
                bundle.J, bundle.jacobian, scn.gain
            ) == pytest.approx(speb_known_gain(bundle), rel=1e-10)


def _blocks_pure_imag_cross(rng, scn, antisym=False):
    """Feasible blocks whose cross entries are purely imaginary."""
    p_count = scn.n_subcarriers
    b11 = rng.uniform(0.2, 1.0, p_count)
    b22 = rng.uniform(0.2, 1.0, p_count)
    y = rng.uniform(-0.3, 0.3, p_count)
    if antisym:
        order = np.argsort(scn.subcarrier_offsets)
        y = y - y[order[::-1]]  # pair each offset with its mirror
        b11 = 0.5 * (b11 + b11[order[::-1]])
    blocks = np.zeros((p_count, 2, 2), complex)
    for p in range(p_count):
        cross = 1j * y[p] * np.sqrt(b11[p] * b22[p])
        blocks[p] = [[b11[p], -cross], [cross, b22[p]]]
    total = np.trace(blocks, axis1=1, axis2=2).real.sum()
    blocks *= scn.power_budget / total
    return BeamCovariance(blocks=blocks)


def test_known_gain_equality_for_imaginary_cross_real_gain(rng):
    scn = default_scenario()  # real positive gain
    for _ in range(10):
        bc = _blocks_pure_imag_cross(rng, scn)
        bundle = fim_entrywise(scn, bc)
        assert speb_known_gain(bundle) == speb(bundle)  # bit-exact


def test_known_gain_equality_for_imaginary_cross_complex_gain(rng):
    scn = default_scenario(gain_phase=0.83)
    for _ in range(10):
        bc = _blocks_pure_imag_cross(rng, scn)
        bundle = fim_entrywise(scn, bc)
        assert speb_known_gain(bundle) == pytest.approx(speb(bundle), rel=1e-10)


def test_known_gain_strictly_better_with_real_cross(rng):
    scn = default_scenario()
    bc = _blocks_pure_imag_cross(rng, scn)
    blocks = bc.blocks.copy()
    blocks[1, 0, 1] *= np.exp(-1j * 0.4)  # rotate one cross entry
    blocks[1, 1, 0] = np.conj(blocks[1, 0, 1])
    bundle = fim_entrywise(scn, BeamCovariance(blocks=blocks))
    assert speb_known_gain(bundle) < speb(bundle)


def test_known_gain_never_worse_loewner(rng):
    for _ in range(10):
        scn = random_scenario(rng, nt_choices=(8, 15), nr_choices=(3, 15))
        bc = random_feasible_blocks(rng, scn)
        b = fim_entrywise(scn, bc)
        scale = max(np.abs(b.J22).max(), 1e-300)
        # J_e <= J_eh <= J22 in the PSD order
        assert np.linalg.eigvalsh(b.J_eh - b.J_e).min() > -1e-12 * scale
        assert np.linalg.eigvalsh(b.J22 - b.J_eh).min() > -1e-12 * scale
        assert np.linalg.eigvalsh(b.J22 - b.J_e).min() > -1e-12 * scale


def test_gain_phase_invariance(rng):
    bc = None
    values = []
    for phase in np.linspace(0, 2 * np.pi, 7):
        scn = default_scenario(gain_phase=phase)
        if bc is None:
            bc = random_feasible_blocks(rng, scn)
        values.append(speb(fim_entrywise(scn, bc)))
    assert np.ptp(values) < 1e-10 * values[0]


def test_gain_magnitude_scaling(rng):
    scn1 = default_scenario()
    scn4 = default_scenario(gain=scn1.gain * 4.0)
    bc = random_feasible_blocks(rng, scn1)
    assert speb(fim_entrywise(scn4, bc)) == speb(fim_entrywise(scn1, bc)) / 16.0


def test_no_information_loss_condition(rng):
    # symmetric steering power, antisymmetric imaginary cross: penalty vanishes
    scn = default_scenario()
    bc = _blocks_pure_imag_cross(rng, scn, antisym=True)
    bundle = fim_entrywise(scn, bc)
    penalty = bundle.J22 - bundle.J_e
    assert np.abs(penalty).max() <= 1e-10 * np.abs(bundle.J22).max()
    # and breaking either condition brings the penalty back
    blocks = bc.blocks.copy()
    blocks[0, 0, 0] *= 0.5
    bundle2 = fim_entrywise(scn, BeamCovariance(blocks=blocks))
    penalty2 = bundle2.J22 - bundle2.J_e
    assert np.abs(penalty2).max() > 1e-6 * np.abs(bundle2.J22).max()


def test_validation_rejects_bad_blocks(rng):
    scn = default_scenario()
    good = random_feasible_blocks(rng, scn)
    over = BeamCovariance(blocks=good.blocks * (1.5 * scn.power_budget / good.total_power()))
    with pytest.raises(ValueError, match="budget"):
        check_beam_covariance(over, scn)
    non_herm = good.blocks.copy()
    non_herm[0, 0, 1] += 0.1 * scn.power_budget
    with pytest.raises(ValueError, match="Hermitian"):
        check_beam_covariance(BeamCovariance(blocks=non_herm), scn)
    indef = good.blocks.copy()
    indef[0] = np.array([[1.0, 0], [0, -0.2]]) * scn.power_budget / 10
    with pytest.raises(ValueError, match="PSD"):
        check_beam_covariance(BeamCovariance(blocks=indef), scn)
    with pytest.raises(ValueError, match="blocks"):
        check_beam_covariance(
            BeamCovariance(blocks=good.blocks[:1]), scn
        )


def test_wideband_narrowband_converge_for_small_offsets(rng):
    # tiny relative bandwidth: the two manifold policies nearly coincide
    scn_nb = default_scenario(narrowband=True)
    scn_wb = default_scenario(narrowband=False)
    bc = random_feasible_blocks(rng, scn_nb)
    s_nb = speb(fim_entrywise(scn_nb, bc))
    s_wb = speb(fim_entrywise(scn_wb, bc))
    assert s_wb == pytest.approx(s_nb, rel=1e-2)
    assert s_wb != s_nb  # but they are genuinely different evaluations


def test_known_gain_with_explicit_gain_argument(rng):
    scn = default_scenario(gain_phase=0.3)
    bc = random_feasible_blocks(rng, scn)
    bundle = fim_entrywise(scn, bc)
    assert speb_known_gain(bundle, scn.gain) == speb_known_gain(bundle)


def test_uniform_blocks_touch_budget():
    scn = default_scenario(n_subcarriers=5)
    bc = BeamCovariance.uniform(scn)
    assert bc.total_power() == pytest.approx(scn.power_budget, rel=1e-12)
    check_beam_covariance(bc, scn)
