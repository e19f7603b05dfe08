"""Dephasing, phase rotation, environment coupling and calibrations."""

import numpy as np
import pytest
from scipy.linalg import expm

from povmdt import (
    CouplingConfig,
    Environment,
    apply_dephasing,
    apply_phase_rotation,
    calibrate_phase,
    calibrate_xi,
    dephase_via_environment,
    error_transfer_variance,
    estimate_from_tables,
    exact_entry_tables,
    make_sic_povm,
    matrix_entry_oracle,
    random_povm,
    rt_coefficients,
    wavepacket_overlap,
    xi_from_environment,
)
from povmdt.linalg import dag, partial_trace

S26 = np.sqrt(2) / 6


class TestDephasing:
    def test_identity_at_unit_overlap(self, sic):
        out = apply_dephasing(sic, 1.0, 1, 0)
        for (_, a), (_, b) in zip(out, sic):
            np.testing.assert_array_equal(a, b)

    def test_full_dephasing_zeroes_slot(self, sic):
        out = apply_dephasing(sic, 0.0, 1, 0)
        for lab in out.labels:
            assert out.element(lab)[1, 0] == 0
            assert out.element(lab)[0, 1] == 0

    def test_sic_element_two_half_overlap(self, sic):
        out = apply_dephasing(sic, 0.5, 1, 0)
        assert abs(matrix_entry_oracle(out, 2, 1, 0) - (-np.sqrt(2) / 12)) < 1e-12

    def test_out_of_range_xi(self, sic):
        with pytest.raises(ValueError, match="xi"):
            apply_dephasing(sic, 1.2, 1, 0)

    def test_untouched_entries(self):
        povm = random_povm(3, 4, seed=2)
        out = apply_dephasing(povm, 0.4, 0, 2)
        for lab in povm.labels:
            a, b = povm.element(lab), out.element(lab)
            for idx in ((0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)):
                assert a[idx] == b[idx]

    def test_preserves_completeness(self):
        povm = random_povm(2, 4, seed=8)
        out = apply_dephasing(povm, 0.3, 0, 1)
        assert out.completeness_residual() < 1e-12


class TestPhaseRotation:
    def test_zero_angle_identity(self, sic):
        out = apply_phase_rotation(sic, 0.0, 1, 0)
        for (_, a), (_, b) in zip(out, sic):
            np.testing.assert_array_equal(a, b)

    def test_full_turn_identity(self, sic):
        out = apply_phase_rotation(sic, 2 * np.pi, 1, 0)
        for (_, a), (_, b) in zip(out, sic):
            assert np.abs(a - b).max() < 1e-12

    def test_sic_element_three(self, sic):
        phi = 2 * np.pi / 5
        out = apply_phase_rotation(sic, phi, 1, 0)
        want = S26 * np.exp(-1j * (2 * np.pi / 3 + phi))
        assert abs(matrix_entry_oracle(out, 3, 1, 0) - want) < 1e-12

    def test_modulus_invariant(self, sic):
        out = apply_phase_rotation(sic, 1.23, 1, 0)
        for lab in sic.labels:
            assert (
                abs(abs(out.element(lab)[1, 0]) - abs(sic.element(lab)[1, 0])) < 1e-12
            )

    def test_equivalent_to_unitary_conjugation(self, sic):
        """Slot map == conjugation by exp(i phi/2 C) on a qubit."""
        phi = 0.77
        c = np.diag([-1.0, 1.0]).astype(complex)  # |a_1><a_1| - |a_0><a_0| for (j,k)=(1,0)
        u = expm(1j * (phi / 2) * c)
        out = apply_phase_rotation(sic, phi, 1, 0)
        for lab in sic.labels:
            conj = dag(u) @ sic.element(lab) @ u
            np.testing.assert_allclose(out.element(lab), conj, atol=1e-12)

    def test_preserves_completeness(self):
        povm = random_povm(2, 3, seed=4)
        out = apply_phase_rotation(povm, 0.9, 0, 1)
        assert out.completeness_residual() < 1e-12


class TestTransformAlgebra:
    def test_dephasing_and_rotation_commute(self, sic):
        # commuting scalar maps; float product reordering costs one ulp
        a = apply_dephasing(apply_phase_rotation(sic, 0.8, 1, 0), 0.6, 1, 0)
        b = apply_phase_rotation(apply_dephasing(sic, 0.6, 1, 0), 0.8, 1, 0)
        for (_, x), (_, y) in zip(a, b):
            np.testing.assert_allclose(x, y, atol=1e-15, rtol=0)

    def test_estimator_transparency(self, sic):
        """The exact pipeline tracks the transformed entries."""
        g = np.pi / 4
        coeffs = rt_coefficients(2, g)
        cfg = CouplingConfig.symmetric(g)
        xi, phi = 0.35, 1.9
        noisy = apply_phase_rotation(apply_dephasing(sic, xi, 1, 0), phi, 1, 0)
        for lab in sic.labels:
            est = estimate_from_tables(
                exact_entry_tables(noisy.element(lab), 1, 0, cfg), coeffs
            )
            want = matrix_entry_oracle(sic, lab, 1, 0) * xi * np.exp(-1j * phi)
            assert abs(est - want) < 1e-9

    def test_precision_invariance(self, sic):
        """Predicted variance is untouched by either transform."""
        g = np.pi / 4
        coeffs = rt_coefficients(2, g)
        cfg = CouplingConfig.symmetric(g)

        def var(povm, lab):
            tables = exact_entry_tables(povm.element(lab), 1, 0, cfg)
            return sum(error_transfer_variance(tables, coeffs, 12790))

        for lab in sic.labels:
            base = var(sic, lab)
            for xi in (1.0, 0.5, 0.0):
                assert abs(var(apply_dephasing(sic, xi, 1, 0), lab) - base) < 1e-12
            for phi in (0.0, 2 * np.pi / 5):
                assert abs(var(apply_phase_rotation(sic, phi, 1, 0), lab) - base) < 1e-12


class TestEnvironmentCoupling:
    def test_zero_coupling_is_identity(self, sic):
        env = Environment(np.eye(2) / 2, np.diag([1.0, -1.0]), 0.0)
        c = np.diag([1.0, -1.0]).astype(complex)
        out = dephase_via_environment(sic.element(3), env, c)
        np.testing.assert_allclose(out, sic.element(3), atol=1e-14)

    def test_sigma_z_plus_state_gives_cosine(self, sic):
        """Independent two-level-environment oracle: scaling cos(eps)."""
        eps = 0.8
        plus = np.full((2, 2), 0.5, dtype=complex)
        env = Environment(plus, np.diag([1.0, -1.0]), eps)
        xi = xi_from_environment(env)
        assert abs(xi - np.cos(eps)) < 1e-12
        c = np.diag([1.0, -1.0]).astype(complex)  # slot (j,k) = (0,1)
        out = dephase_via_environment(sic.element(2), env, c)
        assert abs(out[0, 1] - np.cos(eps) * sic.element(2)[0, 1]) < 1e-12

    def test_matches_brute_force_reduction(self, sic, rng):
        """Full joint construction with expm, reduced by an index loop."""
        eps = 1.1
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho_e = a @ dag(a)
        rho_e /= np.trace(rho_e).real
        omega = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        omega = (omega + dag(omega)) / 2
        env = Environment(rho_e, omega, eps)
        c = np.diag([1.0, -1.0]).astype(complex)
        pi = sic.element(4)
        got = dephase_via_environment(pi, env, c)
        u = expm(-1j * (eps / 2) * np.kron(c, omega))
        want = partial_trace(dag(u) @ np.kron(pi, rho_e) @ u, (2, 3), keep=0)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_equivalence_with_scalar_map(self, sic):
        """Environment reduction == scalar dephasing at the derived overlap."""
        eps = 0.6
        plus = np.full((2, 2), 0.5, dtype=complex)
        env = Environment(plus, np.diag([1.0, -1.0]), eps)
        xi = xi_from_environment(env)
        assert abs(xi.imag) < 1e-14
        c = np.diag([-1.0, 1.0]).astype(complex)  # slot (j,k) = (1,0)
        scalar = apply_dephasing(sic, float(xi.real), 1, 0)
        for lab in sic.labels:
            env_out = dephase_via_environment(sic.element(lab), env, c)
            np.testing.assert_allclose(env_out, scalar.element(lab), atol=1e-10)

    def test_dimension_mismatch(self, sic):
        env = Environment(np.eye(2) / 2, np.diag([1.0, -1.0]), 0.5)
        with pytest.raises(ValueError, match="differ"):
            dephase_via_environment(np.eye(3), env, np.diag([1.0, -1.0]))


class TestWavepacketOverlap:
    def test_zero_delay(self):
        assert wavepacket_overlap(0.0, 80.0) == 1.0

    def test_coherence_length_point(self):
        assert abs(wavepacket_overlap(80.0, 80.0) - np.exp(-0.5)) < 1e-15

    def test_monotone_decay_on_grid(self):
        vals = [wavepacket_overlap(e, 120.0) for e in range(0, 241, 20)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0 <= v <= 1 for v in vals)

    def test_positive_length_required(self):
        with pytest.raises(ValueError, match="positive"):
            wavepacket_overlap(10.0, 0.0)


class TestCalibrateXi:
    def test_analytic_path(self):
        for xi in (0.0, 0.37, 1.0):
            assert calibrate_xi(xi) == xi

    def test_unit_overlap_sampled(self):
        assert calibrate_xi(1.0, n=1000, seed=3) == 1.0

    def test_binomial_tolerance(self):
        xi, n = 0.6, 100000
        est = calibrate_xi(xi, n=n, seed=11)
        assert abs(est - xi) < 3 * np.sqrt((1 - xi**2) / n)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="xi"):
            calibrate_xi(1.5)
        with pytest.raises(ValueError, match="positive"):
            calibrate_xi(0.5, n=0)


class TestCalibratePhase:
    @pytest.mark.parametrize(
        "delta,want", [(0.5, 0.0), (0.0, np.pi / 2), (-0.5, np.pi)]
    )
    def test_anchor_points(self, delta, want):
        assert abs(calibrate_phase(0.5 + delta / 2, 0.5 - delta / 2) - want) < 1e-12

    def test_clamp_margin(self):
        assert calibrate_phase(0.5 + 0.25 + 2e-10, 0.25) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="calibration"):
            calibrate_phase(1.0, -0.2)


class TestEnvironmentValidation:
    def test_bad_density(self):
        with pytest.raises(ValueError, match="density"):
            Environment(np.eye(2), np.diag([1.0, -1.0]), 0.1)

    def test_bad_observable(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Environment(np.eye(2) / 2, np.array([[0, 1], [0, 0]]), 0.1)
