"""Sequential coupling, post-selection and exact meter statistics."""

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import SY, I2, brute_joint_state, brute_w_cell, kron3, proj

from povmdt import (
    CouplingConfig,
    DeadPostSelectionError,
    build_observables,
    coupling_unitary,
    estimate_from_tables,
    evolve_joint,
    exact_entry_tables,
    matrix_entry_oracle,
    make_sic_povm,
    meter_tables,
    pointer_state_b0,
    prepare_entry_state,
    random_povm,
)
from povmdt.estimator import rt_coefficients
from povmdt.linalg import dag, random_unitary, tensor
from povmdt.protocol import (
    BASIS_PROJECTORS,
    CELL_PROJECTORS,
    SETTINGS,
    JointState,
    check_postselection,
    reduced_meter_operator,
)


def loop_meter_tables(js, pi_l):
    """Per-cell reference: one 4x4 product projector and one trace per cell."""
    k = reduced_meter_operator(js, pi_l)
    tables = np.empty((9, 2, 2))
    for s, (bb, ba) in enumerate(SETTINGS):
        for m in range(2):
            for n in range(2):
                proj = tensor(BASIS_PROJECTORS[bb][m], BASIS_PROJECTORS[ba][n])
                tables[s, m, n] = np.trace(proj @ k).real
    return tables


def rt_estimate(js, pi_l, g):
    """Entry estimate of the exact pipeline: meter tables through the cell weights."""
    return estimate_from_tables(meter_tables(js, pi_l), rt_coefficients(js.system_dim, g))


class TestPointerState:
    def test_d2(self):
        np.testing.assert_allclose(pointer_state_b0(2), np.ones(2) / np.sqrt(2), atol=1e-15)

    def test_d4(self):
        np.testing.assert_allclose(pointer_state_b0(4), np.full(4, 0.5), atol=1e-15)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_normalized(self, d):
        v = pointer_state_b0(d)
        assert abs(np.vdot(v, v) - 1) < 1e-14


class TestObservables:
    def test_d2_closed_forms(self):
        o_b, o_a = build_observables(2, 0)
        np.testing.assert_allclose(o_b, -np.array([[0, 1], [1, 0]]), atol=1e-15)
        np.testing.assert_allclose(o_a, np.diag([-1.0, 1.0]), atol=1e-15)

    @pytest.mark.parametrize("d,k", [(2, 1), (3, 0), (5, 3)])
    def test_reflection_spectrum(self, d, k):
        for o in build_observables(d, k):
            w = np.sort(np.linalg.eigvalsh(o))
            np.testing.assert_allclose(w[0], -1, atol=1e-12)
            np.testing.assert_allclose(w[1:], np.ones(d - 1), atol=1e-12)

    def test_involution(self):
        for o in build_observables(4, 2):
            assert np.abs(o @ o - np.eye(4)).max() < 1e-12

    def test_out_of_range_k(self):
        with pytest.raises(IndexError):
            build_observables(3, 3)


class TestCouplingUnitary:
    def test_zero_coupling_is_identity(self):
        u = coupling_unitary(np.diag([1.0, -1.0]), 0.0, "b")
        np.testing.assert_allclose(u, np.eye(8), atol=1e-15)

    def test_closed_form_matches_exponential(self):
        sz = np.diag([1.0, -1.0]).astype(complex)
        got = coupling_unitary(sz, np.pi / 4, "b")
        expected = expm(-1j * (np.pi / 4) * kron3(sz, SY, I2))
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_random_involutions_unitary(self, rng):
        for meter in ("b", "a"):
            v = random_unitary(3, rng)
            o = v @ np.diag([1.0, -1.0, 1.0]).astype(complex) @ dag(v)
            u = coupling_unitary(o, 0.7, meter)
            assert np.abs(dag(u) @ u - np.eye(12)).max() < 1e-12
            expected = expm(
                -1j * 0.7 * kron3(o, SY if meter == "b" else I2, SY if meter == "a" else I2)
            )
            np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_rejects_non_involutory(self):
        with pytest.raises(ValueError, match="involutory"):
            coupling_unitary(np.diag([1.0, 0.5]), 0.3, "b")


class TestEvolveJoint:
    def test_near_zero_coupling_is_product(self):
        cfg = CouplingConfig.symmetric(1e-9)
        js = evolve_joint(np.diag([0.3, 0.7]).astype(complex), cfg, 0)
        p0 = proj(np.array([1, 0], complex))
        expected = kron3(np.diag([0.3, 0.7]), p0, p0)
        assert np.abs(js.rho - expected).max() < 1e-8

    def test_trace_and_psd_random_inputs(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 5))
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = a @ dag(a)
            rho /= np.trace(rho).real
            js = evolve_joint(rho, CouplingConfig(0.4, 0.9), int(rng.integers(d)))
            assert abs(np.trace(js.rho) - 1) < 1e-12
            assert np.linalg.eigvalsh(js.rho).min() > -1e-12

    def test_against_brute_force_construction(self):
        """Full 8x8 oracle assembled with matrix exponentials."""
        cfg = CouplingConfig.symmetric(np.pi / 4)
        js = evolve_joint(np.diag([0.0, 1.0]).astype(complex), cfg, 0)
        np.testing.assert_allclose(js.rho, brute_joint_state(2, 1, 0, np.pi / 4), atol=1e-12)

    def test_rejects_invalid_density(self):
        with pytest.raises(ValueError, match="density"):
            evolve_joint(np.diag([0.5, 0.6]), CouplingConfig.symmetric(0.5), 0)


class TestJointState:
    def test_stores_read_only_copy(self):
        rho = brute_joint_state(2, 1, 0, 0.6)
        js = JointState(rho, 2)
        before = js.rho.copy()
        rho[0, 0] = 5.0
        np.testing.assert_array_equal(js.rho, before)
        with pytest.raises(ValueError):
            js.rho[0, 0] = 5.0

    def test_memoized_entry_state(self):
        cfg = CouplingConfig.symmetric(0.6)
        js = prepare_entry_state(3, 2, 0, cfg)
        assert prepare_entry_state(3, 2, 0, CouplingConfig.symmetric(0.6)) is js
        assert prepare_entry_state.cache_info().maxsize is not None
        assert not js.rho.flags.writeable
        for _ in range(2):
            with pytest.raises(IndexError):
                prepare_entry_state(3, 3, 0, cfg)
            with pytest.raises(IndexError):
                prepare_entry_state(3, 0, 3, cfg)


class TestCouplingConfig:
    @pytest.mark.parametrize("g", [0.0, np.pi / 2, -0.1, 2.0])
    def test_boundary_rejected(self, g):
        with pytest.raises(ValueError, match="strictly inside"):
            CouplingConfig.symmetric(g)

    def test_asymmetric_rejected_by_estimator_accessor(self):
        cfg = CouplingConfig(0.3, 0.4)
        with pytest.raises(ValueError, match="asymmetric"):
            cfg.g


def post_selection_probability(js, pi):
    """p_f, the trace of the unnormalized post-selected meter operator."""
    return np.trace(reduced_meter_operator(js, pi)).real


class TestPostSelection:
    def test_identity_element_has_unit_probability(self):
        js = prepare_entry_state(2, 1, 0, CouplingConfig.symmetric(0.6))
        assert abs(post_selection_probability(js, np.eye(2)) - 1.0) < 1e-12

    def test_probabilities_sum_to_one_for_complete_povm(self):
        povm = random_povm(3, 5, seed=3)
        js = prepare_entry_state(3, 2, 0, CouplingConfig.symmetric(0.5))
        total = sum(post_selection_probability(js, e) for _, e in povm)
        assert abs(total - 1.0) < 1e-12

    def test_partial_trace_path_equals_full_trace(self, sic):
        """Reduced-operator trace vs full-matrix trace, two code paths."""
        js = prepare_entry_state(2, 1, 0, CouplingConfig.symmetric(np.pi / 4))
        pi = sic.element(1)
        full = np.trace(kron3(pi, I2, I2) @ js.rho).real
        assert abs(post_selection_probability(js, pi) - full) < 1e-12

    def test_dead_post_selection(self):
        js = prepare_entry_state(2, 1, 0, CouplingConfig.symmetric(0.4))
        with pytest.raises(DeadPostSelectionError, match="zero element: post-selection"):
            check_postselection(meter_tables(js, np.zeros((2, 2))), ["zero element"])

    def test_post_selected_state_is_density(self, sic):
        js = prepare_entry_state(2, 1, 0, CouplingConfig.symmetric(0.3))
        k = reduced_meter_operator(js, sic.element(2))
        rho_m = k / np.trace(k).real
        assert abs(np.trace(rho_m) - 1) < 1e-12
        assert np.linalg.eigvalsh(rho_m).min() > -1e-12


class TestMeterDistribution:
    def test_identity_element_weak_coupling_stays_in_00(self):
        js = prepare_entry_state(2, 1, 0, CouplingConfig.symmetric(1e-8))
        w = meter_tables(js, np.eye(2))[SETTINGS.index(("z", "z"))]
        assert abs(w[0, 0] - 1.0) < 1e-12
        assert w[0, 1] + w[1, 0] + w[1, 1] < 1e-12

    def test_weak_coupling_product_pattern(self):
        """Near g = 0 both meters stay in |0>: the z-z correlator is 1 and the
        x-x and y-y correlators vanish; every setting sums to p_f = 1."""
        js = prepare_entry_state(2, 1, 0, CouplingConfig.symmetric(1e-8))
        tables = meter_tables(js, np.eye(2))
        sign = np.array([1.0, -1.0])
        assert abs(sign @ tables[SETTINGS.index(("z", "z"))] @ sign - 1.0) < 1e-7
        assert abs(sign @ tables[SETTINGS.index(("x", "x"))] @ sign) < 1e-7
        assert abs(sign @ tables[SETTINGS.index(("y", "y"))] @ sign) < 1e-7
        for w in tables:
            assert abs(w.sum() - 1.0) < 1e-12

    def test_cells_sum_to_pf_across_all_settings(self, sic):
        js = prepare_entry_state(2, 1, 0, CouplingConfig.symmetric(np.pi / 8))
        pi = sic.element(3)
        p_f = post_selection_probability(js, pi)
        sums = meter_tables(js, pi).sum(axis=(1, 2))
        assert sums.shape == (9,)
        np.testing.assert_allclose(sums, p_f, atol=1e-12)

    def test_against_projector_sandwich_oracle(self, sic):
        """All 36 cells vs the independent full 4d x 4d trace and the per-cell
        loop, for the built-in qubit set and seeded random POVMs (d = 2..4);
        each setting's table is the slice at its index in SETTINGS."""
        g = np.pi / 4
        povms = [sic] + [random_povm(d, d + 2, seed=d) for d in (2, 3, 4)]
        for povm in povms:
            js = prepare_entry_state(povm.dim, 1, 0, CouplingConfig.symmetric(g))
            rho_oracle = brute_joint_state(povm.dim, 1, 0, g)
            for lab in povm.labels:
                pi = povm.element(lab)
                tables = meter_tables(js, pi)
                assert tables.shape == (9, 2, 2) and tables.dtype == np.float64
                np.testing.assert_allclose(
                    tables, loop_meter_tables(js, pi), rtol=0, atol=1e-15
                )
                for bb, ba in SETTINGS:
                    w = tables[SETTINGS.index((bb, ba))]
                    for m in range(2):
                        for n in range(2):
                            cell = brute_w_cell(pi, rho_oracle, bb, ba, m, n)
                            assert abs(w[m, n] - cell) < 1e-12

    def test_invalid_setting(self):
        """A setting outside the nine has no table: its lookup fails."""
        with pytest.raises(ValueError):
            SETTINGS.index(("z", "q"))


class TestStackedTables:
    """A stack of elements gives the per-element results along a leading
    outcome axis, bit for bit."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(808)
        yield make_sic_povm(), 1, 0, np.pi / 4
        for d in range(2, 6):
            for outcomes in (1, 2, 5, 8):
                j, k = (int(x) for x in rng.choice(d, 2, replace=False))
                povm = random_povm(d, outcomes, seed=int(rng.integers(2**31)))
                yield povm, j, k, float(rng.uniform(0.1, 1.4))

    def test_stack_equals_per_element_calls(self):
        for povm, j, k, g in self.cases():
            cfg = CouplingConfig.symmetric(g)
            js = prepare_entry_state(povm.dim, j, k, cfg)
            stack = povm.elements
            per_k = np.array([reduced_meter_operator(js, e) for e in stack])
            per_w = np.array([meter_tables(js, e) for e in stack])
            np.testing.assert_array_equal(reduced_meter_operator(js, stack), per_k)
            np.testing.assert_array_equal(meter_tables(js, stack), per_w)
            # the one-GEMM product sums as the 36 separate products did
            for kk, w in zip(per_k, per_w):
                ref = np.trace(CELL_PROJECTORS @ kk, axis1=1, axis2=2).real.reshape(9, 2, 2)
                np.testing.assert_array_equal(w, ref)
            tables = exact_entry_tables(stack, j, k, cfg)
            assert tables.shape == (len(povm), 9, 2, 2)
            np.testing.assert_array_equal(tables, per_w)
            for e, w in zip(stack, per_w):
                one = exact_entry_tables(e, j, k, cfg)
                assert one.shape == (9, 2, 2)
                np.testing.assert_array_equal(one, w)

    def test_one_element_stack_keeps_its_axis(self, sic):
        cfg = CouplingConfig.symmetric(np.pi / 4)
        tables = exact_entry_tables(sic.elements[:1], 1, 0, cfg)
        assert tables.shape == (1, 9, 2, 2)
        np.testing.assert_array_equal(tables[0], exact_entry_tables(sic.element(1), 1, 0, cfg))

    def test_bad_shapes_rejected(self, sic):
        cfg = CouplingConfig.symmetric(np.pi / 4)
        js = prepare_entry_state(2, 1, 0, cfg)
        for bad in (np.eye(2)[0], np.zeros((2, 3)), np.zeros((1, 1, 2, 2))):
            with pytest.raises(ValueError, match="square matrix"):
                exact_entry_tables(bad, 1, 0, cfg)
        with pytest.raises(ValueError, match="system dimension"):
            meter_tables(js, np.zeros((3, 3, 3)))


class TestExactReconstruction:
    def test_sic_element_value(self, sic):
        js = prepare_entry_state(2, 1, 0, CouplingConfig.symmetric(np.pi / 4))
        got = rt_estimate(js, sic.element(2), np.pi / 4)
        assert abs(got - (-np.sqrt(2) / 6)) < 1e-12

    def test_identity_offdiagonal_is_zero(self):
        cfg = CouplingConfig.symmetric(0.7)
        js = prepare_entry_state(2, 0, 1, cfg)
        assert abs(rt_estimate(js, np.eye(2), 0.7)) < 1e-12

    def test_oracle_equivalence_random_sample(self, rng):
        """Reduced version of the oracle-equivalence property (full set in
        the acceptance suite)."""
        worst = 0.0
        for d, g in [(2, np.pi / 16), (3, np.pi / 8), (4, 3 * np.pi / 8)]:
            povm = random_povm(d, d + 1, seed=int(rng.integers(10000)))
            cfg = CouplingConfig.symmetric(g)
            for lab in povm.labels:
                for j in range(d):
                    for k in range(d):
                        if j == k:
                            continue
                        js = prepare_entry_state(d, j, k, cfg)
                        est = rt_estimate(js, povm.element(lab), g)
                        worst = max(worst, abs(est - matrix_entry_oracle(povm, lab, j, k)))
        assert worst < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("g", [np.pi / 16, np.pi / 4, 3 * np.pi / 8, 1.5])
    def test_entry_witness(self, d, g):
        """sum_c w_c A_c == |a_k><a_j| with A_c = Tr_meters[(I (x) M_c) rho_J]:
        exactness for every element at once, and the cell order shared by
        CELL_PROJECTORS and the estimator's cell weights."""
        coeffs = rt_coefficients(d, g)
        weights = coeffs.cell_re + 1j * coeffs.cell_im
        cfg = CouplingConfig.symmetric(g)
        for j in range(d):
            for k in range(d):
                if j == k:
                    continue
                rho = prepare_entry_state(d, j, k, cfg).rho.reshape(d, 4, d, 4)
                effects = np.einsum("cab,sbta->cst", CELL_PROJECTORS, rho)
                target = np.zeros((d, d), dtype=complex)
                target[k, j] = 1.0
                assert np.abs(np.tensordot(weights, effects, 1) - target).max() < 1e-12

    def test_order_sensitivity(self, sic):
        """Coupling meter A before meter B changes the reconstruction."""
        g = np.pi / 4
        d = 2
        from povmdt.protocol import build_observables as bo

        o_b, o_a = bo(d, 0)
        u_b = coupling_unitary(o_b, g, "b")
        u_a = coupling_unitary(o_a, g, "a")
        rho0 = kron3(np.diag([0.0, 1.0]), proj(np.array([1, 0], complex)),
                     proj(np.array([1, 0], complex)))
        swapped = u_b @ u_a @ rho0 @ dag(u_a) @ dag(u_b)
        js = JointState(swapped, d)
        got = rt_estimate(js, sic.element(2), g)
        truth = matrix_entry_oracle(sic, 2, 1, 0)
        assert abs(got - truth) > 1e-6

    def test_reduced_meter_operator_trace_identity(self, sic, rng):
        """Tr[(Pi (x) M) rho] == Tr[M K] for random meter operators."""
        js = prepare_entry_state(2, 1, 0, CouplingConfig.symmetric(0.9))
        pi = sic.element(4)
        k = reduced_meter_operator(js, pi)
        for _ in range(5):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            lhs = np.trace(np.kron(pi, m) @ js.rho)
            rhs = np.trace(m @ k)
            assert abs(lhs - rhs) < 1e-12

    def test_meter_observables_boundary(self):
        with pytest.raises(ValueError, match="strictly inside"):
            rt_coefficients(2, 0.0)
