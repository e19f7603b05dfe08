"""Sequential coupling, post-selection and exact meter statistics."""

import re

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import SY, I2, brute_joint_state, brute_w_cell, kron3, proj

from povmdt import (
    CouplingConfig,
    DeadPostSelectionError,
    EntryScenario,
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
from povmdt import protocol
from povmdt.estimator import RtCoefficients, rt_coefficients
from povmdt.linalg import dag, random_unitary, tensor
from povmdt.protocol import (
    BASIS_PROJECTORS,
    CELL_PROJECTORS,
    SETTINGS,
    JointState,
    reduced_meter_operator,
)
from povmdt.montecarlo import exact_slot


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
            js = evolve_joint(rho, CouplingConfig(0.4), int(rng.integers(d)))
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


@pytest.mark.parametrize("make", [
    lambda: JointState(brute_joint_state(2, 1, 0, 0.6), 2),
    lambda: EntryScenario(np.eye(2) / 2, 1, 0, 0.6),
    # rt_coefficients is memoized, so two calls return one object
    lambda: RtCoefficients(3, 0.6, 0.25, 0.5, np.ones(36), np.ones(36)),
], ids=["JointState", "EntryScenario", "RtCoefficients"])
def test_array_dataclasses_compare_by_identity(make):
    """Frozen dataclasses with array fields compare and hash by identity: two
    instances of equal content are unequal, and neither comparison raises."""
    a, b = make(), make()
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_memoized_state_is_hashable():
    js = prepare_entry_state(2, 1, 0, CouplingConfig.symmetric(0.6))
    assert prepare_entry_state(2, 1, 0, CouplingConfig.symmetric(0.6)) is js
    assert {js: 1}[js] == 1


class TestCouplingConfig:
    @pytest.mark.parametrize("g", [0.0, np.pi / 2, -0.1, 2.0])
    def test_boundary_rejected(self, g):
        with pytest.raises(ValueError, match="strictly inside"):
            CouplingConfig.symmetric(g)


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
        with pytest.raises(DeadPostSelectionError, match="zero element: post-selection"):
            exact_slot(np.zeros((1, 2, 2)), 1, 0, rt_coefficients(2, 0.4), 1000,
                       lambda i: "zero element")

    def test_refusal_named_only_on_refusal(self, sic):
        """``name`` is called only to refuse, once, with the index of the
        first dead element of the stack."""
        def never(i):
            raise AssertionError("a name was built without a refusal")

        coeffs = rt_coefficients(2, 0.4)
        exact_slot(sic.elements, 1, 0, coeffs, 1000, never)
        calls = []
        stack = np.stack([sic.element(1), np.zeros((2, 2)), np.zeros((2, 2))])
        with pytest.raises(DeadPostSelectionError, match="^element 1: post-selection"):
            exact_slot(stack, 1, 0, coeffs, 1000, lambda i: calls.append(i) or f"element {i}")
        assert calls == [1]

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
            # the cell-effect product differs from the per-cell traces only in
            # rounding order
            for kk, w in zip(per_k, per_w):
                ref = np.trace(CELL_PROJECTORS @ kk, axis1=1, axis2=2).real.reshape(9, 2, 2)
                assert abs(w - ref).max() <= 4 * 2**-52
            tables = exact_entry_tables(stack, j, k, cfg)
            assert tables.shape == (len(povm), 9, 2, 2)
            np.testing.assert_array_equal(tables, per_w)
            for e, w in zip(stack, per_w):
                one = exact_entry_tables(e, j, k, cfg)
                assert one.shape == (9, 2, 2)
                np.testing.assert_array_equal(one, w)

    def test_cells_match_trace_within_four_ulp(self):
        """The cells, one product of the element with the cell effects, lie
        within 4 * 2**-52 of numpy's trace of the meter-product blocks: the
        two sum the same terms in different orders."""
        rng = np.random.default_rng(4096)
        for d in range(2, 6):
            for outcomes in range(1, 9):
                povm = random_povm(d, outcomes, seed=int(rng.integers(2**31)))
                j, k = (int(x) for x in rng.choice(d, 2, replace=False))
                for g in (np.pi / 16, np.pi / 8, np.pi / 4, 3 * np.pi / 8):
                    js = prepare_entry_state(d, j, k, CouplingConfig.symmetric(g))
                    kk = reduced_meter_operator(js, povm.elements)
                    blocks = (CELL_PROJECTORS.reshape(144, 4) @ kk).reshape(-1, 4, 4)
                    ref = np.trace(blocks, axis1=1, axis2=2).real.reshape(outcomes, 9, 2, 2)
                    assert abs(meter_tables(js, povm.elements) - ref).max() <= 4 * 2**-52, (
                        d, outcomes, g)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_one_element_equals_its_stack_of_one_bit_for_bit(self, d):
        """One element takes a 1-D np.dot with the effects, and one table set
        a 1-D np.dot with the weights; a stack takes the batched np.matmul.
        A one-element call equals its ``[None]`` stack call in every bit,
        signed zeros included."""

        def bits(x):
            return np.asarray(x).tobytes()

        rng = np.random.default_rng(2400 + d)
        elements = [e for seed in rng.integers(2**31, size=3)
                    for e in random_povm(d, 3, seed=int(seed)).elements]
        signed = np.eye(d, dtype=complex) / d
        signed.imag[...] = -0.0
        elements += [signed, np.zeros((d, d), dtype=complex), -np.zeros((d, d), dtype=complex)]
        for g in (np.pi / 16, 0.6, np.pi / 4, 1.3):
            cfg = CouplingConfig.symmetric(g)
            coeffs = rt_coefficients(d, g)
            for j, k in [(j, k) for j in range(d) for k in range(d) if j != k]:
                js = prepare_entry_state(d, j, k, cfg)
                for e in elements:
                    one = meter_tables(js, e)
                    assert bits(one) == bits(meter_tables(js, e[None])[0])
                    assert bits(exact_entry_tables(e, j, k, cfg)) == bits(
                        exact_entry_tables(e[None], j, k, cfg)[0])
                    zeroed = one.copy()
                    zeroed[::2, 0] = -0.0
                    zeroed[1::2, 1] = 0.0
                    for tables in (one, zeroed, np.full((9, 2, 2), -0.0)):
                        assert bits(estimate_from_tables(tables, coeffs)) == bits(
                            estimate_from_tables(tables[None], coeffs)[0])

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


@pytest.mark.parametrize("call, message", [
    (lambda: protocol._elements(np.zeros(2)),
     "expected a square matrix or a stack of them, got shape (2,)"),
    (lambda: protocol._elements(np.zeros((2, 3))),
     "expected a square matrix or a stack of them, got shape (2, 3)"),
    (lambda: protocol._elements(np.zeros((4, 2, 3))),
     "expected a square matrix or a stack of them, got shape (4, 2, 3)"),
    (lambda: protocol._elements(np.zeros((1, 1, 2, 2))),
     "expected a square matrix or a stack of them, got shape (1, 1, 2, 2)"),
    (lambda: protocol._elements(np.zeros((3, 3)), 2), "element dimension 3 != system dimension 2"),
    (lambda: protocol._elements(np.zeros((5, 3, 3)), 2),
     "element dimension 3 != system dimension 2"),
    (lambda: protocol._cells(np.zeros(36)),
     "W tables must have shape (9, 2, 2) or (L, 9, 2, 2), got (36,)"),
    (lambda: protocol._cells(np.zeros((8, 2, 2))),
     "W tables must have shape (9, 2, 2) or (L, 9, 2, 2), got (8, 2, 2)"),
    (lambda: protocol._cells(np.zeros((9, 2, 2, 1))),
     "W tables must have shape (9, 2, 2) or (L, 9, 2, 2), got (9, 2, 2, 1)"),
    (lambda: protocol._cells(np.zeros((3, 9, 4))),
     "W tables must have shape (9, 2, 2) or (L, 9, 2, 2), got (3, 9, 4)"),
    (lambda: protocol._cells(np.zeros((1, 1, 9, 2, 2))),
     "W tables must have shape (9, 2, 2) or (L, 9, 2, 2), got (1, 1, 9, 2, 2)"),
    (lambda: protocol._cells(np.zeros((9, 2, 2), dtype=np.float32).reshape(36)),
     "W tables must have shape (9, 2, 2) or (L, 9, 2, 2), got (36,)"),
    (lambda: protocol._cells(np.full((9, 2, 2), 0.25 + 0.1j)),
     "W tables must be real, got dtype complex128"),
    (lambda: protocol._cells(np.zeros((2, 9, 2, 2), dtype=np.complex64)),
     "W tables must be real, got dtype complex64"),
    (lambda: exact_entry_tables(np.array([[0.5, np.nan], [0.0, 0.5]]), 1, 0,
                                CouplingConfig.symmetric(0.6)),
     "non-finite element entry: (nan+0j) (entry (0, 1))"),
    (lambda: exact_entry_tables(np.array([np.eye(2) / 2, [[0.5, 0.0], [np.inf, 0.5]]]), 1, 0,
                                CouplingConfig.symmetric(0.6)),
     "non-finite element entry: (inf+0j) (element 1, entry (1, 0))"),
    (lambda: JointState(np.eye(8) / 8, 3), "joint dimension 8 != 4 * system_dim = 12"),
    (lambda: JointState(np.eye(8), 2), "joint state is not a valid density operator within 1e-10"),
    (lambda: pointer_state_b0(1), "system dimension must be >= 2, got 1"),
    (lambda: coupling_unitary(np.eye(2), 0.6, "c"), "which_meter must be 'b' or 'a', got 'c'"),
], ids=["1-D", "2x3", "stack-2x3", "4-D", "dim", "stack-dim", "cells-1-D", "setting-missing",
        "trailing-axis", "cells-3-D", "cells-5-D", "float32-1-D", "complex", "complex-stack",
        "nan-element", "inf-element-of-stack", "joint-dim", "joint-not-density", "pointer-d-1",
        "meter-slot"])
def test_shape_and_dtype_refusals_keep_their_messages(call, message):
    """Each refusal of the protocol layer keeps its message: shapes and
    dtypes of elements and tables, non-finite elements (which would give
    NaN tables), the joint state, the pointer state and the meter slot."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestCellEffects:
    """The cell effects a JointState carries, and meter_tables as their
    product with the element."""

    @staticmethod
    def complex_effects(js):
        """A[s, t, c] from the interleaved real rows (Re A, -Im A)."""
        e = js.effects
        d = js.system_dim
        return (e[0::2] - 1j * e[1::2]).reshape(d, d, 36)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_read_only_real_shape(self, d):
        effects = prepare_entry_state(d, 1, 0, CouplingConfig.symmetric(0.7)).effects
        assert effects.shape == (2 * d * d, 36)
        assert effects.dtype == np.float64
        assert not effects.flags.writeable
        with pytest.raises(ValueError):
            effects[0, 0] = 1.0

    def test_direct_state_has_the_memoized_effects(self):
        for d in range(2, 6):
            cfg = CouplingConfig.symmetric(0.9)
            memo = prepare_entry_state(d, 0, d - 1, cfg)
            direct = JointState(memo.rho, d)
            np.testing.assert_array_equal(direct.effects, memo.effects)
            evolved = evolve_joint(np.diag(np.eye(d)[0]), cfg, d - 1)
            np.testing.assert_array_equal(evolved.effects, memo.effects)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_weights_on_effects_read_the_entry(self, d):
        """sum_c w_c A_c == |a_k><a_j| on the package's own effects, as the
        operator X with Tr[Pi X] = Pi[j, k] (A[s, t] is X[t, s])."""
        for g in (np.pi / 16, np.pi / 4, 3 * np.pi / 8, 1.5):
            coeffs = rt_coefficients(d, g)
            weights = coeffs.cell_re + 1j * coeffs.cell_im
            cfg = CouplingConfig.symmetric(g)
            for j in range(d):
                for k in range(d):
                    if j == k:
                        continue
                    a = self.complex_effects(prepare_entry_state(d, j, k, cfg))
                    target = np.zeros((d, d), dtype=complex)
                    target[k, j] = 1.0
                    assert np.abs((a @ weights).T - target).max() < 1e-12, (d, g, j, k)

    def test_meter_tables_makes_no_per_call_contraction(self, monkeypatch):
        povm = random_povm(3, 5, seed=31)
        js = prepare_entry_state(3, 2, 0, CouplingConfig.symmetric(0.8))
        stacked = meter_tables(js, povm.elements)
        one = meter_tables(js, povm.element(2))

        def refuse(*args, **kwargs):
            raise AssertionError("meter_tables contracted the joint state")

        monkeypatch.setattr(protocol, "reduced_meter_operator", refuse)
        np.testing.assert_array_equal(meter_tables(js, povm.elements), stacked)
        np.testing.assert_array_equal(meter_tables(js, povm.element(2)), one)


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
