"""POVM containers, constructors, the entry oracle and serialization."""

import re
import warnings

import numpy as np
import pytest

from povmdt import (
    Povm,
    load_povm,
    make_parametric_element,
    matrix_entry_oracle,
    povm_from_walk,
    random_povm,
    save_povm,
)
from povmdt import povm as povm_module
from povmdt.linalg import is_hermitian, is_positive_semidefinite, random_unitary


class TestSic:
    def test_entry_values(self, sic):
        """Frozen (V,H) entries of the four elements."""
        s26 = np.sqrt(2) / 6
        w = np.exp(2j * np.pi / 3)
        expected = {1: 0.0, 2: -s26, 3: s26 * w.conjugate(), 4: s26 * w}
        for lab, val in expected.items():
            assert abs(matrix_entry_oracle(sic, lab, 1, 0) - val) < 1e-12

    def test_elements_are_valid_operators(self, sic):
        for _, e in sic:
            assert is_hermitian(e, 1e-12)
            assert is_positive_semidefinite(e, 1e-12)
            assert abs(np.trace(e).real - 0.5) < 1e-12

    def test_known_completeness_residual(self, sic):
        # the printed state set leaves an off-diagonal excess of sqrt(2)/3
        assert abs(sic.completeness_residual() - np.sqrt(2) / 3) < 1e-12

    def test_labels(self, sic):
        assert sic.labels == (1, 2, 3, 4)


class TestParametricElement:
    def test_projector_limit(self):
        np.testing.assert_allclose(
            make_parametric_element(0.0, 1.0, 0.0), np.diag([1.0, 0.0]), atol=0
        )

    def test_direct_substitution(self):
        got = make_parametric_element(np.pi / 4, 0.5, 0.25)
        np.testing.assert_allclose(got, 0.5 * np.array([[0.5, 0.25], [0.25, 0.5]]), atol=1e-15)
        assert np.linalg.eigvalsh(got).min() >= -1e-15

    def test_positivity_violation(self):
        with pytest.raises(ValueError, match="0.6"):
            make_parametric_element(np.pi / 4, 1.0, 0.6)

    def test_psd_whenever_precondition_holds(self, rng):
        for _ in range(50):
            theta = rng.uniform(0, np.pi)
            eta = rng.uniform(0.05, 1.0)
            bound = abs(np.cos(theta) * np.sin(theta))
            e01 = rng.uniform(0, bound) * np.exp(2j * np.pi * rng.uniform())
            m = make_parametric_element(theta, eta, e01)
            assert np.linalg.eigvalsh(m).min() >= -1e-12

    def test_eta_range(self):
        with pytest.raises(ValueError, match="eta"):
            make_parametric_element(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("theta, e01", [(np.inf, 0.0), (np.nan, 0.0), (0.5, np.nan),
                                            (0.5, complex(0.0, np.inf))])
    def test_non_finite_refused_before_numpy_warns(self, theta, e01):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="theta and e01 must be finite"):
                make_parametric_element(theta, 0.5, e01)


class TestWalkExtraction:
    def test_identity_walk(self):
        p = povm_from_walk(np.eye(6), 3, 2)
        np.testing.assert_allclose(p.element(0), np.eye(2), atol=1e-15)
        np.testing.assert_allclose(p.element(1), np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(p.element(2), np.zeros((2, 2)), atol=1e-15)

    def test_swap_like_permutation(self):
        """(0,c) -> (c,c) over two positions yields coin projectors."""
        u = np.eye(4, dtype=complex)[:, [0, 3, 2, 1]]  # swaps |0,1> and |1,1>
        assert np.abs(u[:, 1] - np.eye(4)[:, 3]).max() == 0
        p = povm_from_walk(u, 2, 2)
        np.testing.assert_allclose(p.element(0), np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(p.element(1), np.diag([0.0, 1.0]), atol=1e-15)

    def test_completeness_forced_by_unitarity(self, rng):
        for _ in range(5):
            u = random_unitary(12, rng)
            p = povm_from_walk(u, 4, 3)
            assert p.completeness_residual() < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            povm_from_walk(np.ones((4, 4)), 2, 2)


class TestRandomPovm:
    def test_completeness(self):
        assert random_povm(2, 4, seed=7).completeness_residual() < 1e-12

    def test_psd(self):
        p = random_povm(3, 4, seed=1)
        for _, e in p:
            assert np.linalg.eigvalsh(e).min() >= -1e-12

    def test_relabels_the_walk_povm_checked_once(self, monkeypatch):
        """random_povm is the checked, complete POVM of povm_from_walk,
        relabelled 1..L: the same read-only elements bit for bit, checked
        once."""
        check, checks = povm_module._check_elements, []

        def counting(stack):
            checks.append(stack.shape)
            return check(stack)

        monkeypatch.setattr(povm_module, "_check_elements", counting)
        p = random_povm(3, 4, seed=9)
        assert checks == [(4, 3, 3)]
        walk = povm_from_walk(random_unitary(12, np.random.default_rng(9)), 4, 3)
        assert p.labels == (1, 2, 3, 4) and walk.labels == (0, 1, 2, 3)
        np.testing.assert_array_equal(p.elements, walk.elements)
        assert not p.elements.flags.writeable
        assert p.completeness_residual() < 1e-12

    def test_deterministic(self):
        p1 = random_povm(3, 5, seed=42)
        p2 = random_povm(3, 5, seed=42)
        for (_, a), (_, b) in zip(p1, p2):
            np.testing.assert_array_equal(a, b)


class TestOracle:
    def test_hermiticity_pairing(self, small_random_povm):
        p = small_random_povm
        for lab in p.labels:
            for j in range(p.dim):
                for k in range(p.dim):
                    a = matrix_entry_oracle(p, lab, j, k)
                    b = matrix_entry_oracle(p, lab, k, j)
                    assert abs(a - b.conjugate()) < 1e-14

    def test_diagonal_real_in_unit_interval(self, small_random_povm):
        for lab in small_random_povm.labels:
            for j in range(small_random_povm.dim):
                v = matrix_entry_oracle(small_random_povm, lab, j, j)
                assert abs(v.imag) < 1e-14
                assert -1e-12 <= v.real <= 1 + 1e-12

    def test_out_of_range(self, sic):
        with pytest.raises(IndexError):
            matrix_entry_oracle(sic, 1, 0, 5)
        with pytest.raises(KeyError):
            matrix_entry_oracle(sic, 9, 0, 1)
        for label in (1.5, 2.9):  # once truncated to outcomes 1 and 2
            with pytest.raises(KeyError, match="no outcome labelled"):
                sic.element(label)
        np.testing.assert_array_equal(sic.element(np.int64(2)), sic.elements[1])


class TestPovmContainer:
    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="positive"):
            Povm([np.diag([1.0, -0.1]), np.diag([0.0, 1.1])])

    def test_rejects_incomplete_by_default(self):
        with pytest.raises(ValueError, match="identity"):
            Povm([np.diag([0.5, 0.5])])

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            Povm([np.diag([0.5, 0.5])] * 2, labels=[1, 1])

    def test_elements_immutable(self, sic):
        with pytest.raises(ValueError):
            sic.element(1)[0, 0] = 9.0

    @pytest.mark.parametrize("bad, message", [
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "element 2 is not Hermitian"),
        (np.diag([0.5, -0.1]), "element 2 is not positive semidefinite"),
        (np.diag([0.5, np.nan]), "element 2 is not Hermitian"),
        (np.array([[0.5, np.inf], [np.inf, 0.5]]), "element 2 is not Hermitian"),
    ])
    def test_refuses_the_first_bad_element(self, bad, message):
        """The first offending element is named, whatever follows it, in a
        list of matrices and in an (L, d, d) array alike."""
        good = np.diag([0.25, 0.25])
        worse = np.array([[0.0, 1.0], [0.0, 0.0]])
        for elements in ([good, good, bad, worse], np.array([good, good, bad, worse])):
            with pytest.raises(ValueError, match=message):
                Povm(elements, check_complete=False)

    @pytest.mark.parametrize("bad, message", [
        (np.eye(2), "square matrices"), (np.zeros((2, 2, 3)), "square matrices"),
        ([np.eye(2), np.eye(3)], "square matrices"), (np.zeros((0, 2, 2)), "at least one"),
        ([], "at least one"),
    ])
    def test_elements_must_be_square_matrices_of_one_dimension(self, bad, message):
        with pytest.raises(ValueError, match=message):
            Povm(bad, check_complete=False)

    @pytest.mark.parametrize("labels, bad", [
        ([1.5, 2.9], 1.5), ([1.2, 1.7], 1.2), ([1, 2.0], 2.0), ([True, 2], True),
        ([1, "2"], "2"), ([1, None], None),
    ])
    def test_labels_must_be_integers(self, labels, bad):
        """A label that is not an integer is refused by name, not truncated:
        [1.5, 2.9] once became (1, 2) and [1.2, 1.7] a duplicate-label error."""
        elems = [np.diag([0.5, 0.5])] * 2
        with pytest.raises(ValueError, match=re.escape(f"outcome label {bad!r} is not an integer")):
            Povm(elems, labels=labels)

    def test_numpy_integer_labels_become_ints(self):
        p = Povm([np.diag([0.5, 0.5])] * 2, labels=np.array([3, 7]))
        assert p.labels == (3, 7) and all(type(lab) is int for lab in p.labels)

    def test_elements_are_one_read_only_stack(self, small_random_povm):
        p = small_random_povm
        stack = p.elements
        assert stack.shape == (len(p), p.dim, p.dim) and stack.dtype == complex
        for i, (lab, e) in enumerate(p):
            np.testing.assert_array_equal(p.element(lab), stack[i])
            assert np.shares_memory(p.element(lab), stack)
        for view in (stack, p.element(p.labels[0])):
            with pytest.raises(ValueError):
                view[0, 0] = 9.0
            with pytest.raises(ValueError):
                view.setflags(write=True)

    def test_input_is_copied(self):
        elems = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        p = Povm(elems)
        elems[0, 0, 0] = 9.0
        assert p.element(1)[0, 0] == 1.0


class TestSerialization:
    def test_round_trip_lossless(self, small_random_povm, tmp_path):
        path = str(tmp_path / "povm.json")
        save_povm(small_random_povm, path)
        back = load_povm(path)
        assert back.labels == small_random_povm.labels
        for (_, a), (_, b) in zip(back, small_random_povm):
            np.testing.assert_array_equal(a, b)

    def test_sic_round_trip(self, sic, tmp_path):
        path = str(tmp_path / "sic.json")
        save_povm(sic, path)
        back = load_povm(path, check_complete=False)
        for (_, a), (_, b) in zip(back, sic):
            np.testing.assert_array_equal(a, b)



@pytest.mark.parametrize("call, message", [
    (lambda: Povm([np.eye(2) / 2] * 2, labels=[1, 2, 3]),
     "labels and elements must have equal length"),
    (lambda: Povm.from_dict({"dim": 2, "elements": [
        [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
         [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]]}),
     "element shape (3, 3) does not match dim 2"),
    (lambda: povm_from_walk(np.eye(4), 3, 2), "unitary dimension 4 != n_positions*coin_dim = 6"),
], ids=["label-count", "file-element-shape", "walk-dimension"])
def test_refusals_keep_their_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
