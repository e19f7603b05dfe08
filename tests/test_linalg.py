"""Tensor algebra and operator predicates."""

import re

import numpy as np
import pytest

from povmdt.linalg import (
    PAULI,
    dag,
    is_density,
    is_hermitian,
    is_positive_semidefinite,
    is_unitary,
    ket,
    partial_trace,
    random_unitary,
    tensor,
)


class TestTensor:
    def test_identity_times_identity(self):
        np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        got = tensor(PAULI["z"], PAULI["z"])
        np.testing.assert_allclose(got, np.diag([1, -1, -1, 1]), atol=0)

    def test_against_quadruple_loop(self, rng):
        """Entry-by-entry Kronecker oracle on random 3x3 and 2x2 factors."""
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        got = tensor(a, b)
        expected = np.zeros((6, 6), dtype=complex)
        for i in range(3):
            for j in range(3):
                for k in range(2):
                    for l in range(2):
                        expected[i * 2 + k, j * 2 + l] = a[i, j] * b[k, l]
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_three_factor_associativity(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        c = rng.normal(size=(2, 2))
        np.testing.assert_allclose(tensor(a, b, c), tensor(tensor(a, b), c), atol=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            tensor(np.ones((2, 3)), np.eye(2))


class TestPredicates:
    def test_hermitian(self):
        assert is_hermitian(PAULI["y"])
        assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_psd(self):
        assert is_positive_semidefinite(np.diag([0.0, 1.0]))
        assert not is_positive_semidefinite(PAULI["z"])

    def test_psd_is_false_for_a_non_hermitian_matrix(self):
        """A matrix that is not Hermitian is not positive semidefinite, even
        when its Hermitian part is."""
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.linalg.eigvalsh((m + m.T) / 2).min() > 0
        assert not is_positive_semidefinite(m)

    def test_unitary(self):
        assert is_unitary(PAULI["x"])
        assert not is_unitary(2 * np.eye(2))

    def test_density(self):
        assert is_density(np.diag([0.5, 0.5]))
        assert not is_density(np.diag([0.6, 0.6]))
        assert not is_density(np.diag([1.5, -0.5]))


class TestPartialTrace:
    def test_product_operator(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = tensor(a, b)
        np.testing.assert_allclose(partial_trace(m, (3, 2), keep=0), a * np.trace(b), atol=1e-13)
        np.testing.assert_allclose(partial_trace(m, (3, 2), keep=1), b * np.trace(a), atol=1e-13)

    def test_against_index_loop(self, rng):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        got = partial_trace(m, (2, 3), keep=1)
        expected = np.zeros((3, 3), dtype=complex)
        for p in range(2):
            for i in range(3):
                for j in range(3):
                    expected[i, j] += m[p * 3 + i, p * 3 + j]
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            partial_trace(np.eye(5), (2, 2), keep=0)


class TestRandomUnitary:
    def test_unitarity(self, rng):
        for dim in (2, 5, 12):
            u = random_unitary(dim, rng)
            assert np.abs(dag(u) @ u - np.eye(dim)).max() < 1e-12

    def test_deterministic(self):
        u1 = random_unitary(4, np.random.default_rng(7))
        u2 = random_unitary(4, np.random.default_rng(7))
        np.testing.assert_array_equal(u1, u2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: tensor(), ValueError, "tensor() needs at least one operator"),
    (lambda: ket(2, 2), IndexError, "basis index 2 out of range for dimension 2"),
    (lambda: ket(3, -1), IndexError, "basis index -1 out of range for dimension 3"),
    (lambda: partial_trace(np.eye(4), (2, 2), keep=2), ValueError, "keep must be 0 or 1"),
], ids=["tensor-empty", "ket-past-end", "ket-negative", "partial-trace-keep"])
def test_refusals_keep_their_messages(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
