"""Shared fixtures and independent oracle helpers.

The helpers here deliberately avoid the package's production code paths:
full-matrix Kronecker sandwiches, matrix exponentials and explicit kets
provide the ground truth the library is checked against.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from povmdt import make_sic_povm, random_povm

I2 = np.eye(2, dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)

# Meter readout kets written out explicitly, independent of the library.
KETS = {
    "z": (np.array([1, 0], complex), np.array([0, 1], complex)),
    "x": (np.array([1, 1], complex) / np.sqrt(2), np.array([1, -1], complex) / np.sqrt(2)),
    "y": (np.array([1, 1j], complex) / np.sqrt(2), np.array([1, -1j], complex) / np.sqrt(2)),
}


def proj(vec):
    return np.outer(vec, vec.conj())


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def brute_joint_state(d, j, k, g):
    """Joint state built from scratch with matrix exponentials."""
    b0 = np.ones(d, dtype=complex) / np.sqrt(d)
    ob = np.eye(d) - 2 * proj(b0)
    ak = np.zeros(d, dtype=complex)
    ak[k] = 1
    oa = np.eye(d) - 2 * proj(ak)
    ub = expm(-1j * g * kron3(ob, SY, I2))
    ua = expm(-1j * g * kron3(oa, I2, SY))
    rho_s = np.zeros((d, d), dtype=complex)
    rho_s[j, j] = 1
    p0 = proj(np.array([1, 0], complex))
    rho0 = kron3(rho_s, p0, p0)
    u = ua @ ub
    return u @ rho0 @ u.conj().T


def brute_w_cell(pi_l, rho_j, basis_b, basis_a, m, n):
    """Full-matrix projector-sandwich trace for one W cell."""
    op = kron3(pi_l, proj(KETS[basis_b][m]), proj(KETS[basis_a][n]))
    return float(np.trace(op @ rho_j).real)


@pytest.fixture(scope="session")
def sic():
    return make_sic_povm()


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="session")
def small_random_povm():
    return random_povm(3, 4, seed=11)
