"""Coherent-evolution noise on measurement operators and its calibration.

Two scalar maps act on a chosen off-diagonal slot (j, k) of every element:
dephasing multiplies it by a real overlap xi in [0, 1], phase rotation by
exp(-i phi).  Both leave diagonals and all other entries untouched, so
they commute with each other and preserve whatever completeness the
collection has.  The dephasing map is also realized microscopically by a
system-environment coupling, and both parameters have simulated
calibration procedures mirroring the bench ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import asoperator, dag, is_density, is_hermitian, partial_trace, tensor
from .povm import Povm


@dataclass(frozen=True)
class Environment:
    """Environment state and coupling for microscopic dephasing.

    The system couples to the environment through C (x) omega with impulse
    strength epsilon, where C = |a_j><a_j| - |a_k><a_k| on the system side.
    """

    rho_e: np.ndarray
    omega: np.ndarray
    epsilon: float

    def __post_init__(self):
        r = asoperator(self.rho_e)
        o = asoperator(self.omega)
        if r.shape != o.shape:
            raise ValueError(f"environment state {r.shape} and observable {o.shape} differ")
        if not is_density(r, 1e-9):
            raise ValueError("rho_e is not a valid density operator")
        if not is_hermitian(o, 1e-9):
            raise ValueError("omega is not Hermitian")
        object.__setattr__(self, "rho_e", r)
        object.__setattr__(self, "omega", o)


def _checked_slot(povm: Povm, j: int, k: int) -> None:
    d = povm.dim
    if not 0 <= j < d or not 0 <= k < d:
        raise IndexError(f"entry indices ({j}, {k}) out of range for dimension {d}")
    if j == k:
        raise ValueError("dephasing/rotation act on an off-diagonal slot; need j != k")


def apply_dephasing(povm: Povm, xi: float, j: int, k: int) -> Povm:
    """Scale the (j, k) and (k, j) entries of every element by xi in [0, 1].

    xi = 1 is the identity; xi = 0 erases the coherence slot entirely.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"overlap coefficient xi={xi!r} must lie in [0, 1]")
    _checked_slot(povm, j, k)
    elems = []
    for _, e in povm:
        m = e.copy()
        m[j, k] *= xi
        m[k, j] *= xi
        elems.append(m)
    return Povm(elems, povm.labels, check_complete=False)


def apply_phase_rotation(povm: Povm, phi: float, j: int, k: int) -> Povm:
    """Multiply the (j, k) entry of every element by exp(-i phi).

    The (k, j) entry gets the conjugate factor, so hermiticity and the
    modulus of the coherence are preserved.  Equivalent to conjugating each
    element by exp(-i (phi/2) C) with C = |a_j><a_j| - |a_k><a_k|.
    """
    _checked_slot(povm, j, k)
    factor = np.exp(-1j * phi)
    elems = []
    for _, e in povm:
        m = e.copy()
        m[j, k] *= factor
        m[k, j] *= factor.conjugate()
        elems.append(m)
    return Povm(elems, povm.labels, check_complete=False)


def _env_unitary(c_obs: np.ndarray, env: Environment) -> np.ndarray:
    """exp(-i (epsilon/2) C (x) omega) via eigendecomposition (all Hermitian)."""
    h = 0.5 * env.epsilon * tensor(c_obs, env.omega)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ dag(v)


def dephase_via_environment(pi_l: np.ndarray, env: Environment, c_obs: np.ndarray) -> np.ndarray:
    """Element after an impulsive system-environment coupling.

    Returns Tr_E[ U^dag (pi_l (x) rho_e) U ] with U = exp(-i (eps/2) C (x) omega).
    For a two-dimensional system this reduces exactly to scaling the
    coherence slot by the overlap factor of :func:`xi_from_environment`;
    in higher dimensions entries linking {j, k} to other states pick up
    the corresponding half-angle factor as well.
    """
    pi_l = asoperator(pi_l)
    c_obs = asoperator(c_obs)
    if pi_l.shape != c_obs.shape:
        raise ValueError(f"element {pi_l.shape} and coupling observable {c_obs.shape} differ")
    if not is_hermitian(c_obs, 1e-9):
        raise ValueError("coupling observable must be Hermitian")
    u = _env_unitary(c_obs, env)
    joint = tensor(pi_l, env.rho_e)
    reduced = dag(u) @ joint @ u
    return partial_trace(reduced, (pi_l.shape[0], env.rho_e.shape[0]), keep=0)


def xi_from_environment(env: Environment) -> complex:
    """Coherence factor the environment coupling imprints on the (j, k) slot.

    Computed from the reduced dynamics: the |a_j> branch evolves the
    environment with exp(-i (eps/2) omega) and the |a_k> branch with the
    inverse, so the slot acquires Tr[rho_e exp(+i eps omega)].  Real and in
    [0, 1] whenever rho_e is symmetric under omega -> -omega.
    """
    w, v = np.linalg.eigh(env.omega)
    phase = (v * np.exp(1j * env.epsilon * w)) @ dag(v)
    return complex(np.trace(env.rho_e @ phase))


def wavepacket_overlap(epsilon: float, coherence_length: float) -> float:
    """Temporal wavepacket overlap for a delay, Gaussian coherence model.

    xi = exp(-eps^2 / (2 L^2)); strictly decreasing in |eps|, equal to 1 at
    zero delay.  Scenario configs may supply explicit (eps, xi) pairs
    instead when a measured curve is available.
    """
    if coherence_length <= 0:
        raise ValueError(f"coherence length must be positive, got {coherence_length}")
    return float(np.exp(-(epsilon**2) / (2 * coherence_length**2)))


def calibrate_xi(xi_true: float, n: int | None = None, seed: int | None = None) -> float:
    """Simulated overlap calibration.

    The calibration interferometer maps the overlap onto the diagonal state
    rho = (1+xi)/2 |H><H| + (1-xi)/2 |V><V|, projected onto {|H>, |V>}; the
    estimate is P_H - P_V.  With ``n`` samples the counts are binomial;
    ``n=None`` returns the analytic (infinite-sample) value.
    """
    if not 0.0 <= xi_true <= 1.0:
        raise ValueError(f"xi must lie in [0, 1], got {xi_true}")
    if n is None:
        return float(xi_true)
    if n <= 0:
        raise ValueError(f"sample count must be positive, got {n}")
    rng = np.random.default_rng(seed)
    p_h = (1.0 + xi_true) / 2.0
    n_h = rng.binomial(n, p_h)
    return float(2.0 * n_h / n - 1.0)


def calibrate_phase(p_h: float, p_v: float) -> float:
    """Phase from the calibration projections: arccos[2 (P_H - P_V)].

    The argument is clamped within a 1e-9 margin; beyond that the inputs
    are inconsistent with the calibration model.
    """
    arg = 2.0 * (p_h - p_v)
    if abs(arg) > 1.0 + 1e-9:
        raise ValueError(f"2(P_H - P_V) = {arg:.6g} lies outside [-1, 1]: bad calibration data")
    return float(np.arccos(np.clip(arg, -1.0, 1.0)))
