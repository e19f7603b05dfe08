"""Sequential two-pointer coupling, post-selection and meter statistics.

The system (dimension d) is coupled to two qubit meters, B first and then
A, each initialized in |0>.  The couplings are rotations generated by
involutory system observables:

    O_B     = I - 2 |b0><b0|,   |b0> = (1/sqrt(d)) sum_j |a_j>
    O_A^(k) = I - 2 |a_k><a_k|

    U = exp(-i g O (x) sigma_y) = cos(g) I (x) I - i sin(g) O (x) sigma_y

(the closed two-term form is exact because O^2 = I).  After both
couplings the detector under study post-selects the system on outcome l,
and all information about the entry <a_j| Pi_l |a_k> lives in the joint
meter statistics.

Tensor ordering is fixed repo-wide as system (x) meterB (x) meterA.

The 36 product meter projectors are constants, built once at import
(:data:`CELL_PROJECTORS`); the entry joint state depends only on
(d, j, k, coupling) and is memoized by :func:`prepare_entry_state`.

The W tables of one outcome are a float (9, 2, 2) array ``W[s, m, n]``:
setting ``s`` indexes :data:`SETTINGS`, ``m`` and ``n`` are the meter-B and
meter-A outcomes.  Flattened, the 36 cells are in the order of
:data:`CELL_PROJECTORS` and of the estimator's cell weights.  One setting's
table is ``W[SETTINGS.index(setting)]``.  :func:`meter_tables`,
:func:`exact_entry_tables` and :func:`povmdt.montecarlo.sample_counts` return
this array, and every reader takes it through :func:`_cells`.

The exact pipeline also takes a stack of elements: :func:`reduced_meter_operator`,
:func:`meter_tables` and :func:`exact_entry_tables` map one (d, d) element to
one result and an (L, d, d) stack to L results along a leading outcome axis,
(L, 9, 2, 2) for the tables.  Each outcome's arithmetic is the same either
way, so a stacked call equals the per-element calls bit for bit: one element
is one 1-D ``np.dot`` with the effects, a stack one batched ``np.matmul`` of
(1, 2d^2) rows, and numpy runs both as the same BLAS gemv per element.

Each cell is linear in the element, W_c = sum_st Pi_l[s, t] A_c[s, t], with
the cell effect A_c[s, t] = Tr[(|t><s| (x) M_c) rho_J].  A :class:`JointState`
holds its 36 effects as one real (2d^2, 36) matrix of rows Re A and -Im A, so
:func:`meter_tables` is one real product with the element read as interleaved
(re, im) floats.  That is exact, Re(Pi A) = Re Pi Re A - Im Pi Im A, with no
imaginary part formed or dropped, and differs from the per-cell traces
Tr[M_c K] only in rounding order (about one ulp).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import EYE2, PAULI, SIGMA_Y, asoperator, dag, is_density, ket, projector, tensor

#: Meter readout bases in canonical order; z = {|0>,|1>}, x = {|+>,|->},
#: y = {(|0>+i|1>)/sqrt2, (|0>-i|1>)/sqrt2}.
BASES = ("z", "x", "y")

#: The nine meter basis settings (basis_b, basis_a), canonical order.
SETTINGS = tuple((bb, ba) for bb in BASES for ba in BASES)

#: Rank-one projectors P[basis][m] with outcome sign (-1)^m.
BASIS_PROJECTORS = {
    b: (
        (np.eye(2, dtype=complex) + PAULI[b]) / 2,
        (np.eye(2, dtype=complex) - PAULI[b]) / 2,
    )
    for b in BASES
}

#: The 36 product projectors |m_B><m_B| (x) |n_A><n_A|, shape (36, 4, 4),
#: setting-major over SETTINGS, then m, then n (the cell order of the
#: estimator's 36-vectors).  Read-only.
CELL_PROJECTORS = np.array([
    tensor(BASIS_PROJECTORS[bb][m], BASIS_PROJECTORS[ba][n])
    for bb, ba in SETTINGS
    for m in range(2)
    for n in range(2)
])
CELL_PROJECTORS.setflags(write=False)

_FLOAT64 = np.dtype(np.float64)

#: Post-selection probabilities at or below this are refused as dead.
P_FLOOR = 1e-14


class DeadPostSelectionError(ValueError):
    """Raised when the post-selection probability is numerically zero."""


@dataclass(frozen=True)
class CouplingConfig:
    """The coupling strength ``g`` of both meters, strictly inside (0, pi/2):
    the entry estimator's readout is that of equally coupled meters."""

    g: float

    def __post_init__(self):
        if not 0.0 < self.g < np.pi / 2:
            raise ValueError(
                f"g = {self.g!r} must lie strictly inside (0, pi/2); "
                "the estimator divides by sin(g)cos(g)"
            )

    @classmethod
    def symmetric(cls, g: float) -> "CouplingConfig":
        return cls(g)


@dataclass(frozen=True, eq=False)
class JointState:
    """Density operator on system (x) meterB (x) meterA (dimension 4d).

    ``rho`` is a read-only copy of the input, so the validated state cannot
    change behind the caller's back (states are shared by the memo in
    :func:`prepare_entry_state`).  ``effects``, built from it, is the read-only
    (2d^2, 36) matrix of cell effects: Re A[s, t, :] in row 2(s d + t), -Im A next.
    """

    rho: np.ndarray
    system_dim: int
    effects: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r = asoperator(self.rho).copy()
        r.setflags(write=False)
        d = self.system_dim
        if r.shape[0] != 4 * d:
            raise ValueError(f"joint dimension {r.shape[0]} != 4 * system_dim = {4 * d}")
        if not is_density(r, 1e-10):
            raise ValueError("joint state is not a valid density operator within 1e-10")
        a = np.einsum("cab,tbsa->stc", CELL_PROJECTORS, r.reshape(d, 4, d, 4))
        effects = np.stack((a.real, -a.imag), axis=2).reshape(2 * d * d, 36)
        effects.setflags(write=False)
        object.__setattr__(self, "rho", r)
        object.__setattr__(self, "effects", effects)


def pointer_state_b0(d: int) -> np.ndarray:
    """Uniform superposition (1/sqrt(d)) sum_j |a_j>."""
    if d < 2:
        raise ValueError(f"system dimension must be >= 2, got {d}")
    return np.full(d, 1.0 / np.sqrt(d), dtype=complex)


def build_observables(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The two involutory system observables (O_B, O_A^(k))."""
    if not 0 <= k < d:
        raise IndexError(f"index k={k} out of range for dimension {d}")
    o_b = np.eye(d, dtype=complex) - 2 * projector(pointer_state_b0(d))
    o_a = np.eye(d, dtype=complex) - 2 * projector(ket(d, k))
    return o_b, o_a


def coupling_unitary(o: np.ndarray, g: float, which_meter: str) -> np.ndarray:
    """Full 4d-dimensional coupling unitary for one meter.

    ``which_meter`` is "b" or "a"; sigma_y acts on that meter slot and the
    identity on the other.  ``o`` must square to the identity (checked to
    1e-10), which makes the two-term closed form exact.
    """
    o = asoperator(o)
    d = o.shape[0]
    resid = np.abs(o @ o - np.eye(d)).max()
    if resid > 1e-10:
        raise ValueError(f"observable is not involutory: |O^2 - I| max {resid:.3e}")
    if which_meter == "b":
        slot = tensor(SIGMA_Y, EYE2)
    elif which_meter == "a":
        slot = tensor(EYE2, SIGMA_Y)
    else:
        raise ValueError(f"which_meter must be 'b' or 'a', got {which_meter!r}")
    return np.cos(g) * np.eye(4 * d, dtype=complex) - 1j * np.sin(g) * tensor(o, slot)


def evolve_joint(rho_s: np.ndarray, cfg: CouplingConfig, k: int) -> JointState:
    """Couple meter B then meter A to a system state.

    Returns U_A^(k) U_B (rho_s (x) |0><0| (x) |0><0|) U_B^dag U_A^(k)dag.
    The order matters: the two observables do not commute.
    """
    rho_s = asoperator(rho_s)
    d = rho_s.shape[0]
    if not is_density(rho_s, 1e-10):
        raise ValueError("rho_s is not a valid density operator within 1e-10")
    o_b, o_a = build_observables(d, k)
    u_b = coupling_unitary(o_b, cfg.g, "b")
    u_a = coupling_unitary(o_a, cfg.g, "a")
    p0 = projector(ket(2, 0))
    rho0 = tensor(rho_s, p0, p0)
    u = u_a @ u_b
    return JointState(u @ rho0 @ dag(u), d)


@lru_cache(maxsize=256)
def prepare_entry_state(d: int, j: int, k: int, cfg: CouplingConfig) -> JointState:
    """Joint state for probing entry (j, k): pre-select |a_j><a_j|, couple
    with O_A^(k).

    Memoized on (d, j, k, cfg): equal calls return the same immutable
    :class:`JointState`.
    """
    if not 0 <= j < d:
        raise IndexError(f"index j={j} out of range for dimension {d}")
    return evolve_joint(projector(ket(d, j)), cfg, k)


def _elements(pi_l, d: int | None = None) -> np.ndarray:
    """One (d, d) element or an (L, d, d) stack of them, as complex; of system
    dimension ``d`` when it is given."""
    pi = np.asarray(pi_l, dtype=complex)
    shape = pi.shape
    if len(shape) not in (2, 3) or shape[-1] != shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {shape}")
    if d is not None and shape[-1] != d:
        raise ValueError(f"element dimension {shape[-1]} != system dimension {d}")
    return pi


def reduced_meter_operator(js: JointState, pi_l: np.ndarray) -> np.ndarray:
    """Unnormalized post-selected meter operator Tr_s[(Pi_l (x) I4) rho_J].

    Its trace is the post-selection probability, and for any meter operator
    M, Tr[(Pi_l (x) M) rho_J] = Tr[M K] with K the returned 4x4 matrix.  An
    (L, d, d) stack of elements gives an (L, 4, 4) stack of operators.
    """
    d = js.system_dim
    pi = _elements(pi_l, d)
    r4 = js.rho.reshape(d, 4, d, 4)
    return np.einsum("...st,tasb->...ab", pi, r4)


def meter_tables(js: JointState, pi_l: np.ndarray) -> np.ndarray:
    """The (9, 2, 2) W tables of one outcome, or (L, 9, 2, 2) for an
    (L, d, d) stack of elements:

    W[s, m, n] = Tr[(Pi_l (x) |m_B><m_B| (x) |n_A><n_A|) rho_J] for setting
    SETTINGS[s].  Each setting's four cells sum to the post-selection
    probability, not to 1.
    """
    pi = _elements(pi_l, js.system_dim)
    if pi.ndim == 2:
        return np.dot(pi.ravel().view(np.float64), js.effects).reshape(9, 2, 2)
    v = np.ascontiguousarray(pi).view(np.float64)
    # one (1, 2d^2) @ (2d^2, 36) product per outcome, the gemv of the
    # one-element np.dot, so that a stack equals its per-element calls bit for
    # bit; an (L, 2d^2) GEMM may sum in another order
    w = np.matmul(v.reshape(-1, 1, v.shape[-2] * v.shape[-1]), js.effects)
    return w.reshape(pi.shape[:-2] + (9, 2, 2))


def _cells(tables) -> np.ndarray:
    """The 36 cells of one outcome's (9, 2, 2) W tables, in the order of
    :data:`CELL_PROJECTORS`, or (L, 36) for an (L, 9, 2, 2) stack; a view
    where the input allows one.

    Tables may come from outside the package, so any other shape is
    refused, and so are complex tables, whose imaginary part a cast to float
    would drop.
    """
    w = np.asarray(tables)
    if w.dtype != _FLOAT64:
        if w.dtype.kind == "c":
            raise ValueError(f"W tables must be real, got dtype {w.dtype}")
        w = w.astype(np.float64)
    shape = w.shape
    if shape == (9, 2, 2):
        return w.reshape(36)
    if len(shape) != 4 or shape[1:] != (9, 2, 2):
        raise ValueError(f"W tables must have shape (9, 2, 2) or (L, 9, 2, 2), got {shape}")
    return w.reshape(shape[0], 36)


def exact_entry_tables(pi_l: np.ndarray, j: int, k: int, cfg: CouplingConfig) -> np.ndarray:
    """Exact W tables for probing entry (j, k) of one (d, d) element, given
    in the computational basis: (9, 2, 2), or (L, 9, 2, 2) for an (L, d, d)
    stack.  An element with a NaN or infinite entry, which would give NaN
    tables, is refused, naming the first such entry."""
    pi = _elements(pi_l)
    finite = np.isfinite(pi)
    if not finite.all():
        first = tuple(int(i) for i in np.unravel_index(int(np.argmin(finite)), pi.shape))
        where = f"entry {first[-2:]}" if pi.ndim == 2 else f"element {first[0]}, entry {first[1:]}"
        raise ValueError(f"non-finite element entry: {pi[first]} ({where})")
    js = prepare_entry_state(pi.shape[-1], j, k, cfg)
    return meter_tables(js, pi)
