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
way, so a stacked call equals the per-element calls bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
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

#: Post-selection probabilities below this are rejected as dead.
P_FLOOR = 1e-14


class DeadPostSelectionError(ValueError):
    """Raised when the post-selection probability is numerically zero."""


@dataclass(frozen=True)
class CouplingConfig:
    """Coupling strengths for the two meters, each strictly inside (0, pi/2).

    The entry estimator currently assumes equal strengths; asymmetric
    configurations evolve fine but are rejected by :meth:`g`.
    """

    g_b: float
    g_a: float

    def __post_init__(self):
        for name, g in (("g_b", self.g_b), ("g_a", self.g_a)):
            if not 0.0 < g < np.pi / 2:
                raise ValueError(
                    f"{name} = {g!r} must lie strictly inside (0, pi/2); "
                    "the estimator divides by sin(g)cos(g)"
                )

    @classmethod
    def symmetric(cls, g: float) -> "CouplingConfig":
        return cls(g, g)

    @property
    def g(self) -> float:
        if self.g_b != self.g_a:
            raise ValueError(
                f"asymmetric couplings (g_b={self.g_b}, g_a={self.g_a}) are not "
                "supported by the entry estimator; use equal strengths"
            )
        return self.g_b


@dataclass(frozen=True)
class JointState:
    """Density operator on system (x) meterB (x) meterA (dimension 4d).

    ``rho`` is a read-only copy of the input, so the validated state cannot
    change behind the caller's back (states are shared by the memo in
    :func:`prepare_entry_state`).
    """

    rho: np.ndarray
    system_dim: int

    def __post_init__(self):
        r = asoperator(self.rho).copy()
        r.setflags(write=False)
        if r.shape[0] != 4 * self.system_dim:
            raise ValueError(
                f"joint dimension {r.shape[0]} != 4 * system_dim = {4 * self.system_dim}"
            )
        if not is_density(r, 1e-10):
            raise ValueError("joint state is not a valid density operator within 1e-10")
        object.__setattr__(self, "rho", r)


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
    u_b = coupling_unitary(o_b, cfg.g_b, "b")
    u_a = coupling_unitary(o_a, cfg.g_a, "a")
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


def _elements(pi_l) -> np.ndarray:
    """One (d, d) element or an (L, d, d) stack of them, as complex."""
    pi = np.asarray(pi_l, dtype=complex)
    if pi.ndim not in (2, 3) or pi.shape[-1] != pi.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {pi.shape}")
    return pi


def reduced_meter_operator(js: JointState, pi_l: np.ndarray) -> np.ndarray:
    """Unnormalized post-selected meter operator Tr_s[(Pi_l (x) I4) rho_J].

    Its trace is the post-selection probability, and for any meter operator
    M, Tr[(Pi_l (x) M) rho_J] = Tr[M K] with K the returned 4x4 matrix.  An
    (L, d, d) stack of elements gives an (L, 4, 4) stack of operators.
    """
    d = js.system_dim
    pi = _elements(pi_l)
    if pi.shape[-1] != d:
        raise ValueError(f"element dimension {pi.shape[-1]} != system dimension {d}")
    r4 = js.rho.reshape(d, 4, d, 4)
    return np.einsum("...st,tasb->...ab", pi, r4)


#: :data:`CELL_PROJECTORS` as one (144, 4) matrix: the 36 projectors stacked
#: row-block by row-block, so one product with K gives all 36 products.
_CELL_ROWS = CELL_PROJECTORS.reshape(144, 4)


def meter_tables(js: JointState, pi_l: np.ndarray) -> np.ndarray:
    """The (9, 2, 2) W tables of one outcome, or (L, 9, 2, 2) for an
    (L, d, d) stack of elements:

    W[s, m, n] = Tr[(Pi_l (x) |m_B><m_B| (x) |n_A><n_A|) rho_J] for setting
    SETTINGS[s].  Each setting's four cells sum to the post-selection
    probability, not to 1.
    """
    k = reduced_meter_operator(js, pi_l)
    # one (144, 4) @ (4, 4) product per outcome, then the trace of each 4x4
    # block: the same sums as the 36 products CELL_PROJECTORS[c] @ k and
    # the per-cell np.trace(proj @ k), bit for bit; an einsum contraction
    # sums in another order and moves the last ulp.  The trace runs over one
    # 3-D stack of blocks, which numpy reduces far faster than a 4-D one.
    blocks = (_CELL_ROWS @ k).reshape(-1, 4, 4)
    w = np.trace(blocks, axis1=1, axis2=2).real
    # a copy: ``.real`` is a view that would keep the complex traces alive
    return w.copy().reshape(k.shape[:-2] + (9, 2, 2))


def _cells(tables) -> np.ndarray:
    """The 36 cells of one outcome's (9, 2, 2) W tables, in the order of
    :data:`CELL_PROJECTORS`, or (L, 36) for an (L, 9, 2, 2) stack; a view
    where the input allows one.

    Tables may come from outside the package, so any other shape is refused.
    """
    w = np.asarray(tables, dtype=np.float64)
    if w.ndim not in (3, 4) or w.shape[-3:] != (9, 2, 2):
        raise ValueError(f"W tables must have shape (9, 2, 2) or (L, 9, 2, 2), got {w.shape}")
    return w.reshape(w.shape[:-3] + (36,))


def check_postselection(tables, names) -> None:
    """Refuse exact W tables, one outcome's (9, 2, 2) or an (L, 9, 2, 2)
    stack, in which an outcome's post-selection probability, the sum of one
    setting's four cells, is at or below :data:`P_FLOOR`.  ``names`` names
    the outcomes in the error, one per outcome.
    """
    p_f = _cells(tables)[..., :4].sum(axis=-1).reshape(-1)
    dead = np.flatnonzero(~(p_f > P_FLOOR))
    if dead.size:
        i = dead[0]
        raise DeadPostSelectionError(
            f"{names[i]}: post-selection probability {p_f[i]:.3e} <= floor {P_FLOOR:.1e}"
        )


def exact_entry_tables(pi_l: np.ndarray, j: int, k: int, cfg: CouplingConfig) -> np.ndarray:
    """Exact W tables for probing entry (j, k) of one (d, d) element, given
    in the computational basis: (9, 2, 2), or (L, 9, 2, 2) for an (L, d, d)
    stack."""
    pi = _elements(pi_l)
    js = prepare_entry_state(pi.shape[-1], j, k, cfg)
    return meter_tables(js, pi)
