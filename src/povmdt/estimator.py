"""Entry reconstruction from meter statistics and its precision laws.

The estimator is linear in the 36 meter-distribution cells (9 settings x 4
cells).  The readout observables factor into projector/Pauli monomials,

    P = sqrt(d) [ gamma |0><0| - beta sigma_x ],   gamma = 1/(2 cos^2 g)
    Q = -sqrt(d) beta sigma_y,                     beta  = 1/(4 sin g cos g)

so each monomial of the joint observables R = P(x)P - Q(x)Q and
T = P(x)Q + Q(x)P is read from exactly one basis setting: |0><0| from the
m=0 outcome of the z setting, sigma_x / sigma_y from the signed sum of the
x / y setting.  The resulting per-cell weights double as the error-transfer
derivatives dE/dW, so a single weight vector drives both the estimate and
its predicted shot-noise variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import PAULI, asoperator, tensor
from .protocol import _SETTING_INDEX, BASES, SETTINGS, JointState, reduced_meter_operator

#: Pauli axes indexing PauliTable rows/columns.
PAULI_AXES = ("i", "x", "y", "z")

#: Number of cells across all settings: 9 settings x 2 x 2 outcomes.
N_CELLS = 36


def _cell(setting: tuple[str, str], m: int, n: int) -> int:
    return _SETTING_INDEX[setting] * 4 + m * 2 + n


@dataclass(frozen=True)
class RtCoefficients:
    """Linear weights reconstructing Re/Im of an entry from meter data.

    ``re_pauli`` / ``im_pauli`` give the expansion of the joint observables
    over sigma_mu (x) sigma_nu (meter B first); ``cell_re`` / ``cell_im``
    are the equivalent per-cell weights (the error-transfer derivatives).
    """

    d: int
    g: float
    alpha: float
    beta: float
    re_pauli: dict = field(repr=False)
    im_pauli: dict = field(repr=False)
    cell_re: np.ndarray = field(repr=False)
    cell_im: np.ndarray = field(repr=False)


def rt_coefficients(d: int, g: float) -> RtCoefficients:
    """Weights for system dimension d and coupling strength g in (0, pi/2)."""
    if not 0.0 < g < math.pi / 2:
        raise ValueError(f"coupling strength g={g!r} must lie strictly inside (0, pi/2)")
    if d < 2:
        raise ValueError(f"system dimension must be >= 2, got {d}")
    alpha = 1.0 / (4 * math.cos(g) ** 2)
    beta = 1.0 / (4 * math.sin(g) * math.cos(g))
    gamma = 2 * alpha

    a2, ab, b2 = d * alpha**2, d * alpha * beta, d * beta**2
    re_pauli = {
        ("i", "i"): a2, ("i", "z"): a2, ("z", "i"): a2, ("z", "z"): a2,
        ("i", "x"): -ab, ("z", "x"): -ab, ("x", "i"): -ab, ("x", "z"): -ab,
        ("x", "x"): b2, ("y", "y"): -b2,
    }
    im_pauli = {
        ("i", "y"): -ab, ("z", "y"): -ab, ("y", "i"): -ab, ("y", "z"): -ab,
        ("x", "y"): b2, ("y", "x"): b2,
    }

    # Monomial factors: ("p0", basis) reads the m=0 outcome of that basis,
    # ("sig", basis) reads the (-1)^m signed sum.
    g2, gb, bb = d * gamma**2, d * gamma * beta, d * beta**2
    re_terms = [
        (("p0", "z"), ("p0", "z"), g2),
        (("p0", "z"), ("sig", "x"), -gb),
        (("sig", "x"), ("p0", "z"), -gb),
        (("sig", "x"), ("sig", "x"), bb),
        (("sig", "y"), ("sig", "y"), -bb),
    ]
    im_terms = [
        (("p0", "z"), ("sig", "y"), -gb),
        (("sig", "x"), ("sig", "y"), bb),
        (("sig", "y"), ("p0", "z"), -gb),
        (("sig", "y"), ("sig", "x"), bb),
    ]
    cell_re = np.zeros(N_CELLS)
    cell_im = np.zeros(N_CELLS)
    for cells, terms in ((cell_re, re_terms), (cell_im, im_terms)):
        for (kind_b, basis_b), (kind_a, basis_a), w in terms:
            setting = (basis_b, basis_a)
            for m in range(2):
                fb = (1.0 if m == 0 else 0.0) if kind_b == "p0" else (-1.0) ** m
                for n in range(2):
                    fa = (1.0 if n == 0 else 0.0) if kind_a == "p0" else (-1.0) ** n
                    cells[_cell(setting, m, n)] += w * fb * fa
    cell_re.setflags(write=False)
    cell_im.setflags(write=False)
    return RtCoefficients(d, g, alpha, beta, re_pauli, im_pauli, cell_re, cell_im)


def reassemble_joint_observables(coeffs: RtCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild the 4x4 joint observables R and T from the Pauli weights."""
    r = sum(w * tensor(PAULI[mu], PAULI[nu]) for (mu, nu), w in coeffs.re_pauli.items())
    t = sum(w * tensor(PAULI[mu], PAULI[nu]) for (mu, nu), w in coeffs.im_pauli.items())
    return r, t


def tables_to_flat(tables: dict) -> np.ndarray:
    """Flatten the nine setting-indexed 2x2 W tables to the canonical 36-vector."""
    missing = [s for s in SETTINGS if s not in tables]
    if missing:
        raise ValueError(f"missing meter settings: {missing}")
    flat = np.empty(N_CELLS)
    for s in SETTINGS:
        w = np.asarray(tables[s], dtype=float)
        if w.shape != (2, 2):
            raise ValueError(f"setting {s} table has shape {w.shape}, expected (2, 2)")
        flat[_SETTING_INDEX[s] * 4 : _SETTING_INDEX[s] * 4 + 4] = w.reshape(-1)
    return flat


def flat_to_tables(flat: np.ndarray) -> dict:
    """Inverse of :func:`tables_to_flat`."""
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (N_CELLS,):
        raise ValueError(f"expected a {N_CELLS}-vector, got shape {flat.shape}")
    return {s: flat[i * 4 : i * 4 + 4].reshape(2, 2).copy() for s, i in _SETTING_INDEX.items()}


@dataclass(frozen=True)
class PauliTable:
    """Joint Pauli expectations Tr[(Pi_l (x) sigma_mu (x) sigma_nu) rho_J].

    ``values`` is 4x4, indexed by :data:`PAULI_AXES` with meter B first.
    The (i, i) entry is the post-selection probability.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (4, 4):
            raise ValueError(f"Pauli table must be 4x4, got {v.shape}")
        object.__setattr__(self, "values", v)

    def get(self, mu: str, nu: str) -> float:
        return float(self.values[PAULI_AXES.index(mu), PAULI_AXES.index(nu)])

    @property
    def p_f(self) -> float:
        return float(self.values[0, 0])


def pauli_table_from_distributions(tables: dict) -> PauliTable:
    """Assemble all 16 joint Pauli expectations from the nine W tables.

    Joint (mu, nu) terms come from the matching setting's signed sums;
    single-meter marginals are averaged over the three settings of the
    traced-out meter, and the (i, i) term over all nine settings, so every
    collected count contributes.
    """
    flat = tables_to_flat(tables)
    values = np.zeros((4, 4))
    sign = np.array([1.0, -1.0])
    for imu, mu in enumerate(PAULI_AXES):
        for inu, nu in enumerate(PAULI_AXES):
            if mu == "i" and nu == "i":
                total = 0.0
                for s in SETTINGS:
                    total += flat[_SETTING_INDEX[s] * 4 : _SETTING_INDEX[s] * 4 + 4].sum()
                values[imu, inu] = total / 9
            elif mu == "i":
                acc = 0.0
                for bb in BASES:
                    w = flat[_cell((bb, nu), 0, 0) : _cell((bb, nu), 0, 0) + 4].reshape(2, 2)
                    acc += float(w.sum(axis=0) @ sign)
                values[imu, inu] = acc / 3
            elif nu == "i":
                acc = 0.0
                for ba in BASES:
                    w = flat[_cell((mu, ba), 0, 0) : _cell((mu, ba), 0, 0) + 4].reshape(2, 2)
                    acc += float(sign @ w.sum(axis=1))
                values[imu, inu] = acc / 3
            else:
                w = flat[_cell((mu, nu), 0, 0) : _cell((mu, nu), 0, 0) + 4].reshape(2, 2)
                values[imu, inu] = float(sign @ w @ sign)
    return PauliTable(values)


@dataclass(frozen=True)
class EntryEstimate:
    """A reconstructed matrix entry with per-component variances."""

    value: complex
    var_re: float
    var_im: float
    n_per_setting: int
    method: str  # "exact" | "sampled" | "refined"

    @property
    def total_variance(self) -> float:
        return self.var_re + self.var_im


def estimate_record(
    est: EntryEstimate, l: int, j: int, k: int, g: float, seed: int | None = None
) -> dict:
    """JSON-ready record of one entry estimate (the export wire format)."""
    return {
        "l": l, "j": j, "k": k,
        "re": est.value.real, "im": est.value.imag,
        "var_re": est.var_re, "var_im": est.var_im,
        "method": est.method, "g": g, "N": est.n_per_setting, "seed": seed,
    }


def estimate_from_tables(tables: dict, coeffs: RtCoefficients, scale: float = 1.0) -> complex:
    """Entry estimate from (exact or sampled) W tables.

    ``scale`` divides the raw entry; pass the element efficiency eta to
    estimate the entry of the efficiency-normalized operator.
    """
    flat = tables_to_flat(tables)
    return complex(coeffs.cell_re @ flat, coeffs.cell_im @ flat) / scale


def estimate_offdiagonal(
    pt: PauliTable, coeffs: RtCoefficients, method: str = "exact"
) -> EntryEstimate:
    """Entry estimate assembled from a Pauli expectation table.

    Equivalent to :func:`estimate_from_tables` on exact inputs; variances
    are not derivable from the table alone and are reported as 0.
    """
    re = sum(w * pt.get(mu, nu) for (mu, nu), w in coeffs.re_pauli.items())
    im = sum(w * pt.get(mu, nu) for (mu, nu), w in coeffs.im_pauli.items())
    return EntryEstimate(complex(re, im), 0.0, 0.0, 0, method)


def estimate_diagonal(p_f: float, j: int) -> float:
    """Diagonal entry <a_j| Pi_l |a_j> from the bare outcome probability.

    With the system pre-selected to |a_j><a_j| and no meter couplings, the
    outcome-l probability *is* the diagonal entry; this is a pass-through
    that documents the convention.
    """
    if not 0.0 <= p_f <= 1.0 + 1e-12:
        raise ValueError(f"outcome probability {p_f!r} outside [0, 1]")
    return float(p_f)


def error_transfer_variance(
    tables: dict, coeffs: RtCoefficients, n: int, scale: float = 1.0
) -> tuple[float, float]:
    """Shot-noise variances (var_re, var_im) of the entry estimate.

    First-order propagation of per-cell counting noise, var(W_mn) = W_mn/n
    for n particles per setting, through the linear cell weights.  ``scale``
    must match the one used for the estimate.
    """
    if n <= 0:
        raise ValueError(f"particle number per setting must be positive, got {n}")
    flat = tables_to_flat(tables)
    if flat.min() < -1e-9:
        raise ValueError(f"negative probability cell: {flat.min():.3e}")
    flat = np.maximum(flat, 0.0)
    var_re = float((coeffs.cell_re**2 @ flat) / n) / scale**2
    var_im = float((coeffs.cell_im**2 @ flat) / n) / scale**2
    return var_re, var_im


def analytic_variance(theta: float, g: float, eta: float, n: int) -> float:
    """Closed-form total variance of the normalized off-diagonal entry of a
    qubit element eta*[[cos^2 t, e01], [conj(e01), sin^2 t]]:

        (sin^2 t + sin^2 g)(1 + 2 sin^2 g) / (eta n sin^4(2g))

    Independent of e01 itself.  Diverges at the boundary couplings.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if n <= 0:
        raise ValueError(f"particle number must be positive, got {n}")
    s2g = math.sin(2 * g)
    if abs(s2g) < 1e-12:
        raise ValueError(f"variance diverges at boundary coupling g={g!r}")
    st, sg = math.sin(theta), math.sin(g)
    return (st * st + sg * sg) * (1 + 2 * sg * sg) / (eta * n * s2g**4)


def observable_variance(js: JointState, pi_l: np.ndarray, coeffs: RtCoefficients) -> float:
    """Per-shot variance of the direct joint-observable measurement.

    <D2 M>_f = Tr[Pi_l M^2 rho_J] - (Tr[Pi_l M rho_J])^2 summed over the two
    joint observables.  This is the intrinsic quantum spread of measuring R
    and T directly; it is reported alongside, not interchangeably with, the
    counting-noise estimate of :func:`error_transfer_variance`.
    """
    r, t = reassemble_joint_observables(coeffs)
    km = reduced_meter_operator(js, asoperator(pi_l))
    total = 0.0
    for m in (r, t):
        first = float(np.trace(m @ m @ km).real)
        second = float(np.trace(m @ km).real)
        total += first - second * second
    return total


def completeness_refine(estimates: list[EntryEstimate]) -> list[EntryEstimate]:
    """Improve per-outcome entry estimates using the zero sum rule.

    For a complete POVM the off-diagonal entries satisfy sum_l E^(l) = 0
    (real and imaginary parts separately), so each entry has a complement
    estimate E_comp = -sum_{u != l} E^(u).  The direct and complement
    estimates are combined with inverse-variance weights; the refined
    variance is w * w_comp * sum_u var_u, which never exceeds either input.
    Real and imaginary parts are refined independently.
    """
    if len(estimates) < 2:
        raise ValueError("refinement needs at least two outcomes")
    vals = np.array([e.value for e in estimates])
    var_re = np.array([e.var_re for e in estimates], dtype=float)
    var_im = np.array([e.var_im for e in estimates], dtype=float)
    if not (np.isfinite(var_re).all() and np.isfinite(var_im).all()):
        raise ValueError("refinement requires finite variances for every outcome")
    if (var_re <= 0).any() or (var_im <= 0).any():
        raise ValueError("refinement requires strictly positive variances")

    refined = []
    for i, est in enumerate(estimates):
        parts = []
        variances = []
        for comp, var in ((vals.real, var_re), (vals.imag, var_im)):
            own_var = float(var[i])
            comp_var = float(var.sum()) - own_var
            comp_val = -(comp.sum() - comp[i])
            w = (1 / own_var) / (1 / own_var + 1 / comp_var)
            wc = 1.0 - w
            parts.append(float(w * comp[i] + wc * comp_val))
            variances.append(float(w * wc * (own_var + comp_var)))
        refined.append(
            EntryEstimate(
                complex(parts[0], parts[1]),
                variances[0],
                variances[1],
                est.n_per_setting,
                "refined",
            )
        )
    return refined
