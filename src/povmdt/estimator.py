"""Entry reconstruction from meter statistics and its precision laws.

The entry is read through one linear functional of the two meters: the
joint observables R = P (x) P - Q (x) Q (real part) and T = P (x) Q + Q (x) P
(imaginary part), meter B first, with the single-meter observables

    P = sqrt(d) [ gamma |0><0| - beta sigma_x ],   gamma = 1/(2 cos^2 g)
    Q = -sqrt(d) beta sigma_y,                     beta  = 1/(4 sin g cos g)

Each single-meter observable is a weighted sum of the six basis projectors
Pi_{basis, m} (basis in BASES, outcome m), one monomial per basis:

    P / sqrt(d) = gamma Pi_z0 - beta (Pi_x0 - Pi_x1)
    Q / sqrt(d) = -beta (Pi_y0 - Pi_y1)

so its weights form a (3, 2) table over (basis, m).  The product of a B
weight and an A weight is the weight of the cell (basis_b, basis_a, m, n),
and the 36 cell weights of R and T follow as outer products of these
tables (:func:`rt_coefficients`).  They double as the error-transfer
derivatives dE/dW, so a single weight vector drives both the estimate and
its predicted shot-noise variance.

:func:`estimate_from_tables`, :func:`error_transfer_variance` and
:func:`nonnegative_cells` take one outcome's (9, 2, 2) W tables or an
(L, 9, 2, 2) stack of them, and return one value per outcome for a
stack, of the raw entry (studies normalize by ``EntryScenario.scale``).
Each outcome's 36-cell contraction is one 1-D dot product: one outcome's
estimate takes it directly as ``np.dot`` of two 36-vectors (BLAS ddot), a
stack and every variance as one batched ``np.matmul`` of (1, 36) rows with
a (36, 1) column, which numpy runs as that dot for each outcome, so a stack
equals its per-outcome calls bit for bit.  A single (L, 36) @ (36,) product
would sum in another order and move the last ulp.

The weights depend only on (d, g), so :func:`rt_coefficients` is memoized
and equal calls share one read-only result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real

import numpy as np

from ._kernels import checked_cells
from .protocol import _cells

#: Number of cells across all settings: 9 settings x 2 x 2 outcomes.
N_CELLS = 36


@dataclass(frozen=True, eq=False)
class RtCoefficients:
    """Linear weights reconstructing Re/Im of an entry from meter data.

    ``cell_re`` / ``cell_im`` are the weights of R and T on the 36 cells,
    in the cell order of :data:`povmdt.protocol.CELL_PROJECTORS` (the
    error-transfer derivatives).
    """

    d: int
    g: float
    alpha: float
    beta: float
    cell_re: np.ndarray = field(repr=False)
    cell_im: np.ndarray = field(repr=False)


@lru_cache(maxsize=256)
def rt_coefficients(d: int, g: float) -> RtCoefficients:
    """Weights for integral system dimension d and coupling strength g in
    (0, pi/2).

    Memoized on (d, g): equal calls return the same immutable
    :class:`RtCoefficients`, which holds ``int(d)`` and ``float(g)``
    whatever the types of the first call's keys.
    """
    if not 0.0 < g < math.pi / 2:
        raise ValueError(f"coupling strength g={g!r} must lie strictly inside (0, pi/2)")
    # an integral float is accepted: it would hit the memo of its equal int
    if isinstance(d, (bool, np.bool_)) or not (isinstance(d, Real) and float(d).is_integer()):
        raise ValueError(f"system dimension must be an integer, got {d!r}")
    if d < 2:
        raise ValueError(f"system dimension must be >= 2, got {d}")
    d, g = int(d), float(g)
    alpha = 1.0 / (4 * math.cos(g) ** 2)
    beta = 1.0 / (4 * math.sin(g) * math.cos(g))
    gamma = 2 * alpha
    # single-meter weights of P/sqrt(d) and Q/sqrt(d), rows z, x, y; columns m
    p = np.array([[gamma, 0.0], [-beta, beta], [0.0, 0.0]])
    q = np.array([[0.0, 0.0], [0.0, 0.0], [-beta, beta]])
    cell_re = d * (_cell_product(p, p) - _cell_product(q, q))
    cell_im = d * (_cell_product(p, q) + _cell_product(q, p))
    cell_re.setflags(write=False)
    cell_im.setflags(write=False)
    return RtCoefficients(d, g, alpha, beta, cell_re, cell_im)


def _cell_product(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """36 cell weights of the product of a meter-B and a meter-A weight
    table, setting-major over SETTINGS, then m, then n."""
    return np.einsum("im,jn->ijmn", b, a).reshape(N_CELLS)


def nonnegative_cells(tables: np.ndarray) -> np.ndarray:
    """The 36 cells of the (9, 2, 2) W tables, or (L, 36) for an
    (L, 9, 2, 2) stack, with rounding negatives set to 0.

    A cell below -1e-9 is no rounding error and is refused, and so is a
    NaN or infinite cell, which would pass that check.  Cells already
    checked and clipped by :func:`_clip_once` are returned as they are.
    """
    if isinstance(tables, _ClippedCells):
        return tables.flat
    flat = _cells(tables)
    _refuse_nonfinite(flat)
    if flat.min() < -1e-9:
        raise ValueError(f"negative probability cell: {flat.min():.3e}")
    return np.maximum(flat, 0.0)


@dataclass(frozen=True, eq=False)
class _ClippedCells:
    """The read-only output of :func:`nonnegative_cells`, (36,) or (L, 36),
    made by :func:`_clip_once` so that several readers of the same exact
    tables check and clip them once."""

    flat: np.ndarray


def _refuse_nonfinite(flat: np.ndarray) -> None:
    """Refuse (36,) or (L, 36) cells with a NaN or infinite cell, naming the
    first one."""
    finite = np.isfinite(flat)
    if not finite.all():
        first = int(np.argmin(finite))
        row, cell = divmod(first, N_CELLS)
        where = f"cell {cell}" if flat.ndim == 1 else f"outcome {row}, cell {cell}"
        raise ValueError(f"non-finite probability cell: {flat.flat[first]} ({where})")


def _clip_once(tables) -> _ClippedCells:
    """Check and clip W tables once for all their readers: the sampler, the
    variance and the trial kernel."""
    flat = nonnegative_cells(tables)
    flat.setflags(write=False)
    return _ClippedCells(flat)


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


def estimate_from_tables(tables: np.ndarray, coeffs: RtCoefficients):
    """Raw entry estimate from (exact or sampled) (9, 2, 2) W tables: a
    complex, or a complex array with one entry per outcome of an
    (L, 9, 2, 2) stack.  A NaN or infinite cell is refused by name; the
    cells are searched only when the estimate, which it spoils, is not finite."""
    flat = _cells(tables)
    if flat.ndim == 1:
        re, im = np.dot(coeffs.cell_re, flat), np.dot(coeffs.cell_im, flat)
        if not (math.isfinite(re) and math.isfinite(im)):
            _refuse_nonfinite(flat)
        return complex(re, im)
    values = np.empty(len(flat), dtype=complex)
    values.real = _dot(flat, coeffs.cell_re)
    values.imag = _dot(flat, coeffs.cell_im)
    if not np.isfinite(values).all():
        _refuse_nonfinite(flat)
    return values


def _dot(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w @ f`` for each row ``f`` of an (L, 36) stack: one batched 1-D dot
    product per row, the same bits as the row's own ``w @ f``."""
    return np.matmul(rows[:, None, :], w[:, None])[:, 0, 0]


def error_transfer_variance(
    tables: np.ndarray, coeffs: RtCoefficients, n: int, statistics: str = "poisson"
):
    """Shot-noise variances (var_re, var_im) of the raw entry estimate: two
    floats, or two arrays with one entry per outcome of an (L, 9, 2, 2)
    stack.

    The estimate is linear in the counts, so its variance is exact at n
    particles per setting: ``sum_c w_c^2 W_c / n`` for independent Poisson
    counts, and for ``multinomial`` counts, which spread exactly n particles
    over each setting s, ``[sum_c w_c^2 W_c - sum_s (sum_{c in s} w_c
    W_c)^2] / n``, per component.  The cells pass the sampler's setting rule
    (:func:`povmdt._kernels.checked_cells`), so the law is that of the draws.
    """
    if n <= 0:
        raise ValueError(f"particle number per setting must be positive, got {n}")
    flat = nonnegative_cells(tables)
    rows = checked_cells(flat.reshape(flat.shape[:-1] + (9, 4)), statistics).reshape(-1, N_CELLS)
    var = []
    for w in (coeffs.cell_re, coeffs.cell_im):
        total = _dot(rows, w**2)
        if statistics == "multinomial":
            total -= np.square((rows * w).reshape(len(rows), -1, 4).sum(axis=-1)).sum(axis=-1)
        var.append(total / n)
    if flat.ndim == 1:
        return float(var[0][0]), float(var[1][0])
    return var[0], var[1]


def analytic_variance(theta: float, g: float, eta: float, n: int) -> float:
    """Closed-form total variance of the normalized off-diagonal entry of a
    qubit element eta*[[cos^2 t, e01], [conj(e01), sin^2 t]]:

        (sin^2 t + sin^2 g)(1 + 2 sin^2 g) / (eta n sin^4(2g))

    Independent of e01 itself.  Diverges at the boundary couplings.
    """
    st = math.sin(theta)
    return _variance_law(st * st, g, eta, n)


def _variance_law(sin2_theta: float, g: float, eta: float, n: int) -> float:
    """:func:`analytic_variance` at sin^2 t = ``sin2_theta``."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if n <= 0:
        raise ValueError(f"particle number must be positive, got {n}")
    s2g = math.sin(2 * g)
    if abs(s2g) < 1e-12:
        raise ValueError(f"variance diverges at boundary coupling g={g!r}")
    sg = math.sin(g)
    return (sin2_theta + sg * sg) * (1 + 2 * sg * sg) / (eta * n * s2g**4)


def completeness_refine(values, var_re, var_im):
    """Improve per-outcome entry estimates using the zero sum rule.

    For a complete POVM the off-diagonal entries satisfy sum_l E^(l) = 0
    (real and imaginary parts separately), so each entry has a complement
    estimate E_comp = -sum_{u != l} E^(u).  Mixing the two with
    inverse-variance weights is, in closed form, x_l -> x_l - wc_l sum_u x_u
    with variance v_l - wc_l v_l, where wc_l = v_l / sum_u v_u
    (:func:`_shares`); that never exceeds v_l or the complement's variance.
    Real and imaginary parts are refined independently, as one stacked array.

    ``values`` (complex) and the variances ``var_re``, ``var_im`` hold one
    entry per outcome along their last axis: (L,), or (P, L) for P sets of
    estimates (the points of a scan grid), each refined on its own.
    Returns the refined ``(values, var_re, var_im)`` in the same shapes.
    """
    values = np.asarray(values, dtype=complex)
    variances = np.array([var_re, var_im], dtype=float)
    _require_outcomes(values.shape[-1])
    if not np.isfinite(variances).all():
        raise ValueError("refinement requires finite variances for every outcome")
    if (variances <= 0).any():
        raise ValueError("refinement requires strictly positive variances")
    x = np.stack([values.real, values.imag])
    wc = _shares(variances)
    x -= wc * x.sum(axis=-1, keepdims=True)
    refined = np.empty(values.shape, dtype=complex)
    refined.real, refined.imag = x
    return refined, *(variances - wc * variances)


def _require_outcomes(count: int) -> None:
    """Refuse a refinement over fewer than two outcomes: an outcome's
    complement is the sum of the others."""
    if count < 2:
        raise ValueError("refinement needs at least two outcomes")


def _shares(variances: np.ndarray) -> np.ndarray:
    """Each outcome's share ``v / sum v`` of the variances along the last
    axis: the weight of the sum rule's residual in the refinement."""
    return variances / variances.sum(axis=-1, keepdims=True)
