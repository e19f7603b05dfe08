"""Finite-statistics sampling, repeated-trial studies and parameter sweeps.

Counting noise enters through the meter distributions: with n particles
per basis setting, the observed cell frequencies fluctuate around the
exact W tables (Poisson counts by default, exact-n multinomial as an
alternative).  Everything stochastic is a pure function of (scenario,
seed); per-use seeds are derived from the scenario seed with numpy's
SeedSequence, and repeated trials run in the chunked trial kernel of
:mod:`povmdt._kernels`.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from . import _kernels
from .estimator import (
    EntryEstimate,
    RtCoefficients,
    _require_outcomes,
    _shares,
    _variance_law,
    completeness_refine,
    error_transfer_variance,
    nonnegative_cells,
    rt_coefficients,
)
from .linalg import asoperator
from .noise import apply_dephasing, apply_phase_rotation
from .povm import Povm, make_parametric_element
from .protocol import P_FLOOR, CouplingConfig, DeadPostSelectionError, exact_entry_tables


@dataclass(frozen=True)
class ShotModel:
    """Counting statistics: n particles per basis setting, seeded stream."""

    n_per_setting: int
    statistics: str = "poisson"
    seed: int = 0

    def __post_init__(self):
        n, seed = self.n_per_setting, self.seed
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
            raise ValueError(f"n_per_setting must be an integer >= 1, got {n!r}")
        if self.statistics not in ("poisson", "multinomial"):
            raise ValueError(
                f"statistics must be 'poisson' or 'multinomial', got {self.statistics!r}"
            )
        if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


@dataclass(frozen=True, eq=False)
class EntryScenario:
    """One entry-measurement scenario: element, entry indices, coupling.

    ``scale`` divides the raw entry estimate; set it to the element
    efficiency to work with efficiency-normalized entries (the convention
    of the closed-form variance law).  The coupling ``g`` lies strictly
    inside (0, pi/2).
    """

    pi_l: np.ndarray
    j: int
    k: int
    g: float
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "pi_l", asoperator(self.pi_l))
        if self.j == self.k:
            raise ValueError("entry scenarios target off-diagonal entries; need j != k")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        self.coeffs()  # refuses a g outside (0, pi/2)

    def coeffs(self) -> RtCoefficients:
        return rt_coefficients(self.pi_l.shape[0], self.g)

    def exact_value(self) -> complex:
        return complex(self.pi_l[self.j, self.k]) / self.scale


@dataclass(frozen=True)
class TrialSummary:
    """Repeated-trial statistics for one scenario.

    ``predicted_var`` is the error-transfer total variance evaluated at the
    exact tables.  The mean is NaN for no trials, and the sample variances
    for fewer than two (no degrees of freedom).
    """

    mean: complex
    sample_var_re: float
    sample_var_im: float
    predicted_var: float
    trials: int


def _g_point(g, theta=0.0, eta=0.5, e01=0.0) -> EntryScenario:
    """Entry (1, 0) of the qubit element eta*[[cos^2 theta, e01], ...],
    efficiency-normalized."""
    return EntryScenario(make_parametric_element(theta, eta, e01), 1, 0, g, scale=eta)


def _theta_point(theta, g=math.pi / 4, eta=0.5, e01=0.0) -> EntryScenario:
    return _g_point(g, theta, eta, e01)


def _xi_point(xi, povm, label=1, j=1, k=0, g=math.pi / 4) -> EntryScenario:
    return EntryScenario(apply_dephasing(povm, xi, j, k).element(label), j, k, g)


def _phi_point(phi, povm, label=1, j=1, k=0, g=math.pi / 4) -> EntryScenario:
    return EntryScenario(apply_phase_rotation(povm, phi, j, k).element(label), j, k, g)


#: The scenario builder of each sweep axis: its first argument is the grid
#: value, its keywords are the values that the axis holds fixed.
SWEEP_BUILDERS = {"g": _g_point, "theta": _theta_point, "xi": _xi_point, "phi": _phi_point}
#: The keywords of each axis's builder, in order.
SWEEP_KEYWORDS = {axis: tuple(inspect.signature(build).parameters)[1:]
                  for axis, build in SWEEP_BUILDERS.items()}


class SweepSpec:
    """A one-axis sweep of the measurement-precision study: one
    :class:`EntryScenario` per grid value, in ``scenarios``.

    Axis "g" or "theta" sweeps entry (1, 0) of the qubit element
    eta*[[cos^2 theta, e01], ...] and takes the other angle, ``eta`` and
    ``e01`` as keywords; axis "xi"/"phi" dephases/rotates slot (j, k) of
    ``povm`` and sweeps entry (j, k) of element ``label``, and takes
    ``povm``, ``label``, ``j``, ``k`` and ``g``.  Angles are radians.  A
    keyword that the axis does not take, its own swept parameter included,
    is refused, and so is every scenario that breaks the model, by the code
    that builds it: all on construction, before any trial.
    """

    def __init__(self, axis: str, grid, trials: int, shot: ShotModel, **fixed):
        if axis not in SWEEP_BUILDERS:
            raise ValueError(f"axis must be one of {tuple(SWEEP_BUILDERS)}, got {axis!r}")
        build, takes = SWEEP_BUILDERS[axis], SWEEP_KEYWORDS[axis]
        unread = [key for key in fixed if key not in takes]
        if unread:
            raise ValueError(f"axis {axis!r} sweeps take {', '.join(takes)}; "
                             f"got {', '.join(unread)}")
        params = inspect.signature(build).parameters
        missing = [key for key in takes
                   if params[key].default is inspect.Parameter.empty and key not in fixed]
        if missing:
            raise ValueError(f"axis {axis!r} sweeps need {', '.join(missing)}")
        if len(grid) == 0:
            raise ValueError("sweep grid must be non-empty")
        if isinstance(trials, bool) or not isinstance(trials, Integral) or trials < 0:
            raise ValueError(f"trials must be an integer >= 0, got {trials!r}")
        self.axis, self.grid, self.trials, self.shot = axis, tuple(grid), trials, shot
        self.scenarios = tuple(build(float(value), **fixed) for value in self.grid)


def _child_seeds(seed: int, count: int) -> np.ndarray:
    """Deterministic per-use 32-bit seeds derived from one scenario seed."""
    return np.random.SeedSequence(seed).generate_state(count)


def sample_counts(tables, shot: ShotModel) -> np.ndarray:
    """One noisy realization of the (9, 2, 2) W tables, as counts / n; or of
    each outcome of an (L, 9, 2, 2) stack.

    Poisson mode draws each cell count independently with mean n*W;
    multinomial mode distributes exactly n particles per setting over the
    four cells and a rejected bucket, refusing a setting whose cells sum
    above 1.  The cells are checked and clipped once for the whole stack,
    and every outcome draws from one ``default_rng(shot.seed)``, in outcome
    order, in one numpy call: a broadcast ``poisson(n W)``, or one
    ``multinomial`` with a row per outcome and setting, whose last column,
    the rejected bucket, is left at zero, since numpy gives the last
    category whatever the others leave and never reads its probability.
    Outcome 0 of a stack draws what it would draw alone.  The draw is
    deterministic for given (tables, shot).
    """
    flat = nonnegative_cells(tables)
    cells = _kernels.checked_cells(flat.reshape(flat.shape[:-1] + (9, 4)), shot.statistics)
    n, rng = shot.n_per_setting, np.random.default_rng(shot.seed)
    if shot.statistics == "poisson":
        counts = rng.poisson(n * cells)
    else:
        pvals = np.zeros(cells.shape[:-1] + (5,))
        pvals[..., :4] = cells
        counts = rng.multinomial(n, pvals)[..., :4]
    return (counts / n).reshape(flat.shape[:-1] + (9, 2, 2))


def exact_slot(elements, j: int, k: int, coeffs: RtCoefficients, n: int, name,
               statistics="poisson"):
    """The exact step of every Monte Carlo study of slot (j, k) of an
    (L, d, d) stack: its W tables checked and clipped, as a read-only (L, 9,
    2, 2) array, and the arrays (var_re, var_im) of the raw entries'
    error-transfer variances at n particles per setting under the given
    counting ``statistics``.  The variance and :func:`sample_counts` clip
    their cells again (:func:`~povmdt.estimator.nonnegative_cells`), which
    leaves clipped cells as they are.  An outcome whose post-selection
    probability (one setting's four cells) is at or below ``P_FLOOR`` is
    refused by ``name(i)``, called only then.
    """
    tables = exact_entry_tables(elements, j, k, CouplingConfig.symmetric(coeffs.g))
    p_f = tables.reshape(-1, 36)[:, :4].sum(axis=1)
    dead = np.flatnonzero(~(p_f > P_FLOOR))
    if dead.size:
        raise DeadPostSelectionError(
            f"{name(int(dead[0]))}: post-selection probability {p_f[dead[0]]:.3e} "
            f"<= floor {P_FLOOR:.1e}"
        )
    cells = nonnegative_cells(tables).reshape(tables.shape)
    cells.setflags(write=False)
    return (cells,) + error_transfer_variance(cells, coeffs, n, statistics)


def run_trials(scenario: EntryScenario, shot: ShotModel, trials: int) -> TrialSummary:
    """Sample-and-estimate ``trials`` times and summarize.

    The predicted variance is the error-transfer value at the exact tables,
    so predicted-vs-sample comparison is meaningful per scenario.  With no
    trials the mean and sample variances are NaN.  A scenario whose
    post-selection probability is at or below the floor is refused.  Here,
    once, entries are divided by ``scenario.scale``: the kernel's weights by
    it, the raw entry's predicted variances by its square.
    """
    coeffs = scenario.coeffs()
    j, k, scale = scenario.j, scenario.k, scenario.scale
    cells, vr, vi = exact_slot(scenario.pi_l[None], j, k, coeffs, shot.n_per_setting,
                               lambda i: f"entry ({j}, {k})", shot.statistics)
    mean, cov = _kernels.trial_estimates(
        cells.reshape(1, 9, 4), coeffs.cell_re / scale, coeffs.cell_im / scale,
        shot.n_per_setting, trials, [shot.seed], shot.statistics,
    )
    return TrialSummary(
        mean=complex(*mean[:, 0].tolist()),
        sample_var_re=float(cov[0, 0, 0]),
        sample_var_im=float(cov[1, 0, 0]),
        predicted_var=float(vr[0] / scale**2 + vi[0] / scale**2),
        trials=trials,
    )


def _analytic_for(scenario: EntryScenario, n: int) -> float:
    """Closed-form variance in the scenario's estimand scale (NaN if d > 2)."""
    d = scenario.pi_l.shape[0]
    if d != 2:
        return float("nan")
    eta = float(np.trace(scenario.pi_l).real)
    if not 0 < eta <= 1:
        return float("nan")
    sin2 = float(scenario.pi_l[scenario.j, scenario.j].real) / eta
    # the law is stated for the efficiency-normalized entry (scale = eta)
    return _variance_law(sin2, scenario.g, eta, n) * (eta / scenario.scale) ** 2


def variance_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate analytic, error-transfer and empirical variances on a grid.

    Returns one row per grid point with keys: axis_value, var_analytic,
    var_transfer, var_empirical, mean_re, mean_im, trials, seed.  All three
    variances are expressed in the scenario's estimand scale.  Each point is
    one :func:`run_trials` call of its scenario on its own child seed; with
    trials = 0 the empirical columns are NaN.
    """
    seeds = _child_seeds(spec.shot.seed, len(spec.grid)).tolist()
    rows = []
    for value, scenario, seed in zip(spec.grid, spec.scenarios, seeds):
        summary = run_trials(scenario, replace(spec.shot, seed=seed), spec.trials)
        rows.append({
            "axis_value": float(value),
            "var_analytic": _analytic_for(scenario, spec.shot.n_per_setting),
            "var_transfer": summary.predicted_var,
            "var_empirical": summary.sample_var_re + summary.sample_var_im,
            "mean_re": summary.mean.real,
            "mean_im": summary.mean.imag,
            "trials": spec.trials,
            "seed": seed,
        })
    return rows


@dataclass(frozen=True)
class RefinementStudy:
    """Raw vs sum-rule-refined statistics for every outcome of a POVM."""

    labels: tuple
    raw: dict          # label -> EntryEstimate (predicted variances)
    refined: dict      # label -> EntryEstimate
    raw_sample_var: dict      # label -> (var_re, var_im) over trials
    refined_sample_var: dict  # label -> (var_re, var_im) over trials
    trials: int


def refinement_trials(
    povm: Povm, j: int, k: int, g: float, shot: ShotModel, trials: int
) -> RefinementStudy:
    """Monte Carlo study of the completeness-refinement gain.

    Every outcome is sampled in its own independent post-selection channel;
    per trial, each entry estimate is refined against the complement built
    from the other outcomes with inverse-variance weights fixed at the
    predicted (exact-table) variances v: completeness_refine's map x_l -> x_l
    - wc_l sum_u x_u, with its shares wc = v / sum v.  Over the kernel's raw
    covariance C, its sample variance is C_ll - 2 wc_l (C1)_l + wc_l^2 1'C1.
    """
    if j == k:
        raise ValueError("refinement targets an off-diagonal entry; need j != k")
    _require_outcomes(len(povm))
    labels = list(povm.labels)
    coeffs = rt_coefficients(povm.dim, g)
    seeds = _child_seeds(shot.seed, len(labels))
    n = shot.n_per_setting
    cells, var_re, var_im = exact_slot(povm.elements, j, k, coeffs, n,
                                       lambda i: f"outcome {labels[i]}", shot.statistics)

    truths = povm.elements[:, j, k] + 0j  # a signed zero reads +0.0, as in the oracle
    raw_est = {
        lab: EntryEstimate(value, vr, vi, n, "exact")
        for lab, value, vr, vi in zip(labels, truths.tolist(), var_re.tolist(), var_im.tolist())
    }

    _, cov = _kernels.trial_estimates(cells.reshape(-1, 9, 4), coeffs.cell_re,
                                      coeffs.cell_im, n, trials, seeds.tolist(), shot.statistics)
    wc = _shares(np.stack([var_re, var_im]))
    row_sums = cov.sum(axis=-1)
    raw_var = np.diagonal(cov, axis1=-2, axis2=-1)
    refined_var = raw_var - 2 * wc * row_sums + wc**2 * row_sums.sum(axis=-1, keepdims=True)

    refined_est = {
        lab: EntryEstimate(value, vr, vi, n, "refined")
        for lab, value, vr, vi in zip(labels, *(
            column.tolist() for column in completeness_refine(truths, var_re, var_im)))
    }
    raw_sv = dict(zip(labels, zip(*raw_var.tolist())))
    ref_sv = dict(zip(labels, zip(*refined_var.tolist())))
    return RefinementStudy(
        tuple(labels), raw_est, refined_est, raw_sv, ref_sv, trials
    )
