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

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .estimator import (
    EntryEstimate,
    RtCoefficients,
    _clip_once,
    _refine_arrays,
    analytic_variance,
    completeness_refine,
    error_transfer_variance,
    nonnegative_cells,
    rt_coefficients,
)
from .linalg import asoperator
from .noise import apply_dephasing, apply_phase_rotation
from .povm import Povm, make_parametric_element
from .protocol import P_FLOOR, CouplingConfig, DeadPostSelectionError, exact_entry_tables

AXES = ("g", "theta", "xi", "phi")


@dataclass(frozen=True)
class ShotModel:
    """Counting statistics: n particles per basis setting, seeded stream."""

    n_per_setting: int
    statistics: str = "poisson"
    seed: int = 0

    def __post_init__(self):
        if self.n_per_setting < 1:
            raise ValueError(f"n_per_setting must be >= 1, got {self.n_per_setting}")
        if self.statistics not in ("poisson", "multinomial"):
            raise ValueError(
                f"statistics must be 'poisson' or 'multinomial', got {self.statistics!r}"
            )


@dataclass(frozen=True, eq=False)
class EntryScenario:
    """One entry-measurement scenario: element, entry indices, coupling.

    ``scale`` divides the raw entry estimate; set it to the element
    efficiency to work with efficiency-normalized entries (the convention
    of the closed-form variance law).
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
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

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


@dataclass(frozen=True)
class SweepSpec:
    """A one-axis sweep of the measurement-precision study.

    axis "g" or "theta" sweeps the qubit element eta*[[cos^2 t, e01], ...]
    with the other angle fixed; axis "xi"/"phi" applies dephasing/rotation
    to a fixed element of ``povm`` and sweeps the noise parameter.  Angles
    are radians.  Values that break the model (g outside (0, pi/2), eta
    outside (0, 1], an e01 beyond the positivity bound at a swept theta, xi
    outside [0, 1]) are refused on construction, before any trial.
    """

    axis: str
    grid: tuple
    trials: int
    shot: ShotModel
    theta: float = 0.0
    eta: float = 0.5
    e01: complex = 0.0
    g: float = math.pi / 4
    povm: Povm | None = None
    label: int = 1
    j: int = 1
    k: int = 0

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        if len(self.grid) == 0:
            raise ValueError("sweep grid must be non-empty")
        bad = [g for g in (self.grid if self.axis == "g" else [self.g])
               if not 0 < g < math.pi / 2]
        if bad:
            raise ValueError(f"g must lie strictly inside (0, pi/2); offending {bad}")
        if self.axis in ("g", "theta"):
            for theta in self.grid if self.axis == "theta" else [self.theta]:
                make_parametric_element(theta, self.eta, self.e01)  # eta, e01 checks
        elif self.povm is None:
            raise ValueError(f"axis {self.axis!r} sweeps need a povm")
        if self.axis == "xi" and not all(0 <= xi <= 1 for xi in self.grid):
            raise ValueError(f"xi grid must lie in [0, 1]; got {list(self.grid)}")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")


#: The setting of each of the 36 cells: the draw blocks of one W table.
_SETTING_OF_CELL = np.repeat(np.arange(9), 4)


def _child_seeds(seed: int, count: int) -> np.ndarray:
    """Deterministic per-use 32-bit seeds derived from one scenario seed."""
    return np.random.SeedSequence(seed).generate_state(count)


def sample_counts(tables, shot: ShotModel, seeds=None) -> np.ndarray:
    """One noisy realization of the (9, 2, 2) W tables, as counts / n; or of
    each outcome of an (L, 9, 2, 2) stack, given one seed per outcome.

    Poisson mode draws each cell count independently with mean n*W;
    multinomial mode distributes exactly n particles per setting over the
    four cells and a rejected bucket, refusing a setting whose cells sum
    above 1.  The draw is the trial kernel's, one trial of the ungrouped
    cells.  One outcome draws from ``default_rng(shot.seed)``; outcome l of
    a stack from its own ``default_rng(seeds[l])``, so a stacked call equals
    the L single-outcome calls bit for bit while the stack is checked and
    clipped once.  The draw is deterministic for given (tables, shot,
    seeds).
    """
    flat = nonnegative_cells(tables)
    if seeds is None:
        if flat.ndim != 1:
            raise ValueError(
                f"sample_counts draws one outcome's W tables, shape (9, 2, 2), or a stack "
                f"given one seed per outcome; got shape {flat.shape[:-1] + (9, 2, 2)} "
                "and no seeds"
            )
        seeds = [shot.seed]
    cells = _kernels.checked_cells(flat.reshape(flat.shape[:-1] + (9, 4)), shot.statistics)
    cells = cells.reshape(-1, 36)
    if len(seeds) != len(cells):
        raise ValueError(f"{len(seeds)} seeds for {len(cells)} outcomes")
    n = shot.n_per_setting
    counts = np.empty(cells.shape)
    for i, seed in enumerate(seeds):
        counts[i] = _kernels.draw_counts(
            np.random.default_rng(seed), 1, _SETTING_OF_CELL, cells[i], n, shot.statistics
        )
    return (counts / n).reshape(flat.shape[:-1] + (9, 2, 2))


def _sample_var(x: np.ndarray) -> float:
    """Unbiased sample variance; NaN below two samples (no degrees of freedom)."""
    return float(x.var(ddof=1)) if x.size >= 2 else float("nan")


def exact_slot(elements, j: int, k: int, coeffs: RtCoefficients, n: int, names, scale=1.0):
    """The exact step of every Monte Carlo study of slot (j, k) of an
    (L, d, d) stack: its cells checked and clipped once, and the arrays
    (var_re, var_im) of error-transfer variances at n particles per setting.
    An outcome whose post-selection probability (one setting's four cells)
    is at or below ``P_FLOOR`` is refused by its entry in ``names``.
    """
    tables = exact_entry_tables(elements, j, k, CouplingConfig.symmetric(coeffs.g))
    for name, p_f in zip(names, tables.reshape(-1, 36)[:, :4].sum(axis=1).tolist(), strict=True):
        if not p_f > P_FLOOR:
            raise DeadPostSelectionError(
                f"{name}: post-selection probability {p_f:.3e} <= floor {P_FLOOR:.1e}"
            )
    cells = _clip_once(tables)
    return (cells,) + error_transfer_variance(cells, coeffs, n, scale)


def run_trials(scenario: EntryScenario, shot: ShotModel, trials: int) -> TrialSummary:
    """Sample-and-estimate ``trials`` times and summarize.

    The predicted variance is the error-transfer value at the exact tables,
    so predicted-vs-sample comparison is meaningful per scenario.  With no
    trials the mean and sample variances are NaN.  A scenario whose
    post-selection probability is at or below the floor is refused.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    coeffs = scenario.coeffs()
    j, k = scenario.j, scenario.k
    cells, vr, vi = exact_slot(scenario.pi_l[None], j, k, coeffs, shot.n_per_setting,
                               [f"entry ({j}, {k})"], scenario.scale)
    scale = scenario.scale
    re, im = _kernels.trial_estimates(
        cells.flat[0].reshape(9, 4), coeffs.cell_re / scale, coeffs.cell_im / scale,
        shot.n_per_setting, trials, shot.seed, shot.statistics,
    )
    return TrialSummary(
        mean=complex(re.mean(), im.mean()) if trials else complex(math.nan, math.nan),
        sample_var_re=_sample_var(re),
        sample_var_im=_sample_var(im),
        predicted_var=float(vr[0] + vi[0]),
        trials=trials,
    )


def _scenario_at(spec: SweepSpec, value: float) -> EntryScenario:
    """Materialize the scenario at one grid point of the sweep axis."""
    if spec.axis in ("g", "theta"):
        theta = value if spec.axis == "theta" else spec.theta
        g = value if spec.axis == "g" else spec.g
        elem = make_parametric_element(theta, spec.eta, spec.e01)
        return EntryScenario(elem, 1, 0, g, scale=spec.eta)
    if spec.axis == "xi":
        noisy = apply_dephasing(spec.povm, value, spec.j, spec.k)
    else:
        noisy = apply_phase_rotation(spec.povm, value, spec.j, spec.k)
    return EntryScenario(noisy.element(spec.label), spec.j, spec.k, spec.g)


def _analytic_for(scenario: EntryScenario, n: int) -> float:
    """Closed-form variance in the scenario's estimand scale (NaN if d > 2)."""
    d = scenario.pi_l.shape[0]
    if d != 2:
        return float("nan")
    eta = float(np.trace(scenario.pi_l).real)
    if not 0 < eta <= 1:
        return float("nan")
    cos2 = float(scenario.pi_l[scenario.k, scenario.k].real) / eta
    theta = math.acos(math.sqrt(min(max(cos2, 0.0), 1.0)))
    law = analytic_variance(theta, scenario.g, eta, n)
    # the law is stated for the efficiency-normalized entry (scale = eta)
    return law * (eta / scenario.scale) ** 2


def variance_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate analytic, error-transfer and empirical variances on a grid.

    Returns one row per grid point with keys: axis_value, var_analytic,
    var_transfer, var_empirical, mean_re, mean_im, trials, seed.  All three
    variances are expressed in the scenario's estimand scale.  Each point is
    one :func:`run_trials` call on its own child seed; with trials = 0 the
    empirical columns are NaN.
    """
    seeds = _child_seeds(spec.shot.seed, len(spec.grid)).tolist()
    rows = []
    for value, seed in zip(spec.grid, seeds):
        scenario = _scenario_at(spec, float(value))
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
    predicted (exact-table) variances.
    """
    if j == k:
        raise ValueError("refinement targets an off-diagonal entry; need j != k")
    labels = list(povm.labels)
    coeffs = rt_coefficients(povm.dim, g)
    seeds = _child_seeds(shot.seed, len(labels))
    n = shot.n_per_setting
    names = [f"outcome {lab}" for lab in labels]
    cells, var_re, var_im = exact_slot(povm.elements, j, k, coeffs, n, names)

    raw_est = {
        lab: EntryEstimate(complex(element[j, k]), float(var_re[i]), float(var_im[i]), n, "exact")
        for i, (lab, element) in enumerate(zip(labels, povm.elements))
    }
    re, im = _kernels.trial_estimates(
        cells.flat.reshape(-1, 9, 4), coeffs.cell_re, coeffs.cell_im, n, trials, seeds.tolist(),
        shot.statistics,
    )

    refined_pred = completeness_refine([raw_est[lab] for lab in labels])
    refined_est = dict(zip(labels, refined_pred))

    raw_sv = {lab: (_sample_var(re[i]), _sample_var(im[i])) for i, lab in enumerate(labels)}
    # refine every trial with the weights fixed at the predicted variances
    ref_re, _ = _refine_arrays(re, var_re)
    ref_sv_re = [_sample_var(x) for x in ref_re]
    del ref_re
    ref_im, _ = _refine_arrays(im, var_im)
    ref_sv = {lab: (ref_sv_re[i], _sample_var(ref_im[i])) for i, lab in enumerate(labels)}
    return RefinementStudy(
        tuple(labels), raw_est, refined_est, raw_sv, ref_sv, trials
    )
