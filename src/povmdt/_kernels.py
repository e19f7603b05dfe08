"""The Monte Carlo trial kernel: per-trial entry estimates from sampled counts.

A trial's estimate is linear in the cell counts, ``sum_c w_c N_c / n``, with
the cell weights ``(cell_re, cell_im)`` of
:func:`povmdt.estimator.rt_coefficients`.  Cells that share a weight pair
therefore enter the estimate only through the sum of their counts, and that
sum is drawn directly (:func:`group_cells`):

* ``poisson``: cell counts are independent, and a sum of independent Poisson
  counts is a Poisson count with the summed rate;
* ``multinomial``: n particles per setting; merging categories of a
  multinomial gives a multinomial, so within each setting the cells sharing a
  weight pair merge, and the zero-weight cells join the rejected bucket.

Both merges are exact in distribution.  Cells with a zero weight pair or a
zero probability add nothing to the estimate and are not drawn.  For the
paper's weights a table of 36 cells has at most 9 distinct nonzero pairs.

Counts are drawn, contracted and discarded ``CHUNK_TRIALS`` trials at a time,
all from one ``numpy.random.Generator`` (PCG64) seeded once per call, so peak
memory does not grow with the trial count.

Poisson trials can also run in a numba ``@njit`` loop, on the same grouped
input, using numba's MT19937 generator seeded inside the kernel.  The
``POVMDT_BACKEND`` environment variable selects "numba" or "numpy"; unset,
numba is used when importable.  Each backend is deterministic for a given
seed, but the two draw from different generators.  Multinomial trials always
run on numpy: numba's multinomial draw costs O(n) per setting.
"""

from __future__ import annotations

import os

import numpy as np

ENV_VAR = "POVMDT_BACKEND"

#: Trials drawn per chunk; peak memory is O(CHUNK_TRIALS), not O(trials).
CHUNK_TRIALS = 2**15

#: Largest excess of a setting's cell sum over 1 that is taken as rounding.
SETTING_SUM_TOL = 1e-9

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised via POVMDT_BACKEND=numpy
    HAS_NUMBA = False


def active_backend() -> str:
    """Resolve the backend name from the environment, validating the choice."""
    choice = os.environ.get(ENV_VAR, "").strip().lower()
    if choice == "":
        return "numba" if HAS_NUMBA else "numpy"
    if choice not in ("numba", "numpy"):
        raise ValueError(f"{ENV_VAR} must be 'numba' or 'numpy', got {choice!r}")
    if choice == "numba" and not HAS_NUMBA:
        raise RuntimeError(f"{ENV_VAR}=numba but numba is not importable")
    return choice


def rng_name(backend: str | None = None) -> str:
    """Documented generator algorithm for the given (or active) backend."""
    b = backend or active_backend()
    return "numba-mt19937" if b == "numba" else "numpy-pcg64"


def effective_backend(statistics: str = "poisson") -> str:
    """Backend that will actually run for the given statistics.

    Multinomial sampling always uses the numpy path: numba's multinomial
    draw costs O(n) per setting.
    """
    if statistics == "multinomial":
        return "numpy"
    return active_backend()


def check_setting_sums(cells: np.ndarray) -> np.ndarray:
    """Per-setting totals of a (settings, 4) table, refusing any above 1.

    Under multinomial statistics the remainder ``1 - total`` is the rejected
    bucket, so a total above 1 is not a probability distribution.
    """
    totals = cells.sum(axis=1)
    worst = int(np.argmax(totals))
    if totals[worst] > 1.0 + SETTING_SUM_TOL:
        raise ValueError(
            f"setting {worst} cells sum to {totals[worst]!r} > 1, "
            "so its rejected bucket would have a negative probability"
        )
    return totals


def group_cells(cells, w_re, w_im, statistics):
    """Merge the cells that share a weight pair into one drawn count.

    ``cells`` is (settings, 4) of probabilities and ``w_re``/``w_im`` the
    matching flat cell weights.  Poisson counts merge across all settings;
    multinomial counts merge within each setting only.  Returns
    ``(block, prob, weights)``, one entry per group: the setting it is drawn
    in (0 for every Poisson group), its summed probability, and its
    ``(w_re, w_im)`` pair as a (groups, 2) array.  Groups with a zero weight
    pair or a zero probability are left out.
    """
    if statistics == "multinomial":
        cell_block = np.repeat(np.arange(cells.shape[0]), cells.shape[1])
    else:
        cell_block = np.zeros(cells.size)
    key = np.column_stack([cell_block, w_re, w_im])
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    prob = np.bincount(inverse.reshape(-1), weights=cells.reshape(-1), minlength=len(uniq))
    block, weights = uniq[:, 0].astype(np.intp), uniq[:, 1:]
    keep = weights.any(axis=1) & (prob > 0)
    return block[keep], prob[keep], weights[keep]


def _poisson_sums(rng, size, block, prob, weights, n):
    """``sum_g w_g N_g`` for ``size`` trials of independent Poisson counts."""
    return rng.poisson(n * prob, size=(size, prob.size)) @ weights


def _multinomial_sums(rng, size, block, prob, weights, n):
    """``sum_g w_g N_g`` for ``size`` trials of n particles per setting."""
    sums = np.zeros((size, 2))
    for b in np.unique(block):
        p, w = prob[block == b], weights[block == b]
        counts = rng.multinomial(n, np.append(p, max(1.0 - p.sum(), 0.0)), size=size)
        sums += counts[:, :-1] @ w
    return sums


if HAS_NUMBA:

    @njit(cache=True)
    def _poisson_trials_numba(rates, w_re, w_im, n, trials, seed):
        np.random.seed(seed)
        out_re = np.empty(trials)
        out_im = np.empty(trials)
        n_cells = rates.shape[0]
        for t in range(trials):
            acc_re = 0.0
            acc_im = 0.0
            for c in range(n_cells):
                w = np.random.poisson(rates[c]) / n
                acc_re += w_re[c] * w
                acc_im += w_im[c] * w
            out_re[t] = acc_re
            out_im[t] = acc_im
        return out_re, out_im

    def poisson_trials_numba(rates, w_re, w_im, n, trials, seed):
        # numba's seed is a 32-bit quantity
        return _poisson_trials_numba(rates, w_re, w_im, float(n), trials, int(seed) % 2**32)


def trial_estimates(cells, w_re, w_im, n, trials, seed, statistics="poisson"):
    """Per-trial (re, im) arrays of raw (unscaled) entry estimates.

    ``cells`` is the (settings, 4) array of exact joint probabilities and
    ``w_re``/``w_im`` the flat cell weights.  Multinomial statistics refuse
    a setting whose cells sum above 1.
    """
    if statistics not in ("poisson", "multinomial"):
        raise ValueError(f"statistics must be 'poisson' or 'multinomial', got {statistics!r}")
    cells = np.maximum(np.asarray(cells, dtype=np.float64), 0.0)
    if statistics == "multinomial":
        # a total within the rounding tolerance above 1 is scaled down to 1
        cells = cells / np.maximum(check_setting_sums(cells), 1.0)[:, None]
    block, prob, weights = group_cells(
        cells, np.asarray(w_re, np.float64), np.asarray(w_im, np.float64), statistics
    )
    if effective_backend(statistics) == "numba":
        return poisson_trials_numba(
            n * prob, weights[:, 0].copy(), weights[:, 1].copy(), n, trials, seed
        )
    sums = _poisson_sums if statistics == "poisson" else _multinomial_sums
    rng = np.random.default_rng(seed)
    out = np.empty((2, trials))
    for start in range(0, trials, CHUNK_TRIALS):
        stop = min(start + CHUNK_TRIALS, trials)
        out[:, start:stop] = sums(rng, stop - start, block, prob, weights, n).T
    out /= n
    return out[0], out[1]
