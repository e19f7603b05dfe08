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

:func:`draw_counts` is the one counting-noise sampler: the trial kernel
contracts its counts with the group weights, and
:func:`povmdt.montecarlo.sample_counts` draws one trial of the 36 ungrouped
cells of a W table with it.  Both pass their cells through the same check
first (:func:`checked_cells`); their callers have already refused and
clipped negative cells (:func:`povmdt.estimator.nonnegative_cells`).

Counts are drawn, contracted and discarded in chunks of ``CHUNK_TRIALS``
trials, so peak memory is O(WORKERS x CHUNK_TRIALS), not O(trials).  Chunk
``c`` draws from its own PCG64 stream, seeded by the ``c``-th spawned child
of ``SeedSequence(seed)``, and writes only its own slice of the output.  The
chunks run on up to ``WORKERS`` threads (numpy's samplers release the GIL);
because every chunk owns its stream, the output does not depend on the
number of threads, and a longer run extends a shorter one.
"""

from __future__ import annotations

import os

import numpy as np

ENV_VAR = "POVMDT_BACKEND"

#: Trials drawn per chunk; peak memory is O(WORKERS x CHUNK_TRIALS), not O(trials).
CHUNK_TRIALS = 2**13

#: Threads that draw chunks: the CPUs this process may run on.
WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

#: Largest excess of a setting's cell sum over 1 that is taken as rounding.
SETTING_SUM_TOL = 1e-9


# numpy with PCG64 is the only sampler, and the package does not read
# ``POVMDT_BACKEND``.  ``ENV_VAR``, ``active_backend`` and ``rng_name`` serve
# only the benchmark's provenance record, which calls them.


def active_backend() -> str:
    """The trial-kernel backend, validating ``POVMDT_BACKEND`` (unset or "numpy")."""
    choice = os.environ.get(ENV_VAR, "").strip().lower()
    if choice not in ("", "numpy"):
        raise ValueError(
            f"{ENV_VAR} must be unset or 'numpy' (the numba backend was removed), got {choice!r}"
        )
    return "numpy"


def rng_name() -> str:
    """Generator algorithm of the only backend, numpy: PCG64."""
    return "numpy-pcg64"


def checked_cells(cells, statistics: str) -> np.ndarray:
    """The (settings, 4) cell probabilities, ready to draw from.

    Callers pass non-negative cells.  Under multinomial statistics the
    remainder ``1 - total`` of a setting is its rejected bucket, so a setting
    whose cells sum above 1 is refused, and one above 1 by rounding only
    (``SETTING_SUM_TOL``) is scaled down to sum to 1.
    """
    if statistics not in ("poisson", "multinomial"):
        raise ValueError(f"statistics must be 'poisson' or 'multinomial', got {statistics!r}")
    cells = np.asarray(cells, dtype=np.float64)
    if statistics == "poisson":
        return cells
    totals = cells.sum(axis=1)
    worst = int(np.argmax(totals))
    if totals[worst] > 1.0 + SETTING_SUM_TOL:
        raise ValueError(
            f"setting {worst} cells sum to {totals[worst]!r} > 1, "
            "so its rejected bucket would have a negative probability"
        )
    return cells / np.maximum(totals, 1.0)[:, None]


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


def draw_counts(rng, size, block, prob, n, statistics):
    """Counts of the groups, one row per trial, as a (size, groups) float array.

    Poisson counts are independent with means ``n * prob``.  Multinomial
    counts spread n particles over the groups of each ``block`` and that
    block's rejected bucket, whose count is dropped.  Float, because every
    caller scales or contracts the counts, which would convert them anyway.
    """
    if statistics == "poisson":
        return rng.poisson(n * prob, size=(size, prob.size)).astype(np.float64)
    counts = np.empty((size, prob.size))
    for b in np.unique(block):
        mine = block == b
        p = prob[mine]
        drawn = rng.multinomial(n, np.append(p, max(1.0 - p.sum(), 0.0)), size=size)
        counts[:, mine] = drawn[:, :-1]
    return counts


def trial_estimates(cells, w_re, w_im, n, trials, seed, statistics="poisson"):
    """Per-trial (re, im) arrays of raw (unscaled) entry estimates.

    ``cells`` is the (settings, 4) array of exact, non-negative joint
    probabilities and ``w_re``/``w_im`` the flat cell weights.  Multinomial
    statistics refuse a setting whose cells sum above 1.
    """
    cells = checked_cells(cells, statistics)
    if trials == 0:  # nothing to draw: skip the grouping, the costly step here
        return np.empty(0), np.empty(0)
    block, prob, weights = group_cells(
        cells, np.asarray(w_re, np.float64), np.asarray(w_im, np.float64), statistics
    )
    streams = np.random.SeedSequence(seed).spawn(-(-trials // CHUNK_TRIALS))
    out = np.empty((2, trials))

    def draw_chunk(c):
        start = c * CHUNK_TRIALS
        stop = min(start + CHUNK_TRIALS, trials)
        rng = np.random.default_rng(streams[c])
        counts = draw_counts(rng, stop - start, block, prob, n, statistics)
        out[:, start:stop] = (counts @ weights).T

    # imported here: ``import povmdt`` should not pay for it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max(1, min(WORKERS, len(streams)))) as pool:
        list(pool.map(draw_chunk, range(len(streams))))
    out /= n
    return out[0], out[1]
