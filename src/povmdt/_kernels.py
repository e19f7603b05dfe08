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
cells of each outcome's W table with it.  Both pass their cells through the
same check first (:func:`checked_cells`, once for a whole stack of
outcomes); their callers have already refused and clipped negative cells
(:func:`povmdt.estimator.nonnegative_cells`, once per stack in ``montecarlo.exact_slot``).

A chunk of many trials is drawn group by group (:func:`draw_counts`): each
Poisson group's column is one ``poisson`` call with a scalar rate, and each
multinomial setting is a chain of conditional binomials, one scalar-probability
column per group and nothing for the rejected bucket (Devroye, *Non-Uniform
Random Variate Generation*, 1986, ch. XI).  Both are exact in distribution,
and neither pays numpy's per-element broadcast iterator.  One trial is drawn
in one call per row, which consumes the stream in the same order.

Counts are drawn, contracted and discarded in chunks of ``CHUNK_TRIALS``
trials, so peak memory is O(WORKERS x CHUNK_TRIALS), not O(trials).  Chunk
``c`` of an outcome draws from its own PCG64 stream, seeded by the ``c``-th
spawned child of ``SeedSequence`` of the outcome's seed, and writes only its
own slice of the output.  The chunks of every outcome of a study (a stack
of cells, :func:`trial_estimates`) run on one pool of up to ``WORKERS``
threads (numpy's samplers release the GIL), so no worker idles at the end of
each outcome; because every chunk owns its stream, the output does not
depend on the number of threads or on the stacking, and a longer run
extends a shorter one.
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
    """The (settings, 4) cell probabilities, or an (outcomes, settings, 4)
    stack of them, ready to draw from.

    Callers pass non-negative cells.  Under multinomial statistics the
    remainder ``1 - total`` of a setting is its rejected bucket, so a setting
    whose cells sum above 1 is refused, naming the setting and, in a stack,
    the outcome's index; one above 1 by rounding only (``SETTING_SUM_TOL``)
    is scaled down to sum to 1.
    """
    if statistics not in ("poisson", "multinomial"):
        raise ValueError(f"statistics must be 'poisson' or 'multinomial', got {statistics!r}")
    cells = np.asarray(cells, dtype=np.float64)
    if statistics == "poisson":
        return cells
    totals = cells.sum(axis=-1)
    worst = np.unravel_index(np.argmax(totals), totals.shape)
    if totals[worst] > 1.0 + SETTING_SUM_TOL:
        where = f"setting {worst[-1]}" if len(worst) == 1 else (
            f"outcome {worst[0]}, setting {worst[1]}")
        raise ValueError(
            f"{where} cells sum to {totals[worst]!r} > 1, "
            "so its rejected bucket would have a negative probability"
        )
    return cells / np.maximum(totals, 1.0)[..., None]


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

    More than one trial is drawn group by group: ``poisson(n p_g, size)``,
    or per block the chain that numpy's multinomial runs row by row,
    ``binomial(left, p_g / rest, ...)`` with ``left`` the particles not yet
    placed and ``rest`` the probability not yet spent.  One trial is one
    call per row, a broadcast ``poisson`` or one ``multinomial`` per block:
    the same counts as the column rule, drawn three to four times faster
    for the scan's 36 ungrouped cells, where the cost of each numpy call
    dominates.
    """
    if size == 1:
        return _draw_row(rng, block, prob, n, statistics)
    counts = np.empty((prob.size, size))
    if statistics == "poisson":
        for g, rate in enumerate((n * prob).tolist()):
            counts[g] = rng.poisson(rate, size)
        return counts.T
    for b in np.unique(block):
        left, rest = n, 1.0
        for g in np.flatnonzero(block == b).tolist():
            p = prob[g]
            # p <= rest but for rounding; once p >= rest, ratio 1 places every
            # particle left, so a later group (rest <= 0 by then) draws from 0
            counts[g] = drawn = rng.binomial(left, 1.0 if p >= rest else p / rest, size)
            left = left - drawn
            rest -= p
    return counts.T


def _draw_row(rng, block, prob, n, statistics):
    """:func:`draw_counts` for one trial, as a (1, groups) float array."""
    if statistics == "poisson":
        return rng.poisson(n * prob, size=(1, prob.size)).astype(np.float64)
    counts = np.empty((1, prob.size))
    for b in np.unique(block):
        mine = block == b
        p = prob[mine]
        counts[:, mine] = rng.multinomial(n, np.append(p, max(1.0 - p.sum(), 0.0)))[:-1]
    return counts


def trial_estimates(cells, w_re, w_im, n, trials, seed, statistics="poisson"):
    """Per-trial (re, im) arrays of raw (unscaled) entry estimates.

    ``cells`` is the (settings, 4) array of one outcome's exact, non-negative
    joint probabilities with an int ``seed``, giving two (trials,) arrays, or
    an (outcomes, settings, 4) stack of them with one seed per outcome,
    giving two (outcomes, trials) arrays.  ``w_re``/``w_im`` are the flat
    cell weights, shared by every outcome.  Outcome l of a stack gives the
    same arrays as a call with its cells and seed alone; every chunk of every
    outcome runs on one pool of threads.  Multinomial statistics refuse a
    setting whose cells sum above 1.
    """
    cells = checked_cells(cells, statistics)
    stacked = cells.ndim == 3
    stack, seeds = (cells, list(seed)) if stacked else (cells[None], [seed])
    if len(seeds) != len(stack):
        raise ValueError(f"{len(seeds)} seeds for {len(stack)} outcomes")
    out = np.empty((2, len(stack), trials))
    re, im = out if stacked else out[:, 0]
    if trials == 0:  # nothing to draw: skip the grouping, the costly step here
        return re, im
    w_re, w_im = np.asarray(w_re, np.float64), np.asarray(w_im, np.float64)
    groups = [group_cells(c, w_re, w_im, statistics) for c in stack]
    chunks = -(-trials // CHUNK_TRIALS)
    tasks = [
        (l, c, stream)
        for l, s in enumerate(seeds)
        for c, stream in enumerate(np.random.SeedSequence(s).spawn(chunks))
    ]

    def draw_chunk(task):
        l, c, stream = task
        start = c * CHUNK_TRIALS
        stop = min(start + CHUNK_TRIALS, trials)
        block, prob, weights = groups[l]
        counts = draw_counts(np.random.default_rng(stream), stop - start, block, prob, n,
                             statistics)
        out[:, l, start:stop] = (counts @ weights).T

    # imported here: ``import povmdt`` should not pay for it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max(1, min(WORKERS, len(tasks)))) as pool:
        list(pool.map(draw_chunk, tasks))
    out /= n
    return re, im
