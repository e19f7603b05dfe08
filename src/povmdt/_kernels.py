"""The Monte Carlo trial kernel: sample moments of entry estimates from sampled counts.

A trial's estimate is linear in the cell counts, ``sum_c w_c N_c / n``, with
the cell weights ``(cell_re, cell_im)`` of
:func:`povmdt.estimator.rt_coefficients`.  Cells that share a weight pair
therefore enter the estimate only through the sum of their counts, and that
sum is drawn directly (:func:`group_cells`, which finds the groups once per
study, since every outcome shares the weights):

* ``poisson``: cell counts are independent, and a sum of independent Poisson
  counts is a Poisson count with the summed rate;
* ``multinomial``: n particles per setting; merging categories of a
  multinomial gives a multinomial, so within each setting the cells sharing a
  weight pair merge, and the zero-weight cells join the rejected bucket.

Both merges are exact in distribution.  Cells with a zero weight pair or a
zero probability add nothing to the estimate and are not drawn.  For the
paper's weights a table of 36 cells has at most 9 distinct nonzero pairs.
Two groups whose weight pairs are exact negatives, ``w`` and ``-w``, enter
the estimate only through ``w (N_g - N_h)``.  Where that difference has the
law of ``N+ - N-`` for independent ``N+`` and ``N-`` of fixed laws, it is
drawn as one count (:func:`count_tables`):

* two Poisson groups are independent, so ``N+`` and ``N-`` are their own
  counts and the difference follows Skellam's law (Skellam 1946);
* the only two groups of a multinomial setting are not, but each of its n
  particles steps +1, -1 or 0 with probabilities ``p_g``, ``p_h`` and ``r =
  1 - p_g - p_h``, the rejected bucket, and when ``r >= 2 sqrt(p_g p_h)``
  that step has the law of ``X - Y`` for independent ``X ~ Bern(alpha)``
  and ``Y ~ Bern(delta)`` (:func:`split_pair`), so ``N+ ~ Binomial(n,
  alpha)`` and ``N- ~ Binomial(n, delta)``.

With the paper's weights every nonzero pair but ``(d gamma^2, 0)`` has its
negative, ``+-d gamma beta`` and ``+-d beta^2`` on the real part and on the
imaginary part, so a Poisson trial takes at most 5 draws, 4 of them counts
of a difference, and every multinomial setting but zz draws two groups
whose weights are exact negatives (fewer where a group's probability is 0).

:func:`group_draws` is the one counting-noise sampler: the trial kernel
adds each group's counts, times its weights, into its estimates as they
are drawn; :func:`draw_counts` stacks them into a matrix of counts, and
:func:`povmdt.montecarlo.sample_counts` draws one trial of the 36 ungrouped
cells of each outcome's W table with it (:func:`one_trial`), every outcome
of a stack from one stream.  Both pass their cells through the
same check first (:func:`checked_cells`, once for a whole stack of
outcomes), as does :func:`povmdt.estimator.error_transfer_variance`; their
callers have already refused and clipped negative cells
(:func:`povmdt.estimator.nonnegative_cells`, once per stack in ``montecarlo.exact_slot``).

A chunk of many trials is drawn group by group (:func:`group_draws`).  A
count whose law is the same in every trial is drawn by inverting its CDF
table through a guide table (Chen and Asau 1974; Devroye, *Non-Uniform
Random Variate Generation*, 1986, ch. III.2).  The guide splits [0, 1) into
M equal cells, M the least power of two of at least 8 cells per table
entry, and holds for each cell the count its left edge maps to; a cell that
a CDF value crosses is marked (:func:`guide_table`).  A count is then a
uniform and one guide lookup, and only a uniform on a marked cell, 1-2.5 %
of them for the benchmark's tables, reads the CDF, by a search.  Three kinds of
:func:`count_tables` entry say how each group is drawn: a table, for a
count of fixed law, which is every Poisson group, ``Poisson(n p_g)``, the
first group of each multinomial setting, ``Binomial(n, p_1)``, and the
difference of a pair; ``PAIRED``, for the pair's second group, which is not
drawn; and None, for a count that numpy's samplers draw.  A Poisson or
binomial table spans its law's mean +- (13 sd + 13); a difference table is
the correlation of its two laws' pmfs, ``np.convolve(p+, p-[::-1])``, over
every difference of their spans, so each side truncates what theirs do.  The
tables are built once per kernel call of more than one trial, on the
calling thread, one per distinct law; the workers only read them.  A count
is inverted when its table fits ``TABLE_CAP`` (2^13) entries, which covers
rates up to about 10^5 (pairs of rates up to about 2.4 10^4 each), so the
tables do not depend on the trial count and their memory is bounded: a
table of m entries holds 8 m bytes of float64 CDF and 16 m to 32 m bytes of
int16 guide, at most 64 KiB and 128 KiB.  A pair whose difference table
would not fit draws each of its groups on its own.  A Poisson group whose
table would not fit keeps numpy's sampler, one ``poisson(n p_g, size)``
call with a scalar rate.  The later groups of a multinomial setting that is
not split keep numpy's chain of conditional binomials, ``binomial(left, p_g
/ rest, size)`` with ``left`` the particles not yet placed, which differs
from trial to trial, and nothing is drawn for the rejected bucket (Devroye,
ch. XI).  Inversion is exact up to the table's float64 rounding and its
truncation: the table CDFs lie within 2e-14 of ``scipy.stats`` for Poisson
rates 1e-9 to 10^5 and binomials with n up to 10^5, within 3e-14 of
``scipy.stats.skellam`` for rate pairs from 1e-9 to the cap, and within
3e-15 of the correlation of scipy's binomial pmfs for split pairs with n
from 7 to 10^5, and the truncated tails carry less than 2e-30 of the mass
on each side.  One trial is drawn without tables, in one numpy call for
every outcome of a stack: a broadcast ``poisson``, or one ``multinomial``
with a row per outcome and block.

Counts are drawn and reduced in chunks of ``CHUNK_TRIALS`` (2^14) trials.
Each task draws one chunk of every outcome of a study (the one input of
:func:`trial_estimates` is a stack of outcomes with a seed each: one
outcome for ``run_trials``, every outcome of a POVM for
``refinement_trials``).  It adds each drawn group's counts, times the
group's nonzero ``(w_re, w_im)``, straight into the chunk's (2, outcomes,
trials) estimates, in group order, so no matrix of counts is held and no
matrix product runs.  The estimates, an inversion's counts and a count's
product with a weight sit in buffers allocated once per study, one set per
thread and lent to one task at a time, so a chunk allocates little beyond
its uniforms and the kernel's peak memory does not depend on how the
threads' chunks overlap in time.  The task then reduces the estimates to
moments across the outcomes (count, means and co-moments); the kernel
merges the chunks' moments in chunk order with the pairwise update of Chan,
Golub and LeVeque (1979), which extends to co-moments (Pebay 2008).  So
peak memory is O(WORKERS x CHUNK_TRIALS), not O(trials): what grows with
the trial count is a few floats per chunk.  Chunk ``c`` of an outcome
draws from its own PCG64 stream, seeded by ``SeedSequence(seed,
spawn_key=(c,))``, the ``c``-th spawned child of the outcome's seed.  The
chunks of every study run on the process's one pool of ``WORKERS`` threads
(numpy's samplers release the GIL), one task per chunk, so a study of one
chunk runs on one thread.  The pool is started by the first study that
needs it and kept (:func:`chunk_pool`), so a study starts no thread, and a
process that has run one keeps up to ``WORKERS`` idle threads, which Python
3.12 warns about on ``os.fork``; a forked child drops the inherited pool and
starts its own.  A study whose chunk fails cancels its queued chunks and
waits for its running ones before the error propagates.  Because every
outcome's chunk owns its stream and the merge order is fixed, the moments
depend neither on the number of threads nor on the stacking.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

ENV_VAR = "POVMDT_BACKEND"

#: Trials drawn per chunk; peak memory is O(WORKERS x CHUNK_TRIALS), not O(trials).
CHUNK_TRIALS = 2**14

#: Most entries an inversion table holds: a law whose table would be longer
#: is drawn by numpy's samplers.  Every guide entry is an index e below
#: it, or its mark ``-1 - e``, so int16 holds both.
TABLE_CAP = 2**13

#: Threads that draw chunks: the CPUs this process may run on.
WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

#: Largest excess of a setting's cell sum over 1 that is taken as rounding.
SETTING_SUM_TOL = 1e-9

#: An inversion table reaches this many standard deviations, plus as many
#: counts, past its law's mean on either side.
TABLE_REACH = 13


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
            f"{where} cells sum to {float(totals[worst])!r} > 1, "
            "so its rejected bucket would have a negative probability"
        )
    return cells / np.maximum(totals, 1.0)[..., None]


def group_cells(stack, w_re, w_im, statistics):
    """Merge the cells that share a weight pair into one drawn count.

    ``stack`` is (outcomes, settings, 4) of probabilities and ``w_re``/``w_im``
    the flat cell weights, shared by every outcome, so the groups are found
    once per stack.  Poisson counts merge across all settings; multinomial
    counts merge within each setting only.  Returns one ``(block, prob,
    weights)`` per outcome, one entry per group: the setting it is drawn in
    (0 for every Poisson group), its summed probability, and its
    ``(w_re, w_im)`` pair as a (groups, 2) array.  Groups with a zero weight
    pair or a zero probability are left out.
    """
    _, settings, per_setting = stack.shape
    blocks = np.arange(settings) if statistics == "multinomial" else np.zeros(settings)
    key = np.column_stack([np.repeat(blocks, per_setting), w_re, w_im])
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    block, weights = uniq[:, 0].astype(np.intp), uniq[:, 1:]
    weighted = weights.any(axis=1)
    groups = []
    for cells in stack:
        prob = np.bincount(inverse.reshape(-1), weights=cells.reshape(-1), minlength=len(uniq))
        keep = weighted & (prob > 0)
        groups.append((block[keep], prob[keep], weights[keep]))
    return groups


def table_span(n, p, poisson):
    """The counts ``(lo, hi)`` that the inversion table of ``Poisson(n p)``,
    or of ``Binomial(n, p)``, spans: the mean +- (``TABLE_REACH`` sd +
    ``TABLE_REACH``), clipped to the law's support."""
    mean = n * p
    reach = TABLE_REACH * math.sqrt(mean if poisson else mean * (1.0 - p)) + TABLE_REACH
    lo = max(0, math.floor(mean - reach))
    hi = math.ceil(mean + reach)
    return lo, hi if poisson else min(n, hi)


def law_pmf(n, p, poisson):
    """``(lo, pmf)``: the pmf of ``Poisson(n p)``, or of ``Binomial(n, p)``
    with ``0 < p < 1``, over the counts ``lo, lo + 1, ...`` of
    :func:`table_span`, unnormalised: 1 at the mode.  It runs outward from
    the mode by its ratio recurrence, lambda / k for Poisson and
    (n - k) / (k + 1) p / (1 - p) for the binomial."""
    lo, hi = table_span(n, p, poisson)
    mean = n * p
    if poisson:
        mode = math.floor(mean)
        up = mean / np.arange(mode + 1, hi + 1)      # p(k) / p(k - 1)
        down = np.arange(mode, lo, -1) / mean        # p(k - 1) / p(k)
    else:
        mode = min(math.floor((n + 1) * p), n)
        odds = p / (1.0 - p)
        k = np.arange(mode, hi)
        up = (n - k) / (k + 1) * odds                # p(k + 1) / p(k)
        k = np.arange(mode, lo, -1)
        down = k / (n - k + 1) / odds                # p(k - 1) / p(k)
    return lo, np.concatenate([np.cumprod(down)[::-1], [1.0], np.cumprod(up)])


def guide_table(lo, pmf):
    """The table that draws a count of the unnormalised ``pmf`` over ``lo,
    lo + 1, ...`` by inversion: ``(lo, cdf, guide)``.

    ``cdf[i]`` is the probability of a count at most ``lo + i``: the pmf's
    cumulative sum divided by its own total, the normalising constant.
    ``guide`` has M cells, the power of two from 8 ``len(cdf)`` up, so that
    ``u M`` and ``i / M`` are exact in float64.  Cell i holds ``e``, the
    number of CDF entries at most ``i / M``, or ``-1 - e`` when a CDF value
    lies strictly inside the cell, ``i / M < cdf[j] < (i + 1) / M``: a
    uniform on an unmarked cell maps to ``e``, and only one on a marked cell
    needs a search.  Its entries are indices into a table of at most
    ``TABLE_CAP`` entries, so it is stored as int16.
    """
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    cells = 1 << (8 * cdf.size - 1).bit_length()
    scaled = cdf * cells
    # cdf[i] <= j / M  <=>  ceil(cdf[i] M) <= j, exactly for a power of two M
    first_cell = np.ceil(scaled).astype(np.intp)
    # entry i fills the cells first_cell[i - 1] to first_cell[i] - 1 (np.diff's
    # ``prepend`` would copy the array once more)
    spans = first_cell.copy()
    spans[1:] -= first_cell[:-1]
    guide = np.repeat(np.arange(cdf.size, dtype=np.int16), spans)
    # cdf[i] M not whole: cdf[i] lies strictly inside cell ceil(cdf[i] M) - 1
    crossed = first_cell[first_cell != scaled] - 1
    guide[crossed] = -1 - guide[crossed]
    return lo, cdf, guide


def inversion_table(n, p, poisson):
    """The :func:`guide_table` of ``Poisson(n p)``, or of ``Binomial(n, p)``
    with ``0 < p < 1``, over the counts of :func:`table_span`."""
    return guide_table(*law_pmf(n, p, poisson))


def difference_table(n, p_plus, p_minus, poisson):
    """The :func:`guide_table` of ``N+ - N-``, for independent ``N+`` and
    ``N-`` of the laws of :func:`law_pmf` at ``p_plus`` and ``p_minus``:
    Skellam's law (Skellam 1946) for two Poisson counts, or that of
    ``Binomial(n, p_plus) - Binomial(n, p_minus)``.  Its pmf is the
    correlation of the two laws' pmfs over their :func:`table_span`, so it
    spans every difference of the two spans, and each side truncates what
    the two laws' tables do."""
    lo_plus, plus = law_pmf(n, p_plus, poisson)
    lo_minus, minus = law_pmf(n, p_minus, poisson)
    return guide_table(lo_plus - (lo_minus + minus.size - 1), np.convolve(plus, minus[::-1]))


def opposite_pairs(weights):
    """``{g: h}`` over the groups ``g < h`` whose ``(w_re, w_im)`` weights
    are exact negatives of each other, for the distinct rows of a (groups,
    2) ``weights``, as :func:`group_cells` gives them."""
    unpaired, pairs = {}, {}
    for h, (w_re, w_im) in enumerate(weights.tolist()):
        g = unpaired.pop((-w_re, -w_im), None)
        if g is None:
            unpaired[(w_re, w_im)] = h
        else:
            pairs[g] = h
    return pairs


def split_pair(p_g, p_h):
    """``(alpha, delta)`` such that ``X - Y``, for independent ``X ~
    Bern(alpha)`` and ``Y ~ Bern(delta)``, steps +1, -1 and 0 with
    probabilities ``p_g``, ``p_h`` and ``r = 1 - p_g - p_h``, or None when
    no such pair exists, ``r < 2 sqrt(p_g p_h)``; ``p_g`` and ``p_h`` are
    positive.

    ``alpha (1 - delta) = p_g`` and ``delta (1 - alpha) = p_h``, so alpha
    is the smaller root of ``alpha^2 - (1 + p_g - p_h) alpha + p_g``, and
    delta that of the same quadratic with g and h swapped; each is taken in
    the form without cancellation, over the shared root ``s = sqrt(r^2 - 4
    p_g p_h)``, and the identities then hold to rounding for any ``s``
    whose square is ``r^2 - 4 p_g p_h`` to rounding.
    """
    r = 1.0 - p_g - p_h
    if r < 2.0 * math.sqrt(p_g * p_h):
        return None
    s = math.sqrt(max(r * r - 4.0 * p_g * p_h, 0.0))
    return 2.0 * p_g / (1.0 + p_g - p_h + s), 2.0 * p_h / (1.0 - p_g + p_h + s)


#: The :func:`count_tables` entry of a pair's second group: it is not drawn,
#: since the pair's first group draws the difference of their counts.
PAIRED = "paired"


def count_tables(block, prob, n, statistics, weights=None):
    """The table that draws each group's count in a chunk of trials, one
    entry per group, as :func:`group_draws` reads them.

    A block's groups are contiguous, as :func:`group_cells` gives them;
    every Poisson group is in one block.  Given the groups' (groups, 2)
    ``weights``, two groups ``g < h`` of a block whose weights are exact
    negatives enter the estimate only through ``w_g (N_g - N_h)``, which
    group g draws as one count while group h gets ``PAIRED``: group g gets
    the :func:`difference_table` of two independent laws whose difference
    is that of ``N_g - N_h``.  They are the two groups' own Poisson laws,
    or, for the only two groups of a multinomial setting that
    :func:`split_pair` splits, ``Binomial(n, alpha)`` and ``Binomial(n,
    delta)``.  A pair is drawn that way only when its table fits
    ``TABLE_CAP`` entries.

    Each other group whose count has one law in every trial, every Poisson
    group and the first group of each multinomial setting, gets its
    :func:`inversion_table`, if it fits ``TABLE_CAP`` entries and is not
    a first group that holds the whole setting (``p >= 1``).  Every other
    group gets None.  Groups of equal laws share one table, built once.
    """
    poisson = statistics == "poisson"
    probs = prob.tolist()
    tables = [None] * prob.size
    built = {}

    def span(p):
        """The entries of ``p``'s table, less 1."""
        lo, hi = table_span(n, p, poisson)
        return hi - lo

    def shared(build, *law):
        """``build(n, *law, poisson)``, built once per call: equal laws share a table."""
        key = build, *law
        if key not in built:
            built[key] = build(n, *law, poisson)
        return built[key]

    starts = np.unique(block, return_index=True)[1].tolist()
    for start, stop in zip(starts, starts[1:] + [prob.size]):
        pairs = {} if weights is None else opposite_pairs(weights[start:stop])
        for g, h in pairs.items():
            g, h = start + g, start + h
            if poisson:
                law = probs[g], probs[h]
            else:  # only a setting of two groups splits
                law = split_pair(probs[g], probs[h]) if stop - start == 2 else None
            if law and span(law[0]) + span(law[1]) < TABLE_CAP:
                tables[g], tables[h] = shared(difference_table, *law), PAIRED
        # every Poisson group, and each setting's first, has one law in every trial
        for g in range(start, stop if poisson else start + 1):
            p = probs[g]
            if tables[g] is None and (poisson or p < 1.0) and span(p) < TABLE_CAP:
                tables[g] = shared(inversion_table, p)
    return tables


def _invert(rng, size, table, k=None):
    """``size`` counts drawn from a :func:`guide_table`, as an intp array:
    ``searchsorted(cdf, u, "right") + lo`` of each uniform ``u``, which is
    the entry of u's guide cell unless that cell is marked.  A caller may
    lend a (size,) intp buffer ``k`` for the counts, so that only the
    uniforms are allocated."""
    lo, cdf, guide = table
    if k is None:
        k = np.empty(size, np.intp)
    u = rng.random(size)
    np.multiply(u, guide.size, out=k, casting="unsafe")  # u's guide cell, truncated
    k[:] = guide[k]  # int16 entries, widened: lo can pass 2^15
    marked = np.flatnonzero(k < 0)
    if marked.size:
        k[marked] = np.searchsorted(cdf, u[marked], "right")
    k += lo
    return k


def one_trial(rng, block, prob, n, statistics):
    """One trial of the groups, drawn without tables in one numpy call, as
    an (outcomes, groups) float array: ``prob`` is one outcome's (groups,)
    probabilities or an (outcomes, groups) stack sharing ``block``, and
    row l holds the counts of drawing each outcome in turn from ``rng``.

    Poisson counts are one broadcast ``poisson(n * prob)``; multinomial
    counts one ``multinomial`` with a row of probabilities per outcome and
    block: the block's groups in order, zeros up to the widest block, and a
    last column for the rejected bucket, left at zero, since numpy gives
    the last category whatever the others leave and never reads its
    probability.  A zero probability draws nothing from the stream, so the
    counts are those of one ``multinomial`` call per block.
    """
    prob = np.atleast_2d(prob)
    if statistics == "poisson":
        return rng.poisson(n * prob).astype(np.float64)
    # each group's block row and its place in that row, blocks ascending
    row, group = np.nonzero(block == np.unique(block)[:, None])
    place = np.arange(group.size) - np.searchsorted(row, row)
    pvals = np.zeros(prob.shape[:-1] + (row[-1] + 1, place.max() + 2))
    pvals[..., row, place] = prob[..., group]
    counts = np.empty(prob.shape)
    counts[..., group] = rng.multinomial(n, pvals)[..., row, place]
    return counts


def group_draws(rng, size, block, prob, n, statistics, tables, k=None):
    """``(g, counts)`` of each drawn group of one outcome, in group order:
    group g's ``size`` counts, as the trials draw them from ``rng``.  Given
    :func:`_invert`'s buffer ``k``, an inverted group's counts are ``k``,
    valid until the next group is drawn.

    Poisson counts are independent with means ``n * prob``.  Multinomial
    counts spread n particles over the groups of each ``block`` and that
    block's rejected bucket, whose count is dropped.  Of a pair that
    ``tables`` draws as one difference, the first group's counts are ``N_g
    - N_h`` and the second (``PAIRED``) is skipped.

    This is the one loop over groups: it relies on each block's groups
    being contiguous, as :func:`group_cells` gives them.  A group with a
    table in ``tables``, one entry per group as :func:`count_tables` gives
    them, is drawn by inversion, and the rest by ``poisson(n p_g, size)``
    or by the chain that numpy's multinomial runs row by row,
    ``binomial(left, p_g / rest, ...)`` with ``left`` the particles of the
    group's block not yet placed and ``rest`` the probability not yet
    spent, both reset at each new block.  One trial reads no tables: it
    is :func:`one_trial`'s draw, every group's count in turn.
    """
    if size == 1:
        yield from enumerate(one_trial(rng, block, prob, n, statistics)[0])
        return
    current = None
    for g, (b, p, table) in enumerate(zip(block.tolist(), prob.tolist(), tables)):
        if b != current:  # a new block's chain starts with every particle left
            current, left, rest = b, n, 1.0
        if table is PAIRED:
            continue
        if table is not None:
            drawn = _invert(rng, size, table, k)
        elif statistics == "poisson":
            drawn = rng.poisson(n * p, size)
        else:
            # p <= rest but for rounding; once p >= rest, ratio 1 places every
            # particle left, so a later group (rest <= 0 by then) draws from 0
            drawn = rng.binomial(left, 1.0 if p >= rest else p / rest, size)
        if statistics == "multinomial":
            left, rest = left - drawn, rest - p
        yield g, drawn


def draw_counts(rng, size, block, prob, n, statistics, tables):
    """Counts of the groups, one row per trial, as a (size, groups) float
    array: :func:`group_draws`' counts, with 0 for a ``PAIRED`` group, or
    for one trial (a one-trial caller may pass None for ``tables``)
    :func:`one_trial`'s, whose ``prob`` may be an (outcomes, groups) stack.
    Float, because its callers scale the counts."""
    if size == 1:
        return one_trial(rng, block, prob, n, statistics)
    counts = np.zeros((prob.size, size))
    for g, drawn in group_draws(rng, size, block, prob, n, statistics, tables):
        counts[g] = drawn
    return counts.T


def moments(x):
    """``(count, mean, m2)`` of the rows of ``x``, (..., rows, size) with at
    least one column: the means along the last axis and the (..., rows,
    rows) co-moments, sums of products of two rows' deviations.  Each pair
    of rows multiplies on its own, so no temporary outgrows one row of
    ``x`` per leading index, and a diagonal entry sums a row's squares as a
    per-row reduction does (a matrix product would not); the lower triangle
    mirrors the upper, bit for bit.  ``x`` is overwritten: a row's
    deviations are squared in place once its last product is taken."""
    mean = x.mean(axis=-1)
    x -= mean[..., None]
    rows = x.shape[-2]
    m2 = np.empty(x.shape[:-1] + (rows,))
    for k in range(rows):
        row = x[..., k, :]
        for l in range(k + 1, rows):
            m2[..., k, l] = m2[..., l, k] = (row * x[..., l, :]).sum(axis=-1)
        row *= row
        m2[..., k, k] = row.sum(axis=-1)
    return x.shape[-1], mean, m2


def merge_moments(a, b):
    """The :func:`moments` of two samples' rows taken together (Chan, Golub
    and LeVeque 1979; for co-moments, Pebay 2008)."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    count = na + nb
    delta = mean_b - mean_a
    outer = delta[..., :, None] * delta[..., None, :]
    return count, mean_a + delta * (nb / count), m2_a + m2_b + outer * (na * nb / count)


#: The process's chunk pool, ``(size, executor)``, and the lock it is built
#: under (:func:`chunk_pool`).
_pool = None
_pool_lock = threading.Lock()


def chunk_pool():
    """The process's pool of ``WORKERS`` threads that every study's chunks
    run on: started by the first study that needs it, and rebuilt, the old
    pool shut down first, whenever ``WORKERS`` no longer matches its size."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != WORKERS:
            # imported here: ``import povmdt`` should not pay for it
            from concurrent.futures import ThreadPoolExecutor

            if _pool is not None:
                _pool[1].shutdown()
            _pool = WORKERS, ThreadPoolExecutor(WORKERS, thread_name_prefix="povmdt-chunk")
        return _pool[1]


def _forget_pool():
    """In a forked child: drop the parent's pool, whose threads the child
    does not have, and its lock, which a parent thread may have held."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def trial_estimates(cells, w_re, w_im, n, trials, seeds, statistics="poisson"):
    """Sample means and covariances of the estimates ``sum_c w_c N_c / n``
    over ``trials`` trials: a (2, outcomes) array of means and a (2,
    outcomes, outcomes) array of covariances across the outcomes, for the
    (re, im) components.

    ``cells`` is an (outcomes, settings, 4) stack of exact, non-negative
    joint probabilities, with one int seed per outcome in ``seeds``, and
    ``w_re``/``w_im`` the flat cell weights shared by every outcome, as the
    caller scales them.  The covariances are the unbiased ones, symmetric
    bit for bit, and NaN below two trials; the means are NaN for no trials.
    A negative trial count is refused.  A trial's estimate is the sum of
    its drawn groups' counts times their weights, added in group order
    (:func:`group_draws`), over n.

    The moments do not depend on ``WORKERS``, and an outcome's mean and
    variance are those of a stack of it alone.  The tables do not depend
    on ``trials`` (a one-trial call, which reads none, builds none), so the
    whole chunks of a shorter call are the first chunks of a longer one.
    Multinomial statistics refuse a setting whose
    cells sum above 1.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    stack = checked_cells(cells, statistics)
    seeds = list(seeds)
    if len(seeds) != len(stack):
        raise ValueError(f"{len(seeds)} seeds for {len(stack)} outcomes")
    outcomes = len(stack)
    if trials == 0:  # nothing to draw: skip the grouping, the costly step here
        return np.full((2, outcomes), np.nan), np.full((2, outcomes, outcomes), np.nan)
    w_re, w_im = np.asarray(w_re, np.float64), np.asarray(w_im, np.float64)
    groups = group_cells(stack, w_re, w_im, statistics)
    # one trial is drawn without tables (one_trial), so a one-trial study builds none
    tables = [count_tables(block, prob, n, statistics, weights) if trials > 1 else None
              for block, prob, weights in groups]

    # imported here: ``import povmdt`` should not pay for it
    from collections import deque
    from concurrent.futures import wait
    from functools import reduce
    from queue import SimpleQueue

    chunks = -(-trials // CHUNK_TRIALS)
    workers = max(1, min(WORKERS, chunks))
    # one set of chunk buffers per thread, allocated here: the kernel's peak
    # memory is then the same however the threads' chunks overlap in time
    width, free = min(CHUNK_TRIALS, trials), SimpleQueue()
    for _ in range(workers):
        free.put((np.empty(2 * outcomes * width), np.empty(width, np.intp), np.empty(width)))

    def chunk_moments(c):
        """The moments of chunk c, every outcome drawn from its own stream:
        each drawn group's count times its weight is added to the outcome's
        (re, im) estimates in group order, the nonzero weights only."""
        size = min(CHUNK_TRIALS, trials - c * CHUNK_TRIALS)
        flat, k, product = buffers = free.get()  # never waits: a task per thread at most
        try:
            est = flat[: 2 * outcomes * size].reshape(2, outcomes, size)
            est.fill(0.0)
            k, product = k[:size], product[:size]
            for l, (block, prob, weights) in enumerate(groups):
                rng = np.random.default_rng(np.random.SeedSequence(seeds[l], spawn_key=(c,)))
                w_rows = weights.tolist()
                for g, drawn in group_draws(rng, size, block, prob, n, statistics, tables[l], k):
                    for part, w in zip(est[:, l], w_rows[g]):
                        if w:
                            part += np.multiply(drawn, w, out=product)
            est /= n
            return moments(est)
        finally:
            free.put(buffers)

    pool, pending = chunk_pool(), deque()

    def in_chunk_order():
        """The chunks' moments, with at most ``2 * workers`` chunks drawn
        ahead of the merge: ``pool.map`` submits every chunk at once, and its
        futures grow a long study's peak memory with the chunk count."""
        for c in range(chunks):
            pending.append(pool.submit(chunk_moments, c))
            if len(pending) > 2 * workers:
                yield pending[0].result()  # raises a failed chunk's error
                pending.popleft()
        while pending:
            yield pending[0].result()
            pending.popleft()

    try:
        _, mean, m2 = reduce(merge_moments, in_chunk_order())
    except BaseException:
        # the pool outlives the study: none of its chunks may run on after it
        for future in pending:
            future.cancel()
        wait(pending)
        raise
    cov = m2 / (trials - 1) if trials > 1 else np.full(m2.shape, np.nan)
    return mean, cov
