"""Shot-noise sampling, repeated trials, sweeps and backends."""

import concurrent.futures
import functools
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from povmdt import (
    CouplingConfig,
    DeadPostSelectionError,
    EntryScenario,
    Povm,
    ShotModel,
    SweepSpec,
    apply_dephasing,
    apply_phase_rotation,
    exact_entry_tables,
    make_parametric_element,
    matrix_entry_oracle,
    random_povm,
    refinement_trials,
    rt_coefficients,
    run_trials,
    sample_counts,
    variance_sweep,
)
from povmdt import _kernels, estimator, montecarlo
from povmdt.estimator import _clip_once, error_transfer_variance, nonnegative_cells
from povmdt.montecarlo import _analytic_for, exact_slot
from povmdt.protocol import SETTINGS

THETA_SIC = np.arccos(1 / np.sqrt(3))
N_REF = 12790


def point_x_scenario():
    """Reference scenario: theta=0, eta=1/2, g=pi/4, normalized entry."""
    elem = make_parametric_element(0.0, 0.5, 0.0)
    return EntryScenario(elem, 1, 0, np.pi / 4, scale=0.5)


def one_outcome(cells, w_re, w_im, n, trials, seed, statistics="poisson"):
    """The trial kernel's (re, im) means and variances for one outcome's
    (settings, 4) cells and seed: outcome 0 of its stack of one."""
    mean, cov = _kernels.trial_estimates(cells[None], w_re, w_im, n, trials, [seed], statistics)
    return mean[:, 0], cov[:, 0, 0]


def check_guide(cdf, guide):
    """The guide of a :func:`_kernels.guide_table`, decoded: M cells, a
    power of two of at least 8 ``len(cdf)`` and below 16 ``len(cdf)``, each
    entry the CDF search of its cell's left edge, and a cell marked (``-1 -
    entry``) exactly when a CDF value lies strictly inside it."""
    cells = guide.size
    assert guide.dtype == np.int16
    assert cells & (cells - 1) == 0 and 8 * cdf.size <= cells < 16 * cdf.size
    marked = guide < 0
    entry = np.where(marked, -1 - guide, guide)
    edges = np.arange(cells + 1) / cells
    assert (entry == np.searchsorted(cdf, edges[:-1], "right")).all()
    # the CDF values below a cell's right edge that its left edge does not reach
    crossed = np.searchsorted(cdf, edges[1:], "left") > entry
    assert (marked == crossed).all()


@pytest.fixture
def sic_tables(sic):
    cfg = CouplingConfig.symmetric(np.pi / 4)
    return exact_entry_tables(sic.element(2), 1, 0, cfg)


class TestShotModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_per_setting"):
            ShotModel(0)
        with pytest.raises(ValueError, match="statistics"):
            ShotModel(10, "gaussian")


class TestSampleCounts:
    def test_large_n_recovers_exact_tables(self, sic_tables):
        shot = ShotModel(10**9, "poisson", seed=5)
        sampled = sample_counts(sic_tables, shot)
        assert sampled.shape == (9, 2, 2)
        assert np.abs(sampled - sic_tables).max() < 1e-4

    def test_poisson_mean(self, sic_tables):
        n, trials = N_REF, 2000
        seeds = np.random.SeedSequence(9).generate_state(trials)
        acc = np.zeros(36)
        for s in seeds:
            acc += sample_counts(sic_tables, ShotModel(n, "poisson", int(s))).reshape(36)
        mean = acc / trials
        w = sic_tables.reshape(36)
        tol = 3 * np.sqrt(np.maximum(w, 1e-12) / (n * trials))
        assert (np.abs(mean - w) < np.maximum(tol, 1e-9)).all()

    def test_poisson_variance(self, sic_tables):
        """Cell variance tracks W/n, the counting-noise model."""
        n, trials = 500, 4000
        seeds = np.random.SeedSequence(21).generate_state(trials)
        cells = np.array(
            [sample_counts(sic_tables, ShotModel(n, "poisson", int(s))).reshape(36)
             for s in seeds]
        )
        w = sic_tables.reshape(36)
        big = w > 0.05
        ratio = cells.var(axis=0, ddof=1)[big] / (w[big] / n)
        assert (np.abs(ratio - 1) < 0.1).all()

    def test_multinomial_mode(self, sic_tables):
        shot = ShotModel(1000, "multinomial", seed=1)
        counts = sample_counts(sic_tables, shot) * 1000
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)
        assert (counts.sum(axis=(1, 2)) <= 1000).all()

    def test_multinomial_refuses_setting_sum_above_one(self, sic_tables):
        bad = sic_tables.copy()
        bad[SETTINGS.index(("x", "x"))] += 0.5
        with pytest.raises(ValueError, match="sum"):
            sample_counts(bad, ShotModel(1000, "multinomial", seed=1))

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_stack_draws_outcomes_in_order_from_one_stream(self, statistics):
        """Outcome 0 of an (L, 9, 2, 2) stack draws what it would draw alone,
        and the whole stack draws the outcomes in order from one generator,
        also from cells clipped once for the sampler and the variance
        together."""
        povm = random_povm(3, 5, seed=21)
        tables = exact_entry_tables(povm.elements, 0, 2, CouplingConfig.symmetric(0.7))
        shot = ShotModel(4000, statistics, seed=5)
        stacked = sample_counts(tables, shot)
        assert stacked.shape == (5, 9, 2, 2)
        np.testing.assert_array_equal(stacked[0], sample_counts(tables[0], shot))
        rng = np.random.default_rng(shot.seed)
        for one, got in zip(nonnegative_cells(tables).reshape(5, 9, 4), stacked):
            if statistics == "poisson":
                counts = rng.poisson(4000 * one)
            else:
                counts = [rng.multinomial(4000, [*p, max(1.0 - p.sum(), 0.0)])[:-1] for p in one]
            np.testing.assert_array_equal(got, np.reshape(counts, (9, 2, 2)) / 4000)
        cells = _clip_once(tables)
        np.testing.assert_array_equal(sample_counts(cells, shot), stacked)
        coeffs = rt_coefficients(3, 0.7)
        for shared, own in zip(error_transfer_variance(cells, coeffs, 4000),
                               error_transfer_variance(tables, coeffs, 4000)):
            np.testing.assert_array_equal(shared, own)

    def test_multinomial_stack_names_outcome_and_setting(self, sic):
        """A setting whose cells sum above 1 is named by outcome and setting,
        not by its row in the flattened stack."""
        tables = exact_entry_tables(sic.elements, 1, 0, CouplingConfig.symmetric(np.pi / 4))
        tables[2, 4] += 0.5
        with pytest.raises(ValueError, match=r"^outcome 2, setting 4 cells sum to"):
            sample_counts(tables, ShotModel(1000, "multinomial"))
        with pytest.raises(ValueError, match=r"^setting 4 cells sum to"):
            sample_counts(tables[2], ShotModel(1000, "multinomial"))

    @pytest.mark.parametrize("stacked", [True, False], ids=["stack", "one-outcome"])
    def test_variance_reads_cells_by_the_sampler_rule(self, sic, stacked):
        """The multinomial variance reads its cells by the sampler's rule: a
        setting whose cells sum above 1 is refused with the sampler's
        message, named by outcome and setting in a stack and by its setting
        alone for one outcome, its sum printed as a plain float.  Poisson
        counts have no such rule."""
        tables = exact_entry_tables(sic.elements, 1, 0, CouplingConfig.symmetric(np.pi / 4))
        tables[2, 4] *= 3 / tables[2, 4].sum()
        total = float(tables.reshape(4, 9, 4)[2, 4].sum())
        where = "outcome 2, setting 4" if stacked else "setting 4"
        tables = tables if stacked else tables[2]
        message = (f"^{where} cells sum to {re.escape(repr(total))} > 1, so its rejected "
                   "bucket would have a negative probability$")
        coeffs = rt_coefficients(2, np.pi / 4)
        with pytest.raises(ValueError, match=message):
            sample_counts(tables, ShotModel(1000, "multinomial"))
        with pytest.raises(ValueError, match=message):
            error_transfer_variance(tables, coeffs, 1000, "multinomial")
        var_re, var_im = error_transfer_variance(tables, coeffs, 1000)
        assert np.isfinite(var_re).all() and np.isfinite(var_im).all()

    def test_multinomial_accepts_rounding_excess(self, sic_tables):
        """A setting summing to 1 + 5e-10, within the rounding tolerance, is
        drawn by both samplers."""
        tables = sic_tables.copy()
        tables[4] *= (1 + 5e-10) / tables[4].sum()
        counts = sample_counts(tables, ShotModel(1000, "multinomial", seed=1)) * 1000
        assert counts[4].sum() <= 1000
        coeffs = rt_coefficients(2, np.pi / 4)
        mean, cov = _kernels.trial_estimates(
            tables.reshape(1, 9, 4), coeffs.cell_re, coeffs.cell_im, 1000, 10, [1], "multinomial"
        )
        assert mean.shape == (2, 1) and cov.shape == (2, 1, 1)
        assert np.isfinite(mean).all() and np.isfinite(cov).all()

    def test_deterministic(self, sic_tables):
        shot = ShotModel(5000, "poisson", seed=77)
        a = sample_counts(sic_tables, shot)
        np.testing.assert_array_equal(a, sample_counts(sic_tables, shot))

    @pytest.mark.parametrize("statistics, counts", [
        ("poisson", [68, 92, 31, 41, 176, 0, 0, 84, 86, 105, 44, 37, 115, 3, 2, 111, 78, 46,
                     93, 45, 61, 73, 72, 62, 67, 73, 64, 65, 74, 47, 99, 49, 131, 1, 1, 111]),
        ("multinomial", [82, 92, 39, 35, 162, 0, 0, 91, 105, 89, 39, 47, 118, 1, 4, 110, 77, 29,
                         75, 47, 57, 59, 63, 66, 65, 57, 54, 77, 91, 49, 84, 42, 118, 4, 4, 110]),
    ])
    def test_stream_pinned(self, sic_tables, statistics, counts):
        """The draw of one seed is fixed: these counts were drawn by the
        per-setting sampler that the shared trial-kernel draw replaced."""
        sampled = sample_counts(sic_tables, ShotModel(1000, statistics, seed=3))
        np.testing.assert_array_equal(sampled * 1000, np.reshape(counts, (9, 2, 2)))


class TestRunTrials:
    @pytest.mark.parametrize("scale", [0.0, -0.5, np.nan, np.inf])
    def test_scale_must_be_positive_and_finite(self, scale):
        elem = make_parametric_element(0.0, 0.5, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="scale must be positive and finite"):
                EntryScenario(elem, 1, 0, np.pi / 4, scale=scale)

    def test_deterministic_summary(self):
        scn = point_x_scenario()
        shot = ShotModel(N_REF, "poisson", seed=13)
        a = run_trials(scn, shot, 500)
        b = run_trials(scn, shot, 500)
        assert a == b

    def test_single_trial_flags_missing_variance(self):
        scn = point_x_scenario()
        s = run_trials(scn, ShotModel(N_REF, "poisson", seed=1), 1)
        assert np.isnan(s.sample_var_re) and np.isnan(s.sample_var_im)
        assert s.trials == 1

    def test_sample_variance_tracks_prediction(self):
        scn = point_x_scenario()
        s = run_trials(scn, ShotModel(N_REF, "poisson", seed=40), 4000)
        sample_total = s.sample_var_re + s.sample_var_im
        assert abs(sample_total - s.predicted_var) / s.predicted_var < 0.1

    # The relative standard error of a sample variance over T trials is
    # about sqrt(2 / T): 0.45 % at 10^5 trials, 0.32 % at 2 x 10^5.  The
    # multinomial prediction is exact, so 2 % is over four of them.

    def test_multinomial_statistics_agree(self):
        scn = point_x_scenario()
        s = run_trials(scn, ShotModel(N_REF, "multinomial", seed=8), 100_000)
        sample_total = s.sample_var_re + s.sample_var_im
        assert abs(sample_total - s.predicted_var) / s.predicted_var < 0.02

    def test_multinomial_statistics_agree_d3(self, small_random_povm):
        scn = EntryScenario(small_random_povm.element(small_random_povm.labels[0]), 2, 0,
                            np.pi / 4)
        trials = 200_000
        s = run_trials(scn, ShotModel(N_REF, "multinomial", seed=8), trials)
        sample_total = s.sample_var_re + s.sample_var_im
        assert abs(sample_total - s.predicted_var) / s.predicted_var < 0.02
        truth = scn.exact_value()
        assert abs(s.mean.real - truth.real) < 4 * np.sqrt(s.sample_var_re / trials)
        assert abs(s.mean.imag - truth.imag) < 4 * np.sqrt(s.sample_var_im / trials)

    def test_multinomial_variance_is_exact_on_sic(self, sic):
        """At g = pi/4 the multinomial form matches each component's sample
        variance within 2 % for every SIC outcome, where the Poisson form
        reads up to 12.5 % high."""
        coupling = CouplingConfig.symmetric(np.pi / 4)
        poisson_excess = []
        for lab in sic.labels:
            scn = EntryScenario(sic.element(lab), 1, 0, np.pi / 4)
            tables = exact_entry_tables(scn.pi_l, 1, 0, coupling)
            exact = error_transfer_variance(tables, scn.coeffs(), N_REF, statistics="multinomial")
            s = run_trials(scn, ShotModel(N_REF, "multinomial", seed=lab), 200_000)
            assert s.predicted_var == sum(exact)
            for sample, predicted, poisson in zip(
                (s.sample_var_re, s.sample_var_im), exact,
                error_transfer_variance(tables, scn.coeffs(), N_REF),
            ):
                assert abs(sample / predicted - 1) < 0.02, lab
                poisson_excess.append(poisson / sample - 1)
        assert max(poisson_excess) > 0.1

    def test_zero_trials_give_nan_statistics(self):
        scn = point_x_scenario()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = run_trials(scn, ShotModel(N_REF, "poisson", seed=1), 0)
        assert np.isnan(s.mean.real) and np.isnan(s.mean.imag)
        assert np.isnan(s.sample_var_re) and np.isnan(s.sample_var_im)
        assert s.trials == 0
        tables = exact_entry_tables(scn.pi_l, scn.j, scn.k, CouplingConfig.symmetric(scn.g))
        vr, vi = error_transfer_variance(tables, scn.coeffs(), N_REF)
        assert s.predicted_var == vr / scn.scale**2 + vi / scn.scale**2

    def test_negative_trials_refused(self):
        cells, w_re, w_im = TestTrialKernel.kernel_inputs(point_x_scenario())
        for study in (
            lambda: run_trials(point_x_scenario(), ShotModel(N_REF), -1),
            lambda: refinement_trials(random_povm(2, 3, seed=5), 1, 0, 0.6, ShotModel(N_REF), -3),
            lambda: _kernels.trial_estimates(cells[None], w_re, w_im, N_REF, -1, [1]),
        ):
            with pytest.raises(ValueError, match="trials must be >= 0"):
                study()

    def test_dead_outcome_refused(self):
        scn = EntryScenario(np.zeros((2, 2)), 1, 0, np.pi / 4)
        with pytest.raises(DeadPostSelectionError, match=r"entry \(1, 0\): post-selection"):
            run_trials(scn, ShotModel(1000), 10)


class TestBackends:
    def test_numpy_backend_selected_by_env(self, monkeypatch):
        monkeypatch.setenv(_kernels.ENV_VAR, "numpy")
        assert _kernels.active_backend() == "numpy"
        scn = point_x_scenario()
        s = run_trials(scn, ShotModel(N_REF, "poisson", seed=40), 2000)
        total = s.sample_var_re + s.sample_var_im
        assert abs(total - s.predicted_var) / s.predicted_var < 0.15

    def test_invalid_backend_rejected(self, monkeypatch):
        monkeypatch.setenv(_kernels.ENV_VAR, "fortran")
        with pytest.raises(ValueError, match="numba"):
            _kernels.active_backend()


class TestTrialKernel:
    GS = (np.pi / 16, np.pi / 8, np.pi / 4, 3 * np.pi / 8)

    @staticmethod
    def kernel_inputs(scn):
        coeffs = scn.coeffs()
        tables = exact_entry_tables(scn.pi_l, scn.j, scn.k, CouplingConfig.symmetric(scn.g))
        cells = np.maximum(tables.reshape(9, 4), 0.0)
        return cells, coeffs.cell_re / scn.scale, coeffs.cell_im / scn.scale

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_grouping_is_exact(self, d):
        """Merged counts keep the mean and the counting variance of the
        estimate, cell by cell for Poisson and setting by setting for
        multinomial counts."""
        povm = random_povm(d, d + 1, seed=40 + d)
        for g in self.GS:
            for lab in povm.labels:
                scn = EntryScenario(povm.element(lab), d - 1, 0, g)
                cells, w_re, w_im = self.kernel_inputs(scn)
                tables = exact_entry_tables(scn.pi_l, scn.j, scn.k, CouplingConfig.symmetric(scn.g))
                w = np.column_stack([w_re, w_im])
                flat = cells.reshape(-1)
                rates = N_REF * flat
                block, prob, weights = _kernels.group_cells(
                    cells[None], w_re, w_im, "poisson")[0]
                assert len(prob) <= 9 and (block == 0).all()
                grates = N_REF * prob
                scale = np.abs(w).max()
                np.testing.assert_allclose(
                    weights.T @ grates / N_REF, w.T @ rates / N_REF, rtol=1e-12, atol=1e-12 * scale
                )
                var = (weights**2).T @ grates / N_REF**2
                np.testing.assert_allclose(
                    var, (w**2).T @ rates / N_REF**2, rtol=1e-12, atol=1e-12 * scale**2 / N_REF
                )
                np.testing.assert_allclose(
                    var, error_transfer_variance(tables, scn.coeffs(), N_REF),
                    rtol=1e-12,
                )

                block, prob, weights = _kernels.group_cells(
                    cells[None], w_re, w_im, "multinomial")[0]
                for s in range(9):
                    mine, cell_w = block == s, w[4 * s : 4 * s + 4]
                    for power in (1, 2):
                        np.testing.assert_allclose(
                            (weights[mine] ** power).T @ prob[mine],
                            (cell_w**power).T @ cells[s],
                            rtol=1e-12, atol=1e-12 * scale**power,
                        )

    def test_zero_weight_and_zero_rate_cells_not_drawn(self):
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        block, prob, weights = _kernels.group_cells(cells[None], w_re, w_im, "poisson")[0]
        assert (prob > 0).all() and weights.any(axis=1).all()
        assert len(prob) == 8

    def test_multinomial_refuses_setting_sum_above_one(self):
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        cells[4] += 0.5
        with pytest.raises(ValueError, match="setting 4"):
            _kernels.trial_estimates(cells[None], w_re, w_im, N_REF, 10, [1], "multinomial")
        # a total above 1 by rounding only is accepted
        cells[4] *= (1 + 1e-12) / cells[4].sum()
        mean, cov = _kernels.trial_estimates(cells[None], w_re, w_im, N_REF, 10, [1],
                                             "multinomial")
        assert mean.shape == (2, 1) and cov.shape == (2, 1, 1)
        assert np.isfinite(mean).all() and np.isfinite(cov).all()

    @staticmethod
    def ordered_sum(counts, weights):
        """The (2, size) sums ``sum_g w_g N_g`` of (size, groups) counts,
        each group's count times its (w_re, w_im) added in group order."""
        est = np.zeros((2, counts.shape[0]))
        for count, w in zip(counts.T, weights):
            est += w[:, None] * count
        return est

    @staticmethod
    def direct_chunk(cells, w_re, w_im, n, trials, seed, statistics, c):
        """The (2, size) estimates of chunk c of a kernel call, drawn outside
        the kernel from ``SeedSequence(seed, spawn_key=(c,))`` with the
        call's tables and summed in group order, as the kernel adds them."""
        block, prob, weights = _kernels.group_cells(cells[None], w_re, w_im, statistics)[0]
        tables = _kernels.count_tables(block, prob, n, statistics, weights)
        size = min(_kernels.CHUNK_TRIALS, trials - c * _kernels.CHUNK_TRIALS)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
        counts = _kernels.draw_counts(rng, size, block, prob, n, statistics, tables)
        return TestTrialKernel.ordered_sum(counts, weights) / n

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_chunks_share_one_stream(self, statistics):
        """A longer run extends a shorter one across a chunk boundary: its
        moments merge the shorter run's with those of the next chunk, which
        continues the stream instead of repeating it."""
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        chunk = _kernels.CHUNK_TRIALS
        short = one_outcome(cells, w_re, w_im, 2000, chunk, 9, statistics)
        long = one_outcome(cells, w_re, w_im, 2000, chunk + 3, 9, statistics)
        first = self.direct_chunk(cells, w_re, w_im, 2000, chunk + 3, 9, statistics, 0)
        tail = self.direct_chunk(cells, w_re, w_im, 2000, chunk + 3, 9, statistics, 1)
        assert tail.shape == (2, 3)
        assert not np.array_equal(tail, first[:, :3])
        first = _kernels.moments(first[:, None])
        np.testing.assert_array_equal(short[0], first[1][:, 0])
        np.testing.assert_array_equal(short[1], first[2][:, 0, 0] / (chunk - 1))
        _, mean, m2 = _kernels.merge_moments(first, _kernels.moments(tail[:, None]))
        np.testing.assert_array_equal(long[0], mean[:, 0])
        np.testing.assert_array_equal(long[1], m2[:, 0, 0] / (chunk + 2))

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_output_independent_of_thread_count(self, statistics, monkeypatch):
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        trials = 3 * _kernels.CHUNK_TRIALS + 5
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_kernels, "WORKERS", workers)
            runs.append(one_outcome(cells, w_re, w_im, 2000, trials, 11, statistics))
        for mean, var in runs[1:]:
            np.testing.assert_array_equal(mean, runs[0][0])
            np.testing.assert_array_equal(var, runs[0][1])

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_chunk_stream_layout(self, statistics):
        """Chunk c draws from the c-th spawned child of SeedSequence(seed):
        the kernel's moments are those of the chunks drawn directly, merged
        in chunk order, bit for bit."""
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        chunk, n, seed = _kernels.CHUNK_TRIALS, 2000, 17
        trials = 2 * chunk + 7
        mean, var = one_outcome(cells, w_re, w_im, n, trials, seed, statistics)
        children = np.random.SeedSequence(seed).spawn(3)
        parts = []
        for c in range(3):
            child = np.random.SeedSequence(seed, spawn_key=(c,))
            assert (child.generate_state(4) == children[c].generate_state(4)).all()
            parts.append(_kernels.moments(
                self.direct_chunk(cells, w_re, w_im, n, trials, seed, statistics, c)[:, None]))
        count, direct_mean, m2 = functools.reduce(_kernels.merge_moments, parts)
        assert count == trials
        np.testing.assert_array_equal(mean, direct_mean[:, 0])
        np.testing.assert_array_equal(var, m2[:, 0, 0] / (trials - 1))

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_chunk_estimates_are_the_ordered_sum(self, statistics, monkeypatch):
        """At g = 0.6, whose weights are not integers, each chunk's
        estimates, a whole chunk and a one-trial last chunk of a
        three-outcome stack, are its groups' counts times their weights
        added in group order, bit for bit."""
        monkeypatch.setattr(_kernels, "WORKERS", 1)  # the chunks in order
        povm, coeffs = random_povm(2, 3, seed=5), rt_coefficients(2, 0.6)
        cells = nonnegative_cells(exact_entry_tables(
            povm.elements, 1, 0, CouplingConfig.symmetric(0.6))).reshape(3, 9, 4)
        w_re, w_im = coeffs.cell_re, coeffs.cell_im
        assert (np.abs(w_re) % 1 > 0).any() and (np.abs(w_im) % 1 > 0).any()
        seen, moments = [], _kernels.moments

        def recorded(x):
            seen.append(x.copy())
            return moments(x)

        monkeypatch.setattr(_kernels, "moments", recorded)
        chunk, n, seeds = _kernels.CHUNK_TRIALS, 3000, [3, 4, 5]
        _kernels.trial_estimates(cells, w_re, w_im, n, chunk + 1, seeds, statistics)
        assert [x.shape for x in seen] == [(2, 3, chunk), (2, 3, 1)]
        for c, est in enumerate(seen):
            for l, seed in enumerate(seeds):
                np.testing.assert_array_equal(est[:, l], self.direct_chunk(
                    cells[l], w_re, w_im, n, chunk + 1, seed, statistics, c))

    #: Moments of the kernel and of refinement_trials over more than one
    #: chunk, from the current many-trial stream: a change that alters the
    #: stream must renew them.  rtol 1e-12 leaves room for rounding, not for
    #: another draw.
    PINNED_KERNEL = {
        "poisson": ([-5.1258581235697975e-05, 0.000143813882532418],
                    [0.0005038236982236993, 0.0004988371081730847]),
        "multinomial": ([8.550724637681156e-05, 0.00017783371472158654],
                        [0.0004992533293446641, 0.0004988138385974781]),
    }
    PINNED_REFINEMENT = {
        "poisson": (
            [(0.0002716894100878372, 0.0002111296682878437),
             (0.00031667484503154574, 0.0002192266740980558),
             (9.85944884711216e-05, 7.550146922430418e-05)],
            [(0.000166156549466113, 0.0001231123562932033),
             (0.00017174013764320223, 0.00012168330928714794),
             (8.42862040633188e-05, 6.423384342412207e-05)],
        ),
        "multinomial": (
            [(0.00024989617388284545, 0.00020351189126224686),
             (0.000267759526082489, 0.00021758811226681472),
             (9.283983157057833e-05, 7.654548603827548e-05)],
            [(0.0001474223245127522, 0.00012042343104039978),
             (0.0001499015535593086, 0.0001223963072625871),
             (7.844700356989816e-05, 6.529691632615995e-05)],
        ),
    }

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_many_trial_stream_pinned(self, statistics):
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        mean, var = one_outcome(cells, w_re, w_im, 2000, 2 * _kernels.CHUNK_TRIALS + 7, 17,
                                statistics)
        pinned_mean, pinned_var = self.PINNED_KERNEL[statistics]
        np.testing.assert_allclose(mean, pinned_mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(var, pinned_var, rtol=1e-12, atol=0)
        study = refinement_trials(random_povm(2, 3, seed=5), 1, 0, 0.6,
                                  ShotModel(3000, statistics, seed=21),
                                  _kernels.CHUNK_TRIALS + 100)
        raw, refined = self.PINNED_REFINEMENT[statistics]
        np.testing.assert_allclose([study.raw_sample_var[lab] for lab in study.labels], raw,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose([study.refined_sample_var[lab] for lab in study.labels],
                                   refined, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_moments_match_two_pass(self, sic_tables, statistics):
        """The merged moments are numpy's two-pass mean and var(ddof=1) over
        the concatenated chunk draws, within 1e-12 relative."""
        coeffs = rt_coefficients(2, np.pi / 4)
        cells = nonnegative_cells(sic_tables).reshape(9, 4)
        args = (cells, coeffs.cell_re, coeffs.cell_im, N_REF, 5 * _kernels.CHUNK_TRIALS + 11, 5,
                statistics)
        mean, var = one_outcome(*args)
        draws = np.concatenate([self.direct_chunk(*args, c) for c in range(6)], axis=1)
        assert abs(mean[0]) > 0.1
        np.testing.assert_allclose(var, draws.var(axis=1, ddof=1), rtol=1e-12)
        np.testing.assert_allclose(mean, draws.mean(axis=1), rtol=1e-12,
                                   atol=1e-12 * np.sqrt(var).max())

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_one_trial_is_the_column_draw(self, sic_tables, statistics):
        """One trial, drawn in one call per row, has the counts of numpy's
        scalar draws from the same stream: one Poisson draw per cell, or per
        setting the chain of conditional binomials."""
        block, n = montecarlo._SETTING_OF_CELL, 1000
        prob = _kernels.checked_cells(sic_tables.reshape(9, 4), statistics).reshape(36)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            if statistics == "poisson":
                explicit = [rng.poisson(n * p) for p in prob]
            else:
                explicit = []
                for b in range(9):
                    left, rest = n, 1.0
                    for p in prob[block == b]:
                        explicit.append(rng.binomial(left, 1.0 if p >= rest else p / rest))
                        left, rest = left - explicit[-1], rest - p
            drawn = _kernels.draw_counts(np.random.default_rng(seed), 1, block, prob, n,
                                         statistics, None)
            assert drawn.shape == (1, 36)
            assert (drawn[0] == np.array(explicit, dtype=float)).all()

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_one_trial_of_uneven_groups(self, statistics):
        """One trial of grouped cells, as the last chunk of a call of
        ``CHUNK_TRIALS + 1`` trials draws it, has the counts of numpy drawing
        each outcome's blocks in turn from one generator: for one outcome's
        groups, whose settings hold different numbers of groups, and for a
        stack of outcomes sharing uneven blocks with a block number unused."""
        n = 1000
        povm = random_povm(3, 4, seed=12)
        coeffs = rt_coefficients(3, 0.7)
        tables = exact_entry_tables(povm.elements, 2, 0, CouplingConfig.symmetric(0.7))
        cells = _kernels.checked_cells(nonnegative_cells(tables).reshape(4, 9, 4), statistics)
        block, prob, _ = _kernels.group_cells(cells, coeffs.cell_re, coeffs.cell_im,
                                              statistics)[1]
        if statistics == "multinomial":
            assert len(set(np.bincount(block).tolist())) > 1
        stack_block = np.array([0, 0, 0, 1, 2, 2, 4, 4, 4, 4])
        parts = np.random.default_rng(3).dirichlet(np.ones(5), size=(3, 5))[..., :-1]
        stack_prob = np.concatenate(
            [parts[:, b, :size] for b, size in enumerate(np.bincount(stack_block)) if size],
            axis=1)
        for block, prob in [(block, prob), (stack_block, stack_prob)]:
            for seed in range(5):
                rng = np.random.default_rng(seed)
                want = np.empty(np.atleast_2d(prob).shape)
                for l, one in enumerate(np.atleast_2d(prob)):
                    if statistics == "poisson":
                        want[l] = rng.poisson(n * one)
                        continue
                    for b in np.unique(block):
                        p = one[block == b]
                        pvals = [*p, max(1.0 - p.sum(), 0.0)]
                        want[l, block == b] = rng.multinomial(n, pvals)[:-1]
                drawn = _kernels.draw_counts(np.random.default_rng(seed), 1, block, prob, n,
                                             statistics, None)
                np.testing.assert_array_equal(drawn, want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("prob", [[0.5, 0.5, 1e-17], [0.3, 0.3, 0.4, 1e-17]],
                             ids=["rest-zero", "rest-negative"])
    def test_chain_past_spent_probability(self, prob):
        """A positive group after rounding has spent all the probability
        (``rest`` exactly 0, or below it) draws 0 particles, without a
        division by zero or a negative binomial probability."""
        prob = np.array(prob)
        block = np.zeros(prob.size, dtype=np.intp)
        counts = _kernels.draw_counts(np.random.default_rng(1), 2, block, prob, 1000,
                                      "multinomial", [None] * prob.size)
        assert (counts[:, -1] == 0).all()
        assert (counts.sum(axis=1) == 1000).all()

    def test_chained_binomial_moments(self):
        """Over 2 x 10^5 trials the chained binomials have the multinomial's
        means, variances and in-setting covariances, and settings are
        independent; each moment is the mean of a per-trial statistic, within
        5 of its standard errors."""
        trials, n = 200_000, 1000
        block = np.array([0, 0, 0, 1, 1])
        prob = np.array([0.1, 0.25, 0.3, 0.45, 0.5])
        counts = _kernels.draw_counts(
            np.random.default_rng(8), trials, block, prob, n, "multinomial", [None] * prob.size
        )
        assert counts.shape == (trials, 5)
        dev = counts - n * prob
        for g in range(5):
            for h in range(g, 5):
                z = dev[:, g] * dev[:, h]
                if g == h:
                    truth = n * prob[g] * (1 - prob[g])
                else:
                    truth = -n * prob[g] * prob[h] if block[g] == block[h] else 0.0
                assert abs(z.mean() - truth) < 5 * z.std() / np.sqrt(trials), (g, h)
            se = dev[:, g].std() / np.sqrt(trials)
            assert abs(dev[:, g].mean()) < 5 * se, g

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_stack_equals_per_outcome_calls(self, statistics, monkeypatch):
        """A stack of outcomes, drawn on one pool, gives each outcome the
        moments of its own call, whatever the number of threads."""
        povm = random_povm(2, 5, seed=33)
        tables = exact_entry_tables(povm.elements, 1, 0, CouplingConfig.symmetric(0.6))
        cells = nonnegative_cells(tables).reshape(5, 9, 4)
        coeffs = rt_coefficients(2, 0.6)
        seeds = [4, 2**32 - 1, 0, 71, 9]
        trials = 2 * _kernels.CHUNK_TRIALS + 5
        args = (coeffs.cell_re, coeffs.cell_im, 3000, trials)
        for workers in (1, 2, 3):
            monkeypatch.setattr(_kernels, "WORKERS", workers)
            mean, cov = _kernels.trial_estimates(cells, *args, seeds, statistics)
            assert mean.shape == (2, 5) and cov.shape == (2, 5, 5)
            for l, seed in enumerate(seeds):
                one_mean, one_var = one_outcome(cells[l], *args, seed, statistics)
                assert (mean[:, l] == one_mean).all() and (cov[:, l, l] == one_var).all()

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_covariance_cross_terms(self, statistics, monkeypatch):
        """An outcome stacked twice with one seed covaries with its copy
        exactly as with itself, the covariance is symmetric bit for bit, and
        an independently drawn outcome is uncorrelated within 4 / sqrt(trials);
        whatever the number of threads."""
        povm = random_povm(2, 3, seed=9)
        coeffs = rt_coefficients(2, 0.6)
        cells = nonnegative_cells(exact_entry_tables(
            povm.elements, 1, 0, CouplingConfig.symmetric(0.6))).reshape(3, 9, 4)
        trials = 2 * _kernels.CHUNK_TRIALS + 7
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_kernels, "WORKERS", workers)
            mean, cov = _kernels.trial_estimates(cells[[0, 0, 1]], coeffs.cell_re, coeffs.cell_im,
                                                 3000, trials, [8, 8, 5], statistics)
            assert mean.shape == (2, 3) and cov.shape == (2, 3, 3)
            assert (mean[:, 0] == mean[:, 1]).all()
            assert (cov[:, 0, 1] == cov[:, 0, 0]).all()
            assert (cov == cov.transpose(0, 2, 1)).all()
            corr = cov[:, 0, 2] / np.sqrt(cov[:, 0, 0] * cov[:, 2, 2])
            assert (np.abs(corr) < 4 / np.sqrt(trials)).all(), corr
            runs.append((mean, cov))
        for mean, cov in runs[1:]:
            np.testing.assert_array_equal(mean, runs[0][0])
            np.testing.assert_array_equal(cov, runs[0][1])

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_stack_means_are_the_exact_entries(self, statistics):
        """Every outcome's mean estimate of a complete six-outcome POVM, over
        two chunks and a few trials, lies within 4 standard errors of its
        exact entry, in both components."""
        povm = random_povm(2, 6, seed=3)
        coeffs = rt_coefficients(2, 0.6)
        cells = nonnegative_cells(exact_entry_tables(
            povm.elements, 1, 0, CouplingConfig.symmetric(0.6))).reshape(6, 9, 4)
        trials = 2 * _kernels.CHUNK_TRIALS + 5
        mean, cov = _kernels.trial_estimates(cells, coeffs.cell_re, coeffs.cell_im, N_REF,
                                             trials, [31, 32, 33, 34, 35, 36], statistics)
        truth = np.array([matrix_entry_oracle(povm, lab, 1, 0) for lab in povm.labels])
        se = np.sqrt(np.diagonal(cov, axis1=1, axis2=2) / trials)
        z = (mean - [truth.real, truth.imag]) / se
        assert (np.abs(z) < 4).all(), z

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_refined_means_are_the_exact_entries(self, statistics):
        """Every outcome's refined mean m_l - wc_l sum_u m_u of a complete
        six-outcome POVM, over two chunks and a few trials, lies within 4
        standard errors of its exact entry, in both components; the standard
        error is that of refinement_trials' refined sample variance."""
        povm = random_povm(2, 6, seed=5)
        coeffs = rt_coefficients(2, 0.6)
        cells, var_re, var_im = exact_slot(povm.elements, 1, 0, coeffs, N_REF, str, statistics)
        trials = 2 * _kernels.CHUNK_TRIALS + 5
        mean, cov = _kernels.trial_estimates(cells.flat.reshape(-1, 9, 4), coeffs.cell_re,
                                             coeffs.cell_im, N_REF, trials, range(41, 47),
                                             statistics)
        wc = estimator._shares(np.stack([var_re, var_im]))
        refined = mean - wc * mean.sum(axis=-1, keepdims=True)
        row_sums = cov.sum(axis=-1)
        refined_var = (np.diagonal(cov, axis1=1, axis2=2) - 2 * wc * row_sums
                       + wc**2 * row_sums.sum(axis=-1, keepdims=True))
        truth = np.array([matrix_entry_oracle(povm, lab, 1, 0) for lab in povm.labels])
        z = (refined - [truth.real, truth.imag]) / np.sqrt(refined_var / trials)
        assert (np.abs(z) < 4).all(), z

    def test_two_chunk_stack_uses_every_thread(self, monkeypatch):
        """Each chunk is its own task: the two chunks of a four-outcome stack
        draw side by side on two threads."""
        monkeypatch.setattr(_kernels, "WORKERS", 2)
        meet = threading.Barrier(2, timeout=30)
        group_draws, threads = _kernels.group_draws, set()

        def draw_in_pairs(*args):
            meet.wait()  # breaks, and the call raises, unless two draws run at once
            threads.add(threading.get_ident())
            return group_draws(*args)

        monkeypatch.setattr(_kernels, "group_draws", draw_in_pairs)
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        mean, cov = _kernels.trial_estimates(np.stack([cells] * 4), w_re, w_im, N_REF,
                                             2 * _kernels.CHUNK_TRIALS, [1, 2, 3, 4])
        var = np.diagonal(cov, axis1=1, axis2=2)
        assert np.isfinite(var).all() and len(set(var[0].tolist())) == 4
        assert len(threads) == 2

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_lent_buffers_under_thread_switches(self, statistics, monkeypatch):
        """Each thread's chunk buffers serve one task at a time: with five
        threads switching every microsecond, a three-outcome study over six
        chunks has the means and covariances of one thread, bit for bit."""
        povm, coeffs = random_povm(2, 3, seed=5), rt_coefficients(2, 0.6)
        cells = nonnegative_cells(exact_entry_tables(
            povm.elements, 1, 0, CouplingConfig.symmetric(0.6))).reshape(3, 9, 4)
        args = (cells, coeffs.cell_re, coeffs.cell_im, 3000, 5 * _kernels.CHUNK_TRIALS + 9,
                [7, 8, 9], statistics)
        monkeypatch.setattr(_kernels, "WORKERS", 1)
        want = _kernels.trial_estimates(*args)
        monkeypatch.setattr(_kernels, "WORKERS", 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _kernels.trial_estimates(*args)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_studies_share_one_pool(self, monkeypatch):
        """Every study draws on the process's pool: a second study starts no
        thread and runs on threads the first one used, and once ``WORKERS``
        changes the pool follows it, so six chunks run on five threads."""
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        group_draws = _kernels.group_draws

        def study(workers, chunks):
            """The threads a study's chunks ran on, and the most threads
            alive while they ran; its first ``workers`` chunks draw at once."""
            monkeypatch.setattr(_kernels, "WORKERS", workers)
            meet, lock = threading.Barrier(workers, timeout=10), threading.Lock()
            arrived, threads, alive = [], set(), []

            def draw(*args):
                with lock:
                    arrived.append(None)
                    first = len(arrived) <= workers
                if first:
                    meet.wait()  # breaks, and the call raises, unless `workers` threads draw
                threads.add(threading.get_ident())
                alive.append(threading.active_count())
                return group_draws(*args)

            monkeypatch.setattr(_kernels, "group_draws", draw)
            _kernels.trial_estimates(cells[None], w_re, w_im, N_REF,
                                     chunks * _kernels.CHUNK_TRIALS, [1])
            return threads, max(alive)

        first, _ = study(2, 4)
        before = threading.active_count()
        second, alive = study(2, 4)
        assert alive <= before
        assert second <= first
        assert len(study(5, 6)[0]) == 5

    def test_failed_chunk_cancels_its_study(self, monkeypatch):
        """A chunk's error is the study's: its queued chunks never start, its
        running ones end before the call raises, and the pool serves the next
        study as before.  On one thread with a look-ahead of two, chunks 1
        and 2 are pending when chunk 0's error is seen; each blocks when it
        starts until the study waits on its chunks, so a study that waited on
        them without cancelling them would start both."""
        monkeypatch.setattr(_kernels, "WORKERS", 1)
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        args = (cells[None], w_re, w_im, N_REF, 5 * _kernels.CHUNK_TRIALS + 9, [3])
        want = _kernels.trial_estimates(*args)
        group_draws, wait, events = _kernels.group_draws, concurrent.futures.wait, []
        waiting = threading.Event()

        def draw(rng, *rest):
            (c,) = rng.bit_generator.seed_seq.spawn_key
            events.append(("start", c))
            if c == 0:
                raise RuntimeError("chunk 0 failed")
            waiting.wait(timeout=10)  # a study that never waits cannot hang the test
            yield from group_draws(rng, *rest)
            events.append(("end", c))

        def waited(futures, *rest, **kwargs):
            waiting.set()
            return wait(futures, *rest, **kwargs)

        monkeypatch.setattr(_kernels, "group_draws", draw)
        monkeypatch.setattr(concurrent.futures, "wait", waited)  # imported at call time
        with pytest.raises(RuntimeError, match="chunk 0 failed"):
            _kernels.trial_estimates(*args)
        seen = list(events)
        time.sleep(0.2)
        assert events == seen
        started = [c for kind, c in seen if kind == "start"]
        assert started[0] == 0 and len(started) <= 2, started
        assert all(("end", c) in seen for c in started[1:])
        monkeypatch.setattr(_kernels, "group_draws", group_draws)
        for a, b in zip(_kernels.trial_estimates(*args), want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_pool(self):
        """A child forked after a study does not have the parent's pool
        threads: its study starts its own pool and draws the parent's
        moments.  The fork runs in a subprocess, so this process never forks."""
        script = """
import os, sys, time
import numpy as np
from povmdt import CouplingConfig, exact_entry_tables, random_povm, rt_coefficients, _kernels
from povmdt.estimator import nonnegative_cells

povm, coeffs = random_povm(2, 3, seed=5), rt_coefficients(2, 0.6)
cells = nonnegative_cells(exact_entry_tables(
    povm.elements, 1, 0, CouplingConfig.symmetric(0.6))).reshape(3, 9, 4)
args = (cells, coeffs.cell_re, coeffs.cell_im, 3000, 2 * _kernels.CHUNK_TRIALS, [7, 8, 9])
want = _kernels.trial_estimates(*args)
pid = os.fork()
if pid == 0:
    got = _kernels.trial_estimates(*args)
    os._exit(0 if all(np.array_equal(a, b) for a, b in zip(got, want)) else 1)
deadline = time.monotonic() + 30
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.01)
os.kill(pid, 9)
os.waitpid(pid, 0)
sys.exit("the forked child's study did not finish")
"""
        src = str(Path(_kernels.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-W", "ignore::DeprecationWarning", "-c", script],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            timeout=120)
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_one_grouping_per_study(self, statistics, monkeypatch):
        """The groups of a six-outcome study are found by one np.unique over
        the (block, w_re, w_im) keys of its 36 cells."""
        calls = []
        unique = np.unique

        def counted(*args, **kwargs):
            if kwargs.get("axis") == 0:
                calls.append(args[0].shape)
            return unique(*args, **kwargs)

        monkeypatch.setattr(_kernels.np, "unique", counted)
        povm = random_povm(2, 6, seed=3)
        cells = nonnegative_cells(exact_entry_tables(
            povm.elements, 1, 0, CouplingConfig.symmetric(0.6))).reshape(6, 9, 4)
        coeffs = rt_coefficients(2, 0.6)
        _kernels.trial_estimates(cells, coeffs.cell_re, coeffs.cell_im, 3000, 300,
                                 list(range(6)), statistics)
        assert calls == [(36, 3)]

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_zero_trials(self, statistics):
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, cov = _kernels.trial_estimates(cells[None], w_re, w_im, N_REF, 0, [5],
                                                 statistics)
            stack_mean, stack_cov = _kernels.trial_estimates(
                np.stack([cells] * 3), w_re, w_im, N_REF, 0, [5, 6, 7], statistics)
        assert mean.shape == (2, 1) and cov.shape == (2, 1, 1)
        assert stack_mean.shape == (2, 3) and stack_cov.shape == (2, 3, 3)
        for x in (mean, cov, stack_mean, stack_cov):
            assert np.isnan(x).all()

    @staticmethod
    def traced_peak(study):
        """The tracemalloc peak, in MiB, of one call of ``study``."""
        tracemalloc.start()
        try:
            study()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_memory_bounded(self, statistics, monkeypatch):
        """Chunks are reduced to moments where they are drawn: the kernel's
        peak is that of two threads' chunks, whatever the trial count."""
        monkeypatch.setattr(_kernels, "WORKERS", 2)
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        peak = self.traced_peak(lambda: _kernels.trial_estimates(
            cells[None], w_re, w_im, N_REF, 200_000, [3], statistics))
        assert peak < 4

    def test_study_memory_bounded(self, monkeypatch):
        """``run_trials`` at 4 x 10^6 trials and a six-outcome
        ``refinement_trials`` at 5 x 10^5 each peak below 8 MiB, within 1.2x
        of their peaks at 40 and 10 times fewer trials."""
        monkeypatch.setattr(_kernels, "WORKERS", 2)
        scn, shot = point_x_scenario(), ShotModel(N_REF, "poisson", seed=4)
        povm = random_povm(2, 6, seed=3)

        def refinement(trials):
            return lambda: refinement_trials(povm, 1, 0, np.pi / 4, shot, trials)

        for small, large in [
            (lambda: run_trials(scn, shot, 10**5), lambda: run_trials(scn, shot, 4 * 10**6)),
            (refinement(5 * 10**4), refinement(5 * 10**5)),
        ]:
            small_peak, large_peak = self.traced_peak(small), self.traced_peak(large)
            assert large_peak < 8
            assert large_peak < 1.2 * small_peak

    def test_guide_memory_bounded(self, monkeypatch):
        """The guides of a six-outcome Poisson ``refinement_trials`` study
        at mc_trials' N and g hold under 1.5 MiB (1.12 MiB at 8 to 16 cells
        a CDF entry), each under 16 int16 cells a CDF entry."""
        built, guide_table = [], _kernels.guide_table

        def recorded(*args):
            built.append(guide_table(*args))
            return built[-1]

        monkeypatch.setattr(_kernels, "guide_table", recorded)
        refinement_trials(random_povm(2, 6, seed=1), 1, 0, np.pi / 4,
                          ShotModel(N_REF, "poisson", seed=4), 300)
        assert built
        for _, cdf, guide in built:
            assert guide.dtype == np.int16 and guide.size < 16 * cdf.size
        assert sum(guide.nbytes for _, _, guide in built) < 1.5 * 2**20


class TestInvertedDraws:
    """Counts drawn by inverting a CDF table, and the cap rule that leaves
    numpy's samplers to the rest."""

    #: The workload's Poisson rates, small rates, and a rate near the cap.
    RATES = (1e-9, 1e-3, 0.5, 1.0, 3.0, 12.0, 799.375, 3197.5, 2e4, 9.8e4)
    BINOMIALS = [(n, p) for n in (1, 2, 10, 1000, N_REF, 10**5)
                 for p in (1e-9, 1e-3, 0.0625, 0.5, 0.999, 1 - 1e-9)]

    @staticmethod
    def law(n, p, poisson):
        return scipy.stats.poisson(n * p) if poisson else scipy.stats.binom(n, p)

    @pytest.mark.parametrize("poisson, n, p", [(True, 1, rate) for rate in RATES]
                             + [(False, n, p) for n, p in BINOMIALS])
    def test_table_is_the_cdf(self, poisson, n, p):
        """The table CDF is scipy's within 1e-13, and the mass beyond its
        edges is below 1e-25."""
        lo, hi = _kernels.table_span(n, p, poisson)
        assert hi - lo < _kernels.TABLE_CAP
        table_lo, cdf, guide = _kernels.inversion_table(n, p, poisson)
        assert table_lo == lo and cdf.size == hi - lo + 1 and cdf[-1] == 1.0
        law = self.law(n, p, poisson)
        np.testing.assert_allclose(cdf, law.cdf(np.arange(lo, hi + 1)), rtol=0, atol=1e-13)
        assert law.cdf(lo - 1) + law.sf(hi) < 1e-25
        check_guide(cdf, guide)

    @pytest.mark.parametrize("poisson, n, p", [(True, 1, rate) for rate in RATES]
                             + [(False, n, p) for n, p in BINOMIALS])
    def test_invert_is_the_cdf_search(self, poisson, n, p):
        """Each count is ``searchsorted(cdf, u, "right") + lo`` of its
        uniform, for uniforms at and next to every CDF value and both edges
        of every guide cell, marked or not, handed out in order by a stub
        generator."""
        table = _kernels.inversion_table(n, p, poisson)
        lo, cdf, guide = table
        at = np.concatenate([cdf, np.arange(guide.size + 1) / guide.size, [0.0]])
        u = np.concatenate([at, np.nextafter(at, 0.0), np.nextafter(at, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]  # the range of Generator.random

        class StubRng:
            def random(self, size):
                assert size == u.size
                return u.copy()

        counts = _kernels._invert(StubRng(), u.size, table)
        np.testing.assert_array_equal(counts, np.searchsorted(cdf, u, "right") + lo)

    def test_cap_is_the_chunk(self):
        """Poisson rates up to about 10^5 fit a table."""
        for rate, fits in [(9.8e4, True), (1e5, False)]:
            lo, hi = _kernels.table_span(1, rate, True)
            assert (hi - lo < _kernels.TABLE_CAP) == fits
        block, prob = np.zeros(2, dtype=np.intp), np.array([0.5, 0.5])
        assert _kernels.count_tables(block, prob, 2 * 10**5, "poisson") == [None, None]

    @staticmethod
    def check_draws(counts, law):
        """Mean and variance within 5 SE of the law's, and a chi-square test
        against its pmf over bins of about 1 % probability each."""
        size = counts.size
        mean, var = counts.mean(), counts.var(ddof=1)
        dev4 = ((counts - mean) ** 4).mean()
        assert abs(mean - law.mean()) < 5 * np.sqrt(var / size)
        assert abs(var - law.var()) < 5 * np.sqrt((dev4 - var**2) / size)
        # bin i holds the counts in (edges[i - 1], edges[i]]
        edges = np.unique(law.ppf(np.linspace(0, 1, 101)[1:-1]))
        expected = size * np.diff(np.concatenate([[0.0], law.cdf(edges), [1.0]]))
        seen = np.bincount(np.searchsorted(edges, counts), minlength=edges.size + 1)
        assert expected.min() >= 5
        chi2 = ((seen - expected) ** 2 / expected).sum()
        assert scipy.stats.chi2.sf(chi2, edges.size) > 1e-3, chi2

    @pytest.mark.parametrize("statistics, n, p", [
        ("poisson", N_REF, 0.5 / N_REF), ("poisson", N_REF, 12 / N_REF),
        ("poisson", N_REF, 0.0625), ("poisson", N_REF, 0.25), ("multinomial", N_REF, 0.0625),
    ], ids=["rate-0.5", "rate-12", "rate-799.375", "rate-3197.5", "binomial"])
    def test_inverted_draws_follow_the_law(self, statistics, n, p):
        """10^6 inverted draws of Poisson(n p), or of the first count of a
        setting, Binomial(n, p)."""
        block, prob = np.zeros(1, dtype=np.intp), np.array([p])
        tables = _kernels.count_tables(block, prob, n, statistics)
        assert tables[0] is not None
        counts = _kernels.draw_counts(np.random.default_rng(2024), 10**6, block, prob, n,
                                      statistics, tables)
        self.check_draws(counts[:, 0], self.law(n, p, statistics == "poisson"))

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_numpy_draws_past_the_cap(self, statistics, monkeypatch):
        """A table longer than TABLE_CAP is never built: at n = 10^8 the
        counts are numpy's and follow the law, and a 300-trial study there
        builds no table either."""
        def refuse(*args):
            raise AssertionError("an inversion table was built")

        monkeypatch.setattr(_kernels, "inversion_table", refuse)
        n, block, prob = 10**8, np.zeros(1, dtype=np.intp), np.array([0.0625])
        tables = _kernels.count_tables(block, prob, n, statistics)
        assert tables == [None]
        counts = _kernels.draw_counts(np.random.default_rng(2025), 10**6, block, prob, n,
                                      statistics, tables)
        self.check_draws(counts[:, 0], self.law(n, 0.0625, statistics == "poisson"))
        cells, w_re, w_im = TestTrialKernel.kernel_inputs(point_x_scenario())
        mean, var = one_outcome(cells, w_re, w_im, n, 300, 1, statistics)
        assert np.isfinite(mean).all() and np.isfinite(var).all()

    def test_tables_do_not_depend_on_trials(self):
        """A study of fewer trials than a table has entries inverts too: the
        chunk of a 300-trial call is drawn from the tables of a long one."""
        cells, w_re, w_im = TestTrialKernel.kernel_inputs(point_x_scenario())
        block, prob, _ = _kernels.group_cells(cells[None], w_re, w_im, "poisson")[0]
        tables = _kernels.count_tables(block, prob, N_REF, "poisson")
        assert all(t is not None and t[1].size > 300 for t in tables)
        direct = TestTrialKernel.direct_chunk(cells, w_re, w_im, N_REF, 300, 6, "poisson", 0)
        _, mean, m2 = _kernels.moments(direct[:, None])
        got_mean, got_var = one_outcome(cells, w_re, w_im, N_REF, 300, 6)
        np.testing.assert_array_equal(got_mean, mean[:, 0])
        np.testing.assert_array_equal(got_var, m2[:, 0, 0] / 299)

    def test_chain_after_inverted_first_group(self):
        """A setting whose first group is inverted and whose later groups
        chain on its count has the multinomial's means and covariances,
        within 5 standard errors over 2 x 10^5 trials."""
        trials, n = 200_000, 1000
        block = np.array([0, 0, 0, 1, 1])
        prob = np.array([0.1, 0.25, 0.3, 0.45, 0.5])
        tables = _kernels.count_tables(block, prob, n, "multinomial")
        assert [t is not None for t in tables] == [True, False, False, True, False]
        counts = _kernels.draw_counts(np.random.default_rng(8), trials, block, prob, n,
                                      "multinomial", tables)
        dev = counts - n * prob
        same = block[:, None] == block[None, :]
        truth = np.where(same, -n * np.outer(prob, prob), 0.0) + np.diag(n * prob)
        products = dev[:, :, None] * dev[:, None, :]
        se = products.std(axis=0) / np.sqrt(trials)
        assert (np.abs(products.mean(axis=0) - truth) < 5 * se).all()
        assert (np.abs(dev.mean(axis=0)) < 5 * dev.std(axis=0) / np.sqrt(trials)).all()

class TestPairedDraws:
    """Two Poisson groups with opposite weights, drawn as one count of their
    difference, and the rules that leave the other groups' draws as they
    were."""

    #: (rate+, rate-): tiny and unequal rates, the workload's, and rates
    #: whose difference table nears the cap.
    RATE_PAIRS = [(1e-9, 1e-9), (1e-9, 3.0), (0.5, 3.0), (12.0, 12.0), (799.375, 3197.5),
                  (1e4, 2e4), (2.4e4, 2.4e4), (3e4, 1.9e4)]

    @staticmethod
    def pair(rates, weights=((1.0, 0.0), (-1.0, 0.0))):
        """``(block, prob, weights)`` of two Poisson groups at ``n = 1``."""
        return np.zeros(2, dtype=np.intp), np.array(rates), np.array(weights)

    #: (n, (p_g, p_h)) of split multinomial settings: small, the workload's,
    #: and n = 10^5, whose two binomial tables near the cap together.
    SPLIT_SETTINGS = [(7, (0.2, 0.3)), (N_REF, (0.0625, 0.25)), (10**5, (0.0625, 0.25))]

    @staticmethod
    def binomial_support(n, p):
        """``(lo, pmf)``: scipy's ``Binomial(n, p)`` pmf over the counts ``lo,
        lo + 1, ...`` where it does not underflow to 0, the only ones that
        add to a sum."""
        pmf = scipy.stats.binom.pmf(np.arange(n + 1), n, p)
        k = np.flatnonzero(pmf)
        return k[0], pmf[k[0]:k[-1] + 1]

    @classmethod
    def binomial_difference_cdf(cls, n, alpha, delta, counts):
        """The CDF of ``Binomial(n, alpha) - Binomial(n, delta)`` at
        ``counts``, from the correlation of scipy's two pmfs."""
        (lo_plus, plus), (lo_minus, minus) = (cls.binomial_support(n, p) for p in (alpha, delta))
        lo = lo_plus - (lo_minus + minus.size - 1)
        assert counts[0] >= lo
        return np.cumsum(np.convolve(plus, minus[::-1]))[counts - lo]

    @classmethod
    def binomial_difference_below(cls, n, alpha, delta, x):
        """``P(A - D <= x)`` for independent ``A ~ Binomial(n, alpha)`` and
        ``D ~ Binomial(n, delta)``, as ``sum_k P(D = k) P(A <= x + k)``,
        which keeps the relative accuracy of scipy's lower tails."""
        lo, pmf = cls.binomial_support(n, delta)
        return float((pmf * scipy.stats.binom.cdf(x + lo + np.arange(pmf.size), n, alpha)).sum())

    @pytest.mark.parametrize("n, laws, poisson", [
        pytest.param(1, rates, True, id=f"rates{i}") for i, rates in enumerate(RATE_PAIRS)
    ] + [
        pytest.param(n, _kernels.split_pair(*probs), False, id=f"binomial-{n}")
        for n, probs in SPLIT_SETTINGS
    ])
    def test_table_is_the_cdf(self, n, laws, poisson):
        """The difference table spans every difference of the two laws'
        spans, its CDF is within 1e-13 of scipy's Skellam or of the
        correlation of scipy's two binomial pmfs, and the mass beyond each
        of its edges is below 2e-30."""
        (lo_plus, hi_plus), (lo_minus, hi_minus) = (_kernels.table_span(n, p, poisson)
                                                    for p in laws)
        assert hi_plus - lo_plus + hi_minus - lo_minus < _kernels.TABLE_CAP
        lo, cdf, guide = _kernels.difference_table(n, *laws, poisson)
        hi = lo + cdf.size - 1
        assert (lo, hi) == (lo_plus - hi_minus, hi_plus - lo_minus) and cdf[-1] == 1.0
        counts = np.arange(lo, hi + 1)
        # the upper tail as the lower tail of the mirrored law, which scipy resolves
        if poisson:
            want = scipy.stats.skellam(*laws).cdf(counts)
            below = scipy.stats.skellam(*laws).cdf(lo - 1)
            above = scipy.stats.skellam(*laws[::-1]).cdf(-hi - 1)
        else:
            want = self.binomial_difference_cdf(n, *laws, counts)
            below = self.binomial_difference_below(n, *laws, lo - 1)
            above = self.binomial_difference_below(n, *laws[::-1], -hi - 1)
        np.testing.assert_allclose(cdf, want, rtol=0, atol=1e-13)
        assert below < 2e-30 and above < 2e-30
        check_guide(cdf, guide)

    def test_paired_groups(self):
        """The paper's weights at g = pi/4 pair all 8 drawn groups of the
        reference scenario: each first group gets a difference table and its
        partner ``PAIRED``."""
        cells, w_re, w_im = TestTrialKernel.kernel_inputs(point_x_scenario())
        block, prob, weights = _kernels.group_cells(cells[None], w_re, w_im, "poisson")[0]
        pairs = _kernels.opposite_pairs(weights)
        assert len(pairs) == 4 and all(g < h for g, h in pairs.items())
        for g, h in pairs.items():
            assert (weights[h] == -weights[g]).all()
        tables = _kernels.count_tables(block, prob, N_REF, "poisson", weights)
        for g, h in pairs.items():
            assert tables[h] is _kernels.PAIRED
            want = _kernels.difference_table(N_REF, prob[g], prob[h], True)
            assert all(np.array_equal(a, b) for a, b in zip(tables[g], want))

    @pytest.mark.parametrize("n, rates", [(N_REF, (0.0625, 0.25)), (1, (0.5, 3.0))],
                             ids=["workload", "small"])
    def test_paired_draws_follow_the_law(self, n, rates):
        """10^6 paired draws: the first column is Skellam(n p+, n p-) and the
        partner's column is 0."""
        block, prob, weights = self.pair(rates)
        tables = _kernels.count_tables(block, prob, n, "poisson", weights)
        assert tables[1] is _kernels.PAIRED
        counts = _kernels.draw_counts(np.random.default_rng(2027), 10**6, block, prob, n,
                                      "poisson", tables)
        assert (counts[:, 1] == 0).all()
        TestInvertedDraws.check_draws(counts[:, 0], scipy.stats.skellam(n * prob[0], n * prob[1]))

    @pytest.mark.parametrize("rates, weights", [
        ((3e4, 3e4), ((1.0, 0.0), (-1.0, 0.0))),
        ((2e5, 10.0), ((0.0, 1.0), (0.0, -1.0))),
        ((799.375, 3197.5), ((0.5, 0.0), (-np.nextafter(0.5, 1.0), 0.0))),
    ], ids=["difference-past-cap", "group-past-cap", "perturbed-weight"])
    def test_unpaired_groups_keep_their_draws(self, rates, weights):
        """A pair whose difference table would pass the cap, and weights
        that are not exact negatives, draw each group as without weights,
        bit for bit: its own inverted count, or numpy's past the cap."""
        block, prob, weights = self.pair(rates, weights)
        tables = _kernels.count_tables(block, prob, 1, "poisson", weights)
        alone = _kernels.count_tables(block, prob, 1, "poisson")
        assert _kernels.PAIRED not in tables
        for table, want, rate in zip(tables, alone, rates):
            lo, hi = _kernels.table_span(1, rate, True)
            assert (table is None) == (want is None) == (hi - lo >= _kernels.TABLE_CAP)
            if table is not None:
                assert all(np.array_equal(a, b) for a, b in zip(table, want))
        rng = np.random.default_rng(5)
        want = [rng.poisson(rate, 1000) if table is None else _kernels._invert(rng, 1000, table)
                for rate, table in zip(rates, alone)]
        drawn = _kernels.draw_counts(np.random.default_rng(5), 1000, block, prob, 1, "poisson",
                                     tables)
        np.testing.assert_array_equal(drawn, np.transpose(want))


class TestSplitDraws:
    """The two opposite-weight groups of a multinomial setting, drawn as
    the difference of two independent binomial counts, and the rules that
    leave every other setting to the chain."""

    @pytest.mark.parametrize("probs", [
        (1e-9, 1e-9), (1e-9, 0.3), (0.3, 1e-9), (1e-9, 0.9), (0.0625, 0.25), (0.25, 0.0625),
        (0.1, 0.45), (0.2, 0.3), (0.25, 0.25), (0.0625, 0.5625), (0.5625, 0.0625),
    ])
    def test_split_identities(self, probs):
        """``alpha (1 - delta) = p_g`` and ``delta (1 - alpha) = p_h``
        within 4 ulp, evaluated exactly; the last three lie on the boundary
        ``r = 2 sqrt(p_g p_h)``, which float64 holds exactly there."""
        p_g, p_h = probs
        alpha, delta = map(Fraction, _kernels.split_pair(p_g, p_h))
        assert 0 < alpha < 1 and 0 < delta < 1
        for got, p in ((alpha * (1 - delta), p_g), (delta * (1 - alpha), p_h)):
            assert abs(got - Fraction(p)) <= 4 * Fraction(float(np.spacing(p)))

    @pytest.mark.parametrize("probs", [(0.25, 0.5), (0.25, np.nextafter(0.25, 1.0)), (0.5, 0.5)],
                             ids=["below", "past-boundary", "no-bucket"])
    def test_no_split_below_the_boundary(self, probs):
        assert _kernels.split_pair(*probs) is None

    def test_split_groups(self):
        """At g = pi/4 every drawn setting of the reference scenario holds
        two opposite-weight groups, and each splits: its first group gets the
        difference table of the binomials of alpha and delta, its second
        ``PAIRED``."""
        cells, w_re, w_im = TestTrialKernel.kernel_inputs(point_x_scenario())
        block, prob, weights = _kernels.group_cells(cells[None], w_re, w_im, "multinomial")[0]
        tables = _kernels.count_tables(block, prob, N_REF, "multinomial", weights)
        settings = np.unique(block)
        assert settings.size == 6 and (np.bincount(block)[settings] == 2).all()
        for b in settings:
            g, h = np.flatnonzero(block == b)
            assert (weights[h] == -weights[g]).all() and tables[h] is _kernels.PAIRED
            want = _kernels.difference_table(N_REF, *_kernels.split_pair(prob[g], prob[h]), False)
            assert all(np.array_equal(a, b) for a, b in zip(tables[g], want))

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_equal_laws_share_a_table(self, statistics):
        """One kernel call builds one table per distinct law: at g = pi/4
        the reference scenario's 4 Poisson pairs have 2 distinct rate pairs,
        and its 6 split settings 3 distinct pairs of alpha and delta."""
        cells, w_re, w_im = TestTrialKernel.kernel_inputs(point_x_scenario())
        block, prob, weights = _kernels.group_cells(cells[None], w_re, w_im, statistics)[0]
        tables = _kernels.count_tables(block, prob, N_REF, statistics, weights)
        drawn = [t for t in tables if t is not _kernels.PAIRED]
        if statistics == "poisson":
            laws = {(prob[g], prob[h]) for g, h in _kernels.opposite_pairs(weights).items()}
        else:
            laws = {_kernels.split_pair(prob[g], prob[g + 1]) for g in range(0, prob.size, 2)}
        assert len({id(t) for t in drawn}) == len(laws) == (2 if statistics == "poisson" else 3)

    @staticmethod
    def difference_law(n, p_g, p_h):
        """The exact law of ``N_g - N_h`` under ``Multinomial(n; p_g, p_h,
        r)``, as ``P(N_g) Bin(N_h; n - N_g, p_h / (1 - p_g))`` summed over
        the counts within 15 sd of each mean."""
        def span(p):
            mean, reach = n * p, 15 * np.sqrt(n * p * (1 - p)) + 15
            return np.arange(max(0, int(mean - reach)), min(n, int(mean + reach)) + 1)

        n_g, n_h = span(p_g)[:, None], span(p_h)[None, :]
        joint = (scipy.stats.binom.pmf(n_g, n, p_g)
                 * scipy.stats.binom.pmf(n_h, n - n_g, p_h / (1 - p_g)))
        diff = (n_g - n_h).ravel()
        pmf = np.bincount(diff - diff.min(), weights=joint.ravel())
        return scipy.stats.rv_discrete(values=(np.arange(pmf.size) + diff.min(), pmf / pmf.sum()))

    @pytest.mark.parametrize("n, probs", [(N_REF, (0.0625, 0.25)), (N_REF, (0.125, 0.125)),
                                          (7, (0.2, 0.3))], ids=["workload", "equal", "small"])
    def test_split_draws_follow_the_law(self, n, probs):
        """10^6 split draws: the first column has the law of ``N_g - N_h``
        of the multinomial, its moments within 5 SE, and the partner's
        column is 0."""
        block, prob = np.zeros(2, dtype=np.intp), np.array(probs)
        weights = np.array([(0.5, 0.0), (-0.5, 0.0)])
        tables = _kernels.count_tables(block, prob, n, "multinomial", weights)
        want = _kernels.difference_table(n, *_kernels.split_pair(*probs), False)
        assert all(np.array_equal(a, b) for a, b in zip(tables[0], want))
        assert tables[1] is _kernels.PAIRED
        counts = _kernels.draw_counts(np.random.default_rng(2029), 10**6, block, prob, n,
                                      "multinomial", tables)
        assert (counts[:, 1] == 0).all()
        law = self.difference_law(n, *probs)
        p_g, p_h = probs
        assert law.mean() == pytest.approx(n * (p_g - p_h), abs=1e-9 * n)
        assert law.var() == pytest.approx(n * (p_g + p_h - (p_g - p_h) ** 2), rel=1e-9)
        TestInvertedDraws.check_draws(counts[:, 0], law)

    @pytest.mark.parametrize("n, probs, weights", [
        (N_REF, (0.25, 0.5), ((0.5, 0.0), (-0.5, 0.0))),
        (N_REF, (0.1, 0.2, 0.3), ((0.5, 0.0), (-0.5, 0.0), (0.0, 0.5))),
        (N_REF, (0.0625, 0.25), ((0.5, 0.0), (-np.nextafter(0.5, 1.0), 0.0))),
        (10**6, (1e-4, 0.3), ((0.0, 0.5), (0.0, -0.5))),
        (10**5, (0.25, 0.25), ((0.0, 0.5), (0.0, -0.5))),
    ], ids=["below-boundary", "three-groups", "perturbed-weight", "table-past-cap",
            "difference-past-cap"])
    def test_unsplit_settings_keep_the_chain(self, n, probs, weights):
        """A setting that cannot split, draws other than two groups, has
        weights that are not exact negatives, or whose difference table
        would pass the cap (its delta table does in one case, neither
        binomial table does in the other) keeps the tables it has without
        weights and the chain, bit for bit."""
        block, prob, weights = np.zeros(len(probs), dtype=np.intp), np.array(probs), np.array(weights)
        tables = _kernels.count_tables(block, prob, n, "multinomial", weights)
        alone = _kernels.count_tables(block, prob, n, "multinomial")
        assert _kernels.PAIRED not in tables and tables[0] is not None
        for table, want in zip(tables, alone):
            assert (table is None) == (want is None)
            if table is not None:
                assert all(np.array_equal(a, b) for a, b in zip(table, want))
        rng = np.random.default_rng(5)
        left, rest, want = n, 1.0, []
        for p, table in zip(probs, alone):
            drawn = (rng.binomial(left, p / rest, 1000) if table is None
                     else _kernels._invert(rng, 1000, table))
            want.append(drawn)
            left, rest = left - drawn, rest - p
        drawn = _kernels.draw_counts(np.random.default_rng(5), 1000, block, prob, n,
                                     "multinomial", tables)
        np.testing.assert_array_equal(drawn, np.transpose(want))


def reference_sweep(axis, grid, trials, shot, **fixed):
    """``variance_sweep`` as one inline pipeline per grid point: the scenario
    from the axis value and every fixed value, given explicitly, then exact
    tables, error-transfer variance and the trial kernel, without
    ``SweepSpec`` or ``run_trials``."""
    seeds = np.random.SeedSequence(shot.seed).generate_state(len(grid))
    n, stats = shot.n_per_setting, shot.statistics
    rows = []
    for value, seed in zip(grid, seeds):
        if axis in ("g", "theta"):
            point = dict(fixed, **{axis: value})
            elem = make_parametric_element(point["theta"], point["eta"], point["e01"])
            scn = EntryScenario(elem, 1, 0, point["g"], scale=point["eta"])
        else:
            noise = apply_dephasing if axis == "xi" else apply_phase_rotation
            j, k = fixed["j"], fixed["k"]
            noisy = noise(fixed["povm"], value, j, k)
            scn = EntryScenario(noisy.element(fixed["label"]), j, k, fixed["g"])
        tables = exact_entry_tables(scn.pi_l, scn.j, scn.k, CouplingConfig.symmetric(scn.g))
        coeffs = scn.coeffs()
        vr, vi = error_transfer_variance(tables, coeffs, n, stats)
        row = {
            "axis_value": float(value), "var_analytic": _analytic_for(scn, n),
            "var_transfer": vr / scn.scale**2 + vi / scn.scale**2, "var_empirical": float("nan"),
            "mean_re": float("nan"), "mean_im": float("nan"),
            "trials": trials, "seed": int(seed),
        }
        if trials > 0:
            mean, var = one_outcome(
                nonnegative_cells(tables).reshape(9, 4), coeffs.cell_re / scn.scale,
                coeffs.cell_im / scn.scale, n, trials, int(seed), stats,
            )
            row["var_empirical"] = float(var[0]) + float(var[1])
            row["mean_re"], row["mean_im"] = float(mean[0]), float(mean[1])
        rows.append(row)
    return rows


class TestVarianceSweep:
    @pytest.mark.parametrize("trials", [0, 1, 300, 8193])
    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    @pytest.mark.parametrize("axis", ["g", "theta", "xi", "phi"])
    def test_rows_equal_the_reference_loop(self, sic, axis, statistics, trials):
        """Every axis, with trials past one chunk and a one-trial last chunk."""
        shot = ShotModel(N_REF, statistics, seed=29)
        noise = dict(povm=sic, label=3, j=1, k=0, g=np.pi / 8)
        grid, fixed = {
            "g": ((np.pi / 16, np.pi / 4, 3 * np.pi / 8),
                  dict(theta=THETA_SIC, eta=0.5, e01=0.1 + 0.05j)),
            "theta": ((0.3, THETA_SIC, 1.2), dict(g=np.pi / 8, eta=0.7, e01=0.1j)),
            "xi": ((1.0, 0.4, 0.0), noise),
            "phi": ((0.0, 0.8, np.pi), noise),
        }[axis]
        rows = variance_sweep(SweepSpec(axis, grid, trials, shot, **fixed))
        # repr tells every float bit apart and makes NaN equal to NaN
        assert repr(rows) == repr(reference_sweep(axis, grid, trials, shot, **fixed))

    #: Standard scores that the variance-ratio gate allows.
    GATE_Z = 4.0

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    @pytest.mark.parametrize("axis, grid, fixed", [
        ("xi", (1.0, 0.6, 0.2), dict(povm=random_povm(2, 3, seed=4), label=2, j=1, k=0)),
        ("theta", tuple(np.pi * np.array([0.05, 0.1, 0.3, 0.45])),
         dict(g=0.2 * np.pi, eta=0.7, e01=0.1j)),
    ], ids=["xi", "theta"])
    def test_sampled_variance_matches_the_transfer(self, axis, grid, fixed, statistics):
        """Over 20000 trials the sampled variance of every row is the
        error-transfer variance within GATE_Z standard errors of a sample
        variance, ``sqrt(2 / (trials - 1))`` relative.  These are the noise
        and theta sweeps of the core-count artifacts, where the multinomial
        variance is 0.877-0.995 of the Poisson one, so a multinomial
        correction of the wrong sign moves the ratio by up to about 25 %;
        a g sweep at theta = 0 has a ratio of exactly 1 and could not tell."""
        trials = 20000
        rows = variance_sweep(SweepSpec(axis, grid, trials, ShotModel(N_REF, statistics, seed=3),
                                        **fixed))
        bound = self.GATE_Z * np.sqrt(2 / (trials - 1))
        for row in rows:
            assert abs(row["var_empirical"] / row["var_transfer"] - 1) <= bound, row

    @pytest.mark.parametrize("axis, povm, label", [
        ("xi", random_povm(3, 3, seed=4), 2),   # d = 3: the law is for a qubit
        ("phi", Povm([np.eye(2)]), 1),          # trace 2: no efficiency in (0, 1]
    ])
    def test_analytic_law_is_nan_off_its_domain(self, axis, povm, label):
        spec = SweepSpec(axis, (1.0, 0.9), 0, ShotModel(N_REF, "poisson", seed=5),
                         povm=povm, label=label)
        rows = variance_sweep(spec)
        assert all(np.isnan(r["var_analytic"]) for r in rows)
        assert all(np.isfinite(r["var_transfer"]) and r["var_transfer"] > 0 for r in rows)

    def test_dead_outcome_refused(self):
        spec = SweepSpec("xi", (1.0, 0.5), 10, ShotModel(1000),
                         povm=Povm([np.zeros((2, 2)), np.eye(2)]), label=1)
        with pytest.raises(DeadPostSelectionError, match=r"entry \(1, 0\)"):
            variance_sweep(spec)

    def test_g_grid_minimum_at_strong_coupling(self):
        """On the four-point grid the theta_sic curve bottoms out at pi/4."""
        spec = SweepSpec(
            axis="g",
            grid=(np.pi / 16, np.pi / 8, np.pi / 4, 3 * np.pi / 8),
            trials=0,
            shot=ShotModel(N_REF, "poisson", seed=0),
            theta=THETA_SIC,
            eta=0.5,
        )
        rows = variance_sweep(spec)
        transfer = [r["var_transfer"] for r in rows]
        assert int(np.argmin(transfer)) == 2
        analytic = [r["var_analytic"] for r in rows]
        np.testing.assert_allclose(transfer, analytic, rtol=1e-9)

    def test_theta_grid_strong_coupling_law(self):
        thetas = (0.0, np.pi / 4, THETA_SIC, np.pi)
        spec = SweepSpec(
            axis="theta", grid=thetas, trials=0,
            shot=ShotModel(N_REF, "poisson", seed=0), g=np.pi / 4, eta=0.5,
        )
        rows = variance_sweep(spec)
        for theta, row in zip(thetas, rows):
            want = (1 + 2 * np.sin(theta) ** 2) / (0.5 * N_REF)
            assert abs(row["var_transfer"] - want) / want < 1e-9
            assert np.isfinite(row["var_transfer"])

    def test_xi_grid_constant_variance(self, sic):
        spec = SweepSpec(
            axis="xi", grid=(1.0, 0.7, 0.3, 0.0), trials=0,
            shot=ShotModel(N_REF, "poisson", seed=0),
            povm=sic, label=2, j=1, k=0, g=np.pi / 4,
        )
        rows = variance_sweep(spec)
        vals = [r["var_transfer"] for r in rows]
        assert max(vals) - min(vals) < 1e-12

    def test_empirical_column_and_determinism(self):
        spec = SweepSpec(
            axis="theta", grid=(0.0, 0.9), trials=400,
            shot=ShotModel(N_REF, "poisson", seed=3), g=np.pi / 4, eta=0.5,
        )
        rows1 = variance_sweep(spec)
        rows2 = variance_sweep(spec)
        assert rows1 == rows2
        for r in rows1:
            assert abs(r["var_empirical"] - r["var_transfer"]) / r["var_transfer"] < 0.3

    def test_validation(self):
        shot = ShotModel(10, "poisson", seed=0)
        with pytest.raises(ValueError, match="axis"):
            SweepSpec(axis="q", grid=(0.1,), trials=0, shot=shot)
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(axis="g", grid=(), trials=0, shot=shot)
        with pytest.raises(ValueError, match="strictly inside"):
            SweepSpec(axis="g", grid=(0.0, 0.3), trials=0, shot=shot)
        with pytest.raises(ValueError, match="povm"):
            SweepSpec(axis="xi", grid=(1.0,), trials=0, shot=shot)


class TestConvergence:
    def test_error_scales_as_inverse_sqrt_n(self):
        """Sample variance slope vs n is -1 (std slope -1/2) on log-log."""
        scn = point_x_scenario()
        ns = [1000, 10000, 100000, 1000000]
        variances = []
        for i, n in enumerate(ns):
            s = run_trials(scn, ShotModel(n, "poisson", seed=100 + i), 600)
            variances.append(s.sample_var_re + s.sample_var_im)
        slope = np.polyfit(np.log(ns), np.log(variances), 1)[0]
        assert abs(slope + 1.0) < 0.2


class TestRefinementTrials:
    def test_refined_below_raw(self, sic):
        study = refinement_trials(
            sic, 1, 0, np.pi / 4, ShotModel(N_REF, "poisson", seed=17), trials=3000
        )
        for lab in study.labels:
            raw_tot = sum(study.raw_sample_var[lab])
            ref_tot = sum(study.refined_sample_var[lab])
            assert ref_tot < raw_tot
            pred_ratio = study.refined[lab].total_variance / study.raw[lab].total_variance
            assert abs(ref_tot / raw_tot - pred_ratio) < 0.1

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_refined_sample_variance_is_the_per_trial_one(self, statistics):
        """The refined sample variances are those of refining every trial,
        drawn chunk by chunk outside the kernel, with the weights fixed at
        the predicted variances, within 1e-12 relative; the raw ones are
        numpy's var(ddof=1) of the same draws."""
        povm, j, k, g = random_povm(2, 4, seed=14), 1, 0, 0.6
        shot = ShotModel(3000, statistics, seed=23)
        trials = 2 * _kernels.CHUNK_TRIALS + 7
        study = refinement_trials(povm, j, k, g, shot, trials)
        coeffs = rt_coefficients(2, g)
        cells, var_re, var_im = montecarlo.exact_slot(povm.elements, j, k, coeffs, 3000, str,
                                                      statistics)
        seeds = np.random.SeedSequence(shot.seed).generate_state(len(povm)).tolist()
        est = np.stack([
            np.concatenate([TestTrialKernel.direct_chunk(
                one, coeffs.cell_re, coeffs.cell_im, 3000, trials, seed, statistics, c)
                for c in range(3)], axis=1)
            for one, seed in zip(cells.flat.reshape(-1, 9, 4), seeds)], axis=1)
        # each trial's (re, im) column x refined to x_l - (v_l / sum v) sum_u x_u
        predicted = np.stack([var_re, var_im])[..., None]
        wc = predicted / predicted.sum(axis=1, keepdims=True)
        refined = est - wc * est.sum(axis=1, keepdims=True)
        for want, got in [(est, study.raw_sample_var), (refined, study.refined_sample_var)]:
            np.testing.assert_allclose([got[lab] for lab in study.labels],
                                       want.var(axis=-1, ddof=1).T, rtol=1e-12, atol=0)

    def test_clips_the_stack_once(self, monkeypatch):
        """The variance and every outcome's trials share one clip of the
        exact tables: one real nonnegative_cells call for six outcomes."""
        real = estimator.nonnegative_cells
        clipped = []

        def counting(tables):
            if not isinstance(tables, estimator._ClippedCells):
                clipped.append(np.shape(tables))
            return real(tables)

        monkeypatch.setattr(estimator, "nonnegative_cells", counting)
        monkeypatch.setattr(montecarlo, "nonnegative_cells", counting)
        refinement_trials(random_povm(3, 6, seed=8), 0, 2, 0.7, ShotModel(1000, seed=4), 50)
        assert clipped == [(6, 9, 2, 2)]

    def test_dead_outcome_refused(self):
        zero_and_identity = Povm([np.zeros((2, 2)), np.eye(2)])
        with pytest.raises(DeadPostSelectionError, match="outcome 1"):
            refinement_trials(zero_and_identity, 1, 0, np.pi / 4, ShotModel(1000), trials=10)

    def test_diagonal_entry_refused(self, sic):
        with pytest.raises(ValueError, match="j != k"):
            refinement_trials(sic, 1, 1, np.pi / 4, ShotModel(1000), trials=10)

    def test_truths_never_read_negative_zero(self, sic):
        """The exact rows hold the true entries with +0.0 for a signed zero,
        as the entry oracle does."""
        povm = apply_phase_rotation(sic, 0.8 * np.pi, 1, 0)
        assert np.signbit(povm.elements[:, 1, 0].imag[povm.elements[:, 1, 0] == 0]).any()
        study = refinement_trials(povm, 1, 0, 0.6, ShotModel(1000), 0)
        values = [study.raw[lab].value for lab in study.labels]
        assert 0.0 in [part for v in values for part in (v.real, v.imag)]
        assert not any(np.signbit(part) for v in values for part in (v.real, v.imag) if part == 0)

    def test_deterministic(self, sic):
        shot = ShotModel(1000, "poisson", seed=2)
        a = refinement_trials(sic, 1, 0, np.pi / 4, shot, trials=200)
        b = refinement_trials(sic, 1, 0, np.pi / 4, shot, trials=200)
        assert a.raw_sample_var == b.raw_sample_var
        assert a.refined_sample_var == b.refined_sample_var


@pytest.mark.parametrize("call, message", [
    (lambda: _kernels.trial_estimates(np.full((1, 9, 4), 0.01), np.ones(36), np.ones(36), 100,
                                      10, [1, 2]),
     "2 seeds for 1 outcomes"),
    (lambda: EntryScenario(np.eye(2) / 2, 1, 1, 0.6),
     "entry scenarios target off-diagonal entries; need j != k"),
    (lambda: EntryScenario(np.eye(2) / 2, 1, 0, 0.0),
     "coupling strength g=0.0 must lie strictly inside (0, pi/2)"),
    (lambda: ShotModel(100.5), "n_per_setting must be an integer >= 1, got 100.5"),
    (lambda: ShotModel(True), "n_per_setting must be an integer >= 1, got True"),
    (lambda: ShotModel(100, seed=-1), "seed must be an integer >= 0, got -1"),
    (lambda: ShotModel(100, seed=1.5), "seed must be an integer >= 0, got 1.5"),
    (lambda: SweepSpec("g", (0.5,), -1, ShotModel(100)), "trials must be an integer >= 0, got -1"),
    (lambda: SweepSpec("g", (0.5,), 2.5, ShotModel(100)),
     "trials must be an integer >= 0, got 2.5"),
    (lambda: SweepSpec("theta", (0.0, 0.9), 10, ShotModel(100), j=0, k=1, label=7),
     "axis 'theta' sweeps take g, eta, e01; got j, k, label"),
    (lambda: SweepSpec("g", (0.5,), 10, ShotModel(100), povm=random_povm(2, 3, seed=4)),
     "axis 'g' sweeps take theta, eta, e01; got povm"),
    (lambda: SweepSpec("xi", (1.0, 0.5), 10, ShotModel(100), povm=random_povm(2, 3, seed=4),
                       eta=0.3, theta=0.2),
     "axis 'xi' sweeps take povm, label, j, k, g; got eta, theta"),
    (lambda: SweepSpec("phi", (0.0, 0.5), 10, ShotModel(100), povm=random_povm(2, 3, seed=4),
                       e01=0.1j),
     "axis 'phi' sweeps take povm, label, j, k, g; got e01"),
    (lambda: SweepSpec("g", (0.5,), 0, ShotModel(100), g=0.1),
     "axis 'g' sweeps take theta, eta, e01; got g"),
    (lambda: SweepSpec("theta", (0.5,), 0, ShotModel(100), theta=0.4),
     "axis 'theta' sweeps take g, eta, e01; got theta"),
    (lambda: SweepSpec("phi", (0.0, 0.7), 10, ShotModel(100), povm=random_povm(3, 3, seed=4)),
     "phase rotation by phi=0.7 of slot (1, 0): element 2 is not positive semidefinite "
     "within 1e-09"),
], ids=["kernel-seeds", "scenario-diagonal", "scenario-g", "shot-n-fraction", "shot-n-bool",
        "shot-seed-negative", "shot-seed-fraction", "sweep-trials", "sweep-trials-fraction",
        "theta-sweep-entry", "g-sweep-povm", "xi-sweep-element", "phi-sweep-e01",
        "g-sweep-fixed-g", "theta-sweep-fixed-theta", "phi-sweep-non-positive"])
def test_refusals_keep_their_messages(call, message):
    """Each refusal of the studies keeps its message.  A sweep refuses a
    keyword that its axis does not take, its own swept parameter included:
    the g and theta sweeps read entry (1, 0) of the qubit element, the xi
    and phi sweeps an element of their POVM.  A sweep that breaks the model
    is refused on construction, by the code that builds its scenarios."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
