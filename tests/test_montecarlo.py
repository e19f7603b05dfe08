"""Shot-noise sampling, repeated trials, sweeps and backends."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from povmdt import (
    CouplingConfig,
    DeadPostSelectionError,
    EntryScenario,
    Povm,
    ShotModel,
    SweepSpec,
    apply_dephasing,
    exact_entry_tables,
    make_parametric_element,
    random_povm,
    refinement_trials,
    rt_coefficients,
    run_trials,
    sample_counts,
    variance_sweep,
)
from povmdt import _kernels, estimator, montecarlo
from povmdt.estimator import _clip_once, error_transfer_variance, nonnegative_cells
from povmdt.montecarlo import _analytic_for
from povmdt.protocol import SETTINGS

THETA_SIC = np.arccos(1 / np.sqrt(3))
N_REF = 12790


def point_x_scenario():
    """Reference scenario: theta=0, eta=1/2, g=pi/4, normalized entry."""
    elem = make_parametric_element(0.0, 0.5, 0.0)
    return EntryScenario(elem, 1, 0, np.pi / 4, scale=0.5)


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
    def test_stack_equals_single_outcome_calls(self, statistics):
        """Given one seed per outcome, the draw of an (L, 9, 2, 2) stack is
        the L single-outcome draws bit for bit, also from cells clipped once
        for the sampler and the variance together."""
        povm = random_povm(3, 5, seed=21)
        tables = exact_entry_tables(povm.elements, 0, 2, CouplingConfig.symmetric(0.7))
        seeds = [11, 2**32 - 1, 0, 12345, 99]
        shot = ShotModel(4000, statistics, seed=5)
        stacked = sample_counts(tables, shot, seeds)
        assert stacked.shape == (5, 9, 2, 2)
        for one, seed, got in zip(tables, seeds, stacked):
            np.testing.assert_array_equal(got, sample_counts(one, replace(shot, seed=seed)))
        cells = _clip_once(tables)
        np.testing.assert_array_equal(sample_counts(cells, shot, seeds), stacked)
        coeffs = rt_coefficients(3, 0.7)
        for shared, own in zip(error_transfer_variance(cells, coeffs, 4000),
                               error_transfer_variance(tables, coeffs, 4000)):
            np.testing.assert_array_equal(shared, own)
        with pytest.raises(ValueError, match="2 seeds for 5 outcomes"):
            sample_counts(tables, shot, seeds[:2])

    def test_multinomial_stack_names_outcome_and_setting(self, sic):
        """A setting whose cells sum above 1 is named by outcome and setting,
        not by its row in the flattened stack."""
        tables = exact_entry_tables(sic.elements, 1, 0, CouplingConfig.symmetric(np.pi / 4))
        tables[2, 4] += 0.5
        with pytest.raises(ValueError, match=r"^outcome 2, setting 4 cells sum to"):
            sample_counts(tables, ShotModel(1000, "multinomial"), [1, 2, 3, 4])
        with pytest.raises(ValueError, match=r"^setting 4 cells sum to"):
            sample_counts(tables[2], ShotModel(1000, "multinomial"))

    def test_multinomial_accepts_rounding_excess(self, sic_tables):
        """A setting summing to 1 + 5e-10, within the rounding tolerance, is
        drawn by both samplers."""
        tables = sic_tables.copy()
        tables[4] *= (1 + 5e-10) / tables[4].sum()
        counts = sample_counts(tables, ShotModel(1000, "multinomial", seed=1)) * 1000
        assert counts[4].sum() <= 1000
        coeffs = rt_coefficients(2, np.pi / 4)
        re, im = _kernels.trial_estimates(
            tables.reshape(9, 4), coeffs.cell_re, coeffs.cell_im, 1000, 10, 1, "multinomial"
        )
        assert re.shape == im.shape == (10,)

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

    def test_multinomial_statistics_agree(self):
        scn = point_x_scenario()
        s = run_trials(scn, ShotModel(N_REF, "multinomial", seed=8), 4000)
        sample_total = s.sample_var_re + s.sample_var_im
        assert abs(sample_total - s.predicted_var) / s.predicted_var < 0.1

    def test_multinomial_statistics_agree_d3(self, small_random_povm):
        scn = EntryScenario(small_random_povm.element(small_random_povm.labels[0]), 2, 0,
                            np.pi / 4)
        trials = 20000
        s = run_trials(scn, ShotModel(N_REF, "multinomial", seed=8), trials)
        sample_total = s.sample_var_re + s.sample_var_im
        assert abs(sample_total - s.predicted_var) / s.predicted_var < 0.1
        truth = scn.exact_value()
        assert abs(s.mean.real - truth.real) < 4 * np.sqrt(s.sample_var_re / trials)
        assert abs(s.mean.imag - truth.imag) < 4 * np.sqrt(s.sample_var_im / trials)

    def test_zero_trials_give_nan_statistics(self):
        scn = point_x_scenario()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = run_trials(scn, ShotModel(N_REF, "poisson", seed=1), 0)
        assert np.isnan(s.mean.real) and np.isnan(s.mean.imag)
        assert np.isnan(s.sample_var_re) and np.isnan(s.sample_var_im)
        assert s.trials == 0
        tables = exact_entry_tables(scn.pi_l, scn.j, scn.k, CouplingConfig.symmetric(scn.g))
        vr, vi = error_transfer_variance(tables, scn.coeffs(), N_REF, scn.scale)
        assert s.predicted_var == vr + vi

    def test_negative_trials_refused(self):
        with pytest.raises(ValueError, match="trials"):
            run_trials(point_x_scenario(), ShotModel(N_REF), -1)

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
                block, prob, weights = _kernels.group_cells(cells, w_re, w_im, "poisson")
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

                block, prob, weights = _kernels.group_cells(cells, w_re, w_im, "multinomial")
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
        block, prob, weights = _kernels.group_cells(cells, w_re, w_im, "poisson")
        assert (prob > 0).all() and weights.any(axis=1).all()
        assert len(prob) == 8

    def test_multinomial_refuses_setting_sum_above_one(self):
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        cells[4] += 0.5
        with pytest.raises(ValueError, match="setting 4"):
            _kernels.trial_estimates(cells, w_re, w_im, N_REF, 10, 1, "multinomial")
        # a total above 1 by rounding only is accepted
        cells[4] *= (1 + 1e-12) / cells[4].sum()
        re, im = _kernels.trial_estimates(cells, w_re, w_im, N_REF, 10, 1, "multinomial")
        assert re.shape == im.shape == (10,)

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_chunks_share_one_stream(self, statistics):
        """A longer run extends a shorter one across a chunk boundary, and
        the next chunk continues the stream instead of repeating it."""
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        chunk = _kernels.CHUNK_TRIALS
        short = _kernels.trial_estimates(cells, w_re, w_im, 2000, chunk, 9, statistics)
        long = _kernels.trial_estimates(cells, w_re, w_im, 2000, chunk + 3, 9, statistics)
        for a, b in zip(short, long):
            assert b.shape == (chunk + 3,)
            np.testing.assert_array_equal(a, b[:chunk])
            assert not np.array_equal(b[chunk:], b[:3])

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_output_independent_of_thread_count(self, statistics, monkeypatch):
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        trials = 3 * _kernels.CHUNK_TRIALS + 5
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_kernels, "WORKERS", workers)
            runs.append(_kernels.trial_estimates(cells, w_re, w_im, 2000, trials, 11, statistics))
        for re, im in runs[1:]:
            np.testing.assert_array_equal(re, runs[0][0])
            np.testing.assert_array_equal(im, runs[0][1])

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_chunk_stream_layout(self, statistics):
        """Chunk c draws from the c-th spawned child of SeedSequence(seed)."""
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        chunk, n, seed = _kernels.CHUNK_TRIALS, 2000, 17
        re, im = _kernels.trial_estimates(cells, w_re, w_im, n, 2 * chunk + 7, seed, statistics)
        block, prob, weights = _kernels.group_cells(cells, w_re, w_im, statistics)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        direct = _kernels.draw_counts(rng, chunk, block, prob, n, statistics) @ weights / n
        np.testing.assert_array_equal(re[chunk : 2 * chunk], direct[:, 0])
        np.testing.assert_array_equal(im[chunk : 2 * chunk], direct[:, 1])

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_one_trial_is_the_column_draw(self, sic_tables, statistics):
        """One trial, drawn in one call per row, is the group-by-group draw
        of many trials cut to one: scalar Poisson draws, or per setting the
        chain of conditional binomials, from the same stream."""
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
                                         statistics)
            assert drawn.shape == (1, 36)
            assert (drawn[0] == np.array(explicit, dtype=float)).all()

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
                                      "multinomial")
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
            np.random.default_rng(8), trials, block, prob, n, "multinomial"
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
        arrays of its own call, whatever the number of threads."""
        povm = random_povm(2, 5, seed=33)
        tables = exact_entry_tables(povm.elements, 1, 0, CouplingConfig.symmetric(0.6))
        cells = nonnegative_cells(tables).reshape(5, 9, 4)
        coeffs = rt_coefficients(2, 0.6)
        seeds = [4, 2**32 - 1, 0, 71, 9]
        trials = 2 * _kernels.CHUNK_TRIALS + 5
        args = (coeffs.cell_re, coeffs.cell_im, 3000, trials)
        for workers in (1, 2, 3):
            monkeypatch.setattr(_kernels, "WORKERS", workers)
            re, im = _kernels.trial_estimates(cells, *args, seeds, statistics)
            assert re.shape == im.shape == (5, trials)
            for l, seed in enumerate(seeds):
                one_re, one_im = _kernels.trial_estimates(cells[l], *args, seed, statistics)
                assert (re[l] == one_re).all() and (im[l] == one_im).all()

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_zero_trials(self, statistics):
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        re, im = _kernels.trial_estimates(cells, w_re, w_im, N_REF, 0, 5, statistics)
        assert re.shape == im.shape == (0,)

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_memory_bounded(self, statistics):
        cells, w_re, w_im = self.kernel_inputs(point_x_scenario())
        tracemalloc.start()
        try:
            _kernels.trial_estimates(cells, w_re, w_im, N_REF, 200_000, 3, statistics)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def reference_sweep(spec):
    """``variance_sweep`` as one inline pipeline per grid point: exact tables,
    error-transfer variance and the trial kernel, without ``run_trials``."""
    seeds = np.random.SeedSequence(spec.shot.seed).generate_state(len(spec.grid))
    n, stats = spec.shot.n_per_setting, spec.shot.statistics
    rows = []
    for value, seed in zip(spec.grid, seeds):
        if spec.axis == "g":
            elem = make_parametric_element(spec.theta, spec.eta, spec.e01)
            scn = EntryScenario(elem, 1, 0, value, scale=spec.eta)
        else:
            noisy = apply_dephasing(spec.povm, value, spec.j, spec.k)
            scn = EntryScenario(noisy.element(spec.label), spec.j, spec.k, spec.g)
        tables = exact_entry_tables(scn.pi_l, scn.j, scn.k, CouplingConfig.symmetric(scn.g))
        coeffs = scn.coeffs()
        vr, vi = error_transfer_variance(tables, coeffs, n, scn.scale)
        row = {
            "axis_value": float(value), "var_analytic": _analytic_for(scn, n),
            "var_transfer": vr + vi, "var_empirical": float("nan"),
            "mean_re": float("nan"), "mean_im": float("nan"),
            "trials": spec.trials, "seed": int(seed),
        }
        if spec.trials > 0:
            re, im = _kernels.trial_estimates(
                nonnegative_cells(tables).reshape(9, 4), coeffs.cell_re / scn.scale,
                coeffs.cell_im / scn.scale, n, spec.trials, int(seed), stats,
            )
            row["var_empirical"] = float(re.var(ddof=1)) + float(im.var(ddof=1))
            row["mean_re"], row["mean_im"] = float(re.mean()), float(im.mean())
        rows.append(row)
    return rows


class TestVarianceSweep:
    @pytest.mark.parametrize("trials", [0, 300])
    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    @pytest.mark.parametrize("axis", ["g", "xi"])
    def test_rows_equal_the_reference_loop(self, sic, axis, statistics, trials):
        shot = ShotModel(N_REF, statistics, seed=29)
        if axis == "g":
            spec = SweepSpec("g", (np.pi / 16, np.pi / 4, 3 * np.pi / 8), trials, shot,
                             theta=THETA_SIC, eta=0.5, e01=0.1 + 0.05j)
        else:
            spec = SweepSpec("xi", (1.0, 0.4, 0.0), trials, shot, povm=sic, label=3,
                             g=np.pi / 8)
        # repr tells every float bit apart and makes NaN equal to NaN
        assert repr(variance_sweep(spec)) == repr(reference_sweep(spec))

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

    def test_deterministic(self, sic):
        shot = ShotModel(1000, "poisson", seed=2)
        a = refinement_trials(sic, 1, 0, np.pi / 4, shot, trials=200)
        b = refinement_trials(sic, 1, 0, np.pi / 4, shot, trials=200)
        assert a.raw_sample_var == b.raw_sample_var
        assert a.refined_sample_var == b.refined_sample_var
