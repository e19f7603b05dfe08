"""Entry reconstruction, variance laws and the completeness refinement."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from conftest import KETS, proj

from povmdt import (
    CouplingConfig,
    EntryEstimate,
    ShotModel,
    analytic_variance,
    completeness_refine,
    error_transfer_variance,
    estimate_from_tables,
    exact_entry_tables,
    make_parametric_element,
    matrix_entry_oracle,
    prepare_entry_state,
    random_povm,
    rt_coefficients,
    sample_counts,
)
from povmdt.estimator import nonnegative_cells
from povmdt.linalg import asoperator
from povmdt.protocol import CELL_PROJECTORS, SETTINGS, reduced_meter_operator

N_REF = 12790
THETA_SIC = np.arccos(1 / np.sqrt(3))


def entry_tables(pi, j, k, g):
    return exact_entry_tables(pi, j, k, CouplingConfig.symmetric(g))


def readout_observables(d, g):
    """P and Q in closed form: P = sqrt(d) [gamma |0><0| - beta sigma_x],
    Q = -sqrt(d) beta sigma_y, gamma = 1/(2 cos^2 g), beta = 1/(4 sin g cos g)."""
    gamma = 1 / (2 * np.cos(g) ** 2)
    beta = 1 / (4 * np.sin(g) * np.cos(g))
    p = np.sqrt(d) * np.array([[gamma, -beta], [-beta, 0]], dtype=complex)
    q = -np.sqrt(d) * beta * np.array([[0, -1j], [1j, 0]])
    return p, q


class TestRtCoefficients:
    def test_symmetric_point_weights(self):
        c = rt_coefficients(2, np.pi / 4)
        assert abs(c.alpha - 0.5) < 1e-15
        assert abs(c.beta - 0.5) < 1e-15
        a = [[0.5, -0.5], [-0.5, 0.5]]
        want_re, want_im = np.zeros((2, 9, 2, 2))
        for setting, w in {
            ("z", "z"): [[2, 0], [0, 0]], ("z", "x"): [[-1, 1], [0, 0]],
            ("x", "z"): [[-1, 0], [1, 0]], ("x", "x"): a, ("y", "y"): -np.array(a),
        }.items():
            want_re[SETTINGS.index(setting)] = w
        for setting, w in {
            ("z", "y"): [[-1, 1], [0, 0]], ("y", "z"): [[-1, 0], [1, 0]],
            ("x", "y"): a, ("y", "x"): a,
        }.items():
            want_im[SETTINGS.index(setting)] = w
        np.testing.assert_allclose(c.cell_re, want_re.reshape(36), rtol=0, atol=1e-14)
        np.testing.assert_allclose(c.cell_im, want_im.reshape(36), rtol=0, atol=1e-14)
        assert not c.cell_re.flags.writeable and not c.cell_im.flags.writeable

    @pytest.mark.parametrize("g", [np.pi / 16, np.pi / 8, np.pi / 4, 1.1])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_cell_weights_build_rt(self, d, g):
        """sum_c w_c M_c over the 36 product projectors, written out from the
        meter kets, equals R = P(x)P - Q(x)Q and T = P(x)Q + Q(x)P."""
        c = rt_coefficients(d, g)
        cells = np.array([
            np.kron(proj(KETS[bb][m]), proj(KETS[ba][n]))
            for bb, ba in SETTINGS
            for m in range(2)
            for n in range(2)
        ])
        p, q = readout_observables(d, g)
        r_want = np.kron(p, p) - np.kron(q, q)
        t_want = np.kron(p, q) + np.kron(q, p)
        np.testing.assert_allclose(np.tensordot(c.cell_re, cells, 1), r_want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.tensordot(c.cell_im, cells, 1), t_want, rtol=0, atol=1e-12)

    def test_weights_diverge_at_weak_coupling(self):
        betas = [rt_coefficients(2, g).beta for g in (np.pi / 4, np.pi / 8, np.pi / 16, np.pi / 32)]
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))

    def test_boundary_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            rt_coefficients(2, np.pi / 2)

    @pytest.mark.parametrize("d, g, message", [
        (2, 0.0, "coupling strength g=0.0 must lie strictly inside (0, pi/2)"),
        (2, np.pi / 2, f"coupling strength g={np.pi / 2!r} must lie strictly inside (0, pi/2)"),
        (2, float("nan"), "coupling strength g=nan must lie strictly inside (0, pi/2)"),
        (1, 0.6, "system dimension must be >= 2, got 1"),
        (0, 0.6, "system dimension must be >= 2, got 0"),
        (2.5, 0.6, "system dimension must be an integer, got 2.5"),
        (np.float64(3.5), 0.6, "system dimension must be an integer, got np.float64(3.5)"),
        (float("inf"), 0.6, "system dimension must be an integer, got inf"),
        (True, 0.6, "system dimension must be an integer, got True"),
        (np.True_, 0.6, "system dimension must be an integer, got np.True_"),
        ("3", 0.6, "system dimension must be an integer, got '3'"),
    ], ids=["g-0", "g-pi/2", "g-nan", "d-1", "d-0", "d-2.5", "d-np-3.5", "d-inf", "d-True",
            "d-np-True", "d-str"])
    def test_refusals_keep_their_messages(self, d, g, message):
        """Each refusal raises ValueError with its message, on every call:
        a refused call leaves nothing in the memo."""
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                rt_coefficients(d, g)

    def test_memoized_read_only_plain_types(self):
        """Equal calls return one read-only object, holding int(d) and
        float(g) whatever the types of the first call's keys; an integral
        float d is the memo key of its int."""
        c = rt_coefficients(np.int64(4), np.float64(0.61))
        assert rt_coefficients(4, 0.61) is c
        assert rt_coefficients(4.0, 0.61) is c
        assert type(c.d) is int and type(c.g) is float
        assert (c.d, c.g) == (4, 0.61)
        assert rt_coefficients.cache_info().maxsize is not None
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.g = 0.7
        for weights in (c.cell_re, c.cell_im):
            assert not weights.flags.writeable
            with pytest.raises(ValueError):
                weights[0] = 1.0
        assert rt_coefficients(3.0, 0.61).d == 3
        assert type(rt_coefficients(3.0, 0.61).d) is int


class TestFlatTables:
    def test_flat_round_trip(self, rng):
        """Cell s*4 + 2m + n of the flat cells is W[s, m, n], the order of
        the cell weights."""
        tables = rng.uniform(size=(9, 2, 2))
        flat = nonnegative_cells(tables)
        for s in range(9):
            for m in range(2):
                for n in range(2):
                    assert flat[4 * s + 2 * m + n] == tables[s, m, n]

    def test_missing_setting_rejected(self):
        """Tables of any shape but (9, 2, 2) or an (L, 9, 2, 2) stack, such
        as one that lacks a setting, are refused by every reader, the
        sampler included."""
        coeffs = rt_coefficients(2, np.pi / 4)
        for shape in [(8, 2, 2), (9, 4), (36,), (9, 2, 2, 1), (2, 8, 2, 2), (1, 1, 9, 2, 2)]:
            tables = np.zeros(shape)
            with pytest.raises(ValueError, match=r"shape \(9, 2, 2\)"):
                estimate_from_tables(tables, coeffs)
            with pytest.raises(ValueError, match=r"shape \(9, 2, 2\)"):
                error_transfer_variance(tables, coeffs, 100)
            with pytest.raises(ValueError, match=r"shape \(9, 2, 2\)"):
                sample_counts(tables, ShotModel(100))


class TestStackedEstimates:
    """An (L, 9, 2, 2) stack gives the per-outcome values, bit for bit."""

    def test_stack_equals_per_outcome_calls(self, sic, rng):
        cases = [(sic, 1, 0, np.pi / 4)] + [
            (random_povm(d, outcomes, seed=10 * d + outcomes), d - 1, 0, 0.3 + 0.2 * d)
            for d in (2, 3, 4, 5) for outcomes in (1, 3, 8)
        ]
        for povm, j, k, g in cases:
            coeffs = rt_coefficients(povm.dim, g)
            exact = entry_tables(povm.elements, j, k, g)
            sampled = rng.poisson(np.maximum(exact, 0) * 5000) / 5000
            for tables in (exact, sampled):
                values = estimate_from_tables(tables, coeffs)
                var_re, var_im = error_transfer_variance(tables, coeffs, 5000)
                assert values.shape == var_re.shape == var_im.shape == (len(povm),)
                for i, one in enumerate(tables):
                    assert values[i] == estimate_from_tables(one, coeffs)
                    assert (var_re[i], var_im[i]) == error_transfer_variance(one, coeffs, 5000)

    def test_stack_refuses_a_negative_cell_of_any_outcome(self):
        tables = np.zeros((3, 9, 2, 2))
        tables[2, 4, 1, 0] = -1e-6
        with pytest.raises(ValueError, match="negative probability cell"):
            error_transfer_variance(tables, rt_coefficients(2, 0.5), 100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cells_refused_naming_the_first(self, bad):
        """NaN passes the negative-cell check (min < -1e-9 is False for
        NaN), and +inf passes it too; both are refused, naming the first
        non-finite cell, by every reader that checks cells."""
        coeffs = rt_coefficients(2, 0.5)
        one = np.full((9, 2, 2), 0.25)
        one[4, 1, 0] = bad
        one[6, 0, 0] = np.nan
        stack = np.full((3, 9, 2, 2), 0.25)
        stack[1] = one
        for tables, where in ((one, "cell 18"), (stack, "outcome 1, cell 18")):
            message = f"^non-finite probability cell: {bad} \\({where}\\)$"
            with pytest.raises(ValueError, match=message):
                nonnegative_cells(tables)
            for statistics in ("poisson", "multinomial"):
                with pytest.raises(ValueError, match=message):
                    error_transfer_variance(tables, coeffs, 100, statistics)
            with pytest.raises(ValueError, match=message):
                sample_counts(tables, ShotModel(100, seed=1))

    @pytest.mark.parametrize("cell", [3, 18], ids=["zero-weights", "weighted"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_estimate_refuses_non_finite_cells(self, bad, cell):
        """The estimate refuses a NaN or infinite cell with the message of
        the readers that check cells, for one outcome and for a stack.  It
        tests its own value, which any such cell makes non-finite, even one
        whose weights are both zero (inf * 0 is NaN); numpy may warn about
        that product first."""
        coeffs = rt_coefficients(2, 0.5)
        assert (coeffs.cell_re[cell] == 0 and coeffs.cell_im[cell] == 0) == (cell == 3)
        one = np.full((9, 2, 2), 0.25)
        one.reshape(36)[cell] = bad
        one[6, 0, 0] = np.nan
        stack = np.full((3, 9, 2, 2), 0.25)
        stack[1] = one
        for tables, where in ((one, f"cell {cell}"), (stack, f"outcome 1, cell {cell}")):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(ValueError,
                                   match=f"^non-finite probability cell: {bad} \\({where}\\)$"):
                    estimate_from_tables(tables, coeffs)

    @pytest.mark.parametrize("imag", [0.1, 0.0])
    def test_complex_tables_refused(self, imag):
        """Complex tables are refused, not cast to their real part with a
        ComplexWarning (0.25 + 0.1j tables used to read 0.269 + 0j), even
        when every imaginary part is zero."""
        coeffs = rt_coefficients(2, 0.5)
        for shape in ((9, 2, 2), (2, 9, 2, 2)):
            tables = np.full(shape, 0.25 + imag * 1j)
            for read in (
                lambda: estimate_from_tables(tables, coeffs),
                lambda: error_transfer_variance(tables, coeffs, 100),
                lambda: nonnegative_cells(tables),
                lambda: sample_counts(tables, ShotModel(100, seed=1)),
            ):
                with pytest.raises(ValueError, match="^W tables must be real, got dtype complex128$"):
                    read()


class TestEstimates:
    def test_sic_element_exact(self, sic):
        g = np.pi / 4
        coeffs = rt_coefficients(2, g)
        tables = entry_tables(sic.element(2), 1, 0, g)
        est = estimate_from_tables(tables, coeffs)
        assert abs(est - (-np.sqrt(2) / 6)) < 1e-10

    def test_random_povm_equivalence(self):
        worst = 0.0
        for d, g, seed in [(2, 0.4, 0), (3, np.pi / 4, 1), (4, 1.2, 2)]:
            povm = random_povm(d, d + 2, seed=seed)
            coeffs = rt_coefficients(d, g)
            for lab in povm.labels:
                for j in range(d):
                    for k in range(d):
                        if j == k:
                            continue
                        est = estimate_from_tables(
                            entry_tables(povm.element(lab), j, k, g), coeffs
                        )
                        worst = max(worst, abs(est - matrix_entry_oracle(povm, lab, j, k)))
        assert worst < 1e-9

    def test_zero_tables_give_zero(self):
        coeffs = rt_coefficients(2, 0.7)
        zeros = np.zeros((9, 2, 2))
        assert estimate_from_tables(zeros, coeffs) == 0

    def test_sum_rules_for_complete_povm(self):
        """Exact off-diagonal estimates sum to 0, diagonals to 1."""
        povm = random_povm(3, 4, seed=9)
        coeffs = rt_coefficients(3, 0.6)
        off_total = sum(
            estimate_from_tables(entry_tables(povm.element(lab), 0, 2, 0.6), coeffs)
            for lab in povm.labels
        )
        assert abs(off_total) < 1e-9
        diag_total = sum(matrix_entry_oracle(povm, lab, 1, 1).real for lab in povm.labels)
        assert abs(diag_total - 1.0) < 1e-9


class TestDiagonal:
    """A diagonal entry is read without the meters: with the system
    pre-selected in |a_j> and vanishing coupling, the outcome-l probability
    is <a_j| Pi_l |a_j>."""

    @staticmethod
    def bare_probability(pi, j):
        js = prepare_entry_state(pi.shape[0], j, j, CouplingConfig.symmetric(1e-8))
        return np.trace(reduced_meter_operator(js, pi)).real

    def test_sic_first_element(self, sic):
        assert abs(self.bare_probability(sic.element(1), 0) - 0.5) < 1e-12

    def test_identity(self):
        for d in (2, 3):
            for j in range(d):
                assert abs(self.bare_probability(np.eye(d), j) - 1.0) < 1e-12

    def test_random_matches_oracle(self, small_random_povm):
        for lab in small_random_povm.labels:
            for j in range(3):
                truth = matrix_entry_oracle(small_random_povm, lab, j, j).real
                got = self.bare_probability(small_random_povm.element(lab), j)
                assert abs(got - truth) < 1e-12


class TestErrorTransfer:
    def test_reference_point_value(self):
        """Normalized-entry variance at theta=0, g=pi/4, eta=1/2, N=12790."""
        pi = make_parametric_element(0.0, 0.5, 0.0)
        coeffs = rt_coefficients(2, np.pi / 4)
        vr, vi = error_transfer_variance(entry_tables(pi, 1, 0, np.pi / 4), coeffs, N_REF)
        assert abs((vr + vi) / 0.5**2 * 6395 - 1.0) < 1e-12

    def test_doubling_n_halves_variance(self, sic):
        coeffs = rt_coefficients(2, 0.5)
        tables = entry_tables(sic.element(2), 1, 0, 0.5)
        v1 = sum(error_transfer_variance(tables, coeffs, 1000))
        v2 = sum(error_transfer_variance(tables, coeffs, 2000))
        assert abs(v1 - 2 * v2) < 1e-15

    def test_strictly_positive(self, small_random_povm):
        coeffs = rt_coefficients(3, 0.8)
        for lab in small_random_povm.labels:
            tables = entry_tables(small_random_povm.element(lab), 0, 1, 0.8)
            vr, vi = error_transfer_variance(tables, coeffs, 500)
            assert vr > 0 and vi > 0

    def test_independent_of_offdiagonal_value(self):
        """The predicted variance depends on the diagonal, not on e01."""
        coeffs = rt_coefficients(2, np.pi / 8)
        theta, eta = 0.7, 0.6
        values = []
        for e01 in (0.0, 0.2, 0.2j, 0.15 - 0.2j):
            pi = make_parametric_element(theta, eta, e01)
            values.append(
                sum(error_transfer_variance(entry_tables(pi, 1, 0, np.pi / 8), coeffs, 1000))
            )
        np.testing.assert_allclose(values, values[0], rtol=1e-12)

    def test_multinomial_form_is_the_count_covariance(self, small_random_povm):
        """Under multinomial counts the variance is w^T C w / n^2 with each
        setting's count covariance C = n (diag(p) - p p^T); a stack gives the
        per-outcome values bit for bit, and the Poisson form is never lower."""
        n, g = 3000, 0.7
        coeffs = rt_coefficients(3, g)
        tables = entry_tables(small_random_povm.elements, 2, 0, g)
        stacked = error_transfer_variance(tables, coeffs, n, "multinomial")
        for i, one in enumerate(tables):
            var = error_transfer_variance(one, coeffs, n, "multinomial")
            assert var == (stacked[0][i], stacked[1][i])
            cells = np.maximum(one.reshape(9, 4), 0.0)
            for w, got, poisson in zip(
                (coeffs.cell_re, coeffs.cell_im), var,
                error_transfer_variance(one, coeffs, n),
            ):
                want = sum(
                    ws @ (n * (np.diag(p) - np.outer(p, p))) @ ws
                    for ws, p in zip(w.reshape(9, 4), cells)
                ) / n**2
                assert abs(got - want) <= 1e-12 * want
                assert poisson >= got
        with pytest.raises(ValueError, match="statistics"):
            error_transfer_variance(tables, coeffs, n, statistics="binomial")

    def test_agrees_with_analytic_law_everywhere(self):
        """Normalized transfer variance equals the closed form on a grid."""
        for theta in (0.0, 0.4, THETA_SIC, 2.2, np.pi):
            for g in (np.pi / 16, np.pi / 8, np.pi / 4, 3 * np.pi / 8):
                for eta in (0.3, 0.5, 1.0):
                    pi = make_parametric_element(theta, eta, 0.0)
                    coeffs = rt_coefficients(2, g)
                    vr, vi = error_transfer_variance(entry_tables(pi, 1, 0, g), coeffs, N_REF)
                    want = analytic_variance(theta, g, eta, N_REF)
                    assert abs((vr + vi) / eta**2 - want) / want < 1e-11


class TestAnalyticVariance:
    def test_reference_points(self):
        x = analytic_variance(0.0, np.pi / 4, 0.5, N_REF)
        assert abs(x * 6395 - 1.0) < 1e-15
        y = analytic_variance(THETA_SIC, np.pi / 4, 0.5, N_REF)
        assert abs(y * 6395 / (7 / 3) - 1.0) < 1e-14

    def test_strong_coupling_reduction(self):
        for theta in (0.0, 0.5, 1.2, np.pi):
            got = analytic_variance(theta, np.pi / 4, 0.5, 1000)
            want = (1 + 2 * np.sin(theta) ** 2) / (0.5 * 1000)
            assert abs(got - want) / want < 1e-12

    def test_boundary_divergence(self):
        with pytest.raises(ValueError, match="diverges"):
            analytic_variance(0.3, 0.0, 0.5, 100)


def observable_variance(js, pi_l, coeffs):
    """Per-shot variance of the direct joint-observable measurement, a
    reference beside the counting noise of ``error_transfer_variance``:
    ``Tr[Pi_l M^2 rho_J] - (Tr[Pi_l M rho_J])^2`` summed over the two joint
    observables R and T, each the cell projectors weighted by ``coeffs``."""
    km = reduced_meter_operator(js, asoperator(pi_l))
    total = 0.0
    for weights in (coeffs.cell_re, coeffs.cell_im):
        m = np.tensordot(weights, CELL_PROJECTORS, 1)
        first = float(np.trace(m @ m @ km).real)
        second = float(np.trace(m @ km).real)
        total += first - second * second
    return total


class TestObservableVariance:
    def test_zero_element(self):
        js = prepare_entry_state(2, 1, 0, CouplingConfig.symmetric(0.5))
        assert observable_variance(js, np.zeros((2, 2)), rt_coefficients(2, 0.5)) == 0.0

    def test_nonnegative(self, sic, small_random_povm):
        js2 = prepare_entry_state(2, 1, 0, CouplingConfig.symmetric(np.pi / 4))
        for lab in sic.labels:
            assert observable_variance(js2, sic.element(lab), rt_coefficients(2, np.pi / 4)) >= 0
        js3 = prepare_entry_state(3, 0, 1, CouplingConfig.symmetric(0.7))
        for lab in small_random_povm.labels:
            v = observable_variance(js3, small_random_povm.element(lab), rt_coefficients(3, 0.7))
            assert v >= -1e-12

    def test_sic_regression_value(self, sic):
        """Frozen after first computation; guards the quadratic trace path."""
        js = prepare_entry_state(2, 1, 0, CouplingConfig.symmetric(np.pi / 4))
        v = observable_variance(js, sic.element(2), rt_coefficients(2, np.pi / 4))
        assert abs(v - 0.9444444444444446) < 1e-12


class TestCompletenessRefine:
    def test_two_outcomes_equal_variance(self):
        values, var_re, var_im = completeness_refine([0.1 + 0.0j, -0.1 + 0.0j], [2.0, 2.0],
                                                     [3.0, 3.0])
        assert abs(var_re[0] - 1.0) < 1e-14
        assert abs(var_im[0] - 1.5) < 1e-14
        assert values.dtype == complex and values.shape == var_re.shape == var_im.shape == (2,)

    def test_never_worse_than_either_input(self, rng):
        """Each grid point of a (points, outcomes) stack is refined as it is
        alone, bit for bit, also past the 8 outcomes where numpy's pairwise
        sum changes its order."""
        for _ in range(20):
            n = int(rng.integers(2, 12))
            values = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
            var_re, var_im = rng.uniform(0.1, 5, size=(2, 3, n))
            refined = completeness_refine(values, var_re, var_im)
            for p in range(3):
                alone = completeness_refine(values[p], var_re[p], var_im[p])
                for got, want in zip(refined, alone):
                    assert got[p].tolist() == want.tolist()
                for i, r in enumerate(alone[1]):
                    own = var_re[p, i]
                    comp = var_re[p].sum() - own
                    assert r <= min(own, comp) + 1e-14

    def test_exact_complete_povm_values_unchanged(self):
        """With a true zero sum, the complement agrees and refinement moves
        nothing."""
        povm = random_povm(2, 4, seed=5)
        coeffs = rt_coefficients(2, 0.9)
        values, var_re, var_im = [], [], []
        for lab in povm.labels:
            tables = entry_tables(povm.element(lab), 1, 0, 0.9)
            vr, vi = error_transfer_variance(tables, coeffs, 1000)
            values.append(estimate_from_tables(tables, coeffs))
            var_re.append(vr)
            var_im.append(vi)
        after, after_re, after_im = completeness_refine(values, var_re, var_im)
        for i, before in enumerate(values):
            assert abs(before - after[i]) < 1e-10
            assert after_re[i] + after_im[i] < var_re[i] + var_im[i]

    def test_closed_form_is_the_inverse_variance_mix(self, rng):
        """The refinement moves each component by its share v / sum v of the
        sum rule's residual, the closed form of mixing each outcome with its
        complement by inverse-variance weights: equal to that mix in exact
        arithmetic, so within rounding here, and to x - wc sum x, v - wc v
        bit for bit."""
        for outcomes in (2, 4, 9):
            values = rng.normal(size=(5, outcomes)) + 1j * rng.normal(size=(5, outcomes))
            variances = rng.uniform(0.1, 5, size=(2, 5, outcomes))
            refined = completeness_refine(values, *variances)
            x = np.stack([values.real, values.imag])
            comp = variances.sum(axis=-1, keepdims=True) - variances
            w = (1 / variances) / (1 / variances + 1 / comp)
            mixed = (x - x.sum(axis=-1, keepdims=True)) * (1 - w) + w * x
            mixed_var = w * (1 - w) * (variances + comp)
            np.testing.assert_allclose([refined[0].real, refined[0].imag], mixed, rtol=1e-13,
                                       atol=1e-13 * np.abs(x).max())
            np.testing.assert_allclose(refined[1:], mixed_var, rtol=1e-13, atol=0)
            wc = variances / variances.sum(axis=-1, keepdims=True)
            closed = x - wc * x.sum(axis=-1, keepdims=True)
            assert refined[0].real.tolist() == closed[0].tolist()
            assert refined[0].imag.tolist() == closed[1].tolist()
            assert [v.tolist() for v in refined[1:]] == (variances - wc * variances).tolist()

    def test_requires_finite_positive_variances(self):
        with pytest.raises(ValueError, match="finite"):
            completeness_refine([0j, 0j], [1.0, float("nan")], [1.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            completeness_refine([0j, 0j], [1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="at least two outcomes"):
            completeness_refine([[0j], [0j]], [[1.0], [1.0]], [[1.0], [1.0]])

    def test_total_variance_property(self):
        e = EntryEstimate(1j, 0.25, 0.5, 10, "sampled")
        assert e.total_variance == 0.75


@pytest.mark.parametrize("call, message", [
    (lambda: error_transfer_variance(np.full((9, 2, 2), 0.25), rt_coefficients(2, 0.5), 0),
     "particle number per setting must be positive, got 0"),
    (lambda: error_transfer_variance(np.full((9, 2, 2), 0.25), rt_coefficients(2, 0.5), -5),
     "particle number per setting must be positive, got -5"),
    (lambda: error_transfer_variance(np.full((9, 2, 2), 0.25), rt_coefficients(2, 0.5), 100,
                                     "gaussian"),
     "statistics must be 'poisson' or 'multinomial', got 'gaussian'"),
    (lambda: analytic_variance(0.3, 0.6, 0.0, 100), "eta must be in (0, 1], got 0.0"),
    (lambda: analytic_variance(0.3, 0.6, 1.5, 100), "eta must be in (0, 1], got 1.5"),
    (lambda: analytic_variance(0.3, 0.6, 0.5, 0), "particle number must be positive, got 0"),
    (lambda: analytic_variance(0.3, 0.6, 0.5, -2), "particle number must be positive, got -2"),
], ids=["variance-n-0", "variance-n-negative", "variance-statistics", "law-eta-0",
        "law-eta-above-1", "law-n-0", "law-n-negative"])
def test_refusals_keep_their_messages(call, message):
    """Each refusal of the variance laws keeps its message; the
    statistics refusal of ``error_transfer_variance`` is the sampler's."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
