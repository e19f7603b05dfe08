"""Acceptance suite: one test per numbered criterion, each printing a
pass line with its measured figure (run with ``pytest -s`` to see them).

Criteria are asserted at their stated tolerances; stochastic checks run on
fixed seeds so the suite is deterministic.
"""

import time

import numpy as np
import yaml

from povmdt import (
    CouplingConfig,
    EntryScenario,
    ShotModel,
    SweepSpec,
    analytic_variance,
    apply_dephasing,
    apply_phase_rotation,
    calibrate_phase,
    completeness_refine,
    dephase_via_environment,
    error_transfer_variance,
    estimate_from_tables,
    exact_entry_tables,
    make_parametric_element,
    matrix_entry_oracle,
    meter_tables,
    povm_from_walk,
    prepare_entry_state,
    random_povm,
    refinement_trials,
    rt_coefficients,
    run_trials,
    variance_sweep,
    xi_from_environment,
    Environment,
)
from povmdt.cli import run_scan
from povmdt.config import parse_config
from povmdt.linalg import random_unitary

N_REF = 12790
THETA_SIC = np.arccos(1 / np.sqrt(3))
G_SET = (np.pi / 16, np.pi / 8, np.pi / 4, 3 * np.pi / 8)


def test_criterion_1_oracle_exactness():
    """100 random POVMs, every off-diagonal entry via the exact pipeline."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    coeffs_cache = {}
    worst = 0.0
    n_entries = 0
    for i in range(100):
        d = (2, 3, 4)[i % 3]
        n_outcomes = int(rng.integers(d, 2 * d + 1))
        g = G_SET[i % 4]
        povm = random_povm(d, n_outcomes, seed=int(rng.integers(10**9)))
        key = (d, g)
        if key not in coeffs_cache:
            coeffs_cache[key] = rt_coefficients(d, g)
        cfg = CouplingConfig.symmetric(g)
        for j in range(d):
            for k in range(d):
                if j == k:
                    continue
                js = prepare_entry_state(d, j, k, cfg)
                for lab in povm.labels:
                    tables = meter_tables(js, povm.element(lab))
                    est = estimate_from_tables(tables, coeffs_cache[key])
                    truth = matrix_entry_oracle(povm, lab, j, k)
                    worst = max(worst, abs(est - truth))
                    n_entries += 1
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS  max|err| = {worst:.2e} over {n_entries} entries "
          f"in {elapsed:.1f} s")


def test_criterion_2_sic_values(sic):
    """Exact pipeline returns the four pinned (V,H) entries."""
    g = np.pi / 4
    coeffs = rt_coefficients(2, g)
    cfg = CouplingConfig.symmetric(g)
    s26 = np.sqrt(2) / 6
    w = np.exp(2j * np.pi / 3)
    expected = {1: 0.0, 2: -s26, 3: s26 * w.conjugate(), 4: s26 * w}
    worst = 0.0
    for lab, want in expected.items():
        est = estimate_from_tables(exact_entry_tables(sic.element(lab), 1, 0, cfg), coeffs)
        worst = max(worst, abs(est - want))
    assert worst < 1e-10
    print(f"\n[criterion 2] PASS  max deviation from pinned values = {worst:.2e}")


def test_criterion_3_analytic_variance_law():
    """Closed form at the two reference points; error transfer agrees."""
    x = analytic_variance(0.0, np.pi / 4, 0.5, N_REF)
    y = analytic_variance(THETA_SIC, np.pi / 4, 0.5, N_REF)
    assert abs(x - 1 / 6395) / (1 / 6395) < 1e-15
    assert abs(y - (7 / 3) / 6395) / ((7 / 3) / 6395) < 1e-14

    coeffs = rt_coefficients(2, np.pi / 4)
    cfg = CouplingConfig.symmetric(np.pi / 4)
    rel_worst = 0.0
    for theta, want in ((0.0, x), (THETA_SIC, y)):
        elem = make_parametric_element(theta, 0.5, 0.0)
        tables = exact_entry_tables(elem, 1, 0, cfg)
        vr, vi = error_transfer_variance(tables, coeffs, N_REF)
        rel_worst = max(rel_worst, abs((vr + vi) / 0.5**2 - want) / want)
    assert rel_worst < 1e-9
    print(f"\n[criterion 3] PASS  X = {x:.6e}, Y = {y:.6e}, "
          f"transfer-vs-law rel dev = {rel_worst:.2e}")


def test_criterion_4_monte_carlo_realism():
    """Sample variance and mean of the sampled estimator at the X point."""
    t0 = time.perf_counter()
    trials = 10000
    scn = EntryScenario(make_parametric_element(0.0, 0.5, 0.0), 1, 0, np.pi / 4, scale=0.5)
    summary = run_trials(scn, ShotModel(N_REF, "poisson", seed=20260401), trials)
    elapsed = time.perf_counter() - t0
    want = 1 / 6395
    sample_total = summary.sample_var_re + summary.sample_var_im
    assert abs(sample_total - want) / want < 0.10
    truth = scn.exact_value()
    assert abs(summary.mean.real - truth.real) < 3 * np.sqrt(summary.sample_var_re / trials)
    assert abs(summary.mean.imag - truth.imag) < 3 * np.sqrt(summary.sample_var_im / trials)
    assert elapsed < 60.0
    print(f"\n[criterion 4] PASS  sample var = {sample_total:.4e} "
          f"(law {want:.4e}, dev {abs(sample_total/want-1)*100:.1f}%), "
          f"{trials} trials in {elapsed:.1f} s")


def test_criterion_5_variance_curve_shapes():
    """Divergence toward boundary couplings, optimum at pi/4, finite over
    theta."""
    grid = (np.pi / 16, np.pi / 8, np.pi / 4, 3 * np.pi / 8, 7 * np.pi / 16)
    spec = SweepSpec(axis="g", grid=grid, trials=0,
                     shot=ShotModel(N_REF, "poisson", seed=0),
                     theta=THETA_SIC, eta=0.5)
    rows = variance_sweep(spec)
    for col in ("var_transfer", "var_analytic"):
        vals = [r[col] for r in rows]
        mid = vals[2]
        assert int(np.argmin(vals)) == 2          # optimum at the pi/4 grid point
        assert vals[0] > 10 * mid and vals[-1] > 10 * mid
    theta_grid = (0.0, np.pi / 4, THETA_SIC, np.pi)
    for g in G_SET:
        spec_t = SweepSpec(axis="theta", grid=theta_grid, trials=0,
                           shot=ShotModel(N_REF, "poisson", seed=0), g=g, eta=0.5)
        for r in variance_sweep(spec_t):
            assert np.isfinite(r["var_transfer"]) and np.isfinite(r["var_analytic"])
    vals = [r["var_transfer"] for r in rows]
    print(f"\n[criterion 5] PASS  g-curve min at pi/4, endpoint ratios "
          f"{vals[0]/vals[2]:.0f}x / {vals[-1]/vals[2]:.0f}x; all theta points finite")


def _assert_tracked(row, base_value):
    """One scan point: modulus ratio and argument shift within 3 sigma."""
    est = complex(row["est_re"], row["est_im"])
    truth = complex(row["true_re"], row["true_im"])
    vr, vi = row["var_re"], row["var_im"]
    if abs(truth) < 1e-12:
        assert abs(est) < 3 * np.sqrt(vr + vi)
        return
    sig_mod = np.sqrt(truth.real**2 * vr + truth.imag**2 * vi) / abs(truth)
    assert abs(abs(est) - abs(truth)) < 3 * sig_mod
    sig_arg = np.sqrt(truth.imag**2 * vr + truth.real**2 * vi) / abs(truth) ** 2
    shift = np.angle(est / truth)
    assert abs(shift) < 3 * sig_arg
    # modulus also matches the un-noised element (coherence magnitude)
    if base_value is not None:
        assert abs(abs(est) - abs(base_value)) < 3 * sig_mod + abs(abs(truth) - abs(base_value))


def test_criterion_6_noise_evolution_tracking(tmp_path, sic):
    """Dephasing and rotation scans recover the transformed entries."""
    base = {
        "seed": 2,
        "povm": {"source": "builtin:sic"},
        "entry": {"l": "all", "j": 1, "k": 0},
        "coupling": {"g": 0.25},
        "shots": {"n_per_setting": N_REF},
    }
    truths = {lab: matrix_entry_oracle(sic, lab, 1, 0) for lab in sic.labels}

    deph = dict(base, noise={
        "type": "dephasing",
        "epsilon": [0, 20, 40, 60, 80, 120, 160, 200, 240],
        "coherence_length": 120.0,
    })
    path = tmp_path / "deph.yaml"
    path.write_text(yaml.safe_dump(deph))
    rows = run_scan(parse_config(str(path)))
    assert len(rows) == 9 * 4
    for row in rows:
        _assert_tracked(row, None)
        # dephasing leaves the argument untouched: truth must be xi * base
        base_val = truths[row["l"]]
        truth = complex(row["true_re"], row["true_im"])
        if abs(base_val) > 0:
            xi = abs(truth) / abs(base_val)
            assert abs(truth - base_val * xi) < 1e-12

    rot = dict(base, noise={"type": "rotation", "phi": [-0.6, -0.2, 0.4, 0.8]})
    path = tmp_path / "rot.yaml"
    path.write_text(yaml.safe_dump(rot))
    rows = run_scan(parse_config(str(path)))
    assert len(rows) == 4 * 4
    for row in rows:
        base_val = truths[row["l"]]
        truth = complex(row["true_re"], row["true_im"])
        if abs(base_val) > 0:
            # the transform shifts the argument by exactly -phi
            assert abs(truth - base_val * np.exp(-1j * row["axis_value"])) < 1e-12
        _assert_tracked(row, base_val)
    print(f"\n[criterion 6] PASS  52 scan points tracked within 3 sigma at N = {N_REF}")


def test_criterion_7_precision_immunity(sic):
    """Predicted variance identical across dephasing/rotation parameters."""
    g = np.pi / 4
    coeffs = rt_coefficients(2, g)
    cfg = CouplingConfig.symmetric(g)
    worst = 0.0
    for lab in sic.labels:
        variants = [sic]
        variants += [apply_dephasing(sic, xi, 1, 0) for xi in (1.0, 0.5, 0.0)]
        variants += [apply_phase_rotation(sic, phi, 1, 0) for phi in (0.0, 2 * np.pi / 5)]
        values = []
        for povm in variants:
            tables = exact_entry_tables(povm.element(lab), 1, 0, cfg)
            values.append(sum(error_transfer_variance(tables, coeffs, N_REF)))
        worst = max(worst, max(values) - min(values))
    assert worst < 1e-12
    print(f"\n[criterion 7] PASS  max variance spread across noise settings = {worst:.2e}")


def test_criterion_8_completeness_refinement(sic):
    """Refinement formula, dominance, and the Monte Carlo improvement."""
    g = np.pi / 4
    coeffs = rt_coefficients(2, g)
    cfg = CouplingConfig.symmetric(g)
    raw = []
    for lab in sic.labels:
        tables = exact_entry_tables(sic.element(lab), 1, 0, cfg)
        vr, vi = error_transfer_variance(tables, coeffs, N_REF)
        raw.append((matrix_entry_oracle(sic, lab, 1, 0), vr, vi))
    values, var_re, var_im = zip(*raw)
    _, *refined = completeness_refine(values, var_re, var_im)
    for raw_var, refined_var in zip((var_re, var_im), refined):
        for own, f in zip(raw_var, refined_var):
            total = sum(raw_var)
            comp = total - own
            w = (1 / own) / (1 / own + 1 / comp)
            assert abs(f - w * (1 - w) * total) < 1e-12
            assert f <= min(own, comp) + 1e-15

    trials = 10000
    study = refinement_trials(sic, 1, 0, g, ShotModel(N_REF, "poisson", seed=20260808), trials)
    margin = 1 - 3 * np.sqrt(2 / trials)  # one-sided >= 95% band on a variance ratio
    ratios = []
    assert all(est.method == "refined" for est in study.refined.values())
    for lab in study.labels:
        raw_tot = sum(study.raw_sample_var[lab])
        ref_tot = sum(study.refined_sample_var[lab])
        assert ref_tot < raw_tot * margin
        ratios.append(ref_tot / raw_tot)
    print(f"\n[criterion 8] PASS  refined/raw sample-variance ratios = "
          f"{[f'{r:.3f}' for r in ratios]} over {trials} trials")


def test_criterion_9_walk_environment_calibration(sic, rng):
    """Walk extraction completeness, environment-dephasing equivalence,
    phase anchors."""
    worst_resid = 0.0
    for _ in range(5):
        u = random_unitary(12, rng)
        worst_resid = max(worst_resid, povm_from_walk(u, 4, 3).completeness_residual())
    assert worst_resid < 1e-12

    worst_env = 0.0
    c = np.diag([-1.0, 1.0]).astype(complex)
    for eps in (0.0, 0.4, 1.2):
        env = Environment(np.full((2, 2), 0.5, dtype=complex), np.diag([1.0, -1.0]), eps)
        xi = xi_from_environment(env)
        assert abs(xi.imag) < 1e-14
        scalar = apply_dephasing(sic, float(xi.real), 1, 0)
        for lab in sic.labels:
            delta = np.abs(
                dephase_via_environment(sic.element(lab), env, c) - scalar.element(lab)
            ).max()
            worst_env = max(worst_env, delta)
    assert worst_env < 1e-10

    anchors = [(0.5, 0.0), (0.0, np.pi / 2), (-0.5, np.pi)]
    for delta, want in anchors:
        got = calibrate_phase((1 + delta) / 2, (1 - delta) / 2)
        assert got == want
    print(f"\n[criterion 9] PASS  walk residual {worst_resid:.1e}, "
          f"environment equivalence {worst_env:.1e}, phase anchors exact")
