"""The benchmark's workloads: seeded inputs, one pass of work, correctness gates.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
that ``setup_s`` times) and runs one pass of operations in ``run_pass``.
Every pass repeats the same work on the same inputs.  Between operations,
and outside their timings, each takes a sample of its host-speed reference
``speed``.  Functions are looked up on their modules at call time, so the
tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
import yaml

from povmdt import cli, config, estimator, montecarlo, protocol
from povmdt import povm as povm_mod
from hostspeed import HostSpeed, draws, small_ops
from tracer import patch_everywhere, restore

#: Particles per basis setting: the paper's experimental photon number.
N = 12790
G_SET = (math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8)

EXACT_POVMS = 100
EXACT_TOL = 1e-9

ETA = 0.5
RUN_TRIALS = 10**6
SWEEP_G = (math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8, 7 * math.pi / 16)
SWEEP_TRIALS = 5 * 10**4
REFINE_OUTCOMES = 6
REFINE_TRIALS = 5 * 10**4
#: Means must lie within this many standard errors of the truth.
MEAN_SE = 4.0
#: Largest relative deviation of a sample variance from its prediction.  The
#: sampling error of a variance over 5 x 10^4 trials is about 0.6 %; the
#: error-transfer law is exact for Poisson counts and within about 1 % for
#: multinomial counts at these cell probabilities.
VAR_TOL = 0.03

SCAN_GRID = 100
SCAN_OUTCOMES = 6
#: Largest |z| of a scan row against its true entry.  A pass has 4800 z
#: values, so a false alarm at 6 sigma has odds of about 1e-5 per seed.
SCAN_Z = 6.0


@dataclass
class Op:
    seconds: float
    entries: int
    failed: bool


def _report(workload: str, what: str) -> None:
    print(f"{workload}: operation failed: {what}", file=sys.stderr)


class ExactSweep:
    """Every off-diagonal entry of every outcome of 100 random complete
    POVMs, exact pipeline against the oracle (acceptance criterion 1)."""

    name = "exact_sweep"
    required = (
        "povm.random_povm", "povm.matrix_entry_oracle",
        "protocol.prepare_entry_state", "protocol.meter_tables",
        "estimator.rt_coefficients", "estimator.estimate_from_tables",
    )

    def __init__(self, seed: int, workdir: str):
        # The seed draws the POVMs; the shape (d, outcomes, g) of each case is
        # fixed, so every seed does the same amount of work.
        rng = np.random.default_rng(seed)
        self.cases = []
        for i in range(EXACT_POVMS):
            d = (2, 3, 4)[i % 3]
            outcomes = d + (i // 3) % (d + 1)
            povm = povm_mod.random_povm(d, outcomes, seed=int(rng.integers(2**32)))
            self.cases.append((povm, G_SET[i % 4]))
        self.first_pass = None
        self.speed = HostSpeed(small_ops)

    def run_pass(self) -> list[Op]:
        kept = [] if self.first_pass is None else None
        ops = []
        for povm, g in self.cases:
            d = povm.dim
            coeffs = estimator.rt_coefficients(d, g)
            coupling = protocol.CouplingConfig.symmetric(g)
            for j in range(d):
                for k in range(d):
                    if j != k:
                        ops.append(self._slot(povm, j, k, coupling, coeffs, kept))
                        self.speed.sample()
        if kept is not None:
            self.first_pass = kept
        return ops

    def _slot(self, povm, j, k, coupling, coeffs, kept) -> Op:
        t0 = time.perf_counter()
        try:
            js = protocol.prepare_entry_state(povm.dim, j, k, coupling)
            err = 0.0
            for lab in povm.labels:
                tables = protocol.meter_tables(js, povm.element(lab))
                est = estimator.estimate_from_tables(tables, coeffs)
                err = max(err, abs(est - povm_mod.matrix_entry_oracle(povm, lab, j, k)))
                if kept is not None:
                    kept.append((tables, coeffs))
            failed = not err < EXACT_TOL
            if failed:
                _report(self.name, f"|est - oracle| = {err:.3e} at ({j}, {k})")
        except Exception:
            traceback.print_exc()
            failed = True
        return Op(time.perf_counter() - t0, len(povm.labels), failed)

    def var_x_n(self) -> float:
        totals = [sum(estimator.error_transfer_variance(t, c, N)) * N for t, c in self.first_pass]
        return float(np.mean(totals))


class McTrials:
    """Three shot-noise studies at N = 12790: one large run_trials call, a
    multinomial g sweep and a sum-rule refinement study."""

    name = "mc_trials"
    required = (
        "povm.random_povm", "protocol.prepare_entry_state", "protocol.meter_tables",
        "protocol.exact_entry_tables", "estimator.rt_coefficients",
        "estimator.error_transfer_variance", "estimator.completeness_refine",
        "montecarlo.run_trials", "montecarlo.variance_sweep",
        "montecarlo.refinement_trials", "_kernels.trial_estimates",
    )

    def __init__(self, seed: int, workdir: str):
        seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(8)]
        element = povm_mod.make_parametric_element(0.0, ETA, 0.0)
        self.scenario = montecarlo.EntryScenario(element, 1, 0, math.pi / 4, scale=ETA)
        self.trial_shot = montecarlo.ShotModel(N, "poisson", seeds[0])
        self.sweeps = [
            montecarlo.SweepSpec(
                "g", (g,), SWEEP_TRIALS, montecarlo.ShotModel(N, "multinomial", s), eta=ETA,
            )
            for g, s in zip(SWEEP_G, seeds[1:6])
        ]
        self.refine_povm = povm_mod.random_povm(2, REFINE_OUTCOMES, seed=seeds[6])
        self.refine_shot = montecarlo.ShotModel(N, "poisson", seeds[7])
        self.variances = None
        self.speed = HostSpeed(draws, repeat=8)

    def run_pass(self) -> list[Op]:
        variances = []
        ops = [self._timed(self._run_trials, RUN_TRIALS, variances)]
        for spec in self.sweeps:
            ops.append(self._timed(self._sweep_point, SWEEP_TRIALS, variances, spec))
        ops.append(self._timed(self._refinement, REFINE_OUTCOMES * REFINE_TRIALS, variances))
        if self.variances is None:
            self.variances = variances
        return ops

    def _timed(self, study, entries, variances, *args) -> Op:
        t0 = time.perf_counter()
        try:
            problem = study(variances, *args)
        except Exception:
            traceback.print_exc()
            problem = "raised"
        seconds = time.perf_counter() - t0
        self.speed.sample()
        if problem:
            _report(self.name, problem)
        return Op(seconds, entries, problem is not None)

    def _run_trials(self, variances):
        s = montecarlo.run_trials(self.scenario, self.trial_shot, RUN_TRIALS)
        variances.append(s.predicted_var)
        truth = self.scenario.exact_value()
        return (
            _mean_problem("run_trials re", s.mean.real, truth.real, s.sample_var_re, RUN_TRIALS)
            or _mean_problem("run_trials im", s.mean.imag, truth.imag, s.sample_var_im, RUN_TRIALS)
            or _var_problem("run_trials", s.sample_var_re + s.sample_var_im, s.predicted_var)
        )

    def _sweep_point(self, variances, spec):
        (row,) = montecarlo.variance_sweep(spec)
        variances.append(row["var_transfer"])
        # e01 = 0, so the normalized entry is 0; the total variance bounds
        # each component's
        return (
            _mean_problem("sweep re", row["mean_re"], 0.0, row["var_empirical"], spec.trials)
            or _mean_problem("sweep im", row["mean_im"], 0.0, row["var_empirical"], spec.trials)
            or _var_problem(f"sweep g={row['axis_value']:.4f}", row["var_empirical"],
                            row["var_transfer"])
        )

    def _refinement(self, variances):
        study = montecarlo.refinement_trials(
            self.refine_povm, 1, 0, math.pi / 4, self.refine_shot, REFINE_TRIALS
        )
        for lab in study.labels:
            variances.append(study.raw[lab].total_variance)
            problem = _var_problem(
                f"refinement raw l={lab}", sum(study.raw_sample_var[lab]),
                study.raw[lab].total_variance,
            ) or _var_problem(
                f"refinement refined l={lab}", sum(study.refined_sample_var[lab]),
                study.refined[lab].total_variance,
            )
            if problem:
                return problem
        return None

    def var_x_n(self) -> float:
        return float(np.mean(self.variances)) * N


def _mean_problem(what, mean, truth, sample_var, trials):
    se = math.sqrt(sample_var / trials)
    if abs(mean - truth) > MEAN_SE * se:
        return f"{what}: mean {mean:.3e} is {abs(mean - truth) / se:.1f} SE from {truth:.3e}"
    return None


def _var_problem(what, sample, predicted):
    if abs(sample / predicted - 1) > VAR_TOL:
        return f"{what}: sample variance {sample:.4e} vs predicted {predicted:.4e}"
    return None


class ScanRefine:
    """``povmdt scan --refine`` in-process on two generated configs: a
    rotation grid and a dephasing grid on one random complete qubit POVM."""

    name = "scan_refine"
    required = (
        "config.parse_config", "povm.random_povm", "protocol.prepare_entry_state",
        "protocol.meter_tables", "protocol.exact_entry_tables",
        "estimator.rt_coefficients", "estimator.estimate_from_tables",
        "estimator.error_transfer_variance", "estimator.completeness_refine",
        "noise.apply_dephasing", "noise.apply_phase_rotation",
        "montecarlo.sample_counts", "reports.write_csv", "cli.run_scan",
    )
    #: The calls that open each grid point, and the artifact write after
    #: the last one; consecutive calls delimit the per-point operations.
    markers = (
        ("noise", "apply_dephasing"), ("noise", "apply_phase_rotation"),
        ("reports", "write_csv"),
    )

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        povm_seed = int(rng.integers(2**31))
        grids = (
            ("rotation", {"type": "rotation",
                          "phi": sorted(rng.uniform(-1.0, 1.0, SCAN_GRID).tolist())}),
            ("dephasing", {"type": "dephasing", "coherence_length": 120.0,
                           "epsilon": sorted(rng.uniform(0.0, 240.0, SCAN_GRID).tolist())}),
        )
        self.runs = []
        for name, noise in grids:
            out = os.path.join(workdir, name)
            path = os.path.join(workdir, f"{name}.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump({
                    "seed": seed,
                    "povm": {"source": "random", "d": 2, "outcomes": SCAN_OUTCOMES,
                             "seed": povm_seed},
                    "entry": {"l": "all", "j": 1, "k": 0},
                    "coupling": {"g": 0.25},
                    "shots": {"n_per_setting": N, "statistics": "poisson"},
                    "noise": noise,
                }, fh)
            config.parse_config(path).povm()
            self.runs.append((path, out))
        #: SHA-256 of each scan's CSV, by config path.  The configs hold no
        #: paths, so a seed writes the same bytes in every run.
        self.digests = {}
        self.variances = None
        self.speed = HostSpeed(small_ops)

    def run_pass(self) -> list[Op]:
        ops, variances = [], []
        for path, out in self.runs:
            marks = []
            try:
                with _marking(self.markers, marks, self.speed), \
                        contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["scan", "--config", path, "--refine", "--out", out])
            except Exception:
                traceback.print_exc()
                rc = "an exception"
            # from the end of one mark's reference sample to the start of the next
            points = [b[0] - a[1] for a, b in zip(marks, marks[1:])]
            if rc != 0 or len(points) != SCAN_GRID:
                _report(self.name, f"scan of {path} exited {rc} after {len(points)} points")
                ops.extend(Op(0.0, 0, True) for _ in range(SCAN_GRID))
                continue
            csv_path = os.path.join(out, "scan.csv")
            with open(csv_path, "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            same = self.digests.setdefault(path, digest) == digest
            if not same:
                _report(self.name, f"{csv_path} differs from the first pass's (sha256)")
            rows = list(csv.DictReader(line for line in io.StringIO(data.decode())
                                       if not line.startswith("#")))
            per_point = 2 * SCAN_OUTCOMES
            for i, seconds in enumerate(points):
                chunk = rows[i * per_point:(i + 1) * per_point]
                ok = same and len(chunk) == per_point and all(map(self._row_ok, chunk))
                ops.append(Op(seconds, per_point, not ok))
            variances.extend((float(r["var_re"]) + float(r["var_im"]))
                             for r in rows if r["method"] == "sampled")
        if self.variances is None:
            self.variances = variances
        return ops

    def _row_ok(self, row) -> bool:
        for part in ("re", "im"):
            z = (float(row[f"est_{part}"]) - float(row[f"true_{part}"])) / math.sqrt(
                float(row[f"var_{part}"]))
            if not abs(z) <= SCAN_Z:
                _report(self.name, f"{row['method']} row l={row['l']} "
                                   f"{row['axis']}={row['axis_value']}: z_{part} = {z:.2f}")
                return False
        return True

    def var_x_n(self) -> float:
        return float(np.mean(self.variances)) * N


@contextlib.contextmanager
def _marking(functions, marks, speed):
    """Whenever povmdt calls one of ``functions``, given as (module, name),
    take a sample of ``speed`` and append the times before and after it to
    ``marks``; the bindings are restored on exit."""
    patched = []

    def marked(fn):
        def call(*args, **kwargs):
            before = time.perf_counter()
            speed.sample()
            marks.append((before, time.perf_counter()))
            return fn(*args, **kwargs)
        return call

    for mod_name, name in functions:
        current = getattr(importlib.import_module(f"povmdt.{mod_name}"), name)
        patched += patch_everywhere(current, marked(current))
    try:
        yield
    finally:
        restore(patched)


WORKLOADS = {w.name: w for w in (ExactSweep, McTrials, ScanRefine)}
