"""Command-line scenario runner.

Subcommands::

    povmdt oracle-check   --config cfg.yaml [--out DIR]
    povmdt scan           --config cfg.yaml --out DIR [--refine]
    povmdt variance-sweep --config cfg.yaml --out DIR
    povmdt calibrate      --config cfg.yaml --out DIR [--refine]

Common flags: ``--seed`` overrides the config seed, ``--format csv|json``
selects the artifact format.  Exit codes: 0 success, 1 tolerance or
assertion failure, 2 configuration error.

The config blocks, noise and calibration grids included, are resolved by
:func:`povmdt.config.parse_config`; the commands here only iterate them.
Every command writes its artifacts through :func:`write_artifacts`: the
CSV tables, or one ``<command>.json`` run report that also holds the wall
clock.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .config import ConfigError, ScenarioConfig, parse_config
from .estimator import (
    estimate_record,
    EntryEstimate,
    completeness_refine,
    error_transfer_variance,
    estimate_from_tables,
    rt_coefficients,
)
from .montecarlo import ShotModel, SweepSpec, refinement_trials, sample_counts, variance_sweep
from .noise import apply_dephasing, apply_phase_rotation, calibrate_phase, calibrate_xi
from .povm import matrix_entry_oracle
from .protocol import CouplingConfig, check_postselection, exact_entry_tables
from .reports import (
    run_metadata,
    write_csv,
    write_json_report,
    write_tables_csv,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povmdt",
        description="Direct characterization of POVM matrix entries: scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("oracle-check", "exact pipeline vs ground-truth entries"),
        ("scan", "noise-evolution scan of an off-diagonal entry"),
        ("variance-sweep", "analytic / error-transfer / empirical variance curves"),
        ("calibrate", "simulated overlap and phase calibrations"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML scenario config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--refine", action="store_true",
                       help="also apply the completeness sum-rule refinement")
    return parser


def _entry_list(cfg: ScenarioConfig, povm) -> list[tuple[int, int, int]]:
    """Resolve the (label, j, k) entries a command operates on."""
    d = povm.dim
    if cfg.entry is None:
        return [(lab, j, k) for lab in povm.labels for j in range(d) for k in range(d) if j != k]
    j, k = cfg.entry["j"], cfg.entry["k"]
    if not (0 <= j < d and 0 <= k < d):
        raise ConfigError(f"entry: indices ({j}, {k}) out of range for dimension {d}")
    if cfg.entry["l"] == "all":
        return [(lab, j, k) for lab in povm.labels]
    lab = cfg.entry["l"]
    if lab not in povm.labels:
        raise ConfigError(f"entry.l: no outcome labelled {lab}; labels are {povm.labels}")
    return [(lab, j, k)]


def _out_dir(cfg: ScenarioConfig, args, required: bool = True) -> str | None:
    out = args.out or cfg.out_dir
    if out is None and required:
        raise ConfigError("an output directory is required (output.dir or --out)")
    return out


def write_artifacts(
    cfg: ScenarioConfig, args, out: str, elapsed: float,
    tables: list[tuple[str, list[str], list[dict]]], results, **extra_meta,
) -> dict:
    """Write one command's artifacts to ``out`` and return their metadata.

    ``tables`` holds (file stem, columns, rows) of the CSV artifacts;
    ``results`` is called for the JSON report's results only in json
    mode.  The wall clock goes only into the JSON report: CSV artifacts stay
    byte-identical across reruns.
    """
    meta = dict(run_metadata(args.command, cfg.resolved_echo(), cfg.seed), **extra_meta)
    if (args.format or cfg.out_format) == "json":
        write_json_report(
            f"{out}/{args.command.replace('-', '_')}.json",
            dict(meta, wall_clock_s=elapsed), results(),
        )
    else:
        for stem, columns, rows in tables:
            write_csv(f"{out}/{stem}.csv", columns, rows, meta)
    return meta


def _elapsed(t0: float) -> float:
    return round(time.perf_counter() - t0, 6)


# --- oracle-check ---------------------------------------------------------------


def run_oracle_check(cfg: ScenarioConfig) -> tuple[list[dict], float, list[dict]]:
    """Exact-pipeline reconstruction vs the entry oracle for every entry."""
    povm = cfg.povm()
    coupling = CouplingConfig.symmetric(cfg.g)
    coeffs = rt_coefficients(povm.dim, cfg.g)
    rows, dists = [], []
    max_err = 0.0
    for lab, j, k in _entry_list(cfg, povm):
        truth = matrix_entry_oracle(povm, lab, j, k)
        tables = exact_entry_tables(povm.element(lab), j, k, coupling)
        est = estimate_from_tables(tables, coeffs)
        err = abs(est - truth)
        max_err = max(max_err, err)
        rows.append(
            {
                "l": lab, "j": j, "k": k,
                "est_re": est.real, "est_im": est.imag,
                "true_re": truth.real, "true_im": truth.imag,
                "abs_err": err,
            }
        )
        dists.append({"l": lab, "tables": tables})
    return rows, max_err, dists


ORACLE_COLUMNS = ["l", "j", "k", "est_re", "est_im", "true_re", "true_im", "abs_err"]


def cmd_oracle_check(cfg: ScenarioConfig, args) -> int:
    t0 = time.perf_counter()
    rows, max_err, dists = run_oracle_check(cfg)
    ok = max_err < cfg.tolerance
    elapsed = _elapsed(t0)
    out = _out_dir(cfg, args, required=False)
    if out is not None:
        meta = write_artifacts(
            cfg, args, out, elapsed, [("oracle_check", ORACLE_COLUMNS, rows)],
            lambda: {"entries": rows, "passed": ok},
            max_abs_err=max_err, tolerance=cfg.tolerance,
        )
        write_tables_csv(f"{out}/distributions.csv", dists, meta)
    print(f"oracle-check: {len(rows)} entries, max |error| = {max_err:.3e} "
          f"(tolerance {cfg.tolerance:.1e}) in {elapsed:.2f} s -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# --- scan -----------------------------------------------------------------------


def _scan_row(lab, j, k, axis, axis_value, est: EntryEstimate, truth: complex, seed: int) -> dict:
    return {
        "l": lab, "j": j, "k": k, "axis": axis, "axis_value": axis_value,
        "est_re": est.value.real, "est_im": est.value.imag,
        "var_re": est.var_re, "var_im": est.var_im,
        "true_re": truth.real, "true_im": truth.imag,
        "n": est.n_per_setting, "seed": seed, "method": est.method,
    }


def run_scan(cfg: ScenarioConfig, refine: bool = False) -> list[dict]:
    """Noise-evolution scan: sampled entry estimates along a noise grid.

    One noisy realization per (grid point, outcome) at the configured shot
    model, with predicted error-transfer variances and the transformed
    ground truth.  With ``refine`` the sum-rule refinement is applied
    across outcomes at each grid point.  The exact tables, variances and
    estimates of a grid point are computed for all its outcomes in one call
    each; every outcome still draws its counts from its own seed.  An
    outcome with a dead post-selection is refused.
    """
    if cfg.noise is None:
        raise ConfigError("scan requires a noise block")
    if cfg.entry is None:
        raise ConfigError("scan requires an entry block (one (j, k) slot)")
    povm = cfg.povm()
    shot = cfg.shot_model()
    j, k = cfg.entry["j"], cfg.entry["k"]
    labels = [lab for lab, _, _ in _entry_list(cfg, povm)]
    if refine:
        labels = list(povm.labels)  # the sum rule needs every outcome
    names = [f"outcome {lab}" for lab in labels]

    transform = apply_dephasing if cfg.noise["type"] == "dephasing" else apply_phase_rotation
    grid = cfg.noise["grid"]
    n = shot.n_per_setting
    coupling = CouplingConfig.symmetric(cfg.g)
    coeffs = rt_coefficients(povm.dim, cfg.g)
    rows_of = [povm.labels.index(lab) for lab in labels]
    seeds = np.random.SeedSequence(shot.seed).generate_state(len(grid) * len(labels))
    rows = []
    for gi, (axis, axis_value, param) in enumerate(grid):
        noisy = transform(povm, param, j, k)
        elems = noisy.elements[rows_of]
        tables = exact_entry_tables(elems, j, k, coupling)
        check_postselection(tables, names)
        var_re, var_im = error_transfer_variance(tables, coeffs, n)
        point_seeds = [int(s) for s in seeds[gi * len(labels):(gi + 1) * len(labels)]]
        counts = np.array([
            sample_counts(t, ShotModel(n, shot.statistics, seed))
            for t, seed in zip(tables, point_seeds)
        ])
        values = estimate_from_tables(counts, coeffs).tolist()
        sampled = [
            EntryEstimate(value, vr, vi, n, "sampled")
            for value, vr, vi in zip(values, var_re.tolist(), var_im.tolist())
        ]
        truths = [complex(e[j, k]) for e in elems]
        for lab, est, truth, seed in zip(labels, sampled, truths, point_seeds):
            rows.append(_scan_row(lab, j, k, axis, axis_value, est, truth, seed))
        if refine:
            for lab, est, truth in zip(labels, completeness_refine(sampled), truths):
                rows.append(_scan_row(lab, j, k, axis, axis_value, est, truth, -1))
    return rows


SCAN_COLUMNS = [
    "l", "j", "k", "axis", "axis_value", "est_re", "est_im", "var_re", "var_im",
    "true_re", "true_im", "n", "seed", "method",
]


def cmd_scan(cfg: ScenarioConfig, args) -> int:
    t0 = time.perf_counter()
    rows = run_scan(cfg, refine=args.refine)
    elapsed = _elapsed(t0)
    out = _out_dir(cfg, args)

    def results():
        records = [
            estimate_record(
                EntryEstimate(complex(r["est_re"], r["est_im"]), r["var_re"], r["var_im"],
                              r["n"], r["method"]),
                r["l"], r["j"], r["k"], cfg.g, r["seed"],
            )
            for r in rows
        ]
        return {"rows": rows, "estimates": records}

    write_artifacts(cfg, args, out, elapsed, [("scan", SCAN_COLUMNS, rows)], results)
    print(f"scan: wrote {len(rows)} rows to {out} in {elapsed:.2f} s")
    return 0


# --- variance-sweep ---------------------------------------------------------------


SWEEP_COLUMNS = [
    "axis_value", "var_analytic", "var_transfer", "var_empirical",
    "mean_re", "mean_im", "trials", "seed",
]


def run_variance_sweep(cfg: ScenarioConfig) -> list[dict]:
    if cfg.sweep is None:
        raise ConfigError("variance-sweep requires a sweep block")
    kwargs = dict(cfg.sweep, shot=cfg.shot_model())
    if cfg.sweep["axis"] in ("xi", "phi"):
        if cfg.entry is None or cfg.entry["l"] == "all":
            raise ConfigError("sweep over xi/phi needs an entry block with a single l")
        kwargs.update(
            povm=cfg.povm(), label=cfg.entry["l"], j=cfg.entry["j"], k=cfg.entry["k"],
        )
    try:
        spec = SweepSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from None
    return variance_sweep(spec)


def cmd_variance_sweep(cfg: ScenarioConfig, args) -> int:
    t0 = time.perf_counter()
    rows = run_variance_sweep(cfg)
    elapsed = _elapsed(t0)
    out = _out_dir(cfg, args)
    write_artifacts(
        cfg, args, out, elapsed, [("variance_sweep", SWEEP_COLUMNS, rows)],
        lambda: {"rows": rows},
    )
    print(f"variance-sweep: wrote {len(rows)} rows to {out} in {elapsed:.2f} s")
    return 0


# --- calibrate --------------------------------------------------------------------


def run_calibrate(cfg: ScenarioConfig) -> dict:
    """Simulated calibrations: overlap grid and phase anchor inputs.

    Without a calibration grid, a dephasing noise grid is calibrated.
    """
    if cfg.calibration is None and cfg.noise is None:
        raise ConfigError("calibrate requires a calibration (or noise) block")
    calib = cfg.calibration or {"samples": 100000, "grid": None, "phase_inputs": []}
    samples = calib["samples"]
    grid = calib["grid"]
    if grid is None:
        grid = cfg.noise["grid"] if cfg.noise and cfg.noise["type"] == "dephasing" else []

    seeds = np.random.SeedSequence(cfg.seed).generate_state(max(len(grid), 1))
    xi_rows = [
        {
            "axis_value": ax, "xi_true": xi,
            "xi_hat": calibrate_xi(xi, samples, int(seeds[i])),
            "samples": samples, "seed": int(seeds[i]),
        }
        for i, (_, ax, xi) in enumerate(grid)
    ]
    phase_rows = [
        {"p_h_minus_p_v": delta, "phi_hat": calibrate_phase((1 + delta) / 2, (1 - delta) / 2)}
        for delta in calib["phase_inputs"]
    ]
    return {"xi": xi_rows, "phase": phase_rows, "samples": samples}


def run_refinement_demo(cfg: ScenarioConfig) -> list[dict]:
    """Per-outcome raw vs refined predicted variances for the scenario POVM."""
    povm = cfg.povm()
    shot = cfg.shot_model()
    _, j, k = _entry_list(cfg, povm)[0]
    study = refinement_trials(povm, j, k, cfg.g, shot, 0)
    return [
        {
            "l": lab, "j": j, "k": k,
            "var_raw": study.raw[lab].total_variance,
            "var_refined": study.refined[lab].total_variance,
            "n": shot.n_per_setting,
        }
        for lab in study.labels
    ]


#: (file stem, results key, columns) of each calibrate CSV; a table is
#: written only when it has rows.
CALIBRATE_TABLES = (
    ("calibration_xi", "xi", ["axis_value", "xi_true", "xi_hat", "samples", "seed"]),
    ("calibration_phase", "phase", ["p_h_minus_p_v", "phi_hat"]),
    ("refinement", "refinement", ["l", "j", "k", "var_raw", "var_refined", "n"]),
)


def cmd_calibrate(cfg: ScenarioConfig, args) -> int:
    t0 = time.perf_counter()
    results = run_calibrate(cfg)
    out = _out_dir(cfg, args)
    if args.refine:
        results["refinement"] = run_refinement_demo(cfg)
    elapsed = _elapsed(t0)
    tables = [
        (stem, columns, results[key])
        for stem, key, columns in CALIBRATE_TABLES
        if results.get(key)
    ]
    write_artifacts(cfg, args, out, elapsed, tables, lambda: results)
    print(f"calibrate: {len(results['xi'])} overlap points, "
          f"{len(results['phase'])} phase points -> {out}")
    return 0


COMMANDS = {
    "oracle-check": cmd_oracle_check,
    "scan": cmd_scan,
    "variance-sweep": cmd_variance_sweep,
    "calibrate": cmd_calibrate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, seed_override=args.seed)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
