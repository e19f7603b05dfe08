"""Command-line scenario runner.

Subcommands::

    povmdt oracle-check   --config cfg.yaml [--out DIR]
    povmdt scan           --config cfg.yaml --out DIR [--refine]
    povmdt variance-sweep --config cfg.yaml --out DIR
    povmdt calibrate      --config cfg.yaml --out DIR

Common flags: ``--seed`` overrides the config seed and ``shots.seed``,
``--format csv|json`` selects the artifact format; only ``scan`` takes
``--refine``.  Exit codes: 0 success, 1 tolerance or assertion failure, 2
configuration error.

The config blocks, noise and calibration grids included, are resolved by
:func:`povmdt.config.parse_config`; the commands here only iterate them.
:func:`blocks_read` names the blocks each command reads, and a config that
gives any other block is refused.  Each command is one function that
computes and describes its result as a :class:`CommandResult`, whose
artifacts are column tables (:func:`~povmdt.reports.write_csv`); only json
mode builds rows from them.  :func:`main` runs every command the same way:
it resolves the config, its blocks and the output directory before any
work, times the command, writes its artifacts through
:func:`write_artifacts` and prints one summary line.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import BLOCKS, CALIBRATION_SAMPLES, ConfigError, ScenarioConfig, parse_config
from .estimator import (
    _require_outcomes,
    _require_sum_rule,
    completeness_refine,
    estimate_from_tables,
    rt_coefficients,
)
from .montecarlo import (
    SWEEP_KEYWORDS,
    SweepSpec,
    _child_seeds,
    exact_slot,
    sample_counts,
    variance_sweep,
)
from .noise import apply_dephasing, apply_phase_rotation, calibrate_phase, calibrate_xi
from .povm import matrix_entry_oracle
from .protocol import SETTINGS, CouplingConfig, exact_entry_tables
from .reports import run_metadata, table_rows, write_csv, write_json_report


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


@dataclass(frozen=True)
class CommandResult:
    """What one command computed, for :func:`main` to write and report.

    ``tables`` holds (file stem, column table) of the CSV artifacts;
    ``results`` is called for the JSON report's results only in json mode;
    ``meta`` extends the artifact metadata; ``summary`` describes the result
    on the stdout line; ``code`` is the exit code.
    """

    tables: list[tuple[str, dict]]
    results: Callable[[], dict]
    summary: str
    meta: dict = field(default_factory=dict)
    code: int = 0


#: Stems of the CSV tables that json mode writes too: the JSON report does
#: not hold their rows.
CSV_IN_JSON_MODE = ("distributions",)


def write_artifacts(cfg: ScenarioConfig, args, out: str, elapsed: float,
                    result: CommandResult) -> None:
    """Write one command's artifacts to ``out``.

    csv mode writes every table as ``<stem>.csv``; json mode writes one
    ``<command>.json`` report of the metadata, the wall clock and the
    results, plus the tables named in :data:`CSV_IN_JSON_MODE`.  The wall
    clock goes only into the JSON report: CSV artifacts stay byte-identical
    across reruns.
    """
    meta = dict(run_metadata(args.command, cfg.resolved_echo(), cfg.seed), **result.meta)
    json_mode = (args.format or cfg.out_format) == "json"
    if json_mode:
        write_json_report(
            f"{out}/{args.command.replace('-', '_')}.json",
            dict(meta, wall_clock_s=elapsed), result.results(),
        )
    for stem, table in result.tables:
        if not json_mode or stem in CSV_IN_JSON_MODE:
            write_csv(f"{out}/{stem}.csv", table, meta)


# --- oracle-check ---------------------------------------------------------------


def cmd_oracle_check(cfg: ScenarioConfig, args) -> CommandResult:
    """Exact-pipeline reconstruction vs the entry oracle for every entry,
    with the exact meter tables of each entry; fails above the tolerance."""
    povm = cfg.povm()
    coupling = CouplingConfig.symmetric(cfg.g)
    coeffs = rt_coefficients(povm.dim, cfg.g)
    entries = _entry_list(cfg, povm)
    truth = [matrix_entry_oracle(povm, lab, j, k) for lab, j, k in entries]
    tables = [exact_entry_tables(povm.element(lab), j, k, coupling) for lab, j, k in entries]
    est = [estimate_from_tables(t, coeffs) for t in tables]
    errors = [abs(e - t) for e, t in zip(est, truth)]
    labels, js, ks = zip(*entries)
    oracle = {"l": labels, "j": js, "k": ks,
              "est_re": [e.real for e in est], "est_im": [e.imag for e in est],
              "true_re": [t.real for t in truth], "true_im": [t.imag for t in truth],
              "abs_err": errors}
    cell = np.indices((len(entries), len(SETTINGS), 2, 2)).reshape(4, -1)  # (entry, s, m, n)
    bases = np.array(SETTINGS)[cell[1]]
    dists = {"l": np.take(labels, cell[0]), "j": np.take(js, cell[0]), "k": np.take(ks, cell[0]),
             "basis_b": bases[:, 0], "basis_a": bases[:, 1], "m": cell[2], "n": cell[3],
             "W": np.ravel(tables)}
    max_err = max([0.0] + errors)
    ok = max_err < cfg.tolerance
    return CommandResult(
        [("oracle_check", oracle), ("distributions", dists)],
        lambda: {"entries": table_rows(oracle), "passed": ok},
        f"{'PASS' if ok else 'FAIL'}, {len(entries)} entries, max |error| = {max_err:.3e} "
        f"(tolerance {cfg.tolerance:.1e})",
        {"max_abs_err": max_err, "tolerance": cfg.tolerance},
        0 if ok else 1,
    )


# --- scan -----------------------------------------------------------------------


def run_scan(cfg: ScenarioConfig, refine: bool = False) -> dict:
    """Noise-evolution scan: sampled entry estimates along a noise grid, as
    a column table (:func:`~povmdt.reports.write_csv`) with a row per grid
    point, method and outcome, in that order.

    One noisy realization per (grid point, outcome) at the configured shot
    model, with predicted error-transfer variances and the transformed
    ground truth.  With ``refine`` the sum-rule refinement is applied
    across outcomes at each grid point, after a POVM whose (j, k) entries
    do not sum to zero is refused.  Only the noise map runs grid point
    by grid point; after every point's map, the exact step
    (:func:`~povmdt.montecarlo.exact_slot`), the draw, the estimates and
    the refinement are one call each for the whole grid, and each column
    is one broadcast of their arrays.  The one
    :func:`~povmdt.montecarlo.sample_counts` call draws every (grid point,
    outcome) in that order from ``default_rng(shot.seed)``, and the ``seed``
    column of the sampled rows names that seed.  An outcome with a dead
    post-selection is refused by grid point and outcome.
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
        _require_outcomes(len(labels))
        _require_sum_rule(povm.elements, j, k)

    transform = apply_dephasing if cfg.noise["type"] == "dephasing" else apply_phase_rotation
    grid = cfg.noise["grid"]
    n = shot.n_per_setting
    coeffs = rt_coefficients(povm.dim, cfg.g)
    rows_of = [povm.labels.index(lab) for lab in labels]
    elems = np.stack([transform(povm, param, j, k).elements for _, _, param in grid])[:, rows_of]
    shape = elems.shape[:2]  # (grid points, outcomes)
    size = len(labels)

    def name(i):  # built only for a refusal
        (axis, value, _), lab = grid[i // size], labels[i % size]
        return f"grid point {i // size} ({axis} = {value:g}), outcome {lab}"

    cells, var_re, var_im = exact_slot(elems.reshape((-1,) + elems.shape[2:]), j, k, coeffs, n,
                                       name, statistics=shot.statistics)
    values = estimate_from_tables(sample_counts(cells, shot), coeffs).reshape(shape)
    methods = [(values, var_re.reshape(shape), var_im.reshape(shape))]
    if refine:
        methods.append(completeness_refine(*methods[0]))
    # (grid point, method, outcome) arrays; +0j: a signed zero reads +0.0, as in the oracle
    est, var_re, var_im = (np.stack(column, axis=1) for column in zip(*methods))
    truths = elems[:, None, :, j, k] + 0j

    def column(values):
        return np.broadcast_to(values, est.shape).ravel()

    points = np.array(grid, dtype=object).reshape(-1, 1, 1, 3)  # (axis, axis_value, param)
    # an int64 holds no seed of 2^63 or more: an object column holds it as its int
    seeds = np.array([shot.seed, -1], dtype=np.int64 if shot.seed < 2**63 else object)
    return {
        "l": column(labels), "j": column(j), "k": column(k),
        "axis": column(points[..., 0].astype(str)),
        "axis_value": column(points[..., 1].astype(float)),
        "est_re": column(est.real), "est_im": column(est.imag),
        "var_re": column(var_re), "var_im": column(var_im),
        "true_re": column(truths.real), "true_im": column(truths.imag),
        "n": column(n), "seed": column(np.reshape(seeds[:len(methods)], (-1, 1))),
        "method": column(np.reshape(["sampled", "refined"][:len(methods)], (-1, 1))),
    }


def cmd_scan(cfg: ScenarioConfig, args) -> CommandResult:
    """The table of :func:`run_scan`."""
    table = run_scan(cfg, refine=args.refine)
    return CommandResult([("scan", table)], lambda: {"rows": table_rows(table)},
                         f"{len(table['l'])} rows")


# --- variance-sweep ---------------------------------------------------------------


def cmd_variance_sweep(cfg: ScenarioConfig, args) -> CommandResult:
    """Variance curves along the sweep block; a sweep that breaks the model
    exits 2."""
    if cfg.sweep is None:
        raise ConfigError("variance-sweep requires a sweep block")
    kwargs = dict(cfg.sweep, shot=cfg.shot_model())
    if "povm" in SWEEP_KEYWORDS[cfg.sweep["axis"]]:
        if cfg.entry is None or cfg.entry["l"] == "all":
            raise ConfigError("sweep over xi/phi needs an entry block with a single l")
        povm = cfg.povm()
        [(label, j, k)] = _entry_list(cfg, povm)
        kwargs.update(povm=povm, label=label, j=j, k=k)
    try:
        spec = SweepSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from None
    rows = variance_sweep(spec)
    table = {column: [row[column] for row in rows] for column in rows[0]}
    return CommandResult([("variance_sweep", table)], lambda: {"rows": rows}, f"{len(rows)} rows")


# --- calibrate --------------------------------------------------------------------


def cmd_calibrate(cfg: ScenarioConfig, args) -> CommandResult:
    """Simulated calibrations: overlap grid and phase anchor inputs.

    Without a calibration grid, a dephasing noise grid is calibrated.  A
    table is written only when it has rows; a run that would write none is
    refused.
    """
    if cfg.calibration is None and cfg.noise is None:
        raise ConfigError("calibrate requires a calibration (or noise) block")
    calib = cfg.calibration or {"samples": CALIBRATION_SAMPLES, "grid": None, "phase_inputs": []}
    samples = calib["samples"]
    grid = calib["grid"]
    if grid is None:
        grid = cfg.noise["grid"] if cfg.noise and cfg.noise["type"] == "dephasing" else []
    if not (grid or calib["phase_inputs"]):
        raise ConfigError("calibrate has nothing to do: no overlap grid (calibration or "
                          "dephasing noise) and no calibration.phase_inputs")

    seeds = _child_seeds(cfg.seed, max(len(grid), 1)).tolist()[:len(grid)]
    _, axis_values, xis = zip(*grid) if grid else ((), (), ())
    xi_hat = [calibrate_xi(x, samples, seed) for x, seed in zip(xis, seeds)]
    xi = {"axis_value": axis_values, "xi_true": xis, "xi_hat": xi_hat,
          "samples": [samples] * len(grid), "seed": seeds}
    deltas = calib["phase_inputs"]
    phase = {"p_h_minus_p_v": deltas,
             "phi_hat": [calibrate_phase((1 + d) / 2, (1 - d) / 2) for d in deltas]}
    return CommandResult(
        [("calibration_xi", xi)] * bool(grid) + [("calibration_phase", phase)] * bool(deltas),
        # xi_hat_var: the binomial variance of xi_hat = 2 n_H / samples - 1, at xi_hat
        lambda: {"xi": table_rows(dict(xi, xi_hat_var=[(1 - x * x) / samples for x in xi_hat])),
                 "phase": table_rows(phase), "samples": samples},
        f"{len(grid)} overlap points, {len(deltas)} phase points",
    )


#: Each command's function, help text and whether it needs an output
#: directory.
COMMANDS = {
    "oracle-check": (cmd_oracle_check, "exact pipeline vs ground-truth entries", False),
    "scan": (cmd_scan, "noise-evolution scan of an off-diagonal entry", True),
    "variance-sweep": (cmd_variance_sweep,
                       "analytic / error-transfer / empirical variance curves", True),
    "calibrate": (cmd_calibrate, "simulated overlap and phase calibrations", True),
}


def blocks_read(command: str, cfg: ScenarioConfig) -> set[str]:
    """The config blocks that ``command`` reads from ``cfg``; every command
    reads ``seed`` and ``output``.  A variance sweep reads ``povm`` and
    ``entry`` where its axis takes a POVM, and ``coupling`` where its axis
    takes ``g`` and the ``sweep`` block gives none (:data:`SWEEP_KEYWORDS`);
    ``calibrate`` reads ``noise`` only where ``calibration`` gives no overlap
    grid."""
    reads = {"seed", "output"}
    if command == "oracle-check":
        return reads | {"povm", "entry", "coupling", "tolerance"}
    if command == "scan":
        return reads | {"povm", "entry", "coupling", "shots", "noise"}
    if command == "calibrate":
        grid = cfg.calibration and cfg.calibration["grid"]
        return reads | {"calibration"} | (set() if grid else {"noise"})
    takes = SWEEP_KEYWORDS[cfg.sweep["axis"]] if cfg.sweep else ()
    if "povm" in takes:
        reads |= {"povm", "entry"}
    if "g" in takes and "g" not in cfg.raw["sweep"]:
        reads.add("coupling")
    return reads | {"shots", "sweep"}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as it is."""
    if hasattr(build_parser, "parser"):
        return build_parser.parser
    parser = argparse.ArgumentParser(prog="povmdt", description="Direct characterization of "
                                     "POVM matrix entries: scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML scenario config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        if name == "scan":
            p.add_argument("--refine", action="store_true",
                           help="also apply the completeness sum-rule refinement")
    build_parser.parser = parser
    return parser


def main(argv=None) -> int:
    """Run one command: resolve its config and output directory before any
    work, refusing every block that the command does not read, time it,
    write its artifacts and print its one summary line."""
    args = build_parser().parse_args(argv)
    command, _, needs_out = COMMANDS[args.command]
    try:
        cfg = parse_config(args.config, seed_override=args.seed)
        reads = blocks_read(args.command, cfg)
        unread = [block for block in BLOCKS if block not in reads]
        given = [block for block in unread if block in cfg.raw]
        if given:
            raise ConfigError(f"{args.command} reads none of the blocks {', '.join(unread)}; "
                              f"got {', '.join(given)}")
        out = args.out or cfg.out_dir
        if out is None and needs_out:
            raise ConfigError("an output directory is required (output.dir or --out)")
        t0 = time.perf_counter()
        result = command(cfg, args)
        elapsed = round(time.perf_counter() - t0, 6)
        if out is not None:
            write_artifacts(cfg, args, out, elapsed, result)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.command}: {result.summary} in {elapsed:.2f} s"
          + (f" -> {out}" if out is not None else ""))
    return result.code


if __name__ == "__main__":
    sys.exit(main())
