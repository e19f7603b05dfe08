"""Config validation, CLI commands, artifacts and exit codes."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
import yaml

from povmdt import Povm, cli, montecarlo, save_povm
from povmdt.cli import COMMANDS, blocks_read, main, run_scan
from povmdt.config import BLOCKS, ConfigError, parse_config
from povmdt.estimator import (
    EntryEstimate,
    completeness_refine,
    error_transfer_variance,
    estimate_from_tables,
    rt_coefficients,
)
from povmdt.montecarlo import SWEEP_KEYWORDS, EntryScenario, refinement_trials, run_trials
from povmdt.noise import apply_dephasing, apply_phase_rotation, wavepacket_overlap
from povmdt.protocol import CouplingConfig, exact_entry_tables
from povmdt.reports import table_rows, write_csv, write_json_report


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
README = CONFIGS.parent / "README.md"

#: The CLI commands listed in the README, as (output name, argv without --out).
README_COMMANDS = [
    ("oracle", ["oracle-check", "--config", str(CONFIGS / "oracle_check.yaml")]),
    ("dephasing", ["scan", "--config", str(CONFIGS / "sic_dephasing_scan.yaml")]),
    ("rotation", ["scan", "--config", str(CONFIGS / "sic_rotation_scan.yaml"), "--refine"]),
    ("variance_g", ["variance-sweep", "--config", str(CONFIGS / "variance_vs_g.yaml")]),
    ("calibration", ["calibrate", "--config", str(CONFIGS / "calibration.yaml")]),
]


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


BASE_SCAN = {
    "seed": 123,
    "povm": {"source": "builtin:sic"},
    "entry": {"l": "all", "j": 1, "k": 0},
    "coupling": {"g": 0.25},
    "shots": {"n_per_setting": 12790},
    "noise": {"type": "dephasing", "xi": [1.0, 0.5, 0.0]},
}
#: BASE_SCAN on the complete tetrahedron: builtin:sic breaks the sum rule
#: that a refinement needs.
COMPLETE_SCAN = dict(BASE_SCAN, povm={"source": "builtin:sic-complete"})


def reference_scan(cfg, refine=False):
    """Per-outcome reference for ``run_scan``: one tables, variance and
    estimate call per (grid point, outcome), every (grid point, outcome)
    drawn in that order from the scan's one generator by numpy directly."""
    povm, shot = cfg.povm(), cfg.shot_model()
    j, k = cfg.entry["j"], cfg.entry["k"]
    labels = list(povm.labels)
    if cfg.entry["l"] != "all" and not refine:
        labels = [cfg.entry["l"]]
    transform = apply_dephasing if cfg.noise["type"] == "dephasing" else apply_phase_rotation
    grid = cfg.noise["grid"]
    n = shot.n_per_setting
    coupling = CouplingConfig.symmetric(cfg.g)
    coeffs = rt_coefficients(povm.dim, cfg.g)
    rng = np.random.default_rng(shot.seed)
    rows = []

    def row(lab, est, truth, seed):
        return {
            "l": lab, "j": j, "k": k, "axis": axis, "axis_value": axis_value,
            "est_re": est.value.real, "est_im": est.value.imag,
            "var_re": est.var_re, "var_im": est.var_im,
            "true_re": truth.real, "true_im": truth.imag,
            "n": n, "seed": seed, "method": est.method,
        }

    for axis, axis_value, param in grid:
        noisy = transform(povm, param, j, k)
        truths, sampled = [], []
        for lab in labels:
            elem = noisy.element(lab)
            tables = exact_entry_tables(elem, j, k, coupling)
            var_re, var_im = error_transfer_variance(tables, coeffs, n,
                                                     statistics=shot.statistics)
            cells = np.maximum(tables.reshape(9, 4), 0.0)
            if shot.statistics == "poisson":
                counts = rng.poisson(n * cells)
            else:
                counts = [rng.multinomial(n, [*p, max(1.0 - p.sum(), 0.0)])[:-1] for p in cells]
            counts = np.reshape(counts, (9, 2, 2)) / n
            est = EntryEstimate(estimate_from_tables(counts, coeffs), var_re, var_im, n, "sampled")
            truth = complex(elem[j, k])
            truths.append(truth)
            sampled.append(est)
            rows.append(row(lab, est, truth, shot.seed))
        if refine:
            refined = completeness_refine([est.value for est in sampled],
                                          [est.var_re for est in sampled],
                                          [est.var_im for est in sampled])
            for lab, value, vr, vi, truth in zip(labels, *(c.tolist() for c in refined), truths):
                rows.append(row(lab, EntryEstimate(value, vr, vi, n, "refined"), truth, -1))
    return rows


class TestConfigParsing:
    def test_full_config_roundtrip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE_SCAN))
        assert cfg.seed == 123
        assert abs(cfg.g - np.pi / 4) < 1e-15
        assert cfg.shots.n_per_setting == 12790
        assert cfg.noise["type"] == "dephasing"
        assert cfg.povm().labels == (1, 2, 3, 4)

    def test_unknown_top_level_key(self, tmp_path):
        bad = dict(BASE_SCAN, extra=1)
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write_config(tmp_path, bad))

    def test_unknown_nested_key(self, tmp_path):
        bad = dict(BASE_SCAN, shots={"n_per_setting": 10, "bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(write_config(tmp_path, bad))

    def test_boundary_coupling_rejected(self, tmp_path):
        bad = dict(BASE_SCAN, coupling={"g": 0.0})
        with pytest.raises(ConfigError, match="strictly in"):
            parse_config(write_config(tmp_path, bad))

    def test_diagonal_entry_rejected(self, tmp_path):
        bad = dict(BASE_SCAN, entry={"l": 1, "j": 1, "k": 1})
        with pytest.raises(ConfigError, match="must differ"):
            parse_config(write_config(tmp_path, bad))

    def test_empty_noise_grid_rejected(self, tmp_path):
        bad = dict(BASE_SCAN, noise={"type": "dephasing", "xi": []})
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config(write_config(tmp_path, bad))

    def test_xi_out_of_range(self, tmp_path):
        bad = dict(BASE_SCAN, noise={"type": "dephasing", "xi": [1.5]})
        with pytest.raises(ConfigError, match="outside"):
            parse_config(write_config(tmp_path, bad))

    def test_bad_statistics_exits_2(self, tmp_path, capsys):
        bad = dict(BASE_SCAN, shots={"n_per_setting": 100, "statistics": "gaussian"})
        out = tmp_path / "out"
        assert main(["scan", "--config", write_config(tmp_path, bad), "--out", str(out)]) == 2
        assert "shots: statistics must be 'poisson' or 'multinomial'" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE_SCAN), seed_override=7)
        assert cfg.seed == 7

    def test_seed_flag_replaces_shots_seed(self, tmp_path):
        """``--seed`` draws a scan's counts even where the config gives
        ``shots.seed``: two flags write different rows, each naming its own
        seed in the rows, the CSV header and the JSON report."""
        data = dict(BASE_SCAN, seed=1, shots={"n_per_setting": 12790, "seed": 9})
        path = write_config(tmp_path, data)
        assert parse_config(path).shots.seed == 9
        samples = {}
        for seed in (5, 6):
            assert parse_config(path, seed_override=seed).shots.seed == seed
            out = tmp_path / f"seed_{seed}"
            assert main(["scan", "--config", path, "--out", str(out), "--seed", str(seed),
                         "--format", "json"]) == 0
            report = json.loads((out / "scan.json").read_text())
            assert report["seed"] == seed
            rows = report["results"]["rows"]
            assert {row["seed"] for row in rows} == {seed}
            samples[seed] = [(row["est_re"], row["est_im"]) for row in rows]
            out = tmp_path / f"seed_{seed}_csv"
            assert main(["scan", "--config", path, "--out", str(out), "--seed", str(seed)]) == 0
            assert f"# seed: {seed}" in (out / "scan.csv").read_text().splitlines()
        assert samples[5] != samples[6]

    @pytest.mark.parametrize("value", ["abc", 1.5, True, -1])
    @pytest.mark.parametrize("source", ["seed", "--seed", "shots.seed", "povm.seed"])
    def test_bad_seed_is_a_config_error(self, tmp_path, capsys, source, value):
        """Seeds come from outside: anything but a non-negative integer exits 2
        and writes nothing."""
        data = dict(BASE_SCAN, povm={"source": "random", "d": 2, "outcomes": 3})
        override = None
        if source == "--seed":
            override = value
        elif "." in source:
            block = source.split(".")[0]
            data[block] = dict(data[block], seed=value)
        else:
            data["seed"] = value
        path = write_config(tmp_path, data)
        with pytest.raises(ConfigError, match="non-negative integer"):
            parse_config(path, seed_override=override)
        if source == "--seed" and value != -1:
            return  # argparse itself refuses a non-integer --seed
        out = tmp_path / "out"
        argv = ["scan", "--config", path, "--out", str(out)]
        if source == "--seed":
            argv += ["--seed", str(value)]
        assert main(argv) == 2
        assert "non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise, grid", [
        ({"type": "dephasing", "xi": [1.0, 0.25]}, [("xi", 1.0, 1.0), ("xi", 0.25, 0.25)]),
        ({"type": "dephasing", "epsilon": [0, 60], "coherence_length": 120.0},
         [("epsilon", 0.0, 1.0), ("epsilon", 60.0, wavepacket_overlap(60.0, 120.0))]),
        ({"type": "rotation", "phi": [-0.5, 0.25]},
         [("phi", -np.pi / 2, -np.pi / 2), ("phi", np.pi / 4, np.pi / 4)]),
    ])
    def test_noise_grid_resolved(self, tmp_path, noise, grid):
        cfg = parse_config(write_config(tmp_path, dict(BASE_SCAN, noise=noise)))
        assert cfg.noise == {"type": noise["type"], "grid": grid}

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/cfg.yaml")

    def test_malformed_yaml_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("seed: [1, 2\npovm: {source: random\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_config(str(path))
        out = tmp_path / "out"
        assert main(["scan", "--config", str(path), "--out", str(out)]) == 2
        assert "not valid YAML" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sizes, rc", [
        ({"d": 2.0, "outcomes": 3}, 0), ({"d": 2, "outcomes": 3.0}, 0),
        ({"d": 2.5, "outcomes": 3}, 2), ({"d": 2, "outcomes": 3.5}, 2),
    ])
    def test_random_povm_sizes(self, tmp_path, sizes, rc):
        """Integral floats are the integers they equal; other floats exit 2."""
        cfg = write_config(tmp_path, {"povm": dict(sizes, source="random", seed=4)})
        assert main(["oracle-check", "--config", cfg]) == rc
        if rc == 0:
            assert parse_config(cfg).povm().elements.shape == (3, 2, 2)

    def test_random_povm_source(self, tmp_path):
        data = {"povm": {"source": "random", "d": 3, "outcomes": 4, "seed": 5}}
        cfg = parse_config(write_config(tmp_path, data))
        assert cfg.povm().dim == 3
        assert len(cfg.povm()) == 4

    def test_file_povm_source(self, tmp_path, small_random_povm):
        from povmdt import save_povm

        povm_path = str(tmp_path / "p.json")
        save_povm(small_random_povm, povm_path)
        cfg = parse_config(write_config(tmp_path, {"povm": {"source": "file", "path": povm_path}}))
        assert cfg.povm().dim == 3

    def test_walk_povm_source(self, tmp_path, rng):
        from povmdt.linalg import random_unitary

        u = random_unitary(6, rng)
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps({
            "n_positions": 3, "coin_dim": 2,
            "matrix": [[[z.real, z.imag] for z in row] for row in u],
        }))
        cfg = parse_config(write_config(tmp_path, {"povm": {"source": "walk", "unitary": str(upath)}}))
        assert cfg.povm().dim == 2
        assert cfg.povm().completeness_residual() < 1e-12

    @pytest.mark.parametrize("povm, content, message", [
        ({"source": "random", "d": 1, "outcomes": 3}, None,
         "povm: system dimension must be >= 2, got 1"),
        ({"source": "random", "d": 2, "outcomes": 0}, None,
         "povm: need at least one outcome, got 0"),
        ({"source": "walk"}, "{not json", "Expecting property name"),
        ({"source": "walk"},
         {"n_positions": 2, "coin_dim": 1, "matrix": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]},
         "walk operator is not unitary"),
        ({"source": "walk"}, {"n_positions": 2, "coin_dim": 1, "matrix": [[1, 0], [0, 1]]},
         "matrix entries must be [re, im] pairs"),
        ({"source": "file"}, {"dim": 2, "elements": [[[0.5, 0], [0, 0.5]]]},
         "matrix entries must be [re, im] pairs"),
        ({"source": "file"}, {"elements": []}, "missing key 'dim'"),
        ({"source": "file"}, {"dim": None, "elements": []}, "int() argument must be"),
        ({"source": "file"}, {"dim": float("inf"), "elements": []},
         "cannot convert float infinity to integer"),
        ({"source": "file"}, [1, 2], "list indices must be integers"),
        ({"source": "file"}, {"dim": 2, "elements": 3}, "'int' object is not iterable"),
        ({"source": "file"},
         {"dim": 2, "elements": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "labels": 4},
         "'int' object is not iterable"),
        ({"source": "walk"}, 3, "'int' object is not subscriptable"),
        ({"source": "walk"}, {"matrix": [[[1, 0]]], "coin_dim": 1}, "missing key 'n_positions'"),
    ], ids=["random-d", "random-outcomes", "walk-not-json", "walk-not-unitary",
            "walk-number-entries", "file-number-entries", "file-no-dim", "file-null-dim",
            "file-infinite-dim", "file-list", "file-number-elements", "file-number-labels",
            "walk-number", "walk-no-positions"])
    def test_malformed_povm_source_exits_2(self, tmp_path, capsys, povm, content, message):
        """Every malformed povm source is a config error, named by the key
        that points at it where there is one: exit 2, nothing written."""
        if content is not None:
            path = tmp_path / "source.json"
            path.write_text(content if isinstance(content, str) else json.dumps(content))
            key = "path" if povm["source"] == "file" else "unitary"
            povm = dict(povm, **{key: str(path)})
            message = f"povm.{key}: {path}: {message}"
        cfg = write_config(tmp_path, dict(BASE_SCAN, povm=povm))
        out = tmp_path / "out"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()


SIC = {"source": "builtin:sic"}
INF, NAN = float("inf"), float("nan")


def without(data, key):
    return {k: v for k, v in data.items() if k != key}


def only(data, *keys):
    return {k: v for k, v in data.items() if k in keys}


def sweep_config(**sweep):
    """A sweep config with no scenario block: those an axis reads are added
    where a case needs them."""
    return dict(only(BASE_SCAN, "seed", "shots"),
                sweep=dict({"axis": "g", "grid": [0.25], "trials": 10}, **sweep))


#: A single-outcome entry of builtin:sic, as xi and phi sweeps read it.
SWEPT_ENTRY = {"povm": SIC, "entry": {"l": 1, "j": 1, "k": 0}}


@pytest.mark.parametrize("command, data, message", [
    # blocks and keys
    ("oracle-check", {"povm": [1]}, "povm: expected a mapping, got list"),
    ("oracle-check", {"povm": {}}, "povm: missing required key(s) ['source']"),
    ("scan", dict(BASE_SCAN, entry={"j": "a", "k": 0}), "entry.j: expected a number, got 'a'"),
    # missing blocks
    ("oracle-check", None, "povm: block is required for this command"),
    ("scan", without(BASE_SCAN, "shots"), "shots: block is required for this command"),
    # POVM sources
    ("oracle-check", {"povm": {"source": "file", "path": "missing.json"}},
     "povm.path: file not found: missing.json"),
    ("oracle-check", {"povm": {"source": "sic"}},
     "povm.source: expected one of ('builtin:sic', 'builtin:sic-complete', 'random', 'file', "
     "'walk'), got 'sic'"),
    ("oracle-check", {"povm": {"source": "random", "outcomes": 3}},
     "povm.d: required for source 'random'"),
    ("oracle-check", {"povm": {"source": "file"}}, "povm.path: required (string) for source 'file'"),
    ("oracle-check", {"povm": {"source": "walk"}},
     "povm.unitary: required (string) for source 'walk'"),
    # noise
    ("scan", dict(BASE_SCAN, noise={"type": "thermal"}),
     "noise.type: expected one of ('dephasing', 'rotation'), got 'thermal'"),
    ("scan", dict(BASE_SCAN, noise={"type": "dephasing"}),
     "noise: dephasing needs either an xi grid or an epsilon grid"),
    ("scan", dict(BASE_SCAN, noise={"type": "rotation"}),
     "noise: rotation needs a phi grid (units of pi)"),
    # other keys
    ("variance-sweep", sweep_config(axis="eta"),
     "sweep.axis: expected one of ('g', 'theta', 'xi', 'phi'), got 'eta'"),
    ("oracle-check", {"povm": SIC, "output": {"dir": 3}}, "output.dir: expected a string path"),
    ("oracle-check", {"povm": SIC, "output": {"format": "xml"}},
     "output.format: expected one of ('csv', 'json'), got 'xml'"),
    ("oracle-check", {"povm": SIC, "tolerance": 0}, "tolerance: expected a positive number, got 0"),
    ("oracle-check", {"povm": SIC, "tolerance": -1e-9},
     "tolerance: expected a positive number, got -1e-09"),
    # commands
    ("scan", without(BASE_SCAN, "noise"), "scan requires a noise block"),
    ("scan", without(BASE_SCAN, "entry"), "scan requires an entry block (one (j, k) slot)"),
    ("variance-sweep", dict(sweep_config(axis="xi", grid=[0.5]),
                            **only(BASE_SCAN, "povm", "entry")),
     "sweep over xi/phi needs an entry block with a single l"),
    ("calibrate", {}, "calibrate requires a calibration (or noise) block"),
    # integers past numpy's C long
    ("calibrate", {"calibration": {"xi_grid": [0.5], "samples": 10**29}},
     f"calibration.samples: expected an integer in the int64 range, got {10**29}"),
    ("scan", dict(BASE_SCAN, shots={"n_per_setting": 10**29}),
     f"shots.n_per_setting: expected an integer in the int64 range, got {10**29}"),
    # a sweep key its axis does not read
    ("variance-sweep", dict(sweep_config(axis="xi", grid=[0.5], eta=0.3, theta=0.2),
                            **SWEPT_ENTRY),
     "sweep: axis 'xi' sweeps take povm, label, j, k, g; got theta, eta"),
    # a sweep's own swept parameter, held fixed
    ("variance-sweep", sweep_config(axis="g", grid=[0.25], trials=0, g=0.1),
     "sweep: axis 'g' sweeps take theta, eta, e01; got g"),
    ("variance-sweep", sweep_config(axis="theta", grid=[0.25], trials=0, theta=0.4),
     "sweep: axis 'theta' sweeps take g, eta, e01; got theta"),
    # a scenario block that the command does not read
    ("variance-sweep", dict(BASE_SCAN, **sweep_config(axis="g", grid=[0.25], trials=0)),
     "variance-sweep reads none of the blocks povm, entry, coupling, noise, calibration, "
     "tolerance; got povm, entry, coupling, noise"),
    ("variance-sweep", without(dict(BASE_SCAN, **sweep_config(axis="theta", grid=[0.25])),
                               "entry"),
     "variance-sweep reads none of the blocks povm, entry, noise, calibration, tolerance; "
     "got povm, noise"),
    ("variance-sweep", without(dict(BASE_SCAN, **sweep_config(axis="g", grid=[0.25])), "povm"),
     "variance-sweep reads none of the blocks povm, entry, coupling, noise, calibration, "
     "tolerance; got entry, coupling, noise"),
    ("variance-sweep", dict(BASE_SCAN, **sweep_config(axis="xi", grid=[0.5]),
                            entry={"l": 1, "j": 1, "k": 0}),
     "variance-sweep reads none of the blocks noise, calibration, tolerance; got noise"),
    ("variance-sweep", {"shots": {"n_per_setting": 100}, "calibration": {"xi_grid": [0.5]},
                        "sweep": {"axis": "theta", "grid": [0.25], "trials": 0}},
     "variance-sweep reads none of the blocks povm, entry, noise, calibration, tolerance; "
     "got calibration"),
    ("variance-sweep", {"shots": {"n_per_setting": 100}, "coupling": {"g": 0.1},
                        "sweep": {"axis": "g", "grid": [0.25], "trials": 0}},
     "variance-sweep reads none of the blocks povm, entry, coupling, noise, calibration, "
     "tolerance; got coupling"),
    # coupling.g where the sweep block gives g
    ("variance-sweep", {"shots": {"n_per_setting": 100}, "coupling": {"g": 0.1},
                        "sweep": {"axis": "theta", "grid": [0.25], "trials": 0, "g": 0.2}},
     "variance-sweep reads none of the blocks povm, entry, coupling, noise, calibration, "
     "tolerance; got coupling"),
    ("variance-sweep", dict(sweep_config(axis="theta", grid=[0.25]), tolerance=1e-9),
     "variance-sweep reads none of the blocks povm, entry, noise, calibration, tolerance; "
     "got tolerance"),
    ("oracle-check", {"povm": SIC, "noise": BASE_SCAN["noise"]},
     "oracle-check reads none of the blocks shots, noise, sweep, calibration; got noise"),
    ("oracle-check", {"povm": SIC, "shots": BASE_SCAN["shots"]},
     "oracle-check reads none of the blocks shots, noise, sweep, calibration; got shots"),
    ("oracle-check", {"povm": SIC, "sweep": {"axis": "g", "grid": [0.25]}},
     "oracle-check reads none of the blocks shots, noise, sweep, calibration; got sweep"),
    ("scan", dict(BASE_SCAN, sweep={"axis": "g", "grid": [0.25]}),
     "scan reads none of the blocks sweep, calibration, tolerance; got sweep"),
    ("scan", dict(BASE_SCAN, tolerance=1e-9),
     "scan reads none of the blocks sweep, calibration, tolerance; got tolerance"),
    ("scan", dict(BASE_SCAN, calibration={"xi_grid": [0.5]}),
     "scan reads none of the blocks sweep, calibration, tolerance; got calibration"),
    ("calibrate", {"calibration": {"xi_grid": [0.5]}, "noise": BASE_SCAN["noise"]},
     "calibrate reads none of the blocks povm, entry, coupling, shots, noise, sweep, "
     "tolerance; got noise"),
    ("calibrate", {"calibration": {"xi_grid": [0.5]}, "tolerance": 1e-9},
     "calibrate reads none of the blocks povm, entry, coupling, shots, noise, sweep, "
     "tolerance; got tolerance"),
    ("calibrate", {"calibration": {"phase_inputs": [0.5]}, "tolerance": 1e-9},
     "calibrate reads none of the blocks povm, entry, coupling, shots, sweep, tolerance; "
     "got tolerance"),
    # a noise map that leaves a d = 3 element non-positive, refused before any trial
    ("variance-sweep", dict(sweep_config(axis="phi", grid=[0.0, 0.25]),
                            povm={"source": "random", "d": 3, "outcomes": 3, "seed": 4},
                            entry={"l": 1, "j": 1, "k": 0}),
     "sweep: phase rotation by phi=0.785398 of slot (1, 0): element 1 is not positive "
     "semidefinite within 1e-09"),
], ids=["block-not-mapping", "missing-key", "non-number", "empty-file", "no-shots",
        "povm-file-not-found", "povm-source", "random-without-d", "file-without-path",
        "walk-without-unitary", "noise-type", "dephasing-without-grid", "rotation-without-phi",
        "sweep-axis", "output-dir", "output-format", "tolerance-zero", "tolerance-negative",
        "scan-without-noise", "scan-without-entry", "xi-sweep-all-outcomes",
        "calibrate-without-block", "samples-past-int64", "shots-past-int64",
        "xi-sweep-unread-keys", "g-sweep-fixed-g", "theta-sweep-fixed-theta",
        "g-sweep-povm-entry", "theta-sweep-povm", "g-sweep-entry", "xi-sweep-noise",
        "theta-sweep-calibration", "g-sweep-coupling", "theta-sweep-g-and-coupling",
        "sweep-tolerance", "oracle-noise", "oracle-shots", "oracle-sweep", "scan-sweep",
        "scan-tolerance", "scan-calibration", "calibrate-grid-and-noise", "calibrate-tolerance",
        "calibrate-anchors-tolerance", "phi-sweep-non-positive"])
def test_config_refusal_exits_2(tmp_path, capsys, monkeypatch, command, data, message):
    """Each refusal of the config reader and of a command exits 2 with its
    one message and writes nothing; a block the command does not read is
    refused before the command runs."""
    monkeypatch.chdir(tmp_path)  # where a relative POVM path is not found
    if " reads none of the blocks " in message:
        monkeypatch.setitem(COMMANDS, command, (refuse_to_run, *COMMANDS[command][1:]))
    if data is None:
        cfg = tmp_path / "empty.yaml"
        cfg.write_text("")
    else:
        cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, data, message", [
    ("scan", dict(BASE_SCAN, shots={"n_per_setting": INF}),
     "shots.n_per_setting: expected a finite number, got inf"),
    ("scan", dict(BASE_SCAN, shots={"n_per_setting": NAN}),
     "shots.n_per_setting: expected a finite number, got nan"),
    ("variance-sweep", sweep_config(trials=INF), "sweep.trials: expected a finite number, got inf"),
    ("oracle-check", {"povm": {"source": "random", "d": INF, "outcomes": 3}},
     "povm.d: expected a finite number, got inf"),
    ("calibrate", {"calibration": {"xi_grid": [0.5], "samples": INF}},
     "calibration.samples: expected a finite number, got inf"),
    ("calibrate", {"calibration": {"epsilon": [0, INF], "coherence_length": 120.0}},
     "calibration.epsilon[1]: expected a finite number, got inf"),
    ("calibrate", {"calibration": {"phase_inputs": [NAN]}},
     "calibration.phase_inputs[0]: expected a finite number, got nan"),
    ("scan", dict(BASE_SCAN, noise={"type": "rotation", "phi": [0.1, INF]}),
     "noise.phi[1]: expected a finite number, got inf"),
    ("variance-sweep", sweep_config(axis="theta", grid=[0.1, INF]),
     "sweep.grid[1]: expected a finite number, got inf"),
    ("variance-sweep", sweep_config(axis="theta", grid=[0.1], e01=[INF, 0]),
     "sweep.e01[0]: expected a finite number, got inf"),
    ("oracle-check", {"povm": SIC, "tolerance": INF}, "tolerance: expected a finite number, got inf"),
    ("oracle-check", {"povm": SIC, "tolerance": NAN}, "tolerance: expected a finite number, got nan"),
    ("oracle-check", {"povm": SIC, "coupling": {"g": 10 ** 400}},
     f"coupling.g: expected a finite number, got {10 ** 400}"),
], ids=["shots-inf", "shots-nan", "trials-inf", "povm-d-inf", "samples-inf", "epsilon-inf",
        "phase-input-nan", "phi-inf", "theta-grid-inf", "e01-inf", "tolerance-inf",
        "tolerance-nan", "g-past-any-float"])
def test_non_finite_number_exits_2(tmp_path, capsys, command, data, message):
    """A non-finite number is refused where it enters, naming its key, before
    numpy or int() sees it: exit 2, no warning, nothing written."""
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


class TestOracleCheckCommand:
    def test_sic_all_entries_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "seed": 1,
            "povm": {"source": "builtin:sic"},
            "coupling": {"g": 0.25},
            "tolerance": 1e-10,
        })
        assert main(["oracle-check", "--config", cfg]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_random_povm_passes(self, tmp_path):
        cfg = write_config(tmp_path, {
            "seed": 1,
            "povm": {"source": "random", "d": 3, "outcomes": 4, "seed": 5},
            "coupling": {"g": 0.125},
        })
        assert main(["oracle-check", "--config", cfg]) == 0

    def test_boundary_coupling_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "povm": {"source": "builtin:sic"},
            "coupling": {"g": 0.0},
        })
        assert main(["oracle-check", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unattainable_tolerance_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, {
            "povm": {"source": "builtin:sic"},
            "coupling": {"g": 0.25},
            "tolerance": 1e-18,
        })
        assert main(["oracle-check", "--config", cfg]) == 1

    def test_writes_report_and_distributions(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "povm": {"source": "builtin:sic"},
            "coupling": {"g": 0.25},
        })
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "oracle_check.csv").exists()
        dist = (out / "distributions.csv").read_text()
        assert dist.splitlines()[-1].count(",") == 7  # l,j,k,basis_b,basis_a,m,n,W

    def test_distribution_rows_are_keyed_by_entry(self, tmp_path):
        """Each builtin:sic label has two off-diagonal entries; every row of
        distributions.csv says which one it belongs to."""
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"povm": {"source": "builtin:sic"}, "coupling": {"g": 0.25}})
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in
                         (out / "distributions.csv").read_text().splitlines()
                         if not line.startswith("#")]
        assert header == ["l", "j", "k", "basis_b", "basis_a", "m", "n", "W"]
        keys = [tuple(row[:7]) for row in rows]
        assert len(keys) == 8 * 36
        assert len(set(keys)) == len(keys)


class TestScanCommand:
    def test_dephasing_scan_rows(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE_SCAN))
        rows = table_rows(run_scan(cfg))
        assert len(rows) == 3 * 4  # grid x outcomes
        for row in rows:
            assert row["method"] == "sampled"
        # ground truth shrinks with xi for a coherent element
        l3 = [r for r in rows if r["l"] == 3]
        mods = [abs(complex(r["true_re"], r["true_im"])) for r in l3]
        assert mods[0] > mods[1] > mods[2] == 0

    def test_epsilon_grid_monotone_moduli(self, tmp_path):
        data = dict(BASE_SCAN, noise={
            "type": "dephasing",
            "epsilon": [0, 20, 40, 60, 80, 120, 160, 200, 240],
            "coherence_length": 120.0,
        })
        cfg = parse_config(write_config(tmp_path, data))
        rows = [r for r in table_rows(run_scan(cfg)) if r["l"] == 2]
        assert len(rows) == 9
        mods = [abs(complex(r["true_re"], r["true_im"])) for r in rows]
        assert all(b < a for a, b in zip(mods, mods[1:]))

    def test_rotation_scan_phase_shift(self, tmp_path):
        data = dict(BASE_SCAN, noise={"type": "rotation", "phi": [-0.6, -0.2, 0.4, 0.8]})
        cfg = parse_config(write_config(tmp_path, data))
        rows = [r for r in table_rows(run_scan(cfg)) if r["l"] == 4]
        for row in rows:
            want = complex(*np.array([row["true_re"], row["true_im"]]))
            base = (np.sqrt(2) / 6) * np.exp(2j * np.pi / 3)
            assert abs(want - base * np.exp(-1j * row["axis_value"])) < 1e-12

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    def test_truths_never_read_negative_zero(self, tmp_path, statistics):
        """The README rotation grid turns zero entries of the tetrahedron into
        signed zeros; the scan's truths read +0.0 for them, as the entry
        oracle does, in sampled and refined rows and in the CSV."""
        data = dict(COMPLETE_SCAN, noise={"type": "rotation", "phi": [-0.6, -0.2, 0.4, 0.8]},
                    shots={"n_per_setting": 12790, "statistics": statistics})
        path = write_config(tmp_path, data)
        cfg = parse_config(path)
        rotated = np.array([apply_phase_rotation(cfg.povm(), phi, 1, 0).elements[:, 1, 0]
                            for _, _, phi in cfg.noise["grid"]])
        zeros = np.concatenate([rotated.real[rotated.real == 0], rotated.imag[rotated.imag == 0]])
        assert np.signbit(zeros).any()
        truths = [row[key] for row in table_rows(run_scan(cfg, refine=True))
                  for key in ("true_re", "true_im")]
        assert 0.0 in truths and not any(np.signbit(t) for t in truths if t == 0)
        out = tmp_path / "out"
        assert main(["scan", "--config", path, "--out", str(out), "--refine"]) == 0
        cells = [cell for line in (out / "scan.csv").read_text().splitlines()
                 if not line.startswith("#") for cell in line.split(",")]
        assert "0.0" in cells and "-0.0" not in cells

    def test_refine_adds_rows_with_smaller_variance(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, COMPLETE_SCAN))
        rows = table_rows(run_scan(cfg, refine=True))
        sampled = {(r["l"], r["axis_value"]): r for r in rows if r["method"] == "sampled"}
        refined = [r for r in rows if r["method"] == "refined"]
        assert len(refined) == 3 * 4
        for r in refined:
            raw = sampled[(r["l"], r["axis_value"])]
            assert r["var_re"] + r["var_im"] < raw["var_re"] + raw["var_im"]

    def test_cli_writes_and_regenerates_bit_identically(self, tmp_path):
        cfg = write_config(tmp_path, dict(BASE_SCAN, output={"dir": str(tmp_path / "o1")}))
        assert main(["scan", "--config", cfg]) == 0
        first = (tmp_path / "o1" / "scan.csv").read_bytes()
        assert main(["scan", "--config", cfg]) == 0
        assert (tmp_path / "o1" / "scan.csv").read_bytes() == first

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, BASE_SCAN)
        out = tmp_path / "oj"
        assert main(["scan", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        report = json.loads((out / "scan.json").read_text())
        assert report["schema_version"] == 2
        assert report["command"] == "scan"
        assert list(report["results"]) == ["rows"]  # each number once: no estimates copy
        assert len(report["results"]["rows"]) == 12

    def test_missing_output_dir_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, BASE_SCAN)
        assert main(["scan", "--config", cfg]) == 2

    @pytest.mark.parametrize("statistics", ["poisson", "multinomial"])
    @pytest.mark.parametrize("noise", [
        {"type": "dephasing", "xi": [1.0, 0.6, 0.0]},
        {"type": "rotation", "phi": [-0.7, 0.0, 0.45]},
    ])
    @pytest.mark.parametrize("povm, entry", [
        ({"source": "random", "d": 2, "outcomes": 5, "seed": 8}, {"l": "all", "j": 1, "k": 0}),
        ({"source": "random", "d": 3, "outcomes": 4, "seed": 7}, {"l": "all", "j": 0, "k": 2}),
        ({"source": "random", "d": 3, "outcomes": 4, "seed": 7}, {"l": 3, "j": 2, "k": 1}),
        # numpy's pairwise sum changes its order at 8 terms: the grid's
        # outcome sums must still be each point's own
        ({"source": "random", "d": 2, "outcomes": 9, "seed": 21}, {"l": "all", "j": 0, "k": 1}),
    ])
    @pytest.mark.parametrize("refine", [False, True])
    def test_rows_equal_the_per_outcome_loop(self, tmp_path, statistics, noise, povm, entry,
                                             refine):
        data = dict(BASE_SCAN, povm=povm, entry=entry, noise=noise,
                    shots={"n_per_setting": 4000, "statistics": statistics})
        cfg = parse_config(write_config(tmp_path, data))
        assert table_rows(run_scan(cfg, refine=refine)) == reference_scan(cfg, refine=refine)

    @pytest.mark.parametrize("refine", [False, True])
    def test_one_draw_per_scan(self, tmp_path, monkeypatch, refine):
        """A scan draws its whole grid in one sample_counts call, and every
        sampled row names the scan's one seed."""
        calls = []

        def counted(*args):
            calls.append(args)
            return montecarlo.sample_counts(*args)

        monkeypatch.setattr(cli, "sample_counts", counted)
        cfg = parse_config(write_config(tmp_path, COMPLETE_SCAN))
        rows = table_rows(run_scan(cfg, refine=refine))
        assert len(calls) == 1 and len(cfg.noise["grid"]) == 3
        assert {(r["method"], r["seed"]) for r in rows} == (
            {("sampled", 123), ("refined", -1)} if refine else {("sampled", 123)})

    @pytest.mark.parametrize("statistics, seed", [("poisson", 17), ("multinomial", 18)])
    def test_pooled_z_scores(self, tmp_path, statistics, seed):
        """Over a 100-point rotation scan of a complete six-outcome POVM, the
        mean z^2 of the 1200 sampled (re, im) estimates, and separately of
        the 1200 refined ones, lies within 3.3 standard deviations of 1:
        the estimates are unbiased and their reported variances are right."""
        data = dict(BASE_SCAN, seed=seed,
                    povm={"source": "random", "d": 2, "outcomes": 6, "seed": 9},
                    noise={"type": "rotation", "phi": np.linspace(-1, 1, 100).tolist()},
                    shots={"n_per_setting": 12790, "statistics": statistics})
        rows = table_rows(run_scan(parse_config(write_config(tmp_path, data)), refine=True))
        for method in ("sampled", "refined"):
            z2 = [(row[f"est_{part}"] - row[f"true_{part}"]) ** 2 / row[f"var_{part}"]
                  for row in rows if row["method"] == method for part in ("re", "im")]
            assert len(z2) == 1200
            assert 0.865 <= np.mean(z2) <= 1.135, (method, np.mean(z2))

    @pytest.mark.parametrize("command", [["scan"], ["scan", "--refine"]])
    def test_dead_outcome_refused(self, tmp_path, capsys, monkeypatch, command):
        """An outcome whose post-selection probability is zero, the first of
        the complete set {0, I}, is refused by name, and a scan names its
        grid point; a refinement of a one-outcome POVM is refused before
        any exact step.  Nothing is written."""
        path = str(tmp_path / "zero.json")
        save_povm(Povm([np.zeros((2, 2)), np.eye(2)]), path)
        cfg = write_config(tmp_path, dict(BASE_SCAN, povm={"source": "file", "path": path}))
        out = tmp_path / "out"
        assert main(command + ["--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "outcome 1: post-selection probability" in err
        assert "grid point 0 (xi = 1), outcome 1: post-selection probability" in err
        assert not out.exists()
        if "--refine" not in command:
            return

        def no_exact_step(*args, **kwargs):
            raise AssertionError("exact step before the outcome count was checked")

        monkeypatch.setattr(cli, "exact_slot", no_exact_step)
        monkeypatch.setattr(montecarlo, "exact_slot", no_exact_step)
        one = write_config(tmp_path, dict(BASE_SCAN, povm={
            "source": "random", "d": 2, "outcomes": 1, "seed": 3}), "one.yaml")
        assert main(command + ["--config", one, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: refinement needs at least two outcomes\n"
        assert not out.exists()

    def test_sum_rule_breach_refused(self, tmp_path, capsys, monkeypatch):
        """builtin:sic's (1, 0) entries sum to modulus 0.471: scan --refine
        exits 2 naming the slot and the residual before any noise map, and
        writes nothing; the unrefined scan of it and the refined scan of
        the complete tetrahedron run."""
        for name in ("apply_dephasing", "apply_phase_rotation"):
            monkeypatch.setattr(cli, name, refuse_to_run)
        out = tmp_path / "out"
        argv = ["scan", "--config", write_config(tmp_path, BASE_SCAN), "--out", str(out)]
        assert main(argv + ["--refine"]) == 2
        assert capsys.readouterr().err == (
            "config error: refinement needs the (1, 0) entries of the outcomes to sum to zero; "
            "they sum to modulus 4.714e-01 > 1e-09\n")
        assert not out.exists()
        monkeypatch.undo()
        assert main(argv) == 0
        complete = write_config(tmp_path, COMPLETE_SCAN, "complete.yaml")
        assert main(["scan", "--config", complete, "--out", str(out), "--refine"]) == 0

    @pytest.mark.parametrize("seed", [2**63 + 5, 2**64 + 5])
    def test_seed_beyond_int64_written_as_its_int(self, tmp_path, seed):
        """A refined scan at a seed beyond int64 names it in its sampled
        rows, as its ``str`` in the CSV and as its int in the JSON report;
        numpy makes [2^63 + 5, -1] a float64 array."""
        path = write_config(tmp_path, dict(COMPLETE_SCAN, seed=seed))
        csv_out, json_out = tmp_path / "csv", tmp_path / "json"
        assert main(["scan", "--config", path, "--refine", "--out", str(csv_out)]) == 0
        assert main(["scan", "--config", path, "--refine", "--out", str(json_out),
                     "--format", "json"]) == 0
        text = (csv_out / "scan.csv").read_text()
        header, *rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
        method, column = header.index("method"), header.index("seed")
        assert {(row[method], row[column]) for row in rows} == {
            ("sampled", str(seed)), ("refined", "-1")}
        report = json.loads((json_out / "scan.json").read_text())
        assert {(row["method"], row["seed"]) for row in report["results"]["rows"]} == {
            ("sampled", seed), ("refined", -1)}

    @pytest.mark.parametrize("noise", [BASE_SCAN["noise"],
                                       {"type": "rotation", "phi": [-0.6, -0.2, 0.4, 0.8]}])
    def test_one_noise_map_per_grid_point_then_one_write(self, tmp_path, monkeypatch, noise):
        """A scan maps its noise once per grid point, in grid order, and
        writes its one CSV after the last map."""
        calls = []

        def logged(name):
            original = getattr(cli, name)

            def call(*args):
                calls.append((name, None if name == "write_csv" else args[1]))
                return original(*args)
            return call

        for name in ("apply_dephasing", "apply_phase_rotation", "write_csv"):
            monkeypatch.setattr(cli, name, logged(name))
        path = write_config(tmp_path, dict(COMPLETE_SCAN, noise=noise))
        assert main(["scan", "--config", path, "--refine", "--out", str(tmp_path / "out")]) == 0
        transform = "apply_" + ("dephasing" if noise["type"] == "dephasing" else "phase_rotation")
        grid = parse_config(path).noise["grid"]
        assert calls == [(transform, param) for _, _, param in grid] + [("write_csv", None)]

    def test_non_integer_label_in_povm_file_exits_2(self, tmp_path, capsys):
        """A POVM file whose labels are not integers is a config error: the
        label is named, nothing is written."""
        path = tmp_path / "labels.json"
        save_povm(Povm([np.eye(2) / 2, np.eye(2) / 2]), str(path))
        data = json.loads(path.read_text())
        data["labels"] = [1.5, 2.9]
        path.write_text(json.dumps(data))
        cfg = write_config(tmp_path, dict(BASE_SCAN, povm={"source": "file", "path": str(path)}))
        out = tmp_path / "out"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 2
        assert "outcome label 1.5 is not an integer" in capsys.readouterr().err
        assert not out.exists()


def test_three_studies_share_one_exact_step(tmp_path):
    """refinement_trials, run_scan at xi = 1 and run_trials predict the same
    variances for one slot of a random complete POVM, bit for bit."""
    data = dict(BASE_SCAN, povm={"source": "random", "d": 3, "outcomes": 5, "seed": 13},
                entry={"l": "all", "j": 2, "k": 0}, noise={"type": "dephasing", "xi": [1.0]},
                shots={"n_per_setting": 4000, "seed": 3})
    cfg = parse_config(write_config(tmp_path, data))
    povm, shot = cfg.povm(), cfg.shot_model()
    study = refinement_trials(povm, 2, 0, cfg.g, shot, trials=0)
    rows = table_rows(run_scan(cfg))
    assert [row["l"] for row in rows] == list(study.labels) == [1, 2, 3, 4, 5]
    for row in rows:
        raw = study.raw[row["l"]]
        assert (row["var_re"], row["var_im"]) == (raw.var_re, raw.var_im)
        scenario = EntryScenario(povm.element(row["l"]), 2, 0, cfg.g)
        assert run_trials(scenario, shot, 0).predicted_var == raw.var_re + raw.var_im


def test_shipped_configs_run_and_regenerate_bit_identically(tmp_path):
    """Every README command exits 0 and rewrites the same CSV bytes."""
    for name, argv in README_COMMANDS:
        runs = []
        for run in ("first", "second"):
            out = tmp_path / run / name
            assert main(argv + ["--out", str(out)]) == 0, name
            runs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        assert runs[0], f"{name} wrote no CSV"
        assert runs[0] == runs[1], name


#: The results key of the JSON report that holds each CSV artifact's rows.
JSON_KEY = {
    "oracle_check.csv": "entries", "scan.csv": "rows", "variance_sweep.csv": "rows",
    "calibration_xi.csv": "xi", "calibration_phase.csv": "phase",
}


def reference_csv(columns, rows, metadata):
    """The CSV text of ``write_csv``, written row by row: each row's values
    joined by ``str``."""
    lines = [f"# {key}: {value}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(map(str, (row[c] for c in columns))) for row in rows)
    return "\n".join(lines) + "\n"


def test_json_reports_hold_the_csv_rows(tmp_path):
    """With --format json every README command writes one <command>.json whose
    results rows equal the CSV run's rows, column for column, and each CSV
    file is byte for byte the row-wise formatting of those rows under the
    report's metadata (JSON floats round-trip exactly); oracle-check still
    writes distributions.csv."""
    for name, argv in README_COMMANDS:
        csv_out, json_out = tmp_path / "csv" / name, tmp_path / "json" / name
        assert main(argv + ["--out", str(csv_out)]) == 0, name
        assert main(argv + ["--out", str(json_out), "--format", "json"]) == 0, name
        report = f"{argv[0].replace('-', '_')}.json"
        assert sorted(p.name for p in json_out.glob("*.json")) == [report], name
        metadata = json.loads((json_out / report).read_text())
        results = metadata.pop("results")
        del metadata["wall_clock_s"]
        for path in csv_out.glob("*.csv"):
            if path.name == "distributions.csv":
                assert (json_out / path.name).read_bytes() == path.read_bytes()
                continue
            header, *rows = [line.split(",") for line in path.read_text().splitlines()
                             if not line.startswith("#")]
            got = [[str(r[c]) for c in header] for r in results[JSON_KEY[path.name]]]
            assert got == rows, path.name
            text = reference_csv(header, results[JSON_KEY[path.name]], metadata)
            assert path.read_bytes() == text.encode(), path.name


def test_metadata_recorded(tmp_path):
    """Every README command's CSV headers name the sampler and its generator."""
    for name, argv in README_COMMANDS:
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0, name
        for csv in out.glob("*.csv"):
            header = csv.read_text().splitlines()
            assert "# backend: numpy" in header and "# rng: numpy-pcg64" in header, csv


def _nan_with_payload(bits):
    return np.array([bits], dtype=np.int64).view(np.float64).tolist()[0]


#: Columns of values whose text a formatter keyed on value rather than on
#: bits and type would get wrong, seven rows each.
ADVERSARIAL_COLUMNS = {
    "signed_zero": [0.0, -0.0, 0.0, -0.0, 1.5, -0.0, 0.0],
    "nan": [float("nan"), -float("nan"), _nan_with_payload(0x7FF8000000000001), 1.0,
            float("nan"), _nan_with_payload(-1), 2.0],
    "inf": [float("inf"), -float("inf"), 1e308, float("inf"), 0.0, -1e308, -float("inf")],
    "subnormal": [5e-324, -5e-324, 5e-324, 2.2250738585072014e-308, 0.0, 1e-320, -0.0],
    "repeated": [0.1, 0.1 + 0.2, 0.1, 0.1 + 0.2, 0.1, 1 / 3, 1 / 3],
    "one_and_one_point_zero": [1, 1.0, 1, 2, 2.0, 1.0, 1],
    "bool": [True, 1.0, 1, False, 0.0, True, 0.0],
    "numpy_float": [np.float64(0.1), 0.1, np.float64(-0.0), 0.0, np.float64(5e-324), 0.1,
                    np.float64(0.1)],
    "all_numpy": [np.float64(x) for x in (0.5, -0.0, 0.0, 0.5, np.nan, 1e-7, 3.0)],
    "int": [3, -3, 0, 3, 2**70, -1, 0],
    "text": ["a", "b", "", "a", "1.0", "nan", "-0.0"],
}
#: The adversarial columns as numpy arrays (most of them float64, "int" an
#: object array, "text" a string one), and arrays of the other kinds.
ARRAY_COLUMNS = dict(
    ADVERSARIAL_COLUMNS,
    int64=np.array([3, -3, 0, 3, 2**62, -1, 0]),
    uint64=np.array([2**64 - 1, 0, 1, 2**64 - 1, 5, 0, 1], dtype=np.uint64),
    bool_array=np.array([True, False, True, True, False, False, True]),
)


class TestArtifactWriters:
    @pytest.mark.parametrize("value", [1 + 2j, np.zeros(2), np.int64(3)],
                             ids=["complex", "ndarray", "numpy-int"])
    def test_json_report_refuses_a_non_json_value(self, tmp_path, value):
        """A JSON report holds only JSON types; any other value stops the
        write before a file or its directory exists."""
        with pytest.raises(TypeError):
            write_json_report(str(tmp_path / "out" / "report.json"), {"seed": 1},
                              {"rows": [{"value": value}]})
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_no_file(self, tmp_path, monkeypatch):
        """A write whose final rename fails removes its temp file and leaves
        no target."""
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_csv(str(tmp_path / "table.csv"), {"a": [0.1]}, {"seed": 1})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("size", [0, 1, 7])
    def test_csv_equals_the_row_wise_reference(self, tmp_path, size):
        """Column-wise formatting writes the text of the row-wise reference:
        signed zeros, NaNs of any sign and payload, infinities, subnormals
        and repeated floats keep their own ``str``, and so do 1 beside 1.0,
        True, numpy floats and strings; for zero, one and several rows, and
        for every and one column, as lists and as numpy arrays of every
        kind (float64, int64, uint64, bool, string and object), an array
        written as its Python scalars.  A table of no column has no rows."""
        columns = list(ADVERSARIAL_COLUMNS)[::-1]
        rows = [dict({c: values[i] for c, values in ADVERSARIAL_COLUMNS.items()}, extra=object())
                for i in range(size)]
        meta = {"seed": 1, "note": "x"}
        path = tmp_path / "table.csv"
        for chosen in (columns, ["signed_zero"]):
            write_csv(str(path), {c: [row[c] for row in rows] for c in chosen}, meta)
            assert path.read_bytes() == reference_csv(chosen, rows, meta).encode(), chosen
        write_csv(str(path), {}, meta)
        assert path.read_bytes() == reference_csv([], [], meta).encode()

        arrays = {c: np.array(values)[:size] for c, values in ARRAY_COLUMNS.items()}
        assert {a.dtype.kind for a in arrays.values()} == set("fiubUO")
        array_rows = [dict(zip(arrays, values))
                      for values in zip(*(a.tolist() for a in arrays.values()))]
        for chosen in (list(arrays)[::-1], ["signed_zero"]):
            write_csv(str(path), {c: arrays[c] for c in chosen}, meta)
            assert path.read_bytes() == reference_csv(chosen, array_rows, meta).encode(), chosen

    def test_csv_equals_the_row_wise_reference_on_drawn_floats(self, tmp_path):
        """Thousands of floats drawn from a small pool with special values,
        and the same floats beside one int, write the reference's text, the
        floats as a list and as a float64 array."""
        rng = np.random.default_rng(21)
        pool = np.concatenate([rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40),
                               [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324]])
        floats = rng.choice(pool, 3000).tolist()
        rows = [{"a": x, "b": y} for x, y in zip(floats, floats[::-1])]
        rows[1234]["b"] = 7
        path = tmp_path / "table.csv"
        b = [row["b"] for row in rows]
        for a in (floats, np.array(floats)):
            write_csv(str(path), {"a": a, "b": b}, {"seed": 1})
            assert path.read_bytes() == reference_csv(["a", "b"], rows, {"seed": 1}).encode()

    def test_ragged_table_refused(self, tmp_path):
        """A table whose columns differ in length is refused before any
        file exists."""
        with pytest.raises(ValueError, match="table columns differ in length"):
            write_csv(str(tmp_path / "out" / "table.csv"), {"a": [1, 2], "b": np.zeros(3)},
                      {"seed": 1})
        assert list(tmp_path.iterdir()) == []

    def test_json_rows_are_python_scalars(self):
        """table_rows gives each row as a dict in column order of the Python
        scalars of numpy columns: JSON writes them, and an int column holds
        ints beyond int64."""
        table = {"f": np.array([0.5, -0.0]), "i": np.array([3, 4]), "s": np.array(["a", "b"]),
                 "o": np.array([2**64 + 5, -1], dtype=object), "list": [1.0, True]}
        rows = table_rows(table)
        assert rows == [{"f": 0.5, "i": 3, "s": "a", "o": 2**64 + 5, "list": 1.0},
                        {"f": -0.0, "i": 4, "s": "b", "o": -1, "list": True}]
        assert all(list(row) == list(table) for row in rows)
        assert {type(v) for row in rows for v in row.values()} == {float, int, str, bool}
        json.dumps(rows)

    def test_csv_values_are_their_str(self, tmp_path):
        """Every CSV value is written with ``str``: a float as its shortest
        round-trip repr, the same text for a numpy float64."""
        path = tmp_path / "table.csv"
        row = {"s": "x", "i": -3, "f": 0.1 + 0.2, "nf": np.float64(2.0 ** -1074)}
        write_csv(str(path), {c: [v] for c, v in row.items()}, {"seed": 1})
        assert path.read_text().splitlines() == ["# seed: 1", "s,i,f,nf",
                                                 "x,-3,0.30000000000000004,5e-324"]


class TestVarianceSweepCommand:
    def test_theta_sweep_matches_strong_coupling_law(self, tmp_path):
        out = tmp_path / "vs"
        cfg = write_config(tmp_path, {
            "seed": 5,
            "shots": {"n_per_setting": 12790},
            "sweep": {"axis": "theta", "grid": [0.0, 0.25, 1.0], "trials": 0,
                      "g": 0.25, "eta": 0.5},
        })
        assert main(["variance-sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = [l for l in (out / "variance_sweep.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == ["axis_value", "var_analytic", "var_transfer", "var_empirical",
                          "mean_re", "mean_im", "trials", "seed"]
        for line in lines[1:]:
            vals = dict(zip(header, line.split(",")))
            theta = float(vals["axis_value"])
            want = (1 + 2 * np.sin(theta) ** 2) / (0.5 * 12790)
            assert abs(float(vals["var_transfer"]) - want) / want < 1e-9

    @pytest.mark.parametrize("e01, message", [
        (["a", 0], "sweep.e01[0]: expected a number, got 'a'"),
        ([True, 0], "sweep.e01[0]: expected a number, got True"),
        ([0.1], "sweep.e01: expected [re, im], got [0.1]"),
        (0.1, "sweep.e01: expected a non-empty list of numbers"),
    ], ids=["string", "bool", "one-number", "scalar"])
    def test_malformed_e01_exits_2(self, tmp_path, capsys, e01, message):
        """sweep.e01 is read like every other number list, as two numbers."""
        sweep = {"axis": "theta", "grid": [0.25], "trials": 10}
        cfg = write_config(tmp_path, {"shots": {"n_per_setting": 100},
                                      "sweep": dict(sweep, e01=e01)})
        out = tmp_path / "out"
        assert main(["variance-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()
        good = write_config(tmp_path, {"sweep": dict(sweep, e01=[0.125, -0.25])})
        assert parse_config(good).sweep["e01"] == complex(0.125, -0.25)

    def test_missing_sweep_block_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"shots": {"n_per_setting": 100}})
        assert main(["variance-sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_dead_outcome_refused(self, tmp_path, capsys):
        """An xi sweep of the zero element of {0, I} is refused, naming the
        entry; nothing is written."""
        path = str(tmp_path / "zero.json")
        save_povm(Povm([np.zeros((2, 2)), np.eye(2)]), path)
        cfg = write_config(tmp_path, {
            "povm": {"source": "file", "path": path},
            "entry": {"l": 1, "j": 1, "k": 0},
            "shots": {"n_per_setting": 100},
            "sweep": {"axis": "xi", "grid": [1.0, 0.5], "trials": 10},
        })
        out = tmp_path / "out"
        assert main(["variance-sweep", "--config", cfg, "--out", str(out)]) == 1
        assert "entry (1, 0): post-selection probability" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("sweep", [
        {"axis": "theta", "grid": [0.0, 0.25], "g": 0.6},
        {"axis": "xi", "grid": [1.0, 0.5], "g": 0.7},
        {"axis": "theta", "grid": [0.0, 0.25], "eta": 1.5},
        {"axis": "xi", "grid": [1.5]},
        {"axis": "theta", "grid": [0.0, 0.25], "e01": [0.3, 0]},
    ], ids=["theta-g", "xi-g", "eta", "xi-grid", "e01"])
    def test_model_breaking_sweep_exits_2_before_any_trial(self, tmp_path, capsys,
                                                           monkeypatch, sweep):
        """g outside (0, pi/2), eta above 1, xi above 1 and an e01 beyond the
        positivity bound at theta = 0 are refused by SweepSpec."""
        monkeypatch.setattr(cli, "variance_sweep", refuse_to_run)
        cfg = write_config(tmp_path, dict(SWEPT_ENTRY if sweep["axis"] == "xi" else {},
                                          shots={"n_per_setting": 100},
                                          sweep=dict(sweep, trials=10)))
        out = tmp_path / "out"
        assert main(["variance-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: sweep: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry, message", [
        ({"l": 9, "j": 1, "k": 0}, "entry.l: no outcome labelled 9"),
        ({"l": 1, "j": 5, "k": 0}, "entry: indices (5, 0) out of range for dimension 2"),
    ], ids=["label", "index"])
    @pytest.mark.parametrize("axis", ["xi", "phi"])
    def test_unresolvable_entry_exits_2_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                         axis, entry, message):
        """An xi or phi sweep resolves its entry as scan and oracle-check do:
        a label that names no outcome, or an index past the dimension, is a
        config error."""
        monkeypatch.setattr(cli, "variance_sweep", refuse_to_run)
        cfg = write_config(tmp_path, {
            "povm": {"source": "builtin:sic"},
            "entry": entry,
            "shots": {"n_per_setting": 100},
            "sweep": {"axis": axis, "grid": [1.0, 0.5], "trials": 10},
        })
        out = tmp_path / "out"
        assert main(["variance-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()


def refuse_to_run(*args, **kwargs):
    raise AssertionError("the command ran")


def test_readme_used_by_column_is_blocks_read(tmp_path):
    """The README's config table has a row for every block, and its `used
    by` column names the commands that read the block under some config,
    as blocks_read says; `all` names every command."""
    variants = {
        "oracle-check": [{}],
        "scan": [{}],
        "calibrate": [{}, {"calibration": {"xi_grid": [0.5]}}],
        "variance-sweep": [{"sweep": dict({"axis": axis, "grid": [0.5]}, **fixed)}
                           for axis in SWEEP_KEYWORDS for fixed in ({}, {"g": 0.25})],
    }
    readers = {block: set() for block in BLOCKS}
    for command, configs in variants.items():
        for i, data in enumerate(configs):
            cfg = parse_config(write_config(tmp_path, data, f"{command}-{i}.yaml"))
            for block in blocks_read(command, cfg):
                readers[block].add(command)
    table = README.read_text().split("| block | keys | used by |\n")[1].split("\n\n")[0]
    names = re.compile(rf"(?<![\w-])({'|'.join(COMMANDS)})(?![\w-])")
    used_by = {}
    for block, cell in re.findall(r"^\| `(\w+)` \|.*\| ([^|]+) \|$", table, re.M):
        used_by[block] = set(COMMANDS) if cell == "all" else set(names.findall(cell))
    assert used_by == readers


class TestRunner:
    @pytest.mark.parametrize("argv, data", [
        (["scan", "--refine"], BASE_SCAN),
        (["variance-sweep"], {"shots": {"n_per_setting": 100},
                              "sweep": {"axis": "g", "grid": [0.25], "trials": 10}}),
        (["calibrate"], {"calibration": {"xi_grid": [1.0, 0.5]}}),
    ])
    def test_missing_output_dir_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                        argv, data):
        for name in ("run_scan", "variance_sweep", "calibrate_xi"):
            monkeypatch.setattr(cli, name, refuse_to_run)
        assert main(argv + ["--config", write_config(tmp_path, data)]) == 2
        assert "output directory is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["oracle-check", "variance-sweep", "calibrate"])
    def test_refine_only_on_scan(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"povm": {"source": "builtin:sic"}})
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--refine"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --refine" in capsys.readouterr().err

    def test_one_summary_line_per_command(self, tmp_path, capsys):
        """Each command prints one line naming the command, its wall time and
        where it wrote; oracle-check without --out writes nothing."""
        for name, argv in README_COMMANDS:
            out = str(tmp_path / name)
            assert main(argv + ["--out", out]) == 0, name
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 1, lines
            assert re.fullmatch(rf"{argv[0]}: .+ in \d+\.\d\d s -> {re.escape(out)}",
                                lines[0]), lines
        assert main(README_COMMANDS[0][1]) == 0
        assert re.fullmatch(r"oracle-check: PASS, .+ in \d+\.\d\d s\n", capsys.readouterr().out)


class TestCalibrateCommand:
    @pytest.mark.parametrize("calibration, message", [
        ({"xi_grid": [1.0, 1.5]}, "outside"),
        ({"epsilon": [0, 20]}, "coherence_length"),
        ({"xi_grid": [0.5], "samples": 0}, "samples"),
        ({"xi_grid": [0.5], "samples": -3}, "samples"),
        # nothing to calibrate: no grid and no phase inputs
        ({"samples": 1000}, "nothing to do"),
        (None, "nothing to do"),
    ])
    def test_bad_grid_exits_2(self, tmp_path, capsys, calibration, message):
        # None: a rotation noise block and no calibration block
        data = ({"calibration": calibration} if calibration is not None
                else dict(only(BASE_SCAN, "seed"), noise={"type": "rotation", "phi": [0.0, 0.5]}))
        cfg = write_config(tmp_path, data)
        for fmt in ("csv", "json"):
            out = tmp_path / f"cal_{fmt}"
            assert main(["calibrate", "--config", cfg, "--out", str(out), "--format", fmt]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_dephasing_noise_grid_without_calibration_block(self, tmp_path):
        out = tmp_path / "cal"
        cfg = write_config(tmp_path, dict(only(BASE_SCAN, "seed"), noise={
            "type": "dephasing", "epsilon": [0, 120], "coherence_length": 120.0,
        }))
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["calibration_xi.csv"]
        lines = [l.split(",") for l in (out / "calibration_xi.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0][:2] == ["axis_value", "xi_true"]
        assert [(float(r[0]), float(r[1])) for r in lines[1:]] == [
            (0.0, 1.0), (120.0, wavepacket_overlap(120.0, 120.0)),
        ]

    def test_xi_hat_error_bars(self, tmp_path):
        """calibrate's JSON report gives each xi_hat its binomial variance
        (1 - xi_hat^2) / samples, which its CSV does not hold.  Over the
        shipped grid's 13 points with xi < 1, the RMS of z = (xi_hat -
        xi_true) / sqrt((1 - xi_true^2) / samples) lies in its chi^2 band
        (two-sided 99.9 %); the epsilon = 0 point reads exactly 1."""
        out = tmp_path / "cal"
        argv = ["calibrate", "--config", str(CONFIGS / "calibration.yaml"), "--out", str(out)]
        assert main(argv + ["--format", "json"]) == 0
        rows = json.loads((out / "calibrate.json").read_text())["results"]["xi"]
        for row in rows:
            assert row["xi_hat_var"] == (1 - row["xi_hat"] ** 2) / row["samples"]
        assert (rows[0]["axis_value"], rows[0]["xi_hat"], rows[0]["xi_hat_var"]) == (0.0, 1.0, 0.0)
        z = [(row["xi_hat"] - row["xi_true"]) / np.sqrt((1 - row["xi_true"] ** 2) / row["samples"])
             for row in rows if row["xi_true"] < 1]
        assert len(z) == 13
        low, high = np.sqrt(scipy.stats.chi2.ppf([0.0005, 0.9995], len(z)) / len(z))
        assert low <= np.sqrt(np.mean(np.square(z))) <= high
        assert main(argv) == 0
        assert "xi_hat_var" not in (out / "calibration_xi.csv").read_text()

    def test_anchors_and_overlap_grid(self, tmp_path):
        out = tmp_path / "cal"
        cfg = write_config(tmp_path, {
            "seed": 3,
            "calibration": {
                "xi_grid": [1.0, 0.8, 0.6, 0.4, 0.2, 0.0],
                "samples": 100000,
                "phase_inputs": [0.5, 0.0, -0.5],
            },
        })
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        xi_lines = [l for l in (out / "calibration_xi.csv").read_text().splitlines()
                    if not l.startswith("#")]
        header = xi_lines[0].split(",")
        for line in xi_lines[1:]:
            vals = dict(zip(header, line.split(",")))
            xi, xi_hat = float(vals["xi_true"]), float(vals["xi_hat"])
            tol = 3 * np.sqrt((1 - xi**2) / 100000) + 1e-12
            assert abs(xi_hat - xi) <= tol
        phase_lines = [l for l in (out / "calibration_phase.csv").read_text().splitlines()
                       if not l.startswith("#")]
        got = [float(l.split(",")[1]) for l in phase_lines[1:]]
        np.testing.assert_allclose(got, [0.0, np.pi / 2, np.pi], atol=1e-12)
