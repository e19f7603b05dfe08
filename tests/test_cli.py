"""Config validation, CLI commands, artifacts and exit codes."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from povmdt import Povm, cli, save_povm
from povmdt.cli import _scan_row, main, run_scan
from povmdt.config import ConfigError, parse_config
from povmdt.estimator import (
    EntryEstimate,
    completeness_refine,
    error_transfer_variance,
    estimate_from_tables,
    rt_coefficients,
)
from povmdt.montecarlo import (
    EntryScenario, ShotModel, refinement_trials, run_trials, sample_counts,
)
from povmdt.noise import apply_dephasing, apply_phase_rotation, wavepacket_overlap
from povmdt.protocol import CouplingConfig, exact_entry_tables
from povmdt.reports import _format_value


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: The CLI commands listed in the README, as (output name, argv without --out).
README_COMMANDS = [
    ("oracle", ["oracle-check", "--config", str(CONFIGS / "oracle_check.yaml")]),
    ("dephasing", ["scan", "--config", str(CONFIGS / "sic_dephasing_scan.yaml")]),
    ("rotation", ["scan", "--config", str(CONFIGS / "sic_rotation_scan.yaml"), "--refine"]),
    ("variance_g", ["variance-sweep", "--config", str(CONFIGS / "variance_vs_g.yaml")]),
    ("calibration", ["calibrate", "--config", str(CONFIGS / "calibration.yaml"), "--refine"]),
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


def reference_scan(cfg, refine=False):
    """Per-outcome reference for ``run_scan``: one tables, variance and
    estimate call per (grid point, outcome)."""
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
    seeds = np.random.SeedSequence(shot.seed).generate_state(len(grid) * len(labels))
    rows = []
    for gi, (axis, axis_value, param) in enumerate(grid):
        noisy = transform(povm, param, j, k)
        truths, sampled = [], []
        for li, lab in enumerate(labels):
            elem = noisy.element(lab)
            seed = int(seeds[gi * len(labels) + li])
            tables = exact_entry_tables(elem, j, k, coupling)
            var_re, var_im = error_transfer_variance(tables, coeffs, n)
            counts = sample_counts(tables, ShotModel(n, shot.statistics, seed))
            est = EntryEstimate(estimate_from_tables(counts, coeffs), var_re, var_im, n, "sampled")
            truth = complex(elem[j, k])
            truths.append(truth)
            sampled.append(est)
            rows.append(_scan_row(lab, j, k, axis, axis_value, est, truth, seed))
        if refine:
            for lab, est, truth in zip(labels, completeness_refine(sampled), truths):
                rows.append(_scan_row(lab, j, k, axis, axis_value, est, truth, -1))
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
        rows = run_scan(cfg)
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
        rows = [r for r in run_scan(cfg) if r["l"] == 2]
        assert len(rows) == 9
        mods = [abs(complex(r["true_re"], r["true_im"])) for r in rows]
        assert all(b < a for a, b in zip(mods, mods[1:]))

    def test_rotation_scan_phase_shift(self, tmp_path):
        data = dict(BASE_SCAN, noise={"type": "rotation", "phi": [-0.6, -0.2, 0.4, 0.8]})
        cfg = parse_config(write_config(tmp_path, data))
        rows = [r for r in run_scan(cfg) if r["l"] == 4]
        for row in rows:
            want = complex(*np.array([row["true_re"], row["true_im"]]))
            base = (np.sqrt(2) / 6) * np.exp(2j * np.pi / 3)
            assert abs(want - base * np.exp(-1j * row["axis_value"])) < 1e-12

    def test_refine_adds_rows_with_smaller_variance(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE_SCAN))
        rows = run_scan(cfg, refine=True)
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
        assert report["schema_version"] == 1
        assert report["command"] == "scan"
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
    ])
    @pytest.mark.parametrize("refine", [False, True])
    def test_rows_equal_the_per_outcome_loop(self, tmp_path, statistics, noise, povm, entry,
                                             refine):
        data = dict(BASE_SCAN, povm=povm, entry=entry, noise=noise,
                    shots={"n_per_setting": 4000, "statistics": statistics})
        cfg = parse_config(write_config(tmp_path, data))
        assert run_scan(cfg, refine=refine) == reference_scan(cfg, refine=refine)

    @pytest.mark.parametrize("command", [["scan"], ["scan", "--refine"],
                                         ["calibrate", "--refine"]])
    def test_dead_outcome_refused(self, tmp_path, capsys, command):
        """An outcome whose post-selection probability is zero, the first of
        the complete set {0, I}, is refused by name; nothing is written."""
        path = str(tmp_path / "zero.json")
        save_povm(Povm([np.zeros((2, 2)), np.eye(2)]), path)
        cfg = write_config(tmp_path, dict(BASE_SCAN, povm={"source": "file", "path": path}))
        out = tmp_path / "out"
        assert main(command + ["--config", cfg, "--out", str(out)]) == 1
        assert "outcome 1: post-selection probability" in capsys.readouterr().err
        assert not out.exists()

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
    rows = run_scan(cfg)
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
    "refinement.csv": "refinement",
}


def test_json_reports_hold_the_csv_rows(tmp_path):
    """With --format json every README command writes one <command>.json whose
    results rows equal the CSV run's rows, column for column; oracle-check
    still writes distributions.csv."""
    for name, argv in README_COMMANDS:
        csv_out, json_out = tmp_path / "csv" / name, tmp_path / "json" / name
        assert main(argv + ["--out", str(csv_out)]) == 0, name
        assert main(argv + ["--out", str(json_out), "--format", "json"]) == 0, name
        report = f"{argv[0].replace('-', '_')}.json"
        assert sorted(p.name for p in json_out.glob("*.json")) == [report], name
        results = json.loads((json_out / report).read_text())["results"]
        for path in csv_out.glob("*.csv"):
            if path.name == "distributions.csv":
                assert (json_out / path.name).read_bytes() == path.read_bytes()
                continue
            header, *rows = [line.split(",") for line in path.read_text().splitlines()
                             if not line.startswith("#")]
            got = [[_format_value(r[c]) for c in header] for r in results[JSON_KEY[path.name]]]
            assert got == rows, path.name


def test_metadata_recorded(tmp_path):
    """Every README command's CSV headers name the sampler and its generator."""
    for name, argv in README_COMMANDS:
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0, name
        for csv in out.glob("*.csv"):
            header = csv.read_text().splitlines()
            assert "# backend: numpy" in header and "# rng: numpy-pcg64" in header, csv


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
        cfg = write_config(tmp_path, {
            "povm": {"source": "builtin:sic"},
            "entry": {"l": 1, "j": 1, "k": 0},
            "shots": {"n_per_setting": 100},
            "sweep": dict(sweep, trials=10),
        })
        out = tmp_path / "out"
        assert main(["variance-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: sweep: " in capsys.readouterr().err
        assert not out.exists()


def refuse_to_run(*args, **kwargs):
    raise AssertionError("the command ran")


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

    @pytest.mark.parametrize("command", ["oracle-check", "variance-sweep"])
    def test_refine_only_on_scan_and_calibrate(self, tmp_path, capsys, command):
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
    ])
    def test_bad_grid_exits_2(self, tmp_path, capsys, calibration, message):
        out = tmp_path / "cal"
        cfg = write_config(tmp_path, {"calibration": calibration})
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_dephasing_noise_grid_without_calibration_block(self, tmp_path):
        out = tmp_path / "cal"
        cfg = write_config(tmp_path, dict(BASE_SCAN, noise={
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

    def test_refine_demo(self, tmp_path):
        out = tmp_path / "cal2"
        cfg = write_config(tmp_path, {
            "seed": 3,
            "povm": {"source": "builtin:sic"},
            "entry": {"l": "all", "j": 1, "k": 0},
            "coupling": {"g": 0.25},
            "shots": {"n_per_setting": 12790},
            "calibration": {"xi_grid": [1.0, 0.5], "samples": 1000},
        })
        assert main(["calibrate", "--config", cfg, "--out", str(out), "--refine"]) == 0
        lines = [l for l in (out / "refinement.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        assert len(lines) == 5  # four outcomes
        for line in lines[1:]:
            vals = dict(zip(header, line.split(",")))
            assert float(vals["var_refined"]) <= float(vals["var_raw"])
