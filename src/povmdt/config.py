"""Scenario configuration: YAML schema, validation, resolution.

Configs are plain YAML with nested blocks.  Every angle is written in
units of pi (``g: 0.25`` means pi/4) to avoid decimal-pi transcription
slips.  Unknown keys are rejected everywhere; validation errors carry the
dotted path of the offending key.

This is the only module that reads the block formats.  Noise and
calibration grids are resolved here into ``(axis, axis_value, param)``
points: an ``xi`` list as is, an ``epsilon`` list through
:func:`~povmdt.noise.wavepacket_overlap`, a ``phi`` list from units of pi
to radians.  The commands in :mod:`povmdt.cli` iterate the points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import yaml

from .montecarlo import AXES as SWEEP_AXES, ShotModel
from .noise import wavepacket_overlap
from .povm import Povm, load_povm, make_sic_povm, matrix_from_pairs, povm_from_walk, random_povm

POVM_SOURCES = ("builtin:sic", "random", "file", "walk")
NOISE_TYPES = ("dephasing", "rotation")
FORMATS = ("csv", "json")
CALIBRATION_SAMPLES = 100000  # calibration.samples, also when calibrate has no such block


class ConfigError(ValueError):
    """Configuration file is malformed or inconsistent (CLI exit code 2)."""


def _require(block: dict, path: str, allowed: dict) -> dict:
    """Validate a mapping against {key: required} and reject unknown keys."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(block).__name__}")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")
    missing = sorted(k for k, req in allowed.items() if req and k not in block)
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {missing}")
    return block


def _number(block: dict, path: str, key: str, default=None, integer=False):
    if key not in block:
        return default
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {v!r}")
    if integer:
        if int(v) != v:
            raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
        return int(v)
    return float(v)


def _angle(block: dict, path: str, key: str, default=None):
    """Angle in units of pi -> radians."""
    v = _number(block, path, key, default=None)
    if v is None:
        return default
    return v * math.pi


def _seed(value, path: str) -> int:
    """A seed from outside the program: a non-negative integer."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < 0:
        raise ConfigError(f"{path}: expected a non-negative integer, got {value!r}")
    return int(value)


def _number_list(value, path: str, scale: float = 1.0) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{path}[{i}]: expected a number, got {v!r}")
        out.append(float(v) * scale)
    return out


def _xi_grid(block: dict, path: str, xi_key: str) -> list[tuple] | None:
    """The overlap grid of a block as (axis, axis_value, xi) points.

    Reads an explicit ``xi_key`` list, or an ``epsilon`` delay list mapped
    through the coherence envelope of ``coherence_length``; None if the
    block has neither.
    """
    if xi_key in block:
        xs = _number_list(block[xi_key], f"{path}.{xi_key}")
        bad = [x for x in xs if not 0 <= x <= 1]
        if bad:
            raise ConfigError(f"{path}.{xi_key}: values outside [0, 1]: {bad}")
        return [("xi", x, x) for x in xs]
    if "epsilon" in block:
        length = _number(block, path, "coherence_length")
        if length is None or length <= 0:
            raise ConfigError(
                f"{path}.coherence_length: required positive number with epsilon grid"
            )
        return [
            ("epsilon", e, wavepacket_overlap(e, length))
            for e in _number_list(block["epsilon"], f"{path}.epsilon")
        ]
    return None


@dataclass
class ScenarioConfig:
    """Validated, resolved configuration for one CLI invocation."""

    raw: dict
    seed: int
    povm_block: dict | None = None
    entry: dict | None = None
    g: float = math.pi / 4
    shots: ShotModel | None = None
    noise: dict | None = None
    sweep: dict | None = None
    calibration: dict | None = None
    out_dir: str | None = None
    out_format: str = "csv"
    tolerance: float = 1e-9
    _povm_cache: Povm | None = field(default=None, repr=False)

    def resolved_echo(self) -> str:
        """Canonical JSON echo of the raw config plus the effective seed."""
        echo = dict(self.raw)
        echo["seed"] = self.seed
        return json.dumps(echo, sort_keys=True, default=str)

    def povm(self) -> Povm:
        if self.povm_block is None:
            raise ConfigError("povm: block is required for this command")
        if self._povm_cache is None:
            self._povm_cache = _build_povm(self.povm_block, self.seed)
        return self._povm_cache

    def shot_model(self) -> ShotModel:
        if self.shots is None:
            raise ConfigError("shots: block is required for this command")
        return self.shots


def _build_povm(block: dict, global_seed: int) -> Povm:
    """The POVM of a validated povm block; a missing or malformed source is a ConfigError."""
    source = block["source"]
    key = {"file": "path", "walk": "unitary"}.get(source)
    try:
        if source == "builtin:sic":
            return make_sic_povm()
        if source == "random":
            return random_povm(block["d"], block["outcomes"], block.get("seed", global_seed))
        if source == "file":
            return load_povm(block["path"], check_complete=False)
        with open(block["unitary"]) as fh:  # source "walk"
            data = json.load(fh)
        u = matrix_from_pairs(data["matrix"])
        return povm_from_walk(u, int(data["n_positions"]), int(data["coin_dim"]))
    except FileNotFoundError:
        raise ConfigError(f"povm.{key}: file not found: {block[key]}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # besides ValueError: a source document that lacks a key the reader
        # needs, or holds a value of the wrong JSON type or an infinite one
        where = f"povm.{key}: {block[key]}" if key else "povm"
        why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{where}: {why}") from None


def parse_config(path: str, seed_override: int | None = None) -> ScenarioConfig:
    """Load, validate and resolve a YAML config file."""
    try:
        with open(path) as fh:
            # libyaml's loader where installed: the same documents, parsed
            # about six times faster than the pure-Python one
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    if raw is None:
        raw = {}
    _require(
        raw,
        "config",
        {
            "seed": False, "povm": False, "entry": False, "coupling": False,
            "shots": False, "noise": False, "sweep": False, "calibration": False,
            "output": False, "tolerance": False,
        },
    )

    if seed_override is not None:
        seed = _seed(seed_override, "--seed")
    else:
        seed = _seed(raw.get("seed", 0), "seed")

    cfg = ScenarioConfig(raw=raw, seed=seed)

    if "povm" in raw:
        block = _require(
            raw["povm"], "povm",
            {"source": True, "d": False, "outcomes": False, "seed": False,
             "path": False, "unitary": False},
        )
        source = block.get("source")
        if source not in POVM_SOURCES:
            raise ConfigError(f"povm.source: expected one of {POVM_SOURCES}, got {source!r}")
        if source == "random":
            sizes = {key: _number(block, "povm", key, integer=True) for key in ("d", "outcomes")}
            for key, value in sizes.items():
                if value is None:
                    raise ConfigError(f"povm.{key}: required for source 'random'")
            block = dict(block, **sizes)
        if source == "file" and not isinstance(block.get("path"), str):
            raise ConfigError("povm.path: required (string) for source 'file'")
        if source == "walk" and not isinstance(block.get("unitary"), str):
            raise ConfigError("povm.unitary: required (string) for source 'walk'")
        if "seed" in block:
            block = dict(block, seed=_seed(block["seed"], "povm.seed"))
        cfg.povm_block = block

    if "entry" in raw:
        block = _require(raw["entry"], "entry", {"l": False, "j": True, "k": True})
        j = _number(block, "entry", "j", integer=True)
        k = _number(block, "entry", "k", integer=True)
        l = block.get("l", "all")
        if l != "all":
            l = _number(block, "entry", "l", integer=True)
        if j == k:
            raise ConfigError("entry: j and k must differ (off-diagonal entry)")
        cfg.entry = {"l": l, "j": j, "k": k}

    if "coupling" in raw:
        block = _require(raw["coupling"], "coupling", {"g": True})
        g = _angle(block, "coupling", "g")
        if not 0 < g < math.pi / 2:
            raise ConfigError(
                f"coupling.g: {block['g']!r} (units of pi) must lie strictly in (0, 0.5)"
            )
        cfg.g = g

    if "shots" in raw:
        block = _require(
            raw["shots"], "shots",
            {"n_per_setting": True, "statistics": False, "seed": False},
        )
        try:
            cfg.shots = ShotModel(
                _number(block, "shots", "n_per_setting", integer=True),
                block.get("statistics", "poisson"),
                _seed(block["seed"], "shots.seed") if "seed" in block else cfg.seed,
            )
        except ValueError as exc:
            raise ConfigError(f"shots: {exc}") from None

    if "noise" in raw:
        block = _require(
            raw["noise"], "noise",
            {"type": True, "xi": False, "epsilon": False,
             "coherence_length": False, "phi": False},
        )
        kind = block.get("type")
        if kind not in NOISE_TYPES:
            raise ConfigError(f"noise.type: expected one of {NOISE_TYPES}, got {kind!r}")
        if kind == "dephasing":
            grid = _xi_grid(block, "noise", "xi")
            if grid is None:
                raise ConfigError("noise: dephasing needs either an xi grid or an epsilon grid")
        else:
            if "phi" not in block:
                raise ConfigError("noise: rotation needs a phi grid (units of pi)")
            grid = [("phi", p, p) for p in _number_list(block["phi"], "noise.phi", scale=math.pi)]
        cfg.noise = {"type": kind, "grid": grid}

    if "sweep" in raw:
        block = _require(
            raw["sweep"], "sweep",
            {"axis": True, "grid": True, "trials": False, "theta": False,
             "eta": False, "e01": False, "g": False},
        )
        axis = block.get("axis")
        if axis not in SWEEP_AXES:
            raise ConfigError(f"sweep.axis: expected one of {SWEEP_AXES}, got {axis!r}")
        angle_scale = math.pi if axis in ("g", "theta", "phi") else 1.0
        sweep = {
            "axis": axis,
            "grid": tuple(_number_list(block["grid"], "sweep.grid", scale=angle_scale)),
            "trials": _number(block, "sweep", "trials", default=10000, integer=True),
            "theta": _angle(block, "sweep", "theta", default=0.0),
            "eta": _number(block, "sweep", "eta", default=0.5),
            "g": _angle(block, "sweep", "g", default=cfg.g),
        }
        e01 = _number_list(block.get("e01", [0.0, 0.0]), "sweep.e01")
        if len(e01) != 2:
            raise ConfigError(f"sweep.e01: expected [re, im], got {block['e01']!r}")
        sweep["e01"] = complex(*e01)
        cfg.sweep = sweep

    if "calibration" in raw:
        block = _require(
            raw["calibration"], "calibration",
            {"xi_grid": False, "samples": False, "phase_inputs": False,
             "epsilon": False, "coherence_length": False},
        )
        samples = _number(block, "calibration", "samples", default=CALIBRATION_SAMPLES,
                          integer=True)
        if samples <= 0:
            raise ConfigError(f"calibration.samples: expected a positive integer, got {samples}")
        cfg.calibration = {
            "samples": samples,
            "grid": _xi_grid(block, "calibration", "xi_grid"),
            "phase_inputs": (
                _number_list(block["phase_inputs"], "calibration.phase_inputs")
                if "phase_inputs" in block else []
            ),
        }

    if "output" in raw:
        block = _require(raw["output"], "output", {"dir": False, "format": False})
        if "dir" in block:
            if not isinstance(block["dir"], str):
                raise ConfigError("output.dir: expected a string path")
            cfg.out_dir = block["dir"]
        fmt = block.get("format", "csv")
        if fmt not in FORMATS:
            raise ConfigError(f"output.format: expected one of {FORMATS}, got {fmt!r}")
        cfg.out_format = fmt

    if "tolerance" in raw:
        tol = _number(raw, "config", "tolerance")
        if tol is None or tol <= 0:
            raise ConfigError(f"tolerance: expected a positive number, got {raw['tolerance']!r}")
        cfg.tolerance = tol

    return cfg
