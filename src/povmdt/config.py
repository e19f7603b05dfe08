"""Scenario configuration: YAML schema, validation, resolution.

Configs are plain YAML with nested blocks.  Every angle is written in
units of pi (``g: 0.25`` means pi/4) to avoid decimal-pi transcription
slips.  Unknown keys are rejected everywhere; validation errors carry the
dotted path of the offending key.

Every number enters through one reader, :func:`_real`, which refuses a
non-number, a non-finite value, a non-integer where an integer is meant and
a non-positive value where a positive one is.  :func:`_number` reads one
key of a block through it, an integer one within int64, :func:`_number_list`
a list and :func:`_seed` a seed, any non-negative integer; :func:`_choice`
reads a key that takes one of a fixed set of values.

This is the only module that reads the block formats.  Noise and
calibration grids are resolved here into ``(axis, axis_value, param)``
points: an ``xi`` list as is, an ``epsilon`` list through
:func:`~povmdt.noise.wavepacket_overlap`, a ``phi`` list from units of pi
to radians.  The commands in :mod:`povmdt.cli` iterate the points.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import yaml

from .estimator import ConfigError
from .montecarlo import SWEEP_KEYWORDS, ShotModel
from .noise import wavepacket_overlap
from .povm import Povm, load_povm, make_sic_povm, matrix_from_pairs, povm_from_walk, random_povm

#: The top-level blocks of a config, in the order that messages name them.
BLOCKS = ("seed", "povm", "entry", "coupling", "shots", "noise", "sweep", "calibration",
          "output", "tolerance")
POVM_SOURCES = ("builtin:sic", "builtin:sic-complete", "random", "file", "walk")
NOISE_TYPES = ("dephasing", "rotation")
FORMATS = ("csv", "json")
CALIBRATION_SAMPLES = 100000  # calibration.samples, also when calibrate has no such block
SWEEP_AXES = tuple(SWEEP_KEYWORDS)
_FLOAT_MAX = sys.float_info.max
_INT64_MAX = 2**63 - 1


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


def _real(value, path: str, integer=False, positive=False, scale=1.0):
    """The one number reader: ``value`` as an int, or as a float times
    ``scale``; a refusal names ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= _FLOAT_MAX:  # also NaN, and an int too large for a float
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    if integer:
        if int(value) != value:
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        value = int(value)
    if positive and value <= 0:
        kind = "integer" if integer else "number"
        raise ConfigError(f"{path}: expected a positive {kind}, got {value!r}")
    return value if integer else float(value) * scale


def _number(block: dict, path: str, key: str, default=None, integer=False, positive=False,
            scale=1.0):
    """``block[key]`` read by :func:`_real`, or ``default`` if absent."""
    if key not in block:
        return default
    value = _real(block[key], f"{path}.{key}", integer, positive, scale)
    if integer and abs(value) > _INT64_MAX:  # numpy takes a count or an index as a C long
        raise ConfigError(f"{path}.{key}: expected an integer in the int64 range, got {value!r}")
    return value


def _seed(value, path: str) -> int:
    """A seed from outside the program: a non-negative integer."""
    try:
        if _real(value, path, integer=True) >= 0:
            return int(value)
    except ConfigError:
        pass
    raise ConfigError(f"{path}: expected a non-negative integer, got {value!r}")


def _number_list(value, path: str, scale: float = 1.0) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    return [_real(v, f"{path}[{i}]", False, False, scale) for i, v in enumerate(value)]


def _choice(value, path: str, options: tuple):
    if value not in options:
        raise ConfigError(f"{path}: expected one of {options}, got {value!r}")
    return value


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
        if source.startswith("builtin:"):
            return make_sic_povm(complete=source == "builtin:sic-complete")
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
    _require(raw, "config", dict.fromkeys(BLOCKS, False))

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
        source = _choice(block["source"], "povm.source", POVM_SOURCES)
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
        g = _number(block, "coupling", "g", scale=math.pi)
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
        n = _number(block, "shots", "n_per_setting", integer=True)
        seed = _seed(block["seed"], "shots.seed") if "seed" in block else cfg.seed
        if seed_override is not None:  # the artifacts name --seed, so it draws the counts
            seed = cfg.seed
        try:
            cfg.shots = ShotModel(n, block.get("statistics", "poisson"), seed)
        except ValueError as exc:
            raise ConfigError(f"shots: {exc}") from None

    if "noise" in raw:
        block = _require(
            raw["noise"], "noise",
            {"type": True, "xi": False, "epsilon": False,
             "coherence_length": False, "phi": False},
        )
        kind = _choice(block["type"], "noise.type", NOISE_TYPES)
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
        axis = _choice(block["axis"], "sweep.axis", SWEEP_AXES)
        angle_scale = math.pi if axis in ("g", "theta", "phi") else 1.0
        sweep = {
            "axis": axis,
            "grid": tuple(_number_list(block["grid"], "sweep.grid", scale=angle_scale)),
            "trials": _number(block, "sweep", "trials", default=10000, integer=True),
        }
        # the fixed values the block gives, which SweepSpec refuses where
        # the axis does not take them; an axis that takes g holds it at
        # coupling.g unless the block gives it
        for key, scale in (("theta", math.pi), ("eta", 1.0), ("g", math.pi)):
            if key in block:
                sweep[key] = _number(block, "sweep", key, scale=scale)
        if "g" in SWEEP_KEYWORDS[axis]:
            sweep.setdefault("g", cfg.g)
        if "e01" in block:
            e01 = _number_list(block["e01"], "sweep.e01")
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
        cfg.calibration = {
            "samples": _number(block, "calibration", "samples", default=CALIBRATION_SAMPLES,
                               integer=True, positive=True),
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
        cfg.out_format = _choice(block.get("format", "csv"), "output.format", FORMATS)

    if "tolerance" in raw:
        cfg.tolerance = _real(raw["tolerance"], "tolerance", positive=True)

    return cfg
