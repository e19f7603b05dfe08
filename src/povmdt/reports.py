"""Artifact writers: CSV with embedded metadata, schema-versioned JSON.

Every emitted file carries the resolved config echo, package version,
seed and backend, so it can be regenerated bit-identically.  Files are
written atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from . import __version__

REPORT_SCHEMA_VERSION = 2


def run_metadata(command: str, config_echo: str, seed: int) -> dict:
    """Metadata block embedded in every artifact; numpy with PCG64 is the
    only sampler."""
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "package_version": __version__,
        "command": command,
        "seed": seed,
        "backend": "numpy",
        "rng": "numpy-pcg64",
        "config": config_echo,
    }


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _column_text(values: list) -> list:
    """``str`` of each value of a column; of each bitwise-distinct one once if all
    are exact ``float``s (keyed on bits: 0.0 and -0.0 differ, NaN needs no ==)."""
    if set(map(type, values)) != {float}:
        return list(map(str, values))
    bits, where = np.unique(np.array(values).view(np.int64), return_inverse=True)
    text = list(map(repr, bits.view(float).tolist()))  # a float's repr is its str
    return np.array(text, dtype=object)[where].tolist()


def write_csv(path: str, columns: list[str], rows: list[dict], metadata: dict) -> None:
    """CSV with '#'-prefixed metadata header lines (skippable by readers).

    Every value is written with ``str``, so a float is its shortest
    round-trip ``repr``, one column at a time (:func:`_column_text`).
    """
    lines = [f"# {key}: {value}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    text = [_column_text([row[column] for row in rows]) for column in columns]
    lines.extend(map(",".join, zip(*text)) if columns else [""] * len(rows))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json_report(path: str, metadata: dict, results: dict) -> None:
    """JSON report of the metadata and ``results``, which hold only JSON
    types: any other value (a complex, an ndarray, a numpy int) raises
    TypeError before anything is written."""
    payload = dict(metadata)
    payload["results"] = results
    _atomic_write(path, json.dumps(payload, indent=1) + "\n")

