"""Artifact writers: CSV with embedded metadata, schema-versioned JSON.

Every emitted file carries the resolved config echo, package version,
seed and backend, so it can be regenerated bit-identically.  Files are
written atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import json
import os
import tempfile

from . import __version__
from .protocol import SETTINGS, _cells

REPORT_SCHEMA_VERSION = 1


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


def _format_value(v) -> str:
    if hasattr(v, "item"):  # numpy scalar
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: str, columns: list[str], rows: list[dict], metadata: dict) -> None:
    """CSV with '#'-prefixed metadata header lines (skippable by readers)."""
    lines = [f"# {key}: {value}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_value(row[c]) for c in columns))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json_report(path: str, metadata: dict, results: dict) -> None:
    payload = dict(metadata)
    payload["results"] = results
    _atomic_write(path, json.dumps(payload, indent=1, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def write_tables_csv(path: str, entries: list[dict], metadata: dict) -> None:
    """Meter distributions as rows (l, basis_b, basis_a, m, n, W).

    Each entry holds an outcome label ``l`` and its (9, 2, 2) ``tables``.
    """
    rows = []
    for e in entries:
        for c, w in enumerate(_cells(e["tables"])):
            (bb, ba), (m, n) = SETTINGS[c // 4], divmod(c % 4, 2)
            rows.append(
                {"l": e["l"], "basis_b": bb, "basis_a": ba, "m": m, "n": n, "W": float(w)}
            )
    write_csv(path, ["l", "basis_b", "basis_a", "m", "n", "W"], rows, metadata)
