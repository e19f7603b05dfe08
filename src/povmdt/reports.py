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


def _column_text(column) -> list:
    """The ``str`` of every value of a column, each distinct (type, bits)
    formatted once.  A float64, integer, bool or string array is deduplicated
    by numpy, any other column value by value, a float on its hex: its bits,
    but for NaNs, all of which read "nan"."""
    bits = isinstance(column, np.ndarray) and column.dtype == float
    if bits or isinstance(column, np.ndarray) and column.dtype.kind in "biuU":
        distinct, where = np.unique(column.view(np.int64) if bits else column, return_inverse=True)
        values = (distinct.view(float) if bits else distinct).tolist()
        return np.array(list(map(str, values)), dtype=object)[where].tolist()
    values = column.tolist() if isinstance(column, np.ndarray) else column
    keys = [(type(v), v.hex() if isinstance(v, float) else v) for v in values]
    text = {key: str(value) for key, value in dict(zip(keys, values)).items()}
    return [text[key] for key in keys]


def write_csv(path: str, table: dict, metadata: dict) -> None:
    """CSV with '#'-prefixed metadata header lines (skippable by readers) of
    a column table: a mapping of column name to a 1-D sequence or numpy
    array, which stands for its Python scalars, in column order, every
    column of one length.  Every value is written with ``str``, so a float
    is its shortest round-trip ``repr``: 0.0 and -0.0, and 1, 1.0 and True
    keep their own text (:func:`_column_text`)."""
    text = [_column_text(column) for column in table.values()]
    if len(set(map(len, text))) > 1:
        raise ValueError(f"table columns differ in length: {dict(zip(table, map(len, text)))}")
    lines = [f"# {key}: {value}" for key, value in metadata.items()]
    lines.append(",".join(table))
    lines.extend(map(",".join, zip(*text)))
    _atomic_write(path, "\n".join(lines) + "\n")


def table_rows(table: dict) -> list[dict]:
    """The rows of a column table (:func:`write_csv`) as dicts of Python
    scalars, keyed in column order: the rows of a JSON report."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
    return [dict(zip(table, row)) for row in zip(*columns)]


def write_json_report(path: str, metadata: dict, results: dict) -> None:
    """JSON report of the metadata and ``results``, which hold only JSON
    types: any other value (a complex, an ndarray, a numpy int) raises
    TypeError before anything is written."""
    payload = dict(metadata, results=results)
    _atomic_write(path, json.dumps(payload, indent=1) + "\n")

