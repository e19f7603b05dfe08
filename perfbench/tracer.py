"""Span tracer that wraps povmdt's public functions from outside the package.

Every traced function is replaced, in every ``povmdt`` module that binds
its name, by a wrapper that records one span per call: name, start, end,
the span that was open when it was called (its parent), whether it
raised, and an optional probe value computed from its arguments.  Modules
import names directly (``from .protocol import exact_entry_tables``), so
patching only the defining module would miss the calls made through those
bindings.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

PACKAGE = "povmdt"

#: Functions wrapped by the tracer, by defining module.
TRACED = {
    "config": ("parse_config",),
    "povm": ("random_povm", "matrix_entry_oracle"),
    "protocol": ("prepare_entry_state", "meter_tables", "exact_entry_tables"),
    "estimator": (
        "rt_coefficients", "estimate_from_tables", "error_transfer_variance",
        "completeness_refine",
    ),
    "noise": ("apply_dephasing", "apply_phase_rotation"),
    "montecarlo": ("sample_counts", "run_trials", "variance_sweep", "refinement_trials"),
    "_kernels": ("trial_estimates",),
    "reports": ("write_csv",),
    "cli": ("run_scan",),
}


def _inputs(args: dict, result) -> tuple:
    """The call's arguments as a hashable key (for distinct-input ratios)."""
    return tuple(args.values())


def _draws(args: dict, result) -> int:
    """Cell counts drawn by one trial-kernel call: trials x cells."""
    return int(args["trials"]) * int(args["cells"].size)


def _bytes_written(args: dict, result) -> int:
    return os.path.getsize(args["path"])


#: Traced functions whose distinct inputs are counted.
DISTINCT = ("protocol.prepare_entry_state", "estimator.rt_coefficients")

#: Per-call probes, evaluated on the bound arguments after the call returns.
PROBES = {
    **{name: _inputs for name in DISTINCT},
    "_kernels.trial_estimates": _draws,
    "reports.write_csv": _bytes_written,
}

# span fields
NAME, START, END, PARENT, ERROR, PROBE = range(6)


class Tracer:
    """In-memory spans of every traced call made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        for mod_name, functions in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                self._patched += patch_everywhere(original, wrapper)

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if probe:
                span[PROBE] = probe(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def patch_everywhere(original, replacement) -> list[tuple]:
    """Rebind ``replacement`` wherever a povmdt module binds ``original``.

    Returns the (module, name, original) bindings for :func:`restore`.
    """
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patched.append((module, attr, original))
                setattr(module, attr, replacement)
    return patched


def restore(patched: list[tuple]) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]
