"""Host-speed reference: a fixed chunk of work timed between operations.

On a shared host the same code runs up to 1.8 times slower for stretches
that last from a fraction of a millisecond to minutes, as other tenants load
the cores; CPU time slows with it.  Each workload therefore times a small
reference chunk, of the same kind of work as its own, between its
operations.  The times of a pass are then scaled by
``nominal_s / mean(reference times in the pass)``: they read as on a host
that runs the chunk in ``nominal_s``.  Means, not minima, are compared,
because an operation longer than the host's fast spells is slowed by their
average.  The chunks call no povmdt code, so a change to the package moves
only the measured times, never the scale.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_A4 = np.eye(4, dtype=complex) * 0.5 + 0.1
_A2 = _A4[:2, :2].copy()


def small_ops() -> None:
    """Small-matrix numpy calls from Python, like the exact pipeline's."""
    for _ in range(6):
        np.trace(np.kron(_A2, _A2) @ _A4).real


_RNG = np.random.default_rng(0)
_RATES = np.linspace(50.0, 3000.0, 36)
_W = np.linspace(-1.0, 1.0, 36)


def draws() -> None:
    """Poisson cell counts and a weighted sum, like the trial kernel's."""
    counts = _RNG.poisson(_RATES, size=(200, 36)).astype(np.float64)
    counts /= 12790.0
    counts @ _W


#: Mean time of each chunk on the host the benchmark was defined on, with
#: other tenants at their usual load.
NOMINAL_S = {small_ops: 250e-6, draws: 500e-6}


class HostSpeed:
    """Times of one reference chunk, taken whenever a workload asks."""

    def __init__(self, chunk, repeat: int = 1):
        self.chunk = chunk
        self.nominal_s = NOMINAL_S[chunk]
        self.repeat = repeat
        self.samples: list[float] = []
        #: Seconds spent in :meth:`sample`, to take out of pass times.
        self.spent = 0.0

    def sample(self) -> None:
        start = perf_counter()
        for _ in range(self.repeat):
            t0 = perf_counter()
            self.chunk()
            self.samples.append(perf_counter() - t0)
        self.spent += perf_counter() - start

    def scale(self, first: int, last: int) -> float:
        """Factor that brings times measured while samples ``first:last``
        were taken to the nominal host speed."""
        return self.nominal_s / statistics.fmean(self.samples[first:last])
