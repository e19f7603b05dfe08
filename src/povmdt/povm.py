"""Measurement-operator containers, constructors and the entry oracle.

A :class:`Povm` is an ordered list of positive operators with integer
outcome labels.  The matrix entry of element ``l`` in the computational
basis is ``<j| Pi_l |k>``; :func:`matrix_entry_oracle` evaluates it exactly
and serves as the ground truth for every estimator in this package.
"""

from __future__ import annotations

import json

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    asoperator,
    dag,
    is_unitary,
    projector,
    random_unitary,
)
from .reports import _atomic_write

POVM_SCHEMA_VERSION = 1


def _check_elements(stack: np.ndarray) -> None:
    """Refuse an (L, d, d) complex stack, naming its first element that is not
    Hermitian, or not positive semidefinite, within ``DEFAULT_TOL``."""
    adjoint = stack.conj().swapaxes(1, 2)
    # ``x <= DEFAULT_TOL`` is False for NaN, so a NaN element is refused, and
    # so is an infinite one: inf - inf is NaN (its warning is silenced)
    with np.errstate(invalid="ignore"):
        hermitian = np.abs(stack - adjoint).reshape(len(stack), -1).max(axis=1) <= DEFAULT_TOL
        hermitian_part = (stack + adjoint) / 2
    valid = hermitian.copy()
    valid[hermitian] = np.linalg.eigvalsh(hermitian_part[hermitian])[:, 0] >= -DEFAULT_TOL
    if not valid.all():
        i = int(np.argmin(valid))
        kind = "Hermitian" if not hermitian[i] else "positive semidefinite"
        raise ValueError(f"element {i} is not {kind} within {DEFAULT_TOL}")


class Povm:
    """Ordered collection of measurement operators with outcome labels.

    ``elements`` is a sequence of (d, d) matrices or an (L, d, d) array,
    copied, and ``labels`` are integers (``bool`` is refused), 1..L by
    default.  Each element must be Hermitian and positive semidefinite
    within the fixed tolerance ``DEFAULT_TOL`` (1e-9).  By default the
    elements must also sum to the identity within the same tolerance;
    constructors of deliberately sub-complete collections pass
    ``check_complete=False`` and the residual stays queryable through
    :meth:`completeness_residual`.

    The elements are stored as one read-only (L, d, d) complex array, in
    label order; :attr:`elements` and :meth:`element` return views of it.
    """

    def __init__(
        self,
        elements,
        labels=None,
        *,
        check_complete: bool = True,
    ):
        try:
            stack = np.array(elements, dtype=complex)  # a copy the caller cannot change
        except ValueError:  # numpy refuses a ragged list of matrices
            raise ValueError("elements must be square matrices of one dimension") from None
        if not len(stack):
            raise ValueError("a POVM needs at least one element")
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError(
                f"elements must be square matrices of one dimension, an (L, d, d) stack; "
                f"got shape {stack.shape}"
            )
        _check_elements(stack)
        if labels is None:
            labels = range(1, len(stack) + 1)
        for label in labels:
            if not isinstance(label, (int, np.integer)) or isinstance(label, bool):
                raise ValueError(f"outcome label {label!r} is not an integer")
        labels = [int(label) for label in labels]
        if len(labels) != len(stack):
            raise ValueError("labels and elements must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be unique")
        stack.setflags(write=False)
        self._elements, self._labels, self._dim = stack, tuple(labels), stack.shape[1]
        if check_complete:
            resid = self.completeness_residual()
            if resid > DEFAULT_TOL:
                raise ValueError(f"elements do not sum to identity: residual {resid:.3e}")

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def labels(self) -> tuple:
        return self._labels

    @property
    def elements(self) -> np.ndarray:
        """The (L, d, d) read-only stack of elements, in label order."""
        return self._elements.view()

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self):
        return iter(zip(self._labels, self._elements))

    def element(self, label: int) -> np.ndarray:
        """Element for an outcome label; a label matches by value, never
        truncated (1.5 labels no outcome)."""
        try:
            idx = self._labels.index(label)
        except ValueError:
            raise KeyError(f"no outcome labelled {label}; labels are {self._labels}") from None
        return self._elements[idx]

    @classmethod
    def _over_checked(cls, stack: np.ndarray, labels: tuple) -> "Povm":
        """A POVM of ``labels``, a tuple of distinct ints, over ``stack``, which
        :func:`_check_elements` passed (and the completeness check, where the
        caller needs it); checked no further, kept read-only, not copied."""
        povm = object.__new__(cls)
        stack.setflags(write=False)
        povm._elements, povm._labels, povm._dim = stack, labels, stack.shape[1]
        return povm

    def completeness_residual(self) -> float:
        """Max-norm of (sum of elements - identity)."""
        total = self._elements.sum(axis=0)
        return float(np.abs(total - np.eye(self._dim)).max())

    def to_dict(self) -> dict:
        return {
            "schema_version": POVM_SCHEMA_VERSION,
            "dim": self._dim,
            "labels": list(self._labels),
            "elements": [
                [[[float(z.real), float(z.imag)] for z in row] for row in e]
                for e in self._elements
            ],
        }

    @classmethod
    def from_dict(cls, data: dict, *, check_complete: bool = True) -> "Povm":
        dim = int(data["dim"])
        elems = [matrix_from_pairs(e) for e in data["elements"]]
        for m in elems:
            if m.shape != (dim, dim):
                raise ValueError(f"element shape {m.shape} does not match dim {dim}")
        return cls(elems, data.get("labels"), check_complete=check_complete)


def matrix_from_pairs(rows) -> np.ndarray:
    """A complex matrix from its JSON form, rows of [re, im] pairs (the form
    of :meth:`Povm.to_dict` and of walk unitary files); a malformed entry
    raises ValueError."""
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError):
        raise ValueError("matrix entries must be [re, im] pairs of numbers") from None


def save_povm(povm: Povm, path: str) -> None:
    """Write a POVM to JSON, atomically (temp file + rename).

    Python's float repr round-trips doubles exactly, so the file preserves
    full precision.
    """
    _atomic_write(path, json.dumps(povm.to_dict(), indent=1))


def load_povm(path: str, *, check_complete: bool = True) -> Povm:
    with open(path) as fh:
        return Povm.from_dict(json.load(fh), check_complete=check_complete)


def make_sic_povm() -> Povm:
    """Four rank-one elements (1/2)|psi_l><psi_l| on a qubit, labels 1..4.

    The state set is, over {|H>, |V>} = {|0>, |1>}:

        psi_1 = |H>
        psi_2 = (|H> - sqrt(2) |V>) / sqrt(3)
        psi_3 = (|H> + sqrt(2) e^{-i 2pi/3} |V>) / sqrt(3)
        psi_4 = (|H> + sqrt(2) e^{+i 2pi/3} |V>) / sqrt(3)

    Note: with the sign of psi_2 as written this set does not resolve the
    identity -- the element sum carries an off-diagonal excess of
    -sqrt(2)/3 in the (H,V) slot -- so the completeness check is waived
    here.  Per-element positivity still holds, and every per-outcome
    quantity in this package (post-selection, entry estimation, noise
    transforms) is well defined for it.
    """
    s2 = np.sqrt(2.0)
    s3 = np.sqrt(3.0)
    w = np.exp(2j * np.pi / 3)
    psis = [
        np.array([1.0, 0.0], dtype=complex),
        np.array([1.0, -s2], dtype=complex) / s3,
        np.array([1.0, s2 * w.conjugate()], dtype=complex) / s3,
        np.array([1.0, s2 * w], dtype=complex) / s3,
    ]
    elems = [0.5 * projector(p) for p in psis]
    return Povm(elems, labels=[1, 2, 3, 4], check_complete=False)


def make_parametric_element(theta: float, eta: float, e01: complex) -> np.ndarray:
    """General qubit measurement operator eta * [[cos^2 t, e01], [conj(e01), sin^2 t]].

    ``e01`` is the off-diagonal entry of the bracketed (efficiency-normalized)
    matrix; positivity requires |e01| <= |cos(theta) sin(theta)|.
    """
    if not 0 < eta <= 1:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if not (np.isfinite(theta) and np.isfinite(e01)):
        raise ValueError(f"theta and e01 must be finite, got {theta} and {e01}")
    c, s = np.cos(theta), np.sin(theta)
    bound = abs(c * s)
    if abs(e01) > bound + 1e-12:
        raise ValueError(
            f"|e01| = {abs(e01):.6g} exceeds the positivity bound "
            f"|cos(theta) sin(theta)| = {bound:.6g}"
        )
    e01 = complex(e01)
    return eta * np.array([[c * c, e01], [e01.conjugate(), s * s]], dtype=complex)


def povm_from_walk(u_walk: np.ndarray, n_positions: int, coin_dim: int) -> Povm:
    """Extract the POVM realized by a walk unitary read out in position.

    The walker starts at position 0; detecting it at position ``l`` after
    the unitary implements the coin-space element

        Pi_l = Tr_W[ (|0><0| (x) I) U^dag (|l><l| (x) I) U ]

    which equals A_l^dag A_l with the Kraus block A_l = (<l| (x) I) U (|0> (x) I).
    Completeness is exact by unitarity.  Ordering is position (x) coin with
    position as the slow index.
    """
    u = asoperator(u_walk)
    if u.shape[0] != n_positions * coin_dim:
        raise ValueError(
            f"unitary dimension {u.shape[0]} != n_positions*coin_dim = "
            f"{n_positions * coin_dim}"
        )
    if not is_unitary(u, 1e-10):
        raise ValueError("walk operator is not unitary within 1e-10")
    # Kraus block A_l: rows (l, c'), cols (0, c) of U.
    blocks = u.reshape(n_positions, coin_dim, n_positions, coin_dim)[:, :, 0, :]
    elems = [dag(a) @ a for a in blocks]
    return Povm(elems, labels=list(range(n_positions)), check_complete=True)


def random_povm(d: int, n_outcomes: int, seed: int) -> Povm:
    """Complete random POVM from a Haar-like unitary dilation.

    The dilation acts on outcomes (x) system; completeness is exact by
    construction and the result is deterministic for a given seed.
    """
    if d < 2:
        raise ValueError(f"system dimension must be >= 2, got {d}")
    if n_outcomes < 1:
        raise ValueError(f"need at least one outcome, got {n_outcomes}")
    rng = np.random.default_rng(seed)
    u = random_unitary(d * n_outcomes, rng)
    return Povm._over_checked(povm_from_walk(u, n_outcomes, d)._elements,
                              tuple(range(1, n_outcomes + 1)))


def matrix_entry_oracle(povm: Povm, label: int, j: int, k: int) -> complex:
    """Exact matrix entry <j| Pi_l |k> of the element labelled ``label``.

    This is the ground truth every estimator is checked against.
    """
    e = povm.element(label)
    d = povm.dim
    if not 0 <= j < d or not 0 <= k < d:
        raise IndexError(f"entry indices ({j}, {k}) out of range for dimension {d}")
    # adding 0j turns a signed zero into +0.0, so no artifact shows "-0.0"
    return e.item(j, k) + 0j
