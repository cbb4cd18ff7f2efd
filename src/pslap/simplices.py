"""Simplices, filtered complexes, and snapshot extraction.

A :class:`FilteredComplex` stores every simplex of the final complex together
with a squared filtration value, and keeps each dimension sorted by
(value, vertex tuple).  Every snapshot is then a prefix of that order, which
is what makes boundary-matrix restriction a top-left block read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

MAX_DIM = 3

# Relative slack on a squared threshold; keeps a simplex in the snapshot of
# its own critical alpha after a sqrt/square round trip.
REL_TOL = 1e-12


def bound_sq(alpha: float) -> float:
    """The largest squared filtration value threshold alpha admits.  Every
    membership question (snapshots, critical values, the barcode oracle)
    is answered by comparing a squared value against this bound."""
    return alpha * alpha * (1.0 + REL_TOL) + 1e-300


@dataclass(frozen=True)
class Snapshot:
    """Per-dimension simplex counts of one alpha-complex snapshot."""

    alpha_sq: float
    counts: tuple[int, int, int, int]

    def count(self, q: int) -> int:
        return self.counts[q] if 0 <= q <= MAX_DIM else 0


class FilteredComplex:
    """A simplicial complex with a squared filtration value per simplex.

    Immutable after construction; ``simplices(q)`` lists the q-simplices as
    vertex tuples in filtration order.
    """

    def __init__(self, simplices_by_dim, filtration_sq):
        self._derived: dict = {}  # derived() memo
        self._filtration = dict(filtration_sq)
        self._simplices = {}
        self._index = {}
        self._values = {}
        for q in range(MAX_DIM + 1):
            sims = list(simplices_by_dim.get(q, ()))
            sims.sort(key=lambda s: (self._filtration[s], s))
            self._simplices[q] = sims
            self._index[q] = {s: i for i, s in enumerate(sims)}
            self._values[q] = np.array([self._filtration[s] for s in sims], dtype=float)

    @property
    def max_dim(self) -> int:
        return max((q for q in range(MAX_DIM + 1) if self._simplices[q]), default=-1)

    def simplices(self, q: int) -> list[tuple[int, ...]]:
        return self._simplices.get(q, [])

    def face_rows(self, q: int) -> np.ndarray:
        """(N_q, q+1) positions in ``simplices(q-1)`` of the faces of each
        q-simplex, face i omitting vertex i; q >= 1."""
        index = self._index.get(q - 1, {})
        return np.array(
            [[index[s[:i] + s[i + 1:]] for i in range(q + 1)] for s in self.simplices(q)],
            dtype=np.int64,
        ).reshape(-1, q + 1)

    def n_simplices(self, q: int) -> int:
        return len(self._simplices.get(q, ()))

    def filtration_sq(self, simplex: tuple[int, ...]) -> float:
        return self._filtration[simplex]

    def filtration_values_sq(self, q: int) -> np.ndarray:
        return self._values[q]

    def derived(self, key, build):
        """``build()``, computed once per key: the complex is immutable, so
        data computed from it alone is shared by every sweep and query."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value


def snapshot(complex: FilteredComplex, alpha: float) -> Snapshot:
    """Snapshot of the filtration at (unsquared) threshold alpha >= 0: the
    simplices with squared value <= ``bound_sq(alpha)``.  Built once per
    alpha, as sweeps and oracle queries ask for the same ones."""
    if not alpha >= 0:  # also rejects NaN
        raise ValueError(f"alpha must be non-negative, got {alpha}")

    def build():
        bound = bound_sq(alpha)
        return Snapshot(alpha * alpha, tuple(
            int(np.searchsorted(complex.filtration_values_sq(q), bound, side="right"))
            for q in range(MAX_DIM + 1)
        ))

    return complex.derived(("snapshot", alpha), build)


def closure_of_cells(cells) -> dict[int, set]:
    """All faces of the given top cells, grouped by dimension."""
    by_dim: dict[int, set] = {q: set() for q in range(MAX_DIM + 1)}
    for cell in cells:
        t = tuple(sorted(cell))
        for q in range(len(t)):
            for s in itertools.combinations(t, q + 1):
                by_dim[q].add(s)
    return by_dim
