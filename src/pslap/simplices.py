"""Simplices, filtered complexes, and snapshot extraction.

A :class:`FilteredComplex` stores every simplex of the final complex together
with a squared filtration value, and keeps each dimension sorted by
(value, vertex tuple).  Every snapshot is then a prefix of that order, which
is what makes boundary-matrix restriction a top-left block read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_DIM = 3

# Relative slack used whenever a squared filtration value is compared against
# a squared threshold; prevents a simplex from missing its own critical alpha
# after a sqrt/square round trip.
REL_TOL = 1e-12


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
        self._counts: dict[float, tuple[int, int, int, int]] = {}  # counts_at memo
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

    def index_of(self, simplex: tuple[int, ...]) -> int:
        return self._index[len(simplex) - 1][simplex]

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

    def counts_at(self, alpha_sq: float) -> tuple[int, int, int, int]:
        """Number of simplices per dimension with value <= alpha_sq, computed
        once per value: sweeps and oracle queries ask for the same ones."""
        counts = self._counts.get(alpha_sq)
        if counts is None:
            bound = alpha_sq * (1.0 + REL_TOL) + 1e-300
            counts = self._counts[alpha_sq] = tuple(
                int(np.searchsorted(self._values[q], bound, side="right"))
                for q in range(MAX_DIM + 1)
            )
        return counts


def snapshot(complex: FilteredComplex, alpha: float) -> Snapshot:
    """Snapshot of the filtration at (unsquared) threshold alpha >= 0."""
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    alpha_sq = math.inf if math.isinf(alpha) else alpha * alpha
    return Snapshot(alpha_sq=alpha_sq, counts=complex.counts_at(alpha_sq))


def closure_of_cells(cells) -> dict[int, set]:
    """All faces of the given top cells, grouped by dimension."""
    by_dim: dict[int, set] = {q: set() for q in range(MAX_DIM + 1)}
    for cell in cells:
        t = tuple(sorted(cell))
        for q in range(len(t)):
            for s in itertools.combinations(t, q + 1):
                by_dim[q].add(s)
    return by_dim
