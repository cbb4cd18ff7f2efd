"""Independent persistent-homology oracles.

Two validation routes that never touch the Laplacian code path: a Z2
boundary-matrix reduction producing barcodes, and exact Betti numbers over
the rationals from :class:`BettiOracle`, which reduces each full boundary
matrix once and reads every snapshot rank off the pivot rows (valid because
snapshot boundaries are corner blocks of the filtration-ordered matrices).
Both read only the complex's arrays and ``bound_sq``, and both answer one
alpha or an array of them in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .simplices import MAX_DIM, FilteredComplex, bound_sq, count_held


@dataclass
class Barcode:
    """Per-dimension bars in unsquared alpha units: ``births[q]`` and
    ``deaths[q]`` (inf for a bar that never dies), sorted by (birth, death)."""

    births: dict[int, np.ndarray]
    deaths: dict[int, np.ndarray]

    def bars(self, q: int) -> list[tuple[float, float]]:
        if q not in self.births:
            return []
        return list(zip(self.births[q].tolist(), self.deaths[q].tolist()))


def reduce(complex: FilteredComplex) -> Barcode:
    """Standard Z2 column reduction of the filtration boundary matrix, its
    columns in (value, dimension, vertex row) order: faces precede cofaces."""
    sizes = [complex.n_simplices(q) for q in range(MAX_DIM + 1)]
    start = np.cumsum([0] + sizes)
    dims = np.repeat(np.arange(MAX_DIM + 1), sizes)
    values = np.concatenate([complex.filtration_values_sq(q) for q in range(MAX_DIM + 1)])
    # stable: equal values keep the (dimension, vertex row) order of the
    # concatenation, so faces precede cofaces
    order = np.argsort(values, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    faces = [[]] * sizes[0]  # each simplex's face rows, as global positions
    for q in range(1, MAX_DIM + 1):
        faces += position[start[q - 1] + complex.face_rows(q)].tolist()

    low_to_col: dict[int, int] = {}
    columns: list[set] = []
    for j, i in enumerate(order.tolist()):
        col = set(faces[i])
        while col:
            low = max(col)
            k = low_to_col.get(low)
            if k is None:
                break
            col ^= columns[k]
        columns.append(col)
        if col:
            low_to_col[max(col)] = j

    values, dims = values[order], dims[order]
    death_sq = np.full(len(order), np.inf)
    death_sq[list(low_to_col)] = values[list(low_to_col.values())]
    positive = np.array([not col for col in columns], dtype=bool)
    births, deaths = {}, {}
    for q in range(MAX_DIM + 1):
        bars = positive & (dims == q)  # a negative simplex births nothing
        b, d = np.sqrt(values[bars]), np.sqrt(death_sq[bars])
        by_bar = np.lexsort((d, b))
        births[q], deaths[q] = b[by_bar], d[by_bar]
    return Barcode(births, deaths)


# The most comparisons one block of _count_below_above makes at once
_BLOCK = 1 << 20


def _count_below_above(x, y, x_max, y_min) -> np.ndarray:
    """For each k, the number of i with x[i] <= x_max[k] and y[i] > y_min[k],
    over blocks of queries of at most _BLOCK comparisons each."""
    counts = np.empty(len(x_max), dtype=np.int64)
    step = max(1, _BLOCK // max(len(x), 1))
    for lo in range(0, len(x_max), step):
        hi = lo + step
        hits = (x <= x_max[lo:hi, None]) & (y > y_min[lo:hi, None])
        counts[lo:hi] = np.count_nonzero(hits, axis=1)
    return counts


def _answer(alpha, counts: np.ndarray):
    """An int for a scalar ``alpha``, else the array of counts."""
    return int(counts[0]) if np.ndim(alpha) == 0 else counts


def betti_from_barcode(barcode: Barcode, q: int, alpha, p: float = 0.0):
    """Number of dimension-q bars born in the snapshot at alpha and dying
    after the one at alpha + p, by the snapshots' rule on squared values.
    ``alpha`` is a float, giving an int, or an array, giving one count per
    entry."""
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    if q not in barcode.births:
        return _answer(alpha, np.zeros(len(alphas), dtype=np.int64))
    b, d = barcode.births[q], barcode.deaths[q]
    # d * d = inf for an essential bar, which outlives every alpha + p: past
    # the largest float, so is inf's bound
    after = np.minimum(bound_sq(alphas + p), np.finfo(float).max)
    return _answer(alpha, _count_below_above(b * b, d * d, bound_sq(alphas), after))


class BettiOracle:
    """Bulk exact Betti numbers for every snapshot pair of one complex.

    Each boundary matrix is reduced once over the rationals with
    integer-preserving column operations, and each column's pivot row is
    kept (-1 for none).  A snapshot's columns are a prefix, and each of
    their pivot rows lies in the snapshot, as faces enter no later than
    their cofaces.  So rank(B_q^alpha) and rank(B_{q+1}^{alpha+p}) are reads
    of a prefix count of pivots, and rank(Diff_{q+1}^{alpha,p}) is one count
    of the pivots at or past row N_q(alpha) among the later snapshot's
    columns: a query costs array reads and counts, and no elimination.
    """

    def __init__(self, complex: FilteredComplex):
        self.complex = complex
        self._lows: dict[int, np.ndarray] = {}
        self._pivots: dict[int, np.ndarray] = {}  # pivots among the first n columns
        for q in range(1, complex.max_dim + 1):
            lows = self._lows[q] = self._reduce_rational(q)
            self._pivots[q] = np.concatenate(([0], np.cumsum(lows >= 0)))

    def _reduce_rational(self, q: int) -> np.ndarray:
        lows: list = []
        low_to_col: dict[int, dict] = {}  # pivot row -> the reduced column holding it
        for faces in self.complex.face_rows(q).tolist():
            # face i omits vertex i and enters with sign (-1)**i
            col: dict[int, int] = {r: (-1) ** i for i, r in enumerate(faces)}
            while col:
                low = max(col)
                other = low_to_col.get(low)
                if other is None:
                    break
                # col -= (a / b) other, in place and in integers: scaled by b
                # first where b does not divide a
                a, b = col[low], other[low]
                scaled = a % b != 0
                if scaled:
                    for r in col:
                        col[r] *= b
                factor = a if scaled else a // b
                for r, v in other.items():
                    if w := col.get(r, 0) - factor * v:
                        col[r] = w
                    else:
                        del col[r]
                # the column's gcd divides the written entries' gcd, so is 1
                # where that is (the gcd of no entry is 0)
                written = col.values() if scaled else [col[r] for r in other if r in col]
                if gcd(*written) != 1 and (g := gcd(*col.values())) > 1:
                    for r in col:
                        col[r] //= g
            lows.append(max(col) if col else -1)
            if col:
                low_to_col[lows[-1]] = col
        return np.array(lows, dtype=np.int64)

    def betti(self, q: int, alpha, p: float = 0.0):
        """beta_q^{alpha,p}; ``alpha`` is a float, giving an int, or an
        array, giving one Betti number per entry."""
        alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
        n_q = count_held(self.complex, q, alphas)
        n_up = count_held(self.complex, q + 1, alphas + p)
        betti = n_q - (self._pivots[q][n_q] if q in self._pivots else 0)
        if q + 1 in self._lows:
            lows = self._lows[q + 1]
            # the pivots at or past row n_q among the first n_up columns
            rank_diff = _count_below_above(np.arange(len(lows)), lows, n_up - 1, n_q - 1)
            betti -= self._pivots[q + 1][n_up] - rank_diff
        return _answer(alpha, betti)
