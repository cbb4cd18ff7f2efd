"""Independent persistent-homology oracles.

Two validation routes that never touch the Laplacian code path: a Z2
boundary-matrix reduction producing barcodes, and exact Betti numbers over
the rationals from :class:`BettiOracle`, which reduces each full boundary
matrix once and reads every snapshot rank off the pivot rows (valid because
snapshot boundaries are corner blocks of the filtration-ordered matrices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

from .simplices import MAX_DIM, REL_TOL, FilteredComplex, snapshot


@dataclass
class Barcode:
    """Per-dimension (birth, death) intervals in unsquared alpha units."""

    intervals: dict[int, list[tuple[float, float]]]

    def bars(self, q: int) -> list[tuple[float, float]]:
        return self.intervals.get(q, [])


def _global_order(complex: FilteredComplex):
    """All simplices sorted by (value, dim, vertices): faces precede cofaces."""
    sims = []
    for q in range(complex.max_dim + 1):
        for s in complex.simplices(q):
            sims.append((complex.filtration_sq(s), len(s), s))
    sims.sort()
    order = [s for _, _, s in sims]
    position = {s: i for i, s in enumerate(order)}
    return order, position


def reduce(complex: FilteredComplex) -> Barcode:
    """Standard Z2 column reduction of the filtration boundary matrix."""
    order, position = _global_order(complex)
    low_to_col: dict[int, int] = {}
    columns: dict[int, set] = {}
    pair_of: dict[int, int] = {}
    for j, s in enumerate(order):
        if len(s) == 1:
            columns[j] = set()
            continue
        col = {position[s[:i] + s[i + 1:]] for i in range(len(s))}
        while col:
            low = max(col)
            k = low_to_col.get(low)
            if k is None:
                break
            col ^= columns[k]
        columns[j] = col
        if col:
            low_to_col[max(col)] = j
            pair_of[max(col)] = j

    intervals: dict[int, list[tuple[float, float]]] = {q: [] for q in range(MAX_DIM + 1)}
    for i, s in enumerate(order):
        if columns[i]:
            continue  # negative simplex: kills a bar, births nothing
        birth = math.sqrt(complex.filtration_sq(s))
        j = pair_of.get(i)
        death = math.inf if j is None else math.sqrt(complex.filtration_sq(order[j]))
        intervals[len(s) - 1].append((birth, death))
    for q in intervals:
        intervals[q].sort()
    return Barcode(intervals)


def betti_from_barcode(barcode: Barcode, q: int, alpha: float, p: float = 0.0) -> int:
    """Number of dimension-q bars with birth <= alpha and death > alpha + p."""
    born = alpha * (1.0 + REL_TOL) + 1e-300
    dead = (alpha + p) * (1.0 + REL_TOL) + 1e-300
    return sum(1 for b, d in barcode.bars(q) if b <= born and d > dead)


class BettiOracle:
    """Bulk exact Betti numbers for every snapshot pair of one complex.

    Each boundary matrix is reduced once over the rationals with
    integer-preserving column operations; the recorded pivot rows then give
    rank(B_q^alpha), rank(B_q^{alpha+p}), and rank(Diff_q^{alpha,p}) for any
    snapshot pair as pivot counts over the snapshot's columns, so a query
    costs O(columns) and no elimination.
    """

    def __init__(self, complex: FilteredComplex):
        self.complex = complex
        self._lows: dict[int, list] = {}
        for q in range(1, complex.max_dim + 1):
            self._lows[q] = self._reduce_rational(q)

    def _reduce_rational(self, q: int):
        cx = self.complex
        faces_idx = cx._index[q - 1]
        lows: list = []
        low_to_col: dict[int, int] = {}
        columns: dict[int, dict] = {}
        for s in cx.simplices(q):
            col: dict[int, int] = {}
            sign = 1
            for i in range(len(s)):
                col[faces_idx[s[:i] + s[i + 1:]]] = sign
                sign = -sign
            while col:
                low = max(col)
                k = low_to_col.get(low)
                if k is None:
                    break
                other = columns[k]
                a, b = col[low], other[low]
                col = {
                    r: v
                    for r in set(col) | set(other)
                    if (v := b * col.get(r, 0) - a * other.get(r, 0)) != 0
                }
                if col:
                    g = 0
                    for v in col.values():
                        g = gcd(g, abs(v))
                    if g > 1:
                        col = {r: v // g for r, v in col.items()}
            if col:
                low = max(col)
                low_to_col[low] = len(lows)
                columns[len(lows)] = col
                lows.append(low)
            else:
                lows.append(None)
        return lows

    def _ranks(self, q: int, n_cols: int, row_lo: int, row_hi: int) -> int:
        """Pivots among the first n_cols columns with row_lo <= low < row_hi."""
        if q not in self._lows:
            return 0
        lows = self._lows[q]
        return sum(
            1 for low in lows[:n_cols] if low is not None and row_lo <= low < row_hi
        )

    def betti(self, q: int, alpha: float, p: float = 0.0) -> int:
        snap_t = snapshot(self.complex, alpha)
        snap_tp = snapshot(self.complex, alpha + p)
        n_q = snap_t.count(q)
        if n_q == 0:
            return 0
        rank_bq = 0 if q == 0 else self._ranks(q, n_q, 0, snap_t.count(q - 1))
        rank_up_full = self._ranks(q + 1, snap_tp.count(q + 1), 0, snap_tp.count(q))
        rank_diff = self._ranks(q + 1, snap_tp.count(q + 1), snap_t.count(q), snap_tp.count(q))
        return (n_q - rank_bq) - (rank_up_full - rank_diff)
