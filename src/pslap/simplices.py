"""Simplices, filtered complexes, and snapshot extraction.

A :class:`FilteredComplex` stores every simplex of the final complex together
with a squared filtration value, and keeps each dimension sorted by
(value, vertex tuple).  Every snapshot is then a prefix of that order, which
is what makes boundary-matrix restriction a top-left block read.
"""

from __future__ import annotations

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

    Immutable after construction.  Each dimension q is held as arrays in
    (value, vertex tuple) order: the vertex rows, an (N_q, q+1) int64 array,
    their squared values, and the face rows, the positions in dimension q-1
    of each row's faces.  ``simplices(q)`` lists the rows as vertex tuples.

    The constructor takes vertex tuples and their values (a dict, or
    anything with ``[]``); ``from_cells`` takes the top cells of a
    tessellation as one array.
    """

    def __init__(self, simplices_by_dim, filtration_sq):
        rows, values, faces = {}, {}, {}
        for q in range(MAX_DIM + 1):
            sims = list(simplices_by_dim.get(q, ()))
            r = np.array(sims, dtype=np.int64).reshape(-1, q + 1)
            lex = np.argsort(_lex_keys(r), kind="stable")
            rows[q] = r[lex]
            values[q] = np.array([filtration_sq[s] for s in sims], dtype=float)[lex]
            if q:
                faces[q] = _find_rows(_faces_of(rows[q]), rows[q - 1]).reshape(-1, q + 1)
        self._init(*_by_value(rows, values, faces))

    @classmethod
    def from_cells(cls, cells: np.ndarray) -> "FilteredComplex":
        """The closure of the (N, k) top cells with every value inf: each
        dimension's faces are deduplicated by one ``np.unique`` on integer
        row keys, whose inverse is the face rows, so every dimension comes
        out in lexicographic order."""
        rows = {q: np.empty((0, q + 1), dtype=np.int64) for q in range(MAX_DIM + 1)}
        faces = {q: r for q, r in rows.items() if q}
        cells = np.sort(cells, axis=1)
        top = cells.shape[1] - 1
        rows[top] = cells[np.argsort(_lex_keys(cells), kind="stable")]
        for q in range(top, 0, -1):
            sub = _faces_of(rows[q])
            _, first, inverse = np.unique(_lex_keys(sub), return_index=True, return_inverse=True)
            rows[q - 1], faces[q] = sub[first], inverse.reshape(-1, q + 1)
        inf = {q: np.full(len(r), np.inf) for q, r in rows.items()}
        return cls._from_lex_rows(rows, inf, faces)

    @classmethod
    def _from_lex_rows(cls, rows: dict, values: dict, faces: dict) -> "FilteredComplex":
        """The complex with squared value ``values[q][j]`` on the vertex row
        ``rows[q][j]``, where each dimension's rows are in lexicographic order
        and ``faces[q]`` (q >= 1) gives each row's face positions in
        ``rows[q-1]``, face i omitting vertex i.  One stable sort by value
        per dimension then gives the (value, vertex tuple) order."""
        cx = cls.__new__(cls)
        cx._init(*_by_value(rows, values, faces))
        return cx

    def with_values(self, values: dict) -> "FilteredComplex":
        """This complex's simplices with squared value ``values[q][j]`` on
        ``vertex_rows(q)[j]``, in their new (value, vertex tuple) order."""
        rows, faces = self._rows, self._faces
        values = {q: np.asarray(values.get(q, ()), dtype=float) for q in rows}
        if not all((v == v[:1]).all() for v in self._values.values()):
            # rows whose values tie are in lexicographic order; others are
            # put back in it first
            lex = {q: np.argsort(_lex_keys(r), kind="stable") for q, r in rows.items()}
            rows, values, faces = _permuted(rows, values, faces, lex)
        return FilteredComplex._from_lex_rows(rows, values, faces)

    def _init(self, rows, values, faces):
        for arrays in (rows, values, faces):
            for a in arrays.values():
                a.flags.writeable = False
        self._rows, self._values, self._faces = rows, values, faces
        self._tuples: dict = {}  # simplices() memo
        self._filtration: dict | None = None  # filtration_sq() memo
        self._derived: dict = {}  # derived() memo

    @property
    def max_dim(self) -> int:
        return max((q for q in range(MAX_DIM + 1) if len(self._rows[q])), default=-1)

    def vertex_rows(self, q: int) -> np.ndarray:
        """(N_q, q+1) vertices of the q-simplices, in filtration order."""
        return self._rows[q]

    def simplices(self, q: int) -> list[tuple[int, ...]]:
        sims = self._tuples.get(q)
        if sims is None:
            rows = self._rows.get(q)
            sims = self._tuples[q] = [] if rows is None else list(map(tuple, rows.tolist()))
        return sims

    def face_rows(self, q: int) -> np.ndarray:
        """(N_q, q+1) positions in ``simplices(q-1)`` of the faces of each
        q-simplex, face i omitting vertex i; q >= 1."""
        faces = self._faces.get(q)
        return np.empty((0, q + 1), dtype=np.int64) if faces is None else faces

    def n_simplices(self, q: int) -> int:
        rows = self._rows.get(q)
        return 0 if rows is None else len(rows)

    def filtration_sq(self, simplex: tuple[int, ...]) -> float:
        if self._filtration is None:
            self._filtration = {
                s: v for q in range(MAX_DIM + 1)
                for s, v in zip(self.simplices(q), self._values[q].tolist())
            }
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


_INT64_MAX = int(np.iinfo(np.int64).max)


def _lex_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per row, ordered as the rows are lexicographically, so
    equal rows and only equal rows share a key.  The key is built column by
    column in base (label span); where the next multiply could overflow, the
    running key is first replaced by its rank among the rows, which is below
    the row count."""
    n, k = rows.shape
    if n == 0 or k == 0:
        return np.zeros(n, dtype=np.int64)
    lo = int(rows.min())
    base = int(rows.max()) - lo + 1
    if n * base > _INT64_MAX:  # labels too far apart even for ranks: rank them
        rows = np.unique(rows, return_inverse=True)[1].reshape(n, k)
        lo, base = 0, int(rows.max()) + 1
    key = rows[:, 0] - lo
    for j in range(1, k):
        if (int(key.max()) + 1) * base > _INT64_MAX:
            key = np.unique(key, return_inverse=True)[1].reshape(n)
        key = key * base + (rows[:, j] - lo)
    return key


def _faces_of(rows: np.ndarray) -> np.ndarray:
    """(N*(q+1), q) faces of (N, q+1) rows, row-major: face i omits vertex i."""
    k = rows.shape[1]
    drop = [[j for j in range(k) if j != i] for i in range(k)]
    return rows[:, drop].reshape(-1, k - 1)


def _find_rows(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Position of each row in ``table``, whose rows are distinct and in
    lexicographic order."""
    keys = _lex_keys(np.concatenate([table, rows]))
    table_keys, keys = keys[:len(table)], keys[len(table):]
    at = np.searchsorted(table_keys, keys)
    # keys are non-negative, so the appended -1 matches no key past the end
    if not np.array_equal(np.append(table_keys, -1)[at], keys):
        raise ValueError("a face of a simplex is missing from the complex")
    return at


def _by_value(rows: dict, values: dict, faces: dict):
    """Lexicographically ordered dimensions, each stably sorted by value."""
    order = {q: np.argsort(v, kind="stable") for q, v in values.items()}
    return _permuted(rows, values, faces, order)


def _permuted(rows: dict, values: dict, faces: dict, order: dict):
    """Rows and values of each dimension q taken in ``order[q]``, and the
    face rows mapped through the inverse permutation of the dimension below."""
    inverse = {}
    out_rows, out_values, out_faces = {}, {}, {}
    for q in range(MAX_DIM + 1):
        o = order[q]
        inverse[q] = np.empty_like(o)
        inverse[q][o] = np.arange(len(o))
        out_rows[q], out_values[q] = rows[q][o], values[q][o]
        if q:
            out_faces[q] = inverse[q - 1][faces[q][o]]
    return out_rows, out_values, out_faces


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
