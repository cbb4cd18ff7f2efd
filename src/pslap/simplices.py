"""Simplices, filtered complexes, and snapshot counts.

A :class:`FilteredComplex` stores every simplex of the final complex together
with a squared filtration value, and keeps each dimension sorted by
(value, vertex row).  Every snapshot is then a prefix of that order, named
by its simplex count per dimension (:func:`count_held`), which is what makes
boundary-matrix restriction a top-left block read.
"""

from __future__ import annotations

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


class FilteredComplex:
    """A simplicial complex with a squared filtration value per simplex.

    Immutable after construction.  Each dimension q is held as arrays in
    (value, vertex row) order: the vertex rows, an (N_q, q+1) int64 array,
    their squared values, and the face rows, the positions in dimension q-1
    of each row's faces.

    ``rows[q]`` holds the q-simplices as sorted vertex rows (an array or a
    list of tuples) and ``values[q]`` their squared values, both in any
    order; a dimension absent from both is empty.  Each dimension is sorted
    once by (value, vertex row), whose row key breaks every tie, so the
    input order leaves no trace.  ``faces``, when given, holds for every q
    from 1 to ``MAX_DIM`` each given q-row's face positions in the given
    ``rows[q-1]``, face i omitting vertex i; it is trusted, not checked.
    Without it every face is looked up.  A missing face, or a dimension
    with more or fewer values than rows, is a ``ValueError``.
    """

    def __init__(self, rows, values, *, faces=None):
        self._rows, self._values, self._faces = {}, {}, {}
        for q in range(MAX_DIM + 1):
            r = np.asarray(rows.get(q, ()), dtype=np.int64).reshape(-1, q + 1)
            v = np.asarray(values.get(q, ()), dtype=float)
            if v.shape != (len(r),):
                raise ValueError(f"{len(r)} {q}-simplices but {v.size} values")
            order = np.lexsort((_lex_keys(r), v))
            if q:
                f = _find_faces(r, given) if faces is None else np.asarray(faces[q])
                self._faces[q] = inverse[f[order]]
            self._rows[q], self._values[q] = r[order], v[order]
            # dimension q as given, and where each of its rows went
            given, inverse = r, np.empty_like(order)
            inverse[order] = np.arange(len(order))
        for arrays in (self._rows, self._values, self._faces):
            for a in arrays.values():
                a.flags.writeable = False
        self._derived: dict = {}  # derived() memo

    @classmethod
    def from_cells(cls, cells: np.ndarray) -> "FilteredComplex":
        """The closure of the (N, k) top cells with every value inf: each
        dimension's faces are deduplicated by one ``np.unique`` on integer
        row keys, whose inverse is the face rows."""
        rows = {q: np.empty((0, q + 1), dtype=np.int64) for q in range(MAX_DIM + 1)}
        faces = {q: r for q, r in rows.items() if q}
        top = cells.shape[1] - 1
        rows[top] = np.sort(cells, axis=1)
        for q in range(top, 0, -1):
            sub = _faces_of(rows[q])
            _, first, inverse = np.unique(_lex_keys(sub), return_index=True, return_inverse=True)
            rows[q - 1], faces[q] = sub[first], inverse.reshape(-1, q + 1)
        return cls(rows, {q: np.full(len(r), np.inf) for q, r in rows.items()}, faces=faces)

    def with_values(self, values: dict) -> "FilteredComplex":
        """This complex's simplices with squared value ``values[q][j]`` on
        ``vertex_rows(q)[j]``, in their new (value, vertex row) order."""
        return FilteredComplex(self._rows, values, faces=self._faces)

    @property
    def max_dim(self) -> int:
        return max((q for q in range(MAX_DIM + 1) if len(self._rows[q])), default=-1)

    def vertex_rows(self, q: int) -> np.ndarray:
        """(N_q, q+1) vertices of the q-simplices, in filtration order."""
        return self._rows[q]

    def face_rows(self, q: int) -> np.ndarray:
        """(N_q, q+1) positions in ``vertex_rows(q-1)`` of the faces of each
        q-simplex, face i omitting vertex i; q >= 1."""
        faces = self._faces.get(q)
        return np.empty((0, q + 1), dtype=np.int64) if faces is None else faces

    def n_simplices(self, q: int) -> int:
        rows = self._rows.get(q)
        return 0 if rows is None else len(rows)

    def filtration_values_sq(self, q: int) -> np.ndarray:
        return self._values[q]

    def derived(self, key, build=None):
        """``build()``, computed once per key: the complex is immutable, so
        data computed from it alone is shared by every sweep and query.
        Without ``build``, the value kept so far, or None."""
        value = self._derived.get(key)
        if value is None and build is not None:
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


def _find_faces(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(N, q+1) positions in ``table`` of the faces of (N, q+1) rows, face
    i omitting vertex i, where the rows of ``table`` are distinct and in any
    order."""
    faces = _faces_of(rows)
    keys = _lex_keys(np.concatenate([table, faces]))
    table_keys, keys = keys[:len(table)], keys[len(table):]
    sorter = np.argsort(table_keys)
    at = np.searchsorted(table_keys, keys, sorter=sorter)
    # keys are non-negative, so the appended -1 matches no key past the end
    if not np.array_equal(np.append(table_keys[sorter], -1)[at], keys):
        raise ValueError("a face of a simplex is missing from the complex")
    return sorter[at].reshape(rows.shape)


def count_held(complex: FilteredComplex, q: int, alpha):
    """N_q(alpha), the number of q-simplices with squared value <=
    ``bound_sq(alpha)``, for one alpha >= 0 or for each of an array of them;
    0 for a q outside 0..MAX_DIM.  A negative or NaN alpha is a
    ValueError, at every q."""
    if not np.all(np.asarray(alpha) >= 0):  # also rejects NaN
        raise ValueError(f"alpha must be non-negative, got {np.min(alpha)}")
    if not 0 <= q <= MAX_DIM:
        return np.zeros(np.shape(alpha), dtype=np.intp)
    return np.searchsorted(complex.filtration_values_sq(q), bound_sq(alpha), side="right")
