"""Boundary matrices and persistent boundary operators.

All bases are filtration-sorted, so a snapshot's boundary matrix is a
top-left block of the full one, and the simplices added between two
snapshots occupy a contiguous tail block.  A snapshot pair enters this
module as two counts: r_t, the rows of the earlier snapshot's boundary
(its (q-1)-simplices), and c_p, the columns of the later one's (its
q-simplices).  The persistent boundary for the pair is the later boundary
matrix on the kernel of the Diff operator (its rows from r_t on).  Diff
vanishes on the longest prefix of columns whose faces all lie in the
first r_t rows; :func:`persistent_boundary` returns that split point and
the columns after it in an orthonormal kernel basis, or none where an
exact Z2 pivot count proves that kernel empty (:func:`kernel_is_trivial`).
That the later snapshot holds the earlier is the caller's to check.

A boundary is stored once per dimension as a face-index array: row j holds
the row indices of the q+1 faces of q-simplex j, in the (-1)^i sign order of
the boundary formula.  Blocks are read from it as dense Fortran-ordered
arrays through :func:`dense_block`, and its integer Gram matrices B^T B and
B B^T as dense matrices, summed from entry lists that are computed once per
boundary and of which every snapshot needs only a prefix; the entry lists
stay inside this module.  Each boundary also keeps the pivot row of every
column after one left-to-right Z2 reduction, and every dense matrix or
block is checked against MAX_DENSE_BYTES before it is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LinearSolveFailure, MatrixTooLarge
from .simplices import FilteredComplex

# The largest dense float matrix or block this module allocates: a Hodge part
# of order n takes 8 n^2 bytes, and a larger one raises MatrixTooLarge.
MAX_DENSE_BYTES = 1 << 30


@dataclass
class SparseBoundaryMatrix:
    """Signed incidence matrix between (q-1)- and q-simplices."""

    q: int
    # (N_q, q+1) face row indices, face i carrying sign (-1)^i; (N_0, 0) for
    # q=0, whose boundary is a (1, N_0) zero matrix
    faces: np.ndarray

    def down_gram(self, c: int, order: int) -> np.ndarray:
        """B^T B on the first c columns as an order x order matrix (order >=
        c, zero past c), the down-term of L_q at a snapshot with c
        q-simplices; their faces are all present there, so it is a leading
        block of the whole B^T B."""
        key, rows, cols, values = self._column_gram
        m = np.searchsorted(key, c)
        return _dense(rows[:m], cols[:m], values[:m], order)

    def up_gram(self, c: int, order: int) -> np.ndarray:
        """B B^T over the first c columns as an order x order matrix (order
        at least the rows they span), the up-term of L_{q-1} at a snapshot
        with c q-simplices."""
        m = c * self.faces.shape[1] ** 2
        return _dense(*(a[:m] for a in self._column_outers), order)

    def transpose_times(self, c: int, u: np.ndarray) -> np.ndarray:
        """B^T u on the first c columns: row j is the signed sum of the rows
        of ``u`` at the faces of column j."""
        return (u[self.faces[:c]] * _signs(self.faces.shape[1])[:, None]).sum(axis=1)

    def build_caches(self) -> SparseBoundaryMatrix:
        """The boundary with its cached entry lists built: threads may then
        read it side by side, as nothing of it is written later.  ``lows``
        is left to the first :func:`kernel_is_trivial` that needs it, which
        a sweep runs before it starts any job."""
        self.reach, self._column_gram, self._column_outers
        return self

    @cached_property
    def reach(self) -> np.ndarray:
        """Entry j is 1 + the largest face row of columns 0..j: the rows the
        first j + 1 columns span."""
        return np.maximum.accumulate(self.faces.max(axis=1, initial=-1), axis=0) + 1

    @cached_property
    def lows(self) -> np.ndarray:
        """Entry j is the pivot row of column j after a left-to-right Z2
        reduction in filtration order, or -1 where the column reduces to
        zero.  By the pairing lemma (Cohen-Steiner, Edelsbrunner and
        Morozov, *Vines and Vineyards*, 2006), the rank over Z2 of
        B[r:, :c] is the count of lows[:c] at least r.  Each column is held
        as a Python int bitset of its rows."""
        lows = np.full(len(self.faces), -1, dtype=np.int64)
        by_low: dict[int, int] = {}  # pivot row -> the reduced column holding it
        for j, faces in enumerate(self.faces.tolist()):
            column = sum(1 << r for r in faces)  # the faces are distinct
            while column:
                low = column.bit_length() - 1
                if low not in by_low:
                    by_low[low] = column
                    lows[j] = low
                    break
                column ^= by_low[low]
        return lows

    @cached_property
    def _column_gram(self) -> tuple[np.ndarray, ...]:
        """Entries of the whole B^T B as (key, rows, cols, values), ordered by
        key = max(row, col): for each face, the product of the signs of every
        ordered pair of columns that hold it, which ``_dense`` sums."""
        n, k = self.faces.shape
        # the entries of B sorted by face row, so the columns that share a
        # face form one run
        order = np.argsort(self.faces.ravel(), kind="stable")
        face = self.faces.ravel()[order]
        col = np.repeat(np.arange(n, dtype=np.int64), k)[order]
        sign = np.tile(_signs(k), n)[order]
        rows, cols, values = [col], [col], [sign * sign]
        # the pairs of entries `shift` apart in one run, both ways round
        for shift in range(1, len(face)):
            same = np.flatnonzero(face[shift:] == face[:-shift])
            if not len(same):  # every run is shorter than shift
                break
            a, b = col[same], col[same + shift]
            product = sign[same] * sign[same + shift]
            rows += [a, b]
            cols += [b, a]
            values += [product, product]
        rows, cols, values = map(np.concatenate, (rows, cols, values))
        key = np.maximum(rows, cols)
        order = np.argsort(key, kind="stable")
        return key[order], rows[order], cols[order], values[order]

    @cached_property
    def _column_outers(self) -> tuple[np.ndarray, ...]:
        """The entries of b_j b_j^T of every column j as (rows, cols, values),
        column by column, (q+1)^2 per column."""
        k = self.faces.shape[1]
        signs = _signs(k)
        return (
            np.repeat(self.faces, k, axis=1).ravel(),
            np.tile(self.faces, k).ravel(),
            np.tile(np.outer(signs, signs).ravel(), self.faces.shape[0]),
        )


def _dense(rows, cols, values, order: int) -> np.ndarray:
    """The order x order float matrix summing the integer entries (rows,
    cols, values), repeated (row, col) pairs adding up; bincount sums them
    exactly."""
    _check_size(order, order)
    # without entries bincount gives int
    gram = np.bincount(rows * order + cols, weights=values, minlength=order * order)
    return gram.reshape(order, order).astype(float, copy=False)


def _check_size(rows: int, cols: int) -> None:
    """Raise MatrixTooLarge unless a rows x cols float matrix fits in
    MAX_DENSE_BYTES."""
    size = 8 * rows * cols
    if size > MAX_DENSE_BYTES:
        raise MatrixTooLarge(
            f"a dense {rows} x {cols} matrix needs {size} bytes, "
            f"above the cap of {MAX_DENSE_BYTES}"
        )


def full_boundary(complex: FilteredComplex, q: int) -> SparseBoundaryMatrix:
    """Boundary matrix of the entire filtration for dimension q, built once
    per complex."""

    def build():
        if q == 0:
            return SparseBoundaryMatrix(0, np.empty((complex.n_simplices(0), 0), dtype=np.int64))
        return SparseBoundaryMatrix(q, complex.face_rows(q))

    return complex.derived(("boundary", q), build)


def _signs(k: int) -> np.ndarray:
    """(-1)^i for the k faces of a simplex, in boundary-formula order."""
    return 1.0 - 2.0 * (np.arange(k) % 2)


def dense_block(full: SparseBoundaryMatrix, r_lo: int, r_hi: int, c_lo: int, c_hi: int) -> np.ndarray:
    """Block [r_lo:r_hi, c_lo:c_hi] of the full boundary matrix as a dense
    float array, Fortran-ordered: BLAS and LAPACK round differently on other
    layouts, so the order is part of the output bytes."""
    _check_size(r_hi - r_lo, c_hi - c_lo)
    out = np.zeros((r_hi - r_lo, c_hi - c_lo), order="F")
    rows = full.faces[c_lo:c_hi] - r_lo
    hit = (rows >= 0) & (rows < r_hi - r_lo)
    cols, pos = np.nonzero(hit)
    out[rows[hit], cols] = _signs(full.faces.shape[1])[pos]
    return out


def _null_space(d: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker(d), bit for bit as ``scipy.linalg.null_space``
    computes it: the right singular vectors of one full SVD (LAPACK dgesdd,
    through numpy) whose singular values are at most max(m, n) * eps *
    s_max.  An SVD that does not converge is a LinearSolveFailure."""
    m, n = d.shape
    try:
        _, s, vt = np.linalg.svd(d, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveFailure(f"SVD of the Diff block failed: {exc}") from exc
    rank = np.sum(s > s.max(initial=0.0) * (np.finfo(float).eps * max(m, n)))
    return vt[rank:].T


def split(full: SparseBoundaryMatrix, r_t, c_p):
    """The split point c of :func:`persistent_boundary`: the longest prefix
    of the later snapshot's c_p q-simplices whose faces all lie among the
    earlier snapshot's r_t (q-1)-simplices; one per entry for arrays of
    r_t and c_p."""
    return np.minimum(np.searchsorted(full.reach, r_t, side="right"), c_p)


def kernel_is_trivial(full: SparseBoundaryMatrix, r_t: int, c: int, c_p: int) -> bool:
    """Whether ker(Diff) on the columns [c, c_p), Diff their rows from r_t
    on, is proven {0}: there are none, or Diff has full column rank over Z2
    by the pivot count of :attr:`SparseBoundaryMatrix.lows`, and so over Q.
    For c = ``split(full, r_t, c_p)``, that is the kernel
    :func:`persistent_boundary` projects onto; Diff vanishes on the columns
    before c.  False leaves the kernel to the SVD."""
    return c == c_p or int(np.count_nonzero(full.lows[c:c_p] >= r_t)) == c_p - c


def persistent_boundary(full: SparseBoundaryMatrix, r_t: int, c_p: int) -> tuple[int, np.ndarray]:
    """The split point c and the persistent boundary's columns after it,
    in an orthonormal basis of the persistent chains, for the snapshot pair
    whose earlier snapshot has r_t (q-1)-simplices (1 for q = 0) and whose
    later snapshot has c_p q-simplices.

    The persistent boundary B for the pair has the first r_t rows and the
    first c_p columns.  Its first c columns are the longest prefix whose
    faces all lie among those rows, c at least the earlier q-simplex count:
    on them B is the integer boundary B_c.  On the columns c up to c_p it
    is their boundary B_new on the kernel of Diff, here their rows from r_t
    up to 1 + their last face row.  With K an orthonormal basis of that
    kernel, U = B_new K and B B^T = B_c B_c^T + U U^T.  Where
    :func:`kernel_is_trivial` proves the kernel empty, U has no columns and
    no SVD is taken.  Pairs with equal counts give equal results.
    """
    c = int(split(full, r_t, c_p))
    if kernel_is_trivial(full, r_t, c, c_p):
        return c, np.zeros((r_t, 0))
    # column c has a face past row r_t, so Diff has rows and is nonzero
    new = dense_block(full, 0, int(full.reach[c_p - 1]), c, c_p)
    return c, new[:r_t] @ _null_space(new[r_t:])
