"""Boundary matrices, snapshot restrictions, and persistent boundary operators.

All bases are filtration-sorted, so a snapshot restriction is a top-left
block read of the full matrix, and the simplices added between two snapshots
occupy a contiguous tail block.  The persistent boundary for a snapshot pair
is the restriction of the later boundary matrix to the kernel of the Diff
operator, applied through the orthogonal projector onto that kernel.

A boundary is stored once per dimension as a face-index array: row j holds
the row indices of the q+1 faces of q-simplex j, in the (-1)^i sign order of
the boundary formula.  The sparse matrix derived from it serves snapshot
restriction and the oracles; the sweep reads dense Fortran-ordered blocks
straight from the face indices through :func:`dense_block`, so no sparse
object is built per snapshot pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import LinearSolveFailure, SnapshotOrderViolation
from .simplices import FilteredComplex, Snapshot


@dataclass
class SparseBoundaryMatrix:
    """Signed incidence matrix between (q-1)- and q-simplices."""

    q: int
    matrix: sp.csc_array  # shape (N_{q-1}, N_q); (1, N_0) zero matrix for q=0
    # (N_q, q+1) face row indices, face i carrying sign (-1)^i; (N_0, 0) for
    # q=0, whose boundary has no entries
    faces: np.ndarray

    @property
    def shape(self):
        return self.matrix.shape


def full_boundary(complex: FilteredComplex, q: int) -> SparseBoundaryMatrix:
    """Boundary matrix of the entire filtration for dimension q."""
    if q == 0:
        n = complex.n_simplices(0)
        return SparseBoundaryMatrix(
            0, sp.csc_array((1, n), dtype=np.int64), np.empty((n, 0), dtype=np.int64)
        )
    face_index = complex._index.get(q - 1, {})
    faces = np.array(
        [[face_index[s[:i] + s[i + 1:]] for i in range(q + 1)] for s in complex.simplices(q)],
        dtype=np.int64,
    ).reshape(-1, q + 1)
    n_cols = len(faces)
    m = sp.csc_array(
        (np.tile(_signs(q + 1), n_cols).astype(np.int64),
         (faces.ravel(), np.repeat(np.arange(n_cols), q + 1))),
        shape=(complex.n_simplices(q - 1), n_cols),
    )
    return SparseBoundaryMatrix(q, m, faces)


def _signs(k: int) -> np.ndarray:
    """(-1)^i for the k faces of a simplex, in boundary-formula order."""
    return 1.0 - 2.0 * (np.arange(k) % 2)


def dense_block(full: SparseBoundaryMatrix, r_lo: int, r_hi: int, c_lo: int, c_hi: int) -> np.ndarray:
    """Block [r_lo:r_hi, c_lo:c_hi] of the full boundary matrix as a dense
    float array, Fortran-ordered like a CSC ``toarray()`` so that LAPACK and
    BLAS see the same memory layout."""
    out = np.zeros((r_hi - r_lo, c_hi - c_lo), order="F")
    rows = full.faces[c_lo:c_hi] - r_lo
    hit = (rows >= 0) & (rows < r_hi - r_lo)
    cols, pos = np.nonzero(hit)
    out[rows[hit], cols] = _signs(full.faces.shape[1])[pos]
    return out


def _row_count(q: int, snap: Snapshot) -> int:
    return 1 if q == 0 else snap.count(q - 1)


def restrict(full: SparseBoundaryMatrix, snap: Snapshot) -> SparseBoundaryMatrix:
    """Top-left block of the full boundary matrix at a snapshot."""
    r = _row_count(full.q, snap)
    c = snap.count(full.q)
    return SparseBoundaryMatrix(full.q, full.matrix[:r, :][:, :c].tocsc(), full.faces[:c])


def _check_order(snap_t: Snapshot, snap_tp: Snapshot) -> None:
    if snap_t.alpha_sq > snap_tp.alpha_sq or any(
        a > b for a, b in zip(snap_t.counts, snap_tp.counts)
    ):
        raise SnapshotOrderViolation(
            f"snapshots out of order: {snap_t.counts} vs {snap_tp.counts}"
        )


def diff_operator(full: SparseBoundaryMatrix, snap_t: Snapshot, snap_tp: Snapshot) -> sp.csc_array:
    """Rows of B_q at the later snapshot for (q-1)-simplices absent from the
    earlier one, other rows zeroed; its kernel is the persistent chain space."""
    _check_order(snap_t, snap_tp)
    b = restrict(full, snap_tp).matrix
    r_t = _row_count(full.q, snap_t)
    zeros = sp.csc_array((r_t, b.shape[1]), dtype=np.int64)
    if b.shape[0] <= r_t:
        return sp.csc_array(b.shape, dtype=np.int64)
    return sp.vstack([zeros, b[r_t:, :]]).tocsc()


def _kernel_projector(d_tail: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto ker(d_tail) through an orthonormal kernel
    basis from the SVD; non-convergence is a LinearSolveFailure."""
    try:
        kernel = scipy.linalg.null_space(d_tail)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise LinearSolveFailure(str(exc)) from exc
    return kernel @ kernel.T


def persistent_boundary(
    full: SparseBoundaryMatrix,
    snap_t: Snapshot,
    snap_tp: Snapshot,
) -> np.ndarray:
    """Persistent boundary matrix for the snapshot pair: rows are the
    (q-1)-simplices of the earlier snapshot, columns all q-simplices of the
    later one.

    The columns of q-simplices added after the earlier snapshot are projected
    onto the kernel of the Diff operator through an orthonormal basis of that
    kernel.
    """
    _check_order(snap_t, snap_tp)
    q = full.q
    r_t = _row_count(q, snap_t)
    r_p = _row_count(q, snap_tp)
    c_t = snap_t.count(q)
    c_p = snap_tp.count(q)
    b_top = dense_block(full, 0, r_t, 0, c_p)
    if c_p == c_t:
        # no new q-simplices: the projector is the identity and the result is
        # exactly the earlier restriction
        return b_top

    d_tail = dense_block(full, r_t, r_p, c_t, c_p)
    if d_tail.shape[0] == 0 or not d_tail.any():
        return b_top
    b_top[:, c_t:] = b_top[:, c_t:] @ _kernel_projector(d_tail)
    return b_top
