"""Boundary matrices and persistent boundary operators.

All bases are filtration-sorted, so a snapshot's boundary matrix is a
top-left block of the full one, and the simplices added between two
snapshots occupy a contiguous tail block.  The persistent boundary for a
snapshot pair is the later boundary matrix on the kernel of the Diff
operator (its rows for the (q-1)-simplices absent from the earlier
snapshot), applied through the orthogonal projector onto that kernel.

A boundary is stored once per dimension as a face-index array: row j holds
the row indices of the q+1 faces of q-simplex j, in the (-1)^i sign order of
the boundary formula.  Every block the sweep needs is read from it as a dense
Fortran-ordered array through :func:`dense_block`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import LinearSolveFailure, SnapshotOrderViolation
from .simplices import FilteredComplex, Snapshot


@dataclass
class SparseBoundaryMatrix:
    """Signed incidence matrix between (q-1)- and q-simplices."""

    q: int
    # (N_q, q+1) face row indices, face i carrying sign (-1)^i; (N_0, 0) for
    # q=0, whose boundary is a (1, N_0) zero matrix
    faces: np.ndarray


def full_boundary(complex: FilteredComplex, q: int) -> SparseBoundaryMatrix:
    """Boundary matrix of the entire filtration for dimension q."""
    if q == 0:
        return SparseBoundaryMatrix(0, np.empty((complex.n_simplices(0), 0), dtype=np.int64))
    return SparseBoundaryMatrix(q, complex.face_rows(q))


def _signs(k: int) -> np.ndarray:
    """(-1)^i for the k faces of a simplex, in boundary-formula order."""
    return 1.0 - 2.0 * (np.arange(k) % 2)


def dense_block(full: SparseBoundaryMatrix, r_lo: int, r_hi: int, c_lo: int, c_hi: int) -> np.ndarray:
    """Block [r_lo:r_hi, c_lo:c_hi] of the full boundary matrix as a dense
    float array, Fortran-ordered: BLAS and LAPACK round differently on other
    layouts, so the order is part of the output bytes."""
    out = np.zeros((r_hi - r_lo, c_hi - c_lo), order="F")
    rows = full.faces[c_lo:c_hi] - r_lo
    hit = (rows >= 0) & (rows < r_hi - r_lo)
    cols, pos = np.nonzero(hit)
    out[rows[hit], cols] = _signs(full.faces.shape[1])[pos]
    return out


def _row_count(q: int, snap: Snapshot) -> int:
    return 1 if q == 0 else snap.count(q - 1)


def _check_order(snap_t: Snapshot, snap_tp: Snapshot) -> None:
    if snap_t.alpha_sq > snap_tp.alpha_sq or any(
        a > b for a, b in zip(snap_t.counts, snap_tp.counts)
    ):
        raise SnapshotOrderViolation(
            f"snapshots out of order: {snap_t.counts} vs {snap_tp.counts}"
        )


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
        # exactly the earlier snapshot's block
        return b_top

    d_tail = dense_block(full, r_t, r_p, c_t, c_p)
    if d_tail.shape[0] == 0 or not d_tail.any():
        return b_top
    b_top[:, c_t:] = b_top[:, c_t:] @ _kernel_projector(d_tail)
    return b_top
