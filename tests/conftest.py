import pathlib

import numpy as np
import pytest
import scipy.linalg

from pslap.alpha import alpha_complex
from pslap.boundary import _row_count, full_boundary, restrict
from pslap.dataio import read_xyz
from pslap.geometry import PointSet
from pslap.simplices import snapshot

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def six_points() -> PointSet:
    return read_xyz(DATA / "six_points.xyz")


@pytest.fixture(scope="session")
def six_complex(six_points):
    return alpha_complex(six_points)


@pytest.fixture(scope="session")
def icosahedron_points() -> PointSet:
    return read_xyz(DATA / "icosahedron.xyz")


@pytest.fixture(scope="session")
def icosahedron_complex(icosahedron_points):
    return alpha_complex(icosahedron_points)


def random_cloud(seed: int, n: int, d: int) -> PointSet:
    rng = np.random.default_rng(seed)
    return PointSet(rng.uniform(0.0, 2.0, size=(n, d)))


# Harmonic-extension reference for the persistent boundary.  It shares no
# projector code with pslap.boundary, which projects through an orthonormal
# kernel basis of the Diff tail, so the tests use it as an independent check.


def harmonic_projector(d_tail: np.ndarray, down_tail: np.ndarray | None = None) -> np.ndarray:
    """I - Diff^T (L~)^{-1} Diff on the tail block, with the rank deficiency of
    the difference-complex Laplacian L~ fixed by completing its kernel."""
    n = d_tail.shape[1]
    if d_tail.shape[0] == 0 or not d_tail.any():
        return np.eye(n)
    lap = d_tail @ d_tail.T
    if down_tail is not None and down_tail.size:
        lap = lap + down_tail.T @ down_tail
    kernel = scipy.linalg.null_space(lap)
    if kernel.size:
        lap = lap + kernel @ kernel.T
    return np.eye(n) - d_tail.T @ scipy.linalg.solve(lap, d_tail, assume_a="pos")


def harmonic_persistent_boundary(cx, q: int, snap_t, snap_tp) -> np.ndarray:
    """Persistent boundary B_q for the snapshot pair (q >= 1) through
    :func:`harmonic_projector`, read from the sparse snapshot restrictions."""
    r_t, c_t = _row_count(q, snap_t), snap_t.count(q)
    up = restrict(full_boundary(cx, q), snap_tp).matrix.toarray().astype(float)
    down = restrict(full_boundary(cx, q - 1), snap_tp).matrix.toarray().astype(float)
    out = up[:r_t].copy()
    out[:, c_t:] = up[:r_t, c_t:] @ harmonic_projector(
        up[r_t:, c_t:], down[_row_count(q - 1, snap_t):, r_t:]
    )
    return out


def harmonic_eigenvalues(cx, q: int, alpha: float, p: float) -> np.ndarray:
    """Ascending spectrum of the persistent Laplacian L_q^{alpha,p} with the
    up-term built from :func:`harmonic_persistent_boundary`."""
    snap_t, snap_tp = snapshot(cx, alpha), snapshot(cx, alpha + p)
    up = harmonic_persistent_boundary(cx, q + 1, snap_t, snap_tp)
    bq = restrict(full_boundary(cx, q), snap_t).matrix.toarray().astype(float)
    return np.linalg.eigvalsh(up @ up.T + bq.T @ bq)
