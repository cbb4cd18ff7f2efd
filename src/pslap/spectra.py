"""Persistent Laplacian assembly, spectra, sweeps, and per-vertex diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import lapack
from .boundary import full_boundary, persistent_boundary
from .errors import EigensolveFailure, PslapError
from .simplices import FilteredComplex, snapshot

# The eigensolver policy (see spectrum).  An eigenvalue below
# max(ZERO_ABS, ZERO_REL * lambda_max) counts as zero, and a nonzero/zero
# ratio below GAP_FACTOR flags the record gap_ambiguous.
ZERO_ABS = 1e-8
ZERO_REL = 1e-10
GAP_FACTOR = 1e3


@dataclass
class PersistentLaplacian:
    """Symmetric PSD matrix of the q-th persistent Laplacian L_q^{alpha,p}."""

    matrix: np.ndarray
    q: int
    alpha: float
    p: float

    @property
    def n_simplices(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectrumRecord:
    """Eigenvalues, Betti number, and smallest nonzero eigenvalue at (q, alpha, p)."""

    q: int
    alpha: float
    p: float
    eigenvalues: tuple[float, ...]
    betti: int
    lambda_min_nonzero: float | None
    n_simplices: int
    flags: tuple[str, ...] = field(default=())


def _zero_threshold(lambda_max: float) -> float:
    return max(ZERO_ABS, ZERO_REL * max(lambda_max, 0.0))


# dstebz ranges: the eigenvalues in (vl, vu], or those with indices il..iu
_VALUES, _INDICES = b"V", b"I"


def _bisect(t, which, vl=-np.inf, vu=np.inf, il=0, iu=0) -> np.ndarray:
    """Ascending eigenvalues of the tridiagonal ``t`` in one range, by
    Sturm-sequence bisection (LAPACK dstebz) to its default absolute
    tolerance.  An index range comes back short (info 2) where eigenvalues
    closer than the tolerance straddle a split of the tridiagonal; any other
    nonzero info is an EigensolveFailure."""
    w, info = lapack.dstebz(t, which, vl, vu, il, iu)
    if info not in (0, 2):
        raise EigensolveFailure(f"LAPACK dstebz failed (info={info})")
    return w


def spectrum(lap: PersistentLaplacian, full: bool = False) -> SpectrumRecord:
    """Betti number and smallest nonzero eigenvalue of the persistent
    Laplacian, with zero/nonzero separation flags.

    The record comes from one tridiagonal reduction of the matrix (LAPACK
    dsytrd, the first half of numpy's eigvalsh) and three bisections: for
    the eigenvalues above ZERO_ABS / ZERO_REL, the only ones that move the
    zero threshold; for those below the threshold, whose count is the Betti
    number; and for the next one, lambda_min_nonzero.  With ``full``, the
    record also lists every eigenvalue, from the same tridiagonal by dsterf,
    eigvalsh's second half and bytes.

    Every order takes this path.  Sturm counts see every copy of a repeated
    zero, where Lanczos from one start vector (ARPACK) misses some; a block
    method would need a block of at least beta + 2 vectors.
    """
    n = lap.n_simplices
    if n == 0:
        return SpectrumRecord(lap.q, lap.alpha, lap.p, (), 0, None, 0)
    with lapack.dsytrd(lap.matrix) as t:
        top = _bisect(t, _VALUES, vl=ZERO_ABS / ZERO_REL)
        # the largest value below the threshold: zeros lie in (-inf, zero_max]
        zero_max = math.nextafter(_zero_threshold(top[-1] if len(top) else 0.0), -math.inf)
        zeros = _bisect(t, _VALUES, vu=zero_max)
        betti = len(zeros)
        lam_min = None
        if betti < n:
            nonzero = _bisect(t, _INDICES, il=betti + 1, iu=betti + 1)
            if not len(nonzero):  # short: bisect every nonzero eigenvalue
                nonzero = _bisect(t, _VALUES, vl=zero_max)
            lam_min = float(nonzero[0])
        eigenvalues = tuple(lapack.dsterf(t).tolist()) if full else ()
    flags = ()
    if betti and lam_min is not None and zeros[-1] > 0:
        if lam_min / float(zeros[-1]) < GAP_FACTOR:
            flags = ("gap_ambiguous",)
    return SpectrumRecord(lap.q, lap.alpha, lap.p, eigenvalues, betti, lam_min, n, flags)


def persistent_laplacian(
    complex: FilteredComplex,
    q: int,
    alpha: float,
    p: float = 0.0,
) -> PersistentLaplacian:
    """Assemble L_q^{alpha,p} = B_q^T B_q + B_c B_c^T + U U^T.

    The first two terms are integer Gram matrices, read as prefixes of the
    boundaries' entry lists and exact in floating point: the down-term of
    the N_q(alpha) q-simplices, and the up-term of the first c
    (q+1)-columns, those whose faces all lie at alpha.  U holds the
    persistent boundary's columns after them (see
    :func:`persistent_boundary`); without such columns the Laplacian is an
    exact integer matrix.  The matrix depends only on q, N_q(alpha) and
    N_{q+1}(alpha + p).
    """
    snap_t, snap_tp = snapshot(complex, alpha), snapshot(complex, alpha + p)
    n = snap_t.count(q)
    down = full_boundary(complex, q).down_gram(n)
    up = full_boundary(complex, q + 1)
    c, u = persistent_boundary(up, snap_t, snap_tp)
    rows, cols, values = (np.concatenate(pair) for pair in zip(down, up.up_gram(c)))
    # bincount sums the integer entries exactly; without entries it gives int
    lap = np.bincount(rows * n + cols, weights=values, minlength=n * n)
    lap = lap.reshape(n, n).astype(float, copy=False)
    if u.shape[1]:
        lap += u @ u.T
        lap = 0.5 * (lap + lap.T)
    return PersistentLaplacian(lap, q, alpha, p)


def spectrum_at(
    complex: FilteredComplex, q: int, alpha: float, p: float = 0.0, full: bool = False
) -> SpectrumRecord:
    """The record of L_q^{alpha,p}: :func:`persistent_laplacian`, then :func:`spectrum`."""
    return spectrum(persistent_laplacian(complex, q, alpha, p), full)


def sweep(
    complex: FilteredComplex, q_list, alphas, p: float = 0.0, full: bool = False
) -> list[SpectrumRecord]:
    """One :func:`spectrum_at` record per (q, alpha), sorted by (q, alpha).

    L_q^{alpha,p} depends only on its key, (q, N_q(alpha), N_{q+1}(alpha + p)):
    the q-simplices at alpha and the (q+1)-simplices at alpha + p.  Each key
    is solved once per call and its record re-labelled for the other alphas;
    alphas with equal keys get equal matrices, so every record equals the
    one :func:`spectrum_at` gives at its own (q, alpha, p).  A solve that
    raises a PslapError becomes a record flagged ``failed:<ErrorType>`` and
    the sweep goes on: ``spectra`` writes it as a row and exits 0, and
    ``validate`` counts it as a disagreement (exit 4).
    """
    alphas = sorted(float(a) for a in alphas)
    q_list = sorted(set(int(q) for q in q_list))
    snaps = [(a, snapshot(complex, a), snapshot(complex, a + p)) for a in alphas]
    solved: dict = {}  # key -> record
    results = []
    for q in q_list:
        for a, snap_t, snap_tp in snaps:
            key = (q, snap_t.count(q), snap_tp.count(q + 1))
            rec = solved.get(key)
            if rec is None:
                try:
                    rec = solved[key] = spectrum_at(complex, q, a, p, full)
                except PslapError as exc:
                    rec = SpectrumRecord(
                        q, a, p, (), 0, None, snap_t.count(q),
                        flags=("failed:" + type(exc).__name__,),
                    )
            results.append(replace(rec, alpha=a))
    return results


def accumulated_laplacian_diagonal(complex: FilteredComplex, alphas) -> np.ndarray:
    """Normalized diagonal of the alpha-accumulated vertex Laplacian.

    The diagonal of L_0 at one alpha is the vertex degree in the edge set
    present there; the sum over the grid reduces to counting, per edge, the
    grid values at which it is present, which are those whose snapshot edge
    count exceeds its position in filtration order.  An all-zero
    accumulation normalizes to all ones.
    """
    edge_counts = np.sort([snapshot(complex, a).count(1) for a in alphas])
    n = complex.n_simplices(0)
    acc = np.zeros(n)
    for j, (u, v) in enumerate(complex.simplices(1)):
        hits = len(edge_counts) - int(np.searchsorted(edge_counts, j, side="right"))
        acc[u] += hits
        acc[v] += hits
    top = acc.max()
    if top == 0:
        return np.ones(n)
    return acc / top


def detect_anomalies(complex: FilteredComplex, points, onset_threshold: float):
    """Vertex pairs joined by an edge forming at less than half the threshold.

    A Gabriel edge enters the filtration at half the pair distance, so
    2 * alpha_edge < threshold flags abnormally close pairs; reported with
    their Euclidean distance, closest first.
    """
    coords = points.coords if hasattr(points, "coords") else np.asarray(points, float)
    out = []
    for (u, v), val in zip(complex.simplices(1), complex.filtration_values_sq(1)):
        if 2.0 * math.sqrt(val) < onset_threshold:
            dist = float(np.linalg.norm(coords[u] - coords[v]))
            out.append(((u, v), dist))
    out.sort(key=lambda t: (t[1], t[0]))
    return out
