"""Persistent Laplacian assembly, spectra, sweeps, and per-vertex diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.linalg import lapack

from .boundary import full_boundary, persistent_boundary
from .errors import EigensolveFailure, PslapError
from .simplices import FilteredComplex, snapshot

# The eigensolver policy (see spectrum).  An eigenvalue below
# max(ZERO_ABS, ZERO_REL * lambda_max) counts as zero, and a nonzero/zero
# ratio below GAP_FACTOR flags the record gap_ambiguous.
DENSE_CUTOFF = 2000
ZERO_ABS = 1e-8
ZERO_REL = 1e-10
GAP_FACTOR = 1e3
SHIFT_INVERT_K = 16


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


def _record(lap, eigenvalues, betti, lam_min, largest_zero, partial=False) -> SpectrumRecord:
    flags = []
    if betti > 0 and lam_min is not None:
        if largest_zero > 0 and lam_min / largest_zero < GAP_FACTOR:
            flags.append("gap_ambiguous")
    if partial:
        flags.append("partial_spectrum")
    return SpectrumRecord(
        q=lap.q,
        alpha=lap.alpha,
        p=lap.p,
        eigenvalues=tuple(eigenvalues),
        betti=betti,
        lambda_min_nonzero=lam_min,
        n_simplices=lap.n_simplices,
        flags=tuple(flags),
    )


def _record_from_eigs(lap, eigs, full, partial=False, lambda_max=None) -> SpectrumRecord:
    if lambda_max is None:
        lambda_max = float(eigs[-1]) if len(eigs) else 0.0
    tau = _zero_threshold(lambda_max)
    betti = int(np.sum(eigs < tau))
    nonzero = eigs[eigs >= tau]
    lam_min = float(nonzero[0]) if len(nonzero) else None
    largest_zero = float(eigs[betti - 1]) if betti else None
    eigenvalues = eigs.tolist() if full else ()
    return _record(lap, eigenvalues, betti, lam_min, largest_zero, partial)


def _lapack(name: str, *args, **kwargs):
    """scipy's LAPACK routine ``name`` on the arguments; its trailing info
    output, when nonzero, is an EigensolveFailure."""
    *out, info = getattr(lapack, name)(*args, **kwargs)
    if info != 0:
        raise EigensolveFailure(f"LAPACK {name} failed (info={info})")
    return out


# dstebz ranges: the eigenvalues in (vl, vu], or those with indices il..iu
_VALUES, _INDICES = 1, 2


def _bisect(d, e, which, vl=-np.inf, vu=np.inf, il=0, iu=0) -> np.ndarray:
    """Ascending eigenvalues of the tridiagonal (d, e) in one range, by
    Sturm-sequence bisection (LAPACK dstebz) to its default absolute
    tolerance.  An index range comes back short (info 2) where eigenvalues
    closer than the tolerance straddle a split of the tridiagonal; any other
    nonzero info is an EigensolveFailure."""
    m, w, _, _, info = lapack.dstebz(d, e, which, vl, vu, il, iu, 0.0, b"E")
    if info not in (0, 2):
        raise EigensolveFailure(f"LAPACK dstebz failed (info={info})")
    return w[:m]


def _dense_spectrum(lap: PersistentLaplacian, full: bool = False) -> SpectrumRecord:
    """The record from one tridiagonal reduction of the matrix (LAPACK
    dsytrd, the first half of numpy's eigvalsh) and three bisections: for
    the eigenvalues above ZERO_ABS / ZERO_REL, the only ones that move the
    zero threshold; for those below the threshold, whose count is the Betti
    number; and for the next one, lambda_min_nonzero.  With ``full``, the
    record also lists every eigenvalue, from the same tridiagonal by dsterf,
    eigvalsh's second half and bytes."""
    n = lap.n_simplices
    if n <= 1:  # the matrix is its spectrum; the dstebz wrapper wants order 2
        return _record_from_eigs(lap, np.diag(lap.matrix), full)
    lwork, = _lapack("dsytrd_lwork", n, lower=1)
    _, d, e, _ = _lapack("dsytrd", lap.matrix, lower=1, lwork=int(lwork))
    top = _bisect(d, e, _VALUES, vl=ZERO_ABS / ZERO_REL)
    # the largest value below the threshold: zeros lie in (-inf, zero_max]
    zero_max = np.nextafter(_zero_threshold(top[-1] if len(top) else 0.0), -np.inf)
    zeros = _bisect(d, e, _VALUES, vu=zero_max)
    betti = len(zeros)
    lam_min = None
    if betti < n:
        nonzero = _bisect(d, e, _INDICES, il=betti + 1, iu=betti + 1)
        if not len(nonzero):  # short: bisect every nonzero eigenvalue
            nonzero = _bisect(d, e, _VALUES, vl=zero_max)
        lam_min = float(nonzero[0])
    largest_zero = float(zeros[-1]) if betti else None
    eigenvalues = _lapack("dsterf", d, e)[0].tolist() if full else ()
    return _record(lap, eigenvalues, betti, lam_min, largest_zero)


def _iterative_spectrum(lap: PersistentLaplacian, full: bool) -> SpectrumRecord:
    """lambda_max and the lowest eigenvalues of a large Laplacian by Lanczos.

    The record is certified only when one of the lowest eigenvalues reaches
    the zero threshold, so the zero/nonzero split is in view.  Otherwise, or
    when ARPACK fails (it does on a zero matrix), the dense path computes it.
    Both calls start from one seeded vector, so the record is reproducible.
    """
    n = lap.n_simplices
    mat = sp.csc_array(lap.matrix)
    eigsh = scipy.sparse.linalg.eigsh
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        lambda_max = float(eigsh(mat, k=1, which="LA", v0=v0, return_eigenvectors=False)[0])
        eigs = np.sort(eigsh(
            mat, k=min(n - 1, SHIFT_INVERT_K), sigma=-1.0, which="LM", v0=v0,
            return_eigenvectors=False,
        ))
    except scipy.sparse.linalg.ArpackError:
        return _dense_spectrum(lap, full)
    if not np.any(eigs >= _zero_threshold(lambda_max)):
        return _dense_spectrum(lap, full)
    return _record_from_eigs(lap, eigs, full, partial=len(eigs) < n, lambda_max=lambda_max)


def spectrum(lap: PersistentLaplacian, full: bool = False) -> SpectrumRecord:
    """Betti number and smallest nonzero eigenvalue of the persistent
    Laplacian, with zero/nonzero separation flags.

    Matrices up to DENSE_CUTOFF are reduced to tridiagonal form once and
    bisected for the eigenvalues the record reports.  Larger ones get their
    SHIFT_INVERT_K lowest eigenvalues by shift-invert iteration (record
    flagged partial_spectrum), unless those cannot certify the split.  Only
    with ``full`` does the record list the eigenvalues it computed: every
    one on the dense path, the lowest ones on the iterative path.
    """
    if lap.n_simplices <= DENSE_CUTOFF:
        return _dense_spectrum(lap, full)
    return _iterative_spectrum(lap, full)


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
