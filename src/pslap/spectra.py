"""Persistent Laplacian assembly, spectra, sweeps, and per-vertex diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

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


def _dense_spectrum(lap: PersistentLaplacian) -> SpectrumRecord:
    try:
        eigs = np.linalg.eigvalsh(lap.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(str(exc)) from exc
    return _record_from_eigs(lap, np.sort(eigs), partial=False)


def _zero_threshold(lambda_max: float) -> float:
    return max(ZERO_ABS, ZERO_REL * max(lambda_max, 0.0))


def _record_from_eigs(lap, eigs, partial, lambda_max=None) -> SpectrumRecord:
    if lambda_max is None:
        lambda_max = float(eigs[-1]) if len(eigs) else 0.0
    tau = _zero_threshold(lambda_max)
    betti = int(np.sum(eigs < tau))
    nonzero = eigs[eigs >= tau]
    lam_min = float(nonzero[0]) if len(nonzero) else None
    flags = []
    if betti > 0 and lam_min is not None:
        largest_zero = float(eigs[betti - 1])
        if largest_zero > 0 and lam_min / largest_zero < GAP_FACTOR:
            flags.append("gap_ambiguous")
    if partial:
        flags.append("partial_spectrum")
    return SpectrumRecord(
        q=lap.q,
        alpha=lap.alpha,
        p=lap.p,
        eigenvalues=tuple(eigs.tolist()),
        betti=betti,
        lambda_min_nonzero=lam_min,
        n_simplices=lap.n_simplices,
        flags=tuple(flags),
    )


def _iterative_spectrum(lap: PersistentLaplacian) -> SpectrumRecord:
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
        return _dense_spectrum(lap)
    if not np.any(eigs >= _zero_threshold(lambda_max)):
        return _dense_spectrum(lap)
    return _record_from_eigs(lap, eigs, partial=len(eigs) < n, lambda_max=lambda_max)


def spectrum(lap: PersistentLaplacian) -> SpectrumRecord:
    """Eigenvalues of the persistent Laplacian with zero/nonzero separation.

    Matrices up to DENSE_CUTOFF get a full symmetric eigendecomposition;
    larger ones get their SHIFT_INVERT_K lowest eigenvalues by shift-invert
    iteration (record flagged partial_spectrum), unless those cannot certify
    the split.
    """
    if lap.n_simplices <= DENSE_CUTOFF:
        return _dense_spectrum(lap)
    return _iterative_spectrum(lap)


def persistent_laplacian(
    complex: FilteredComplex,
    q: int,
    alpha: float,
    p: float = 0.0,
) -> PersistentLaplacian:
    """Assemble L_q^{alpha,p} = B_q^T B_q + B_old B_old^T + U U^T.

    The first two terms are integer Gram matrices of the earlier snapshot,
    read as prefixes of the boundaries' entry lists and exact in floating
    point; U holds the persistent boundary's new columns (see
    :func:`persistent_boundary`).  Without new (q+1)-simplices U is empty and
    the Laplacian is an exact integer matrix.
    """
    snap_t = snapshot(complex, alpha)
    snap_tp = snapshot(complex, alpha + p)
    n = snap_t.count(q)
    down = full_boundary(complex, q).down_gram(n)
    up = full_boundary(complex, q + 1)
    rows, cols, values = (
        np.concatenate(pair) for pair in zip(down, up.up_gram(snap_t.count(q + 1)))
    )
    # bincount sums the integer entries exactly; without entries it gives int
    lap = np.bincount(rows * n + cols, weights=values, minlength=n * n)
    lap = lap.reshape(n, n).astype(float, copy=False)
    u = persistent_boundary(up, snap_t, snap_tp)
    if u.shape[1]:
        lap += u @ u.T
        lap = 0.5 * (lap + lap.T)
    return PersistentLaplacian(lap, q, alpha, p)


def spectrum_at(complex: FilteredComplex, q: int, alpha: float, p: float = 0.0) -> SpectrumRecord:
    return spectrum(persistent_laplacian(complex, q, alpha, p))


def sweep(complex: FilteredComplex, q_list, alphas, p: float = 0.0) -> list[SpectrumRecord]:
    """One SpectrumRecord per (q, alpha), sorted by (q, alpha).

    Snapshots with identical simplex counts at alpha and alpha + p produce
    identical Laplacians, so their records are computed once and re-labelled.
    Failed records are flagged and the sweep continues.
    """
    alphas = sorted(float(a) for a in alphas)
    q_list = sorted(set(int(q) for q in q_list))
    sig_cache: dict = {}  # (q, counts at alpha, counts at alpha + p) -> record
    results = []
    for q in q_list:
        for a in alphas:
            snap_t = snapshot(complex, a)
            sig = (q, snap_t.counts, snapshot(complex, a + p).counts)
            rec = sig_cache.get(sig)
            if rec is None:
                try:
                    rec = sig_cache[sig] = spectrum(persistent_laplacian(complex, q, a, p))
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
