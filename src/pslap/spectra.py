"""Persistent Laplacian spectra from Hodge parts, sweeps, and per-vertex diagnostics.

A record is read off two Hodge parts of L_q^{alpha,p} = B_q^T B_q + B B^T,
B the persistent boundary: the down part B_q^T B_q and the up part B B^T.
Their images are orthogonal (B_q B = 0), so the nonzero spectrum of the
Laplacian is the union of theirs (Memoli, Wan and Wang, *Persistent
Laplacians*, 2022), and each part has the nonzero spectrum of its other
side, M^T M for M M^T.  The down part depends only on (q, N_q(alpha)), and
an up part without projected columns is the down part of q + 1, so one
complex solves far fewer parts than a sweep has keys, each at its smaller
side.  Solved parts are kept on the complex, as :class:`HodgePart` records
of their tridiagonal form and what a record reads off it, and so is each
key's record.  Every record, eigenvalue lists included, comes from one
reduction per part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lapack
from .boundary import SparseBoundaryMatrix, check_order, full_boundary, persistent_boundary
from .errors import EigensolveFailure, PslapError
from .simplices import FilteredComplex, Snapshot, snapshot

# The eigensolver policy (see _part).  An eigenvalue below
# max(ZERO_ABS, ZERO_REL * lambda_max) counts as zero, and a nonzero/zero
# ratio below GAP_FACTOR flags the record gap_ambiguous.
ZERO_ABS = 1e-8
ZERO_REL = 1e-10
GAP_FACTOR = 1e3


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


@dataclass(frozen=True)
class HodgePart:
    """What a record needs of the spectrum of one symmetric PSD matrix: its
    tridiagonal form T (diagonal ``d``, subdiagonal ``e``), and what the
    bisections of :func:`_part` read off T.  No matrix and no workspace is
    kept.

    ``zeros`` counts the eigenvalues at most ``zero_max``, the bound that the
    matrix's own largest eigenvalue sets; ``largest_zero`` is the largest of
    them (0.0 without any) and ``lambda_min`` the next eigenvalue (None
    without any).  A record whose other part sets a higher bound bisects T
    again, and a ``full`` record lists T's nonzero eigenvalues by dsterf.
    """

    order: int
    lambda_top: float  # the largest eigenvalue above ZERO_ABS / ZERO_REL, else 0.0
    zero_max: float
    zeros: int
    largest_zero: float
    lambda_min: float | None
    d: np.ndarray
    e: np.ndarray


_EMPTY_PART = HodgePart(0, 0.0, -math.inf, 0, 0.0, None, np.empty(0), np.empty(0))


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


def _part(t: lapack.Tridiagonal, zero_max: float | None = None) -> HodgePart:
    """The :class:`HodgePart` of the tridiagonal ``t``, from three
    bisections: for the eigenvalues above ZERO_ABS / ZERO_REL, the only ones
    that move the zero threshold; for those below the threshold they set
    (or below ``zero_max``), the zeros; and for the next one.

    Every order takes this path.  Sturm counts see every copy of a repeated
    zero, where Lanczos from one start vector (ARPACK) misses some; a block
    method would need a block of at least beta + 2 vectors.
    """
    top = _bisect(t, _VALUES, vl=ZERO_ABS / ZERO_REL)
    lambda_top = float(top[-1]) if len(top) else 0.0
    if zero_max is None:
        # the largest value below the threshold: zeros lie in (-inf, zero_max]
        zero_max = math.nextafter(_zero_threshold(lambda_top), -math.inf)
    zeros = _bisect(t, _VALUES, vu=zero_max)
    lam_min = None
    if len(zeros) < t.n:
        nonzero = _bisect(t, _INDICES, il=len(zeros) + 1, iu=len(zeros) + 1)
        if not len(nonzero):  # short: bisect every nonzero eigenvalue
            nonzero = _bisect(t, _VALUES, vl=zero_max)
        lam_min = float(nonzero[0])
    largest_zero = float(zeros[-1]) if len(zeros) else 0.0
    return HodgePart(
        t.n, lambda_top, zero_max, len(zeros), largest_zero, lam_min, t.d.copy(), t.e.copy()
    )


def _at_bound(part: HodgePart, zero_max: float) -> HodgePart:
    """``part`` with its zeros counted under ``zero_max``, at least its own
    bound: bisected again, on its stored form, only if an eigenvalue lies
    between the two."""
    if part.zero_max == zero_max or part.lambda_min is None or part.lambda_min > zero_max:
        return part
    with lapack.tridiagonal(part.d, part.e) as t:
        return _part(t, zero_max)


def _nonzero(part: HodgePart) -> np.ndarray:
    """The part's eigenvalues above its zeros, ascending: the top
    ``order - zeros`` values of dsterf on its stored form."""
    if part.zeros == part.order:
        return np.empty(0)
    with lapack.tridiagonal(part.d, part.e) as t:
        return lapack.dsterf(t)[part.zeros:]


def _combine(n: int, parts, full: bool = False) -> tuple:
    """The fields after q, alpha and p of the record of an order-n
    Laplacian whose nonzero spectrum is the union of the parts' nonzero
    spectra: eigenvalues, Betti number, smallest nonzero eigenvalue,
    n_simplices and flags.

    The zero threshold comes from the larger lambda_max, and every part
    counts its zeros under it.  The Betti number is n less each part's
    nonzero count, lambda_min_nonzero is the smaller of the parts' minima,
    and gap_ambiguous compares it with the largest zero of either part.
    With ``full``, the eigenvalues are the Betti number's exact zeros, then
    the union of the parts' nonzero eigenvalues (see :func:`_nonzero`).
    """
    zero_max = math.nextafter(
        _zero_threshold(max(part.lambda_top for part in parts)), -math.inf
    )
    parts = [_at_bound(part, zero_max) for part in parts]
    betti = n - sum(part.order - part.zeros for part in parts)
    lam_min = min((part.lambda_min for part in parts if part.lambda_min is not None), default=None)
    largest_zero = max(part.largest_zero for part in parts)
    flags = ()
    if betti and lam_min is not None and largest_zero > 0:
        if lam_min / largest_zero < GAP_FACTOR:
            flags = ("gap_ambiguous",)
    eigenvalues = ()
    if full:
        nonzero = np.sort(np.concatenate([_nonzero(part) for part in parts]))
        eigenvalues = (0.0,) * betti + tuple(nonzero.tolist())
    return eigenvalues, betti, lam_min, n, flags


def _solve(matrix: np.ndarray) -> HodgePart:
    if not len(matrix):
        return _EMPTY_PART
    with lapack.dsytrd(matrix) as t:
        return _part(t)


def _down_matrix(complex: FilteredComplex, q: int, n: int) -> np.ndarray:
    """B_q on its first n columns, at the smaller of its two sides: B^T B
    (order n) or B B^T (order reach[n-1], the rows those columns span; 0
    for q = 0)."""
    b = full_boundary(complex, q)
    m = int(b.reach[n - 1]) if n else 0
    return b.up_gram(n, m) if m < n else b.down_gram(n, n)


def _projected_matrix(up: SparseBoundaryMatrix, c: int, u: np.ndarray) -> np.ndarray:
    """B = [B_c | U] (see :func:`persistent_boundary`) at the smaller of its
    two sides:

    - B B^T, order N_q(alpha): the integer B_c B_c^T, plus U U^T on the rows
      where U is nonzero
    - B^T B, order c + k: [B_c^T B_c, B_c^T U; U^T B_c, U^T U], its integer
      block the (q+1) boundary's down-term on c columns; the block B_c^T U
      above the diagonal is left zero, as dsytrd reads the lower triangle
    """
    r, k = u.shape
    if r <= c + k:
        a = up.up_gram(c, r)
        rows = np.flatnonzero(u.any(axis=1))
        nonzero = u[rows]
        a[np.ix_(rows, rows)] += nonzero @ nonzero.T
        return a
    a = up.down_gram(c, c + k)
    a[c:, :c] = up.transpose_times(c, u).T
    a[c:, c:] = u.T @ u
    return a


def _down_part(complex: FilteredComplex, q: int, n: int) -> HodgePart:
    """The down part of L_q at N_q(alpha) = n, B_q^T B_q, solved once per
    complex."""
    return complex.derived(("down part", q, n), lambda: _solve(_down_matrix(complex, q, n)))


def _up_part(complex: FilteredComplex, q: int, snap_t: Snapshot, snap_tp: Snapshot) -> HodgePart:
    """The up part of L_q^{alpha,p}, B B^T, solved once per complex and key
    (q, N_q(alpha), N_{q+1}(alpha + p)).  Without columns after the split
    c, B is B_c, and the part is the down part of q + 1 at c."""

    def build():
        up = full_boundary(complex, q + 1)
        c, u = persistent_boundary(up, snap_t, snap_tp)
        if not u.shape[1]:
            return _down_part(complex, q + 1, c)
        return _solve(_projected_matrix(up, c, u))

    return complex.derived(("up part", q, snap_t.count(q), snap_tp.count(q + 1)), build)


def spectrum_at(
    complex: FilteredComplex, q: int, alpha: float, p: float = 0.0, full: bool = False
) -> SpectrumRecord:
    """The record of L_q^{alpha,p}, from its down and up Hodge parts.

    L_q^{alpha,p} depends only on its key, (q, N_q(alpha), N_{q+1}(alpha + p)),
    so a key's fields are kept on the complex beside its parts and read by
    every (alpha, p) with that key.  The snapshot order is checked on every
    call, and a solve that raises keeps nothing.

    ``full`` adds every eigenvalue and no solve: the Betti number's exact
    zeros, then the parts' nonzero eigenvalues from their stored forms.
    The parts are other matrices than the whole Laplacian, so every value
    agrees with the whole matrix's to rounding, not bit for bit.
    """
    snap_t, snap_tp = snapshot(complex, alpha), snapshot(complex, alpha + p)
    check_order(snap_t, snap_tp)
    n = snap_t.count(q)

    def fields():  # after q, alpha and p
        if n == 0:
            return (), 0, None, 0, ()
        parts = _down_part(complex, q, n), _up_part(complex, q, snap_t, snap_tp)
        return _combine(n, parts, full)

    key = ("record", q, n, snap_tp.count(q + 1), full)
    return SpectrumRecord(q, alpha, p, *complex.derived(key, fields))


def sweep(
    complex: FilteredComplex, q_list, alphas, p: float = 0.0, full: bool = False
) -> list[SpectrumRecord]:
    """The :func:`spectrum_at` record of every (q, alpha), sorted by (q, alpha).

    Alphas with equal keys read one record's fields from the complex.  A
    record whose solve raises a PslapError is flagged ``failed:<ErrorType>``
    instead, and the sweep goes on: ``spectra`` writes it as a row and exits
    0, and ``validate`` counts it as a disagreement (exit 4).
    """
    alphas = sorted(float(a) for a in alphas)
    results = []
    for q in sorted(set(int(q) for q in q_list)):
        for a in alphas:
            try:
                results.append(spectrum_at(complex, q, a, p, full))
            except PslapError as exc:
                flags = ("failed:" + type(exc).__name__,)
                n = snapshot(complex, a).count(q)
                results.append(SpectrumRecord(q, a, p, (), 0, None, n, flags))
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
