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

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import lapack
from .boundary import (
    SparseBoundaryMatrix,
    full_boundary,
    kernel_is_trivial,
    persistent_boundary,
    split,
)
from .errors import PslapError, SnapshotOrderViolation
from .simplices import MAX_DIM, FilteredComplex, count_held

# The eigensolver policy (see _part).  An eigenvalue below
# max(ZERO_ABS, ZERO_REL * lambda_max) counts as zero, and a nonzero/zero
# ratio below GAP_FACTOR flags the record gap_ambiguous.
ZERO_ABS = 1e-8
ZERO_REL = 1e-10
GAP_FACTOR = 1e3

# A sweep builds and solves its Hodge parts of this order and up in a pool of
# WORKERS threads, and the smaller ones in its own thread (see _run).
# Below it the GIL-bound glue around a solve outweighs what a second thread
# gains: on a 2-vCPU VM, one BLAS thread, the chain-persist sweep (parts of
# order up to 173) took 0.243 s serially and 0.183, 0.176 and 0.197 s with
# two workers from order 65, 96 and 128.  Above lapack._SPARE_MAX_ORDER, so
# no pooled solve keeps a workspace.
POOL_MIN_ORDER = 96
# the CPUs this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None  # (WORKERS, its ThreadPoolExecutor), made by the first sweep that pools a part


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
    again, and a ``full`` record lists T's nonzero eigenvalues from
    :attr:`eigenvalues`.
    """

    order: int
    lambda_top: float  # the largest eigenvalue above ZERO_ABS / ZERO_REL, else 0.0
    zero_max: float
    zeros: int
    largest_zero: float
    lambda_min: float | None
    d: np.ndarray
    e: np.ndarray

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Every eigenvalue of T, ascending, by one dsterf per part."""
        with lapack.tridiagonal(self.d, self.e) as t:
            return lapack.dsterf(t)


_EMPTY_PART = HodgePart(0, 0.0, -math.inf, 0, 0.0, None, np.empty(0), np.empty(0))
_NO_SIMPLEX = (), 0, None, 0, ()  # the fields of a record without q-simplices


def _zero_threshold(lambda_max: float) -> float:
    return max(ZERO_ABS, ZERO_REL * max(lambda_max, 0.0))


# dstebz ranges: the eigenvalues in (vl, vu], or those with indices il..iu
_VALUES, _INDICES = b"V", b"I"


def _part(t: lapack.Tridiagonal, zero_max: float | None = None) -> HodgePart:
    """The :class:`HodgePart` of the tridiagonal ``t``, from three
    bisections: for the eigenvalues above ZERO_ABS / ZERO_REL, the only ones
    that move the zero threshold; for those below the threshold they set
    (or below ``zero_max``), the zeros; and for the next one.

    Every order takes this path.  Sturm counts see every copy of a repeated
    zero, where Lanczos from one start vector (ARPACK) misses some; a block
    method would need a block of at least beta + 2 vectors.
    """
    top = lapack.dstebz(t, _VALUES, vl=ZERO_ABS / ZERO_REL)
    lambda_top = float(top[-1]) if len(top) else 0.0
    if zero_max is None:
        # the largest value below the threshold: zeros lie in (-inf, zero_max]
        zero_max = math.nextafter(_zero_threshold(lambda_top), -math.inf)
    zeros = lapack.dstebz(t, _VALUES, vu=zero_max)
    lam_min = None
    if len(zeros) < t.n:
        nonzero = lapack.dstebz(t, _INDICES, il=len(zeros) + 1, iu=len(zeros) + 1)
        if not len(nonzero):  # short: bisect every nonzero eigenvalue
            nonzero = lapack.dstebz(t, _VALUES, vl=zero_max)
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


def _nonzero(part: HodgePart, zeros: int) -> np.ndarray:
    """The part's eigenvalues above its first ``zeros``, ascending."""
    if zeros == part.order:
        return np.empty(0)
    return part.eigenvalues[zeros:]


def _combine(n: int, solved, full: bool = False) -> tuple:
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
        _zero_threshold(max(part.lambda_top for part in solved)), -math.inf
    )
    parts = [_at_bound(part, zero_max) for part in solved]
    betti = n - sum(part.order - part.zeros for part in parts)
    lam_min = min((part.lambda_min for part in parts if part.lambda_min is not None), default=None)
    largest_zero = max(part.largest_zero for part in parts)
    flags = ()
    if betti and lam_min is not None and largest_zero > 0:
        if lam_min / largest_zero < GAP_FACTOR:
            flags = ("gap_ambiguous",)
    eigenvalues = ()
    if full:
        nonzero = np.sort(np.concatenate([
            _nonzero(part, bound.zeros) for part, bound in zip(solved, parts)
        ]))
        eigenvalues = (0.0,) * betti + tuple(nonzero.tolist())
    return eigenvalues, betti, lam_min, n, flags


def _solve(matrix: np.ndarray) -> HodgePart:
    if not len(matrix):
        return _EMPTY_PART
    with lapack.dsytrd(matrix) as t:
        return _part(t)


def _reach(b: SparseBoundaryMatrix, n: int) -> int:
    """The rows the first n columns of ``b`` span."""
    return int(b.reach[n - 1]) if n else 0


def _down_matrix(b: SparseBoundaryMatrix, n: int) -> np.ndarray:
    """The boundary B_q ``b`` on its first n columns, at the smaller of its
    two sides: B^T B (order n) or B B^T (order reach[n-1], the rows those
    columns span; 0 for q = 0)."""
    m = _reach(b, n)
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


def _solve_up(up: SparseBoundaryMatrix, n: int, m: int) -> HodgePart | int:
    """The up part of L_q^{alpha,p}, B B^T, from the (q+1) boundary ``up``,
    n = N_q(alpha) and m = N_{q+1}(alpha + p); or, where B has no columns
    after the split c and so is B_c, c: the part is then the down part of
    q + 1 at c.  That holds wherever the kernel of Diff is empty, whether
    the pivot count proves it or the SVD finds it."""
    c, u = persistent_boundary(up, n, m)
    if not u.shape[1]:
        return c
    return _solve(_projected_matrix(up, c, u))


def spectrum_at(
    complex: FilteredComplex, q: int, alpha: float, p: float = 0.0, full: bool = False
) -> SpectrumRecord:
    """The record of L_q^{alpha,p}, from its down and up Hodge parts: the
    one-alpha case of :func:`sweep`, which raises the PslapError where a
    sweep flags the row, SnapshotOrderViolation for p < 0 among them.

    ``full`` adds every eigenvalue and no solve: the Betti number's exact
    zeros, then the parts' nonzero eigenvalues from their stored forms.
    The parts are other matrices than the whole Laplacian, so every value
    agrees with the whole matrix's to rounding, not bit for bit.
    """
    ((*_, fields),) = _plan(complex, [q], [alpha], p, full)
    if isinstance(fields, PslapError):
        raise fields
    return SpectrumRecord(q, alpha, p, *fields)


def sweep(
    complex: FilteredComplex, q_list, alphas, p: float = 0.0, full: bool = False
) -> list[SpectrumRecord]:
    """The record of L_q^{alpha,p} at every (q, alpha), sorted by (q, alpha).

    Alphas with equal keys (q, N_q(alpha), N_{q+1}(alpha + p)) share one
    record but for alpha, so the sweep plans each run of them once
    (:func:`_plan`).  A record whose solve raises a PslapError, or whose
    snapshots are out of order (p < 0), is flagged ``failed:<ErrorType>``
    instead, and the sweep goes on: ``spectra`` writes it as a row and
    exits 0, and ``validate`` counts it as a disagreement (exit 4).

    Every part is solved on one BLAS thread.  Where that pin cannot take
    effect, the parts are solved one after another, as the BLAS threads
    would otherwise compete with the pool's workers.
    """
    alphas = sorted(float(a) for a in alphas)
    records = []
    for q, lo, hi, n, fields in _plan(complex, sorted({int(q) for q in q_list}), alphas, p, full):
        if isinstance(fields, PslapError):
            fields = (), 0, None, n, ("failed:" + type(fields).__name__,)
        records += [SpectrumRecord(q, a, p, *fields) for a in alphas[lo:hi]]
    return records


def _plan(complex: FilteredComplex, qs, alphas, p: float, full: bool) -> list:
    """The runs [q, lo, hi, n, fields] of the records at each q in ``qs``
    and the sorted ``alphas``: alphas[lo:hi] share the snapshot order and
    the key (q, n = N_q(alpha), m = N_{q+1}(alpha + p)), and with it the
    record's fields after q, alpha and p, or the PslapError that fails them.

    Counts are monotone in alpha, so equal keys are adjacent.  A run reads
    its fields off the complex, else off two Hodge parts: the down part
    (q, n), and the up part, which is the down part (q + 1, c) at the split
    c where :func:`boundary.kernel_is_trivial` proves the kernel of Diff
    empty (every key with c == m, as at p = 0), and is otherwise solved
    from :func:`persistent_boundary`.  Every part the complex lacks is
    solved once, through :func:`_run`, on one BLAS thread; where the pin
    takes effect and there is more than one worker, the pool solves the
    large parts.  The complex keeps each part, split and record; a part
    whose solve raises is not kept and fails every run that reads it.
    """
    a = np.asarray(alphas, dtype=float)
    a_p = a + p
    # N_k at every alpha and alpha + p, k = 0..MAX_DIM, then a row of zeros
    # that stands for every other k; a negative or NaN alpha raises here
    held, held_p = (np.array([count_held(complex, k, x) for k in range(MAX_DIM + 2)])
                    for x in (a, a_p))
    # the snapshot order, checked only here: the later snapshot must hold
    # the earlier
    unordered = (a * a > a_p * a_p) | np.any(held > held_p, axis=0)
    runs, pending, jobs, failed = [], [], {}, {}

    def need(key) -> None:  # the down part (q, n), unless kept or planned
        if key not in jobs and key not in failed and complex.derived(key) is None:
            b, n = full_boundary(complex, key[1]), key[2]
            jobs[key] = min(n, _reach(b, n)), lambda: _solve(_down_matrix(b, n))

    def part(key) -> HodgePart:  # not recursive: a closure that calls itself is a cycle
        if isinstance(value := complex.derived(key), int):
            key = "down part", key[1] + 1, value
            value = complex.derived(key)
        if value is None:
            raise failed[key]
        return value

    with lapack.one_blas_thread() as pinned:
        for q in qs:
            n, m = (h[k if 0 <= k <= MAX_DIM else -1] for h, k in ((held, q), (held_p, q + 1)))
            # a run starts where its key or order changes, and at the first alpha
            lo = np.flatnonzero(np.diff(np.stack([n, m, unordered]), prepend=-1).any(axis=0))
            up = full_boundary(complex, q + 1)
            for i, hi, n_i, m_i, c, bad in zip(
                lo.tolist(), lo[1:].tolist() + [len(a)], n[lo].tolist(), m[lo].tolist(),
                split(up, n[lo], m[lo]).tolist(), unordered[lo].tolist(),
            ):
                if bad:
                    fields = SnapshotOrderViolation(f"snapshots out of order at {alphas[i]}, p {p}")
                else:
                    fields = complex.derived(("record", q, n_i, m_i, full)) if n_i else _NO_SIMPLEX
                runs.append([q, i, hi, n_i, fields])
                if fields is not None:
                    continue
                key = ("up part", q, n_i, m_i)
                pending.append((runs[-1], key))
                need(("down part", q, n_i))
                value = complex.derived(key)
                if value is None and kernel_is_trivial(up, n_i, c, m_i):
                    value = complex.derived(key, lambda: c)
                if isinstance(value, int):
                    need(("down part", q + 1, value))
                elif value is None:
                    jobs[key] = min(n_i, c), functools.partial(_solve_up, up, n_i, m_i)
        largest = max(map(complex.n_simplices, qs), default=0)  # no part of L_q is larger
        pool = pinned and WORKERS > 1 and largest >= POOL_MIN_ORDER
        if pool:  # every worker reads these, so their caches are built first
            for k in {k for q in qs for k in (q, q + 1)}:
                full_boundary(complex, k).build_caches()
        while jobs:  # an up part whose kernel the SVD found empty needs a second round
            results, jobs = dict(zip(jobs, _run(jobs.values(), pool))), {}
            for key, result in results.items():
                if isinstance(result, PslapError):
                    failed[key] = result
                elif isinstance(complex.derived(key, lambda: result), int):
                    need(("down part", key[1] + 1, result))
        for run, (_, q, n, m) in pending:
            try:
                run[4] = complex.derived(("record", q, n, m, full), lambda: _combine(
                    n, (part(("down part", q, n)), part(("up part", q, n, m))), full
                ))
            except PslapError as exc:  # kept without the frames that would hold this one
                run[4] = exc.with_traceback(None)
    return runs


def _run(jobs, pool: bool) -> list:
    """The result of every job, (order, build), or the PslapError it raised.
    With ``pool``, those of order POOL_MIN_ORDER and up are built and solved
    in the pool, the largest first, and the others in this thread
    meanwhile; without, all of them here.  No job runs after this returns
    or raises."""
    jobs = list(jobs)
    large = sorted((i for i, (order, _) in enumerate(jobs) if pool and order >= POOL_MIN_ORDER),
                   key=lambda i: -jobs[i][0])
    futures = {}
    try:
        if large:
            executor = _executor()
            futures = {i: executor.submit(_attempt, jobs[i][1]) for i in large}
        inline = {i: _attempt(build) for i, (_, build) in enumerate(jobs) if i not in futures}
        return [futures[i].result() if i in futures else inline[i] for i in range(len(jobs))]
    finally:
        if futures:
            from concurrent.futures import wait

            for future in futures.values():
                future.cancel()
            wait(futures.values())


def _attempt(build):
    try:
        return build()
    except PslapError as exc:
        return exc


def _executor():
    """The pool of WORKERS threads, made once and kept for later sweeps."""
    global _pool
    if _pool is None or _pool[0] != WORKERS:
        from concurrent.futures import ThreadPoolExecutor

        if _pool is not None:
            _pool[1].shutdown()
        _pool = WORKERS, ThreadPoolExecutor(WORKERS, thread_name_prefix="pslap-part")
    return _pool[1]


def _forget_pool() -> None:
    # a forked child has none of its parent's threads, so a pool it
    # inherited would take jobs and never run them
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def accumulated_laplacian_diagonal(complex: FilteredComplex, alphas) -> np.ndarray:
    """Normalized diagonal of the alpha-accumulated vertex Laplacian.

    The diagonal of L_0 at one alpha is the vertex degree in the edge set
    present there; the sum over the grid reduces to counting, per edge, the
    grid values at which it is present, which are those whose edge count
    N_1(alpha) exceeds its position in filtration order.  An all-zero
    accumulation normalizes to all ones.
    """
    edge_counts = np.sort(count_held(complex, 1, np.asarray(alphas, dtype=float)))
    n = complex.n_simplices(0)
    edges = complex.vertex_rows(1)
    hits = len(edge_counts) - np.searchsorted(edge_counts, np.arange(len(edges)), side="right")
    acc = np.zeros(n)
    # integer sums, exact in any order
    np.add.at(acc, edges, hits[:, None])
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
    close = 2.0 * np.sqrt(complex.filtration_values_sq(1)) < onset_threshold
    out = [
        ((u, v), float(np.linalg.norm(coords[u] - coords[v])))
        for u, v in complex.vertex_rows(1)[close].tolist()
    ]
    out.sort(key=lambda t: (t[1], t[0]))
    return out
