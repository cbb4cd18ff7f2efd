import itertools
import math
import os
import pathlib
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    build_complex,
    chain48_pdb,
    random_cloud,
    reference_boundary,
    reference_laplacian,
    reference_persistent_boundary,
    reference_spectrum,
    snapshot_counts,
)
from pslap import lapack, spectra
from pslap.alpha import alpha_complex, critical_alphas
from pslap.dataio import read_pdb_ca, read_xyz
from pslap.boundary import full_boundary, kernel_is_trivial, persistent_boundary, split
from pslap.errors import EigensolveFailure, SnapshotOrderViolation
from pslap.geometry import PointSet
from pslap.oracle import BettiOracle
from pslap.spectra import (
    SpectrumRecord,
    accumulated_laplacian_diagonal,
    detect_anomalies,
    spectrum_at,
    sweep,
)
from test_acceptance import CLOUDS_4

TABLE1_L0 = np.array(
    [
        [2, -1, 0, 0, -1, 0],
        [-1, 2, -1, 0, 0, 0],
        [0, -1, 2, -1, 0, 0],
        [0, 0, -1, 3, -1, -1],
        [-1, 0, 0, -1, 3, -1],
        [0, 0, 0, -1, -1, 2],
    ],
    dtype=float,
)

SPEC_L0 = [0.0, 1.0, 1.5858, 3.0, 4.0, 4.4142]
SPEC_L1 = [0.0, 1.0, 1.5858, 3.0, 3.0, 4.0, 4.4142]


def test_table1_l0_matrix(six_complex):
    assert np.array_equal(reference_laplacian(six_complex, 0, 0.6, 0.0), TABLE1_L0)
    rec = spectrum_at(six_complex, 0, 0.6, 0.0, full=True)
    eigs = np.linalg.eigvalsh(TABLE1_L0)
    assert np.max(np.abs(np.array(rec.eigenvalues) - eigs)) <= PIN_TOL * eigs[-1]


def test_table1_spectra(six_complex):
    for q, expected, betti in [(0, SPEC_L0, 1), (1, SPEC_L1, 1), (2, [3.0], 0)]:
        rec = spectrum_at(six_complex, q, 0.6, full=True)
        assert rec.betti == betti
        assert rec.n_simplices == len(expected)
        assert np.allclose(rec.eigenvalues, expected, atol=5e-5)
        assert not rec.flags


def test_table2_matrix_and_spectrum(six_complex):
    assert np.array_equal(reference_laplacian(six_complex, 0, 0.2, 0.4), TABLE1_L0)
    rec = spectrum_at(six_complex, 0, 0.2, 0.4, full=True)
    assert rec.betti == 1
    assert np.allclose(rec.eigenvalues, SPEC_L0, atol=5e-5)


def test_spectrum_record_invariants(six_complex):
    for q in range(3):
        rec = spectrum_at(six_complex, q, 0.6, full=True)
        nonzero = sum(1 for x in rec.eigenvalues if x >= 1e-8)
        assert rec.betti + nonzero == rec.n_simplices
        assert list(rec.eigenvalues) == sorted(rec.eigenvalues)
        if rec.lambda_min_nonzero is not None:
            assert rec.lambda_min_nonzero >= 1e-8


# projected records must match the dense projector reference within
# PIN_TOL * lambda_max
PIN_TOL = 1e-12


def _integer_gram(b: np.ndarray) -> np.ndarray:
    """The integer Gram matrix of the boundary columns ``b`` at its smaller
    side: B B^T on the rows they span, if fewer than the columns, else
    B^T B."""
    m = int(np.flatnonzero(b.any(axis=1)).max(initial=-1)) + 1
    return (b[:m] @ b[:m].T if m < b.shape[1] else b.T @ b).astype(float)


def _lower(a: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower triangle ``a`` holds, as dsytrd reads it."""
    return np.tril(a) + np.tril(a, -1).T


def test_psd_and_symmetry(six_complex, icosahedron_complex):
    # every Hodge part a record reduces (see spectra._down_part and
    # _up_part): B_q^T B_q, and an up part without projected columns, is the
    # reference boundary's integer Gram matrix at its smaller side bit for
    # bit, so exactly symmetric; a projected up part is PSD, exactly
    # symmetric on its B B^T side, and has the nonzero spectrum of B B^T, B
    # the dense projector route's persistent boundary, within PIN_TOL *
    # lambda_max, the larger part's largest eigenvalue.  The 50 clouds check
    # every third critical value; their SVDs and eigensolves would otherwise
    # take most of a minute
    complexes = [(six_complex, 1), (icosahedron_complex, 1)] + [
        (alpha_complex(random_cloud(seed, n, d), seed=seed), 3) for seed, n, d in CLOUDS_4
    ]
    integer = {}  # (i, q, n) -> lambda_max of the integer part
    exact, projected = set(), 0
    for i, (cx, stride) in enumerate(complexes):
        boundaries = [reference_boundary(cx, k) for k in range(cx.max_dim + 2)]

        def check_integer(q, n):
            if (i, q, n) not in integer:
                part = spectra._down_matrix(full_boundary(cx, q), n)
                assert np.array_equal(part, _integer_gram(boundaries[q][:, :n])), (i, q, n)
                integer[i, q, n] = np.linalg.eigvalsh(part)[-1] if len(part) else 0.0
            return integer[i, q, n]

        crit = critical_alphas(cx)
        for p in (0.0, (crit[-1] - crit[0]) / 3.0):
            for q in range(min(cx.max_dim, 2) + 1):
                for a in crit[::stride]:
                    s_t, s_tp = snapshot_counts(cx, a), snapshot_counts(cx, a + p)
                    if s_t[q] == 0:
                        continue
                    lambda_down = check_integer(q, s_t[q])
                    up = full_boundary(cx, q + 1)
                    c, u = persistent_boundary(up, s_t[q], s_tp[q + 1])
                    if s_tp[q + 1] == s_t[q + 1]:
                        assert (c, u.shape[1]) == (s_t[q + 1], 0)
                        check_integer(q + 1, c)
                        exact.add((i, q, s_t))
                        continue
                    projected += 1
                    if not u.shape[1]:
                        check_integer(q + 1, c)
                        continue
                    part = spectra._projected_matrix(up, c, u)
                    if len(part) == u.shape[0]:  # the B B^T side
                        assert np.array_equal(part, part.T)
                    eigs = np.linalg.eigvalsh(_lower(part))
                    assert eigs[0] >= -1e-9 * max(1.0, eigs[-1])
                    b = reference_persistent_boundary(up, s_t, s_tp)
                    ref = np.linalg.eigvalsh(b @ b.T)
                    error = np.max(np.abs(eigs - ref[len(ref) - len(eigs):]))
                    assert error <= PIN_TOL * max(lambda_down, ref[-1]), (i, q, a, p)
    assert len(exact) > 1000 and projected > 1000, (len(exact), projected)


def test_empty_spectrum():
    c = build_complex([(0,)], {(0,): 0.0})
    rec = spectrum_at(c, 2, 1.0)
    assert rec.n_simplices == 0
    assert rec.betti == 0
    assert rec.lambda_min_nonzero is None
    # order 1 takes the same reduction and bisections as every other order:
    # values on either side of the zero threshold 1e-8, and above 100, where
    # the one eigenvalue moves the threshold itself.  A listed zero is an
    # exact 0.0
    for value in (0.0, -1e-17, 3e-9, 1e-8, 2e-8, 1.0, 99.0, 150.0, 1e12):
        matrix = np.array([[value]])
        eigs, betti, lam_min, flags = reference_spectrum(matrix)
        listed = (0.0,) * betti + eigs[betti:]
        fields = spectra._combine(1, [spectra._solve(matrix)], full=True)
        assert fields == (listed, betti, lam_min, 1, flags), value


def test_sweep_six_points(six_complex):
    crit = critical_alphas(six_complex)
    recs = sweep(six_complex, [1], crit, p=0.0)
    by_alpha = {round(r.alpha, 6): r for r in recs}
    at_06 = max(a for a in by_alpha if a <= 0.6)
    assert by_alpha[at_06].betti == 1
    for a, r in by_alpha.items():
        if a >= 0.83:
            assert r.betti == 0
    # q=0 at 0.2: six components
    recs0 = sweep(six_complex, [0], [0.2], p=0.0)
    assert recs0[0].betti == 6


def test_sweep_persistence_monotone_in_p(six_complex):
    crit = critical_alphas(six_complex)
    base = {r.alpha: r.betti for r in sweep(six_complex, [1], crit, p=0.0)}
    persisted = {r.alpha: r.betti for r in sweep(six_complex, [1], crit, p=0.5)}
    for a in base:
        assert persisted[a] <= base[a]


def test_sweep_grid_vs_critical_consistency(six_complex):
    crit = critical_alphas(six_complex)
    grid = np.arange(0.0, 1.0, 0.01)
    grid_recs = {}
    for r in sweep(six_complex, [0, 1], grid, p=0.0):
        grid_recs[(r.q, round(r.alpha, 9))] = r
    for rc in sweep(six_complex, [0, 1], crit, p=0.0):
        # compare with the first grid point at or past this critical value
        later = [
            (q, a)
            for (q, a) in grid_recs
            if q == rc.q and a >= rc.alpha - 1e-12
        ]
        if not later:
            continue
        q, a = min(later, key=lambda t: t[1])
        nxt = [c for c in crit if c > rc.alpha]
        if nxt and a >= nxt[0]:
            continue  # no grid sample inside this critical interval
        assert grid_recs[(q, a)].betti == rc.betti


def test_sweep_identical_between_critical_values(six_complex):
    # no critical value lies in (0.46, 0.50): records there must coincide
    crit = critical_alphas(six_complex)
    assert not [a for a in crit if 0.46 <= a <= 0.50]
    r = sweep(six_complex, [1], [0.46, 0.48, 0.50], p=0.0, full=True)
    assert r[0].eigenvalues == r[1].eigenvalues == r[2].eigenvalues


def test_targeted_solve_matches_dense_reference():
    # on every third critical value of the 50 oracle clouds at p = 0 and
    # span/3, a full record agrees with every eigenvalue of the dense
    # projector route's Laplacian (see _agrees_with_reference), and without
    # full only the eigenvalues are left out
    checked = 0
    for seed, n, d in CLOUDS_4:
        cx = alpha_complex(random_cloud(seed, n, d), seed=seed)
        crit = critical_alphas(cx)
        for p in (0.0, (crit[-1] - crit[0]) / 3.0):
            for q in (0, 1, 2):
                for a in crit[::3]:
                    rec = spectrum_at(cx, q, a, p, full=True)
                    if rec.n_simplices == 0:
                        continue
                    _agrees_with_reference(rec, cx)
                    assert spectrum_at(cx, q, a, p) == replace(rec, eigenvalues=())
                    checked += 1
    assert checked > 5000, checked


def test_clustered_top_eigenvalues(monkeypatch):
    # criterion 4's cloud 120 at its 14th critical value, q = 1, p = 2 span/3:
    # the four largest eigenvalues lie within 4e-15 of 4.  An index bisection
    # that comes back short (LAPACK dstebz info 2, where eigenvalues closer
    # than its tolerance straddle a split of the tridiagonal) falls back to
    # bisecting every nonzero eigenvalue, to the same record
    def record():
        cx = alpha_complex(random_cloud(120, 28, 2), seed=120)  # no solved parts
        crit = critical_alphas(cx)
        rec = spectrum_at(cx, 1, crit[13], 2 * (crit[-1] - crit[0]) / 3, full=True)
        _agrees_with_reference(rec, cx)
        return rec

    rec = record()
    real = lapack.dstebz

    def short_by_index(t, which, *args, **bounds):
        w = real(t, which, *args, **bounds)
        return w[:0] if which == spectra._INDICES else w

    monkeypatch.setattr(lapack, "dstebz", short_by_index)
    assert record() == rec


def _count_reductions(monkeypatch) -> list:
    """The orders of the matrices lapack.dsytrd reduces from now on."""
    orders, real = [], lapack.dsytrd

    def counting(a):
        orders.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(lapack, "dsytrd", counting)
    return orders


def _agrees_with_reference(rec, cx) -> None:
    # a record from the Hodge parts against reference_spectrum() of the dense
    # projector route's Laplacian: equal Betti number, flags and
    # n_simplices, lambda_min_nonzero within PIN_TOL * lambda_max, and listed
    # eigenvalues within PIN_TOL * max(lambda_max, 1), the first betti of
    # them exact zeros
    eigs, betti, lam_min, flags = reference_spectrum(
        reference_laplacian(cx, rec.q, rec.alpha, rec.p)
    )
    key = (rec.q, rec.alpha, rec.p)
    assert (rec.betti, rec.flags, rec.n_simplices) == (betti, flags, len(eigs)), key
    if lam_min is None:
        assert rec.lambda_min_nonzero is None, key
    else:
        assert abs(rec.lambda_min_nonzero - lam_min) <= PIN_TOL * eigs[-1], key
    if rec.eigenvalues:
        assert rec.eigenvalues[:betti] == (0.0,) * betti, key
        error = np.max(np.abs(np.array(rec.eigenvalues) - eigs))
        assert error <= PIN_TOL * max(eigs[-1], 1.0), key


def test_sweep_builds_one_laplacian_per_count_key(monkeypatch):
    # L_1 depends only on the edge and triangle counts at alpha and alpha + p,
    # so a tetrahedron entering alone leaves it unchanged: the parts solved
    # for the first alpha serve both, and a sweep over both alphas reduces
    # as many matrices as one record at the first alpha on a fresh complex
    values = {
        s: float(len(s) - 1) for k in range(1, 5) for s in itertools.combinations(range(4), k)
    }
    alphas = [math.sqrt(2.0), math.sqrt(3.0)]
    cx = build_complex(list(values), values)
    assert [snapshot_counts(cx, a) for a in alphas] == [(4, 6, 4, 0), (4, 6, 4, 1)]
    reduced = _count_reductions(monkeypatch)
    spectrum_at(build_complex(list(values), values), 1, alphas[0])
    alone = len(reduced)
    reduced.clear()
    first, second = sweep(cx, [1], alphas)
    # the down part B_1^T B_1 and the up part, the down part of q = 2
    assert len(reduced) == alone == 2
    assert replace(first, alpha=alphas[1]) == second == spectrum_at(cx, 1, alphas[1])
    assert len(reduced) == 2

    # L_0^{alpha,p} reads the edges at alpha + p, not those at alpha: a second
    # edge entering between the two alphas, present at both alpha + p, leaves
    # the key (0, N_0(alpha), N_1(alpha + p)) and the matrix unchanged.  The
    # down part of q = 0 is empty, and the up part is B_1^T B_1 on both edges
    values = {(0,): 0.0, (1,): 0.0, (2,): 0.0, (0, 1): 1.0, (1, 2): 4.0}
    cx = build_complex(list(values), values)
    alphas, p = [1.0, 2.0], 3.0
    assert [snapshot_counts(cx, a) for a in alphas] == [(3, 1, 0, 0), (3, 2, 0, 0)]
    assert [snapshot_counts(cx, a + p)[1] for a in alphas] == [2, 2]
    reduced.clear()
    first, second = sweep(cx, [0], alphas, p=p)
    assert reduced == [2]
    assert replace(first, alpha=alphas[1]) == second
    _agrees_with_reference(second, cx)


def test_equal_keys_give_equal_laplacians(cloud20_complex, chain_clean_complex):
    # every two (alpha, p) with equal (q, N_q(alpha), N_{q+1}(alpha + p)), at
    # p = 0 or span/3, give the same record but for alpha and p.  Every sweep
    # record equals the spectrum_at one, and agrees with the dense projector
    # route's Laplacian (see _agrees_with_reference), checked once per key
    complexes = [cloud20_complex, chain_clean_complex] + [
        alpha_complex(random_cloud(seed, n, d), seed=seed) for seed, n, d in CLOUDS_4
    ]
    repeats = checked = 0
    for cx in complexes:
        crit = critical_alphas(cx)
        first = {}  # key -> record
        for p in (0.0, (crit[-1] - crit[0]) / 3.0):
            for q in (0, 1, 2):
                for a, from_sweep in zip(crit, sweep(cx, [q], crit, p)):
                    assert from_sweep == spectrum_at(cx, q, a, p), (q, a, p)
                    key = (q, snapshot_counts(cx, a)[q], snapshot_counts(cx, a + p)[q + 1])
                    if key in first:
                        assert replace(first[key], alpha=a, p=p) == from_sweep, (key, a, p)
                        repeats += 1
                        continue
                    first[key] = from_sweep
                    if from_sweep.n_simplices:
                        _agrees_with_reference(from_sweep, cx)
                    checked += 1
    assert repeats > 10000 and checked > 5000, (repeats, checked)


def test_record_memo_hides_no_order_error_and_keeps_no_failure(six_points, monkeypatch):
    # a key's record is kept on the complex, yet a p < 0 whose key
    # (q, N_q(alpha), N_{q+1}(alpha + p)) is that of a solved record still
    # raises: the snapshot order is checked before the lookup
    values = {
        s: float(len(s) - 1) for k in range(1, 5) for s in itertools.combinations(range(4), k)
    }
    cx = build_complex(list(values), values)
    a, p = math.sqrt(3.0), -0.01
    assert snapshot_counts(cx, a + p)[2] == snapshot_counts(cx, a)[2]
    spectrum_at(cx, 1, a, 0.0)
    with pytest.raises(SnapshotOrderViolation):
        spectrum_at(cx, 1, a, p)

    # a solve that raises keeps nothing: once LAPACK converges again, the
    # same complex gives the record a fresh one gives
    def failing(*args, **bounds):
        raise EigensolveFailure("LAPACK dstebz failed (info=1)")

    monkeypatch.setattr(lapack, "dstebz", failing)
    cx = alpha_complex(six_points)
    with pytest.raises(EigensolveFailure):
        spectrum_at(cx, 1, 0.6, 0.3)
    monkeypatch.undo()
    assert spectrum_at(cx, 1, 0.6, 0.3) == spectrum_at(alpha_complex(six_points), 1, 0.6, 0.3)


def test_parts_share_solves_across_keys_q_and_p(monkeypatch):
    # validate on the 20-point cloud sweeps q = 0, 1, 2 at p = 0 and 0.3: the
    # down part is shared by every key with the same (q, N_q(alpha)), and an
    # up part without projected columns is a down part of q + 1, so the run
    # reduces fewer matrices than it has distinct keys
    import contextlib
    import io

    from pslap.cli import main
    from pslap.dataio import read_xyz

    path = str(pathlib.Path(__file__).parent / "data" / "cloud20_3d.xyz")
    reduced = _count_reductions(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["validate", "--input", path, "--q", "0,1,2", "--p", "0,0.3"]) == 0
    cx = alpha_complex(read_xyz(path))
    keys = {
        (q, snapshot_counts(cx, a)[q], snapshot_counts(cx, a + p)[q + 1])
        for q in (0, 1, 2) for p in (0.0, 0.3) for a in critical_alphas(cx)
    }
    assert 0 < len(reduced) < len(keys), (len(reduced), len(keys))


def _fresh(name: str):
    """A complex of its own, whose memo no other test fills."""
    return alpha_complex(read_xyz(pathlib.Path(__file__).parent / "data" / name))


def test_persistent_boundary_runs_once_per_uncertified_key(monkeypatch):
    # the sweep plans each key (q, N_q(alpha), N_{q+1}(alpha + p)) once and
    # calls persistent_boundary only where the Z2 pivot count cannot prove
    # the kernel of Diff empty: never at p = 0, never for a certified key,
    # once for every other key, and not again once its part is kept
    calls, real = [], spectra.persistent_boundary

    def counting(full, r_t, c_p):
        calls.append((full.q - 1, r_t, c_p))
        return real(full, r_t, c_p)

    monkeypatch.setattr(spectra, "persistent_boundary", counting)
    certified, uncertified = set(), set()  # (input, q, n, m)
    for name in ("cloud20_3d.xyz", "chain_clean.xyz"):
        cx = _fresh(name)
        crit = critical_alphas(cx)
        sweep(cx, [0, 1, 2], crit)
        assert calls == [], name
        solved = set()
        for p in (0.3, 0.5):
            calls.clear()
            sweep(cx, [0, 1, 2], crit, p=p)
            keys = {(q, snapshot_counts(cx, a)[q], snapshot_counts(cx, a + p)[q + 1])
                    for q in (0, 1, 2) for a in crit}
            expected = set()
            for q, n, m in keys:
                up = full_boundary(cx, q + 1)
                c = int(split(up, n, m))
                if n and c < m:
                    if kernel_is_trivial(up, n, c, m):
                        certified.add((name, q, n, m))
                    else:
                        expected.add((q, n, m))
            assert len(calls) == len(set(calls)), name
            assert set(calls) == expected - solved, (name, p)
            solved |= expected
            calls.clear()
            sweep(cx, [0, 1, 2], crit, p=p, full=True)
            assert calls == [], name
        uncertified |= {(name, *key) for key in solved}
    assert len(certified) > 10 and len(uncertified) > 10, (len(certified), len(uncertified))


@pytest.mark.parametrize("name", ["cloud20_3d.xyz", "chain_clean.xyz", "grid4.xyz"])
def test_sweep_records_equal_spectrum_at(name):
    # spectrum_at is the one-alpha case of the sweep's planner: on a complex
    # of its own, it gives every sweep record
    swept, single = _fresh(name), _fresh(name)
    crit = critical_alphas(swept)
    for p in (0.0, 0.3, 0.5):
        records = sweep(swept, [0, 1, 2], crit, p=p)
        assert [(r.q, r.alpha) for r in records] == [(q, a) for q in (0, 1, 2) for a in crit.tolist()]
        for rec in records:
            assert rec == spectrum_at(single, rec.q, rec.alpha, p), (rec.q, rec.alpha, p)


def test_failed_part_flags_its_run_and_no_other_row(monkeypatch):
    # an up part whose solve raises fails the run of alphas with its key,
    # each row flagged, and no other row; the complex keeps nothing of it,
    # and spectrum_at at one of those alphas raises the error
    p, q = 0.3, 1
    clean = sweep(_fresh("cloud20_3d.xyz"), [q], critical_alphas(_fresh("cloud20_3d.xyz")), p=p)
    cx = _fresh("cloud20_3d.xyz")
    crit = critical_alphas(cx)
    runs: dict = {}  # uncertified key -> its alphas
    for a in crit.tolist():
        n, m = snapshot_counts(cx, a)[q], snapshot_counts(cx, a + p)[q + 1]
        up = full_boundary(cx, q + 1)
        c = int(split(up, n, m))
        if c < m and not kernel_is_trivial(up, n, c, m):
            runs.setdefault((n, m), []).append(a)
    key, alphas = max(runs.items(), key=lambda item: len(item[1]))
    assert len(alphas) >= 2 and len(runs) >= 2
    real = spectra._solve_up

    def failing(up, n, m):
        if (n, m) == key:
            raise EigensolveFailure("LAPACK dstebz failed (info=1)")
        return real(up, n, m)

    monkeypatch.setattr(spectra, "_solve_up", failing)
    records = sweep(cx, [q], crit, p=p)
    for rec, ref in zip(records, clean, strict=True):
        if rec.alpha in alphas:
            assert rec == SpectrumRecord(q, rec.alpha, p, (), 0, None, key[0],
                                         ("failed:EigensolveFailure",))
        else:
            assert rec == ref
    assert cx.derived(("up part", q, *key)) is None
    with pytest.raises(EigensolveFailure):
        spectrum_at(cx, q, alphas[0], p)


def test_out_of_order_rows_are_flagged():
    # p < 0 puts the later snapshot before the earlier: each such row is
    # flagged failed:SnapshotOrderViolation with its N_q(alpha), and the
    # sweep goes on; an alpha + p below 0 is a ValueError
    cx = _fresh("six_points.xyz")
    crit = critical_alphas(cx)
    records = sweep(cx, [0, 1], crit[1:], p=-1e-3)
    assert records and all(
        rec.flags == ("failed:SnapshotOrderViolation",) and rec.betti == 0
        and rec.n_simplices == snapshot_counts(cx, rec.alpha)[rec.q]
        for rec in records
    )
    with pytest.raises(ValueError):
        sweep(cx, [1], [0.1], p=-0.2)
    with pytest.raises(ValueError):
        spectrum_at(cx, 1, math.nan)


def test_full_sweep_runs_one_dsterf_per_part(monkeypatch):
    # a --json sweep lists each record's nonzero eigenvalues from its parts'
    # stored tridiagonal forms: at most one dsterf per solved part with a
    # nonzero eigenvalue, however many record keys read the part
    from pslap.dataio import read_xyz

    cx = alpha_complex(read_xyz(pathlib.Path(__file__).parent / "data" / "cloud20_3d.xyz"))
    solved, calls = [], []
    real_solve, real_dsterf = spectra._solve, lapack.dsterf

    def solve(matrix):
        solved.append(real_solve(matrix))
        return solved[-1]

    def dsterf(t):
        calls.append(t.n)
        return real_dsterf(t)

    monkeypatch.setattr(spectra, "_solve", solve)
    monkeypatch.setattr(lapack, "dsterf", dsterf)
    records = sweep(cx, [0, 1, 2], critical_alphas(cx), p=0.3, full=True)
    with_nonzero = sum(part.zeros < part.order for part in solved)
    assert 0 < len(calls) <= with_nonzero < len(records), (len(calls), with_nonzero)


def _solving_threads(monkeypatch) -> list:
    """(pooled, order) of every matrix spectra._solve solves from now on,
    pooled if a thread other than the caller's solved it."""
    solved, real, caller = [], spectra._solve, threading.current_thread()

    def solve(matrix):
        solved.append((threading.current_thread() is not caller, len(matrix)))
        return real(matrix)

    monkeypatch.setattr(spectra, "_solve", solve)
    return solved


def test_sweep_records_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    # the pool only moves where each part is solved: 1, 2 and 4 workers give
    # equal records from the same solves.  With more than one, the parts of
    # order POOL_MIN_ORDER and up are solved in the pool, which is kept for
    # the next sweep, and the others in the calling thread.  A short switch
    # interval makes the threads interleave often
    assert spectra.POOL_MIN_ORDER > lapack._SPARE_MAX_ORDER
    pdb = chain48_pdb(tmp_path)
    solved = _solving_threads(monkeypatch)
    records, orders = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 4):
            monkeypatch.setattr(spectra, "WORKERS", workers)
            solved.clear()
            cx = alpha_complex(read_pdb_ca(pdb))
            records.append(sweep(cx, [0, 1, 2], critical_alphas(cx), p=0.5))
            pooled = [order for in_pool, order in solved if in_pool]
            assert bool(pooled) == (workers > 1), workers
            assert min(pooled, default=spectra.POOL_MIN_ORDER) >= spectra.POOL_MIN_ORDER
            orders.append(sorted(order for _, order in solved))
    finally:
        sys.setswitchinterval(interval)
    assert records[0] == records[1] == records[2]
    assert orders[0] == orders[1] == orders[2]
    pool = spectra._pool
    cx = alpha_complex(read_pdb_ca(pdb))
    sweep(cx, [1], critical_alphas(cx)[::8], p=0.5)
    assert spectra._pool is pool


def test_failed_pooled_part_fails_its_records_as_a_serial_sweep_does(tmp_path, monkeypatch):
    # dstebz fails on every matrix of one order that only the pool solves:
    # the records that read those parts are flagged failed:EigensolveFailure
    # alike with and without the pool, and the complex keeps no part of that
    # order
    pdb = chain48_pdb(tmp_path)
    cx = alpha_complex(read_pdb_ca(pdb))
    alphas = critical_alphas(cx)[::4]
    monkeypatch.setattr(spectra, "WORKERS", 2)
    solved = _solving_threads(monkeypatch)
    sweep(cx, [1], alphas, p=0.5)
    inline = {order for in_pool, order in solved if not in_pool}
    order = max(order for in_pool, order in solved if in_pool and order not in inline)
    failed, real, caller = [], lapack.dstebz, threading.current_thread()

    def dstebz(t, *args, **bounds):
        if t.n == order:
            failed.append(threading.current_thread() is not caller)
            raise EigensolveFailure("LAPACK dstebz failed (info=1)")
        return real(t, *args, **bounds)

    monkeypatch.setattr(lapack, "dstebz", dstebz)
    runs = []
    for workers in (2, 1):
        monkeypatch.setattr(spectra, "WORKERS", workers)
        failed.clear()
        cx = alpha_complex(read_pdb_ca(pdb))
        runs.append(sweep(cx, [1], alphas, p=0.5))
        assert failed and any(failed) == (workers > 1), workers
        kept = [value for key, value in cx._derived.items() if key[0] in ("down part", "up part")]
        assert not [v for v in kept if isinstance(v, spectra.HodgePart) and v.order == order]
    pooled, serial = runs
    assert pooled == serial
    assert 0 < sum(r.flags == ("failed:EigensolveFailure",) for r in pooled) < len(pooled)


def test_sweep_gives_the_blas_thread_count_back(tmp_path, monkeypatch):
    # a sweep solves on one OpenBLAS thread, in the pool's threads too, and
    # gives the caller's count back after it, also when it raises
    import ctypes

    get, set_ = lapack._library().threads
    seen, real = [], lapack.dsytrd

    def dsytrd(a):
        seen.append(get())
        return real(a)

    def broken(*args, **bounds):
        raise RuntimeError("not a PslapError")

    monkeypatch.setattr(lapack, "dsytrd", dsytrd)
    monkeypatch.setattr(spectra, "WORKERS", 2)
    pdb = chain48_pdb(tmp_path)
    before = get()
    set_(ctypes.c_int(2))
    try:
        cx = alpha_complex(read_pdb_ca(pdb))
        alphas = critical_alphas(cx)[::8]
        sweep(cx, [1], alphas, p=0.5)
        assert seen and set(seen) == {1} and get() == 2
        monkeypatch.setattr(lapack, "dstebz", broken)
        with pytest.raises(RuntimeError, match="not a PslapError"):
            sweep(alpha_complex(read_pdb_ca(pdb)), [1], alphas, p=0.5)
        assert get() == 2
    finally:
        set_(ctypes.c_int(before))


def test_forked_child_makes_a_pool_of_its_own(tmp_path, monkeypatch):
    # the parent's pool threads do not exist in a forked child, so the
    # child's first pooled sweep makes a new pool instead of queueing jobs
    # that no thread takes
    import multiprocessing

    monkeypatch.setattr(spectra, "WORKERS", 2)
    cx = alpha_complex(read_pdb_ca(chain48_pdb(tmp_path)))
    alphas = critical_alphas(cx)[::8]
    expected = sweep(cx, [1], alphas, p=0.5)
    assert spectra._pool is not None

    def child(queue):
        fresh = alpha_complex(read_pdb_ca(tmp_path / "chain48.pdb"))
        queue.put(sweep(fresh, [1], alphas, p=0.5) == expected)

    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    process = context.Process(target=child, args=(queue,), daemon=True)
    process.start()
    try:
        assert queue.get(timeout=60)
        process.join(timeout=10)
        assert process.exitcode == 0
    finally:
        process.kill()


def test_sweep_of_no_q_or_no_alpha_is_empty(cloud20_complex, monkeypatch):
    # cloud20_3d has 97 edges, so a q=1 sweep may pool; with no alpha it
    # plans nothing, and with no q it has no simplex count to check
    monkeypatch.setattr(spectra, "WORKERS", 2)
    assert sweep(cloud20_complex, [], critical_alphas(cloud20_complex), p=0.3) == []
    assert sweep(cloud20_complex, [1], [], p=0.3) == []


def test_sweep_is_serial_where_the_pin_cannot_take_effect(tmp_path, monkeypatch):
    # the scipy.linalg.cython_lapack fallback has no thread setter here, so
    # the sweep solves every part in the calling thread
    monkeypatch.setattr(lapack, "_lib", lapack._cython_lapack())
    monkeypatch.setattr(spectra, "WORKERS", 2)
    with lapack.one_blas_thread() as pinned:
        assert not pinned
    solved = _solving_threads(monkeypatch)
    cx = alpha_complex(read_pdb_ca(chain48_pdb(tmp_path)))
    sweep(cx, [1], critical_alphas(cx)[::8], p=0.5)
    assert solved and not any(in_pool for in_pool, _ in solved)
    assert max(order for _, order in solved) >= spectra.POOL_MIN_ORDER


def test_larger_lambda_max_of_one_part_sets_the_threshold(monkeypatch):
    # the first part's lambda_max of 1e4 sets the zero threshold at 1e-6,
    # above the second part's 1e-7, which its own threshold of 1e-8 counted
    # as nonzero: the record bisects that part's stored form again, reducing
    # nothing, and counts 1e-7 as a zero, and gap_ambiguous compares it with
    # 1e-5, the second part's next value.  The record equals
    # reference_spectrum() of the block-diagonal whole, its listed zeros
    # exact
    big, small = np.diag([1e4, 1.0]), np.diag([1e-7, 1e-5, 2.0])
    parts = [spectra._solve(matrix) for matrix in (big, small)]
    assert parts[1].zeros == 0 and parts[1].lambda_min == pytest.approx(1e-7)
    n = 6  # one more simplex than the parts' orders: one harmonic chain
    reduced = _count_reductions(monkeypatch)
    eigenvalues, betti, lam_min, order, flags = spectra._combine(n, parts, full=True)
    assert reduced == []
    whole = np.zeros((n, n))
    whole[:2, :2], whole[2:5, 2:5] = big, small
    eigs, ref_betti, ref_lam_min, ref_flags = reference_spectrum(whole)
    assert (betti, flags, order) == (ref_betti, ref_flags, n) == (2, ("gap_ambiguous",), n)
    assert lam_min == pytest.approx(ref_lam_min) == pytest.approx(1e-5)
    assert eigenvalues[:2] == (0.0, 0.0)  # 1e-7 is listed as a zero
    assert np.max(np.abs(np.array(eigenvalues[2:]) - eigs[2:])) <= PIN_TOL * eigs[-1]
    # in the other order the parts combine alike
    assert spectra._combine(n, parts[::-1], full=True) == (eigenvalues, betti, lam_min, n, flags)


def test_repeated_zero_above_order_2000():
    # 2100 vertices, so L_0 has order 2100: beta_0 is 21 at alpha = 1.45 and
    # 4 at 1.65, one zero eigenvalue per component.  The Sturm count sees
    # every copy of the repeated zero; Lanczos from one start vector found
    # 3 at both alphas
    points = np.round(np.random.default_rng(5).uniform(0, 100, (2100, 2)), 3)
    cx = alpha_complex(PointSet(points))
    oracle = BettiOracle(cx)
    records = sweep(cx, [0], [1.45, 1.65])
    assert [rec.n_simplices for rec in records] == [2100, 2100]
    assert [rec.betti for rec in records] == [oracle.betti(0, a, 0.0) for a in (1.45, 1.65)]
    assert [rec.betti for rec in records] == [21, 4]
    assert all(rec.flags == () for rec in records)


def test_import_loads_no_scipy():
    # LAPACK comes from numpy's bundled OpenBLAS, so importing pslap leaves
    # scipy (and its import time and memory) out; so does it the sweep's
    # thread pool, which the first sweep that pools a part makes.  Checked
    # in a fresh interpreter
    src = str(pathlib.Path(spectra.__file__).parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    code = ("import sys, pslap; print('scipy' in sys.modules, "
            "'concurrent.futures' in sys.modules, pslap.spectra._pool)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == ["False", "False", "None"]


def test_accumulated_diagonal_rules():
    single = build_complex([(0,)], {(0,): 0.0})
    assert np.array_equal(accumulated_laplacian_diagonal(single, [0.0, 1.0]), [1.0])

    pair = build_complex(
        [(0,), (1,), (0, 1)], {(0,): 0.0, (1,): 0.0, (0, 1): 1.0}
    )
    out = accumulated_laplacian_diagonal(pair, [0.5, 1.0, 1.5])
    assert np.array_equal(out, [1.0, 1.0])

    # 3 collinear equally spaced points: middle vertex dominates
    h = 2.0
    path = build_complex(
        [(0,), (1,), (2,), (0, 1), (1, 2)],
        {(0,): 0.0, (1,): 0.0, (2,): 0.0, (0, 1): (h / 2) ** 2, (1, 2): (h / 2) ** 2},
    )
    out = accumulated_laplacian_diagonal(path, [0.0, h / 2])
    assert out[1] == 1.0
    assert out[0] < 1.0 and out[2] < 1.0
    assert np.allclose(out, [0.5, 1.0, 0.5])

    # an edge is credited at its own value even after the sqrt/square round
    # trip loses it (sqrt(v)**2 < v for both values), and not just below it,
    # exactly as its snapshot counts it
    v1, v2 = 0.3700000000000001, 0.7400000000000002
    path = build_complex(
        [(0,), (1,), (2,), (0, 1), (1, 2)],
        {(0,): 0.0, (1,): 0.0, (2,): 0.0, (0, 1): v1, (1, 2): v2},
    )
    at = [np.sqrt(v1), np.sqrt(v2)]
    below = [np.sqrt(v1), np.sqrt(v2) * (1 - 1e-9)]
    assert [snapshot_counts(path, a)[1] for a in at] == [1, 2]
    assert [snapshot_counts(path, a)[1] for a in below] == [1, 1]
    assert np.array_equal(accumulated_laplacian_diagonal(path, at), [2 / 3, 1.0, 1 / 3])
    assert np.array_equal(accumulated_laplacian_diagonal(path, below), [1.0, 1.0, 0.0])


def test_memo_does_not_grow_with_the_alphas():
    # the complex keeps what it derives from counts, not from each alpha:
    # 10 or 1 000 alphas between two critical values, through the
    # accumulated diagonal and a sweep, leave as many entries on a fresh
    # complex
    sizes = []
    for count in (10, 1000):
        cx = _fresh("cloud20_3d.xyz")
        crit = critical_alphas(cx)
        alphas = np.linspace(crit[len(crit) // 2], crit[len(crit) // 2 + 1], count, endpoint=False)
        assert len(set(alphas.tolist())) == count
        accumulated_laplacian_diagonal(cx, alphas)
        sweep(cx, [0, 1, 2], alphas)
        sizes.append(len(cx._derived))
    assert sizes[0] == sizes[1], sizes


def test_detect_anomalies_fixture():
    import pathlib

    from pslap.dataio import read_xyz

    data = pathlib.Path(__file__).parent / "data"
    pts = read_xyz(data / "chain_defect.xyz")
    c = alpha_complex(pts)
    res = detect_anomalies(c, pts, 3.0)
    assert len(res) == 1
    (pair, dist) = res[0]
    assert pair == (5, 6)
    assert np.isclose(dist, 2.9, atol=1e-9)

    clean = read_xyz(data / "chain_clean.xyz")
    cc = alpha_complex(clean)
    assert detect_anomalies(cc, clean, 3.0) == []


def test_icosahedron_beta2_window(icosahedron_complex):
    # hollow shell: single 2-cycle alive between face fill and interior fill
    rec = spectrum_at(icosahedron_complex, 2, 1.5)
    assert rec.betti == 1
    assert spectrum_at(icosahedron_complex, 2, 2.0).betti == 0
    assert spectrum_at(icosahedron_complex, 1, 1.5).betti == 0
    assert spectrum_at(icosahedron_complex, 0, 1.5).betti == 1
