import itertools
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    build_complex,
    random_cloud,
    reference_boundary,
    reference_laplacian,
    reference_spectrum,
    row_count,
)
from pslap import lapack, spectra
from pslap.alpha import alpha_complex, critical_alphas
from pslap.errors import EigensolveFailure, SnapshotOrderViolation
from pslap.geometry import PointSet
from pslap.oracle import BettiOracle
from pslap.simplices import snapshot
from pslap.spectra import (
    PersistentLaplacian,
    accumulated_laplacian_diagonal,
    detect_anomalies,
    persistent_laplacian,
    spectrum,
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
    lap = persistent_laplacian(six_complex, 0, 0.6, 0.0)
    assert np.array_equal(lap.matrix, TABLE1_L0)


def test_table1_spectra(six_complex):
    for q, expected, betti in [(0, SPEC_L0, 1), (1, SPEC_L1, 1), (2, [3.0], 0)]:
        rec = spectrum_at(six_complex, q, 0.6, full=True)
        assert rec.betti == betti
        assert rec.n_simplices == len(expected)
        assert np.allclose(rec.eigenvalues, expected, atol=5e-5)
        assert not rec.flags


def test_table2_matrix_and_spectrum(six_complex):
    lap = persistent_laplacian(six_complex, 0, 0.2, 0.4)
    assert np.array_equal(lap.matrix, TABLE1_L0)
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


def _integer_laplacian(boundaries, q: int, snap) -> np.ndarray:
    """B_{q+1} B_{q+1}^T + B_q^T B_q at the snapshot, in integer arithmetic
    from the reference boundaries."""
    n = snap.count(q)
    bq = boundaries[q][: row_count(q, snap), :n]
    bup = boundaries[q + 1][:n, : snap.count(q + 1)]
    return bup @ bup.T + bq.T @ bq


def test_psd_and_symmetry(six_complex, icosahedron_complex):
    # every record is a symmetric matrix; one without new (q+1)-simplices is
    # the exact integer Laplacian, and a projected one is PSD and agrees with
    # the dense projector route.  The 50 clouds check every third critical
    # value; their SVDs and eigensolves would otherwise take most of a minute
    complexes = [(six_complex, 1), (icosahedron_complex, 1)] + [
        (alpha_complex(random_cloud(seed, n, d), seed=seed), 3) for seed, n, d in CLOUDS_4
    ]
    exact, projected = {}, 0
    for i, (cx, stride) in enumerate(complexes):
        boundaries = [reference_boundary(cx, k) for k in range(cx.max_dim + 2)]
        crit = critical_alphas(cx)
        for p in (0.0, (crit[-1] - crit[0]) / 3.0):
            for q in range(min(cx.max_dim, 2) + 1):
                for a in crit[::stride]:
                    lap = persistent_laplacian(cx, q, a, p).matrix
                    if lap.shape[0] == 0:
                        continue
                    assert np.array_equal(lap, lap.T)
                    s_t, s_tp = snapshot(cx, a), snapshot(cx, a + p)
                    if s_tp.count(q + 1) == s_t.count(q + 1):
                        key = (i, q, s_t.counts)
                        if key not in exact:
                            exact[key] = _integer_laplacian(boundaries, q, s_t)
                        assert np.array_equal(lap, exact[key])
                        continue
                    eigs = np.linalg.eigvalsh(lap)
                    assert eigs[0] >= -1e-9 * max(1.0, eigs[-1])
                    ref = reference_laplacian(cx, q, a, p)
                    assert np.max(np.abs(lap - ref)) <= PIN_TOL * eigs[-1]
                    projected += 1
    assert len(exact) > 1000 and projected > 1000, (len(exact), projected)


def test_empty_spectrum():
    c = build_complex([(0,)], {(0,): 0.0})
    rec = spectrum_at(c, 2, 1.0)
    assert rec.n_simplices == 0
    assert rec.betti == 0
    assert rec.lambda_min_nonzero is None
    # order 1 takes the same reduction and bisections as every other order:
    # values on either side of the zero threshold 1e-8, and above 100, where
    # the one eigenvalue moves the threshold itself
    for value in (0.0, -1e-17, 3e-9, 1e-8, 2e-8, 1.0, 99.0, 150.0, 1e12):
        lap = PersistentLaplacian(np.array([[value]]), 1, 0.5, 0.0)
        eigs, betti, lam_min, flags = reference_spectrum(lap.matrix)
        rec = spectrum(lap, full=True)
        assert (rec.eigenvalues, rec.betti, rec.lambda_min_nonzero, rec.flags) == (
            eigs, betti, lam_min, flags,
        ), value
        assert rec.n_simplices == 1


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
    # span/3: the Betti number and flags equal those of a full eigvalsh, so do
    # the full eigenvalues to the last bit, lambda_min_nonzero agrees within
    # PIN_TOL * lambda_max, and without full only the eigenvalues are left out
    checked = 0
    for seed, n, d in CLOUDS_4:
        cx = alpha_complex(random_cloud(seed, n, d), seed=seed)
        crit = critical_alphas(cx)
        for p in (0.0, (crit[-1] - crit[0]) / 3.0):
            for q in (0, 1, 2):
                for a in crit[::3]:
                    lap = persistent_laplacian(cx, q, a, p)
                    if lap.n_simplices == 0:
                        continue
                    eigs, betti, lam_min, flags = reference_spectrum(lap.matrix)
                    rec = spectrum(lap, full=True)
                    assert rec.eigenvalues == eigs, (seed, q, a, p)
                    assert (rec.betti, rec.flags) == (betti, flags), (seed, q, a, p)
                    if lam_min is None:
                        assert rec.lambda_min_nonzero is None
                    else:
                        assert abs(rec.lambda_min_nonzero - lam_min) <= PIN_TOL * eigs[-1]
                    assert spectrum(lap) == replace(rec, eigenvalues=())
                    checked += 1
    assert checked > 5000, checked


def test_clustered_top_eigenvalues(monkeypatch):
    # criterion 4's cloud 120 at its 14th critical value, q = 1, p = 2 span/3:
    # the four largest eigenvalues lie within 4e-15 of 4 and the tridiagonal
    # splits there, where an index bisection for lambda_max comes back short
    # (LAPACK dstebz info 2).  A short index range for lambda_min_nonzero
    # falls back to bisecting every nonzero eigenvalue, to the same record
    cx = alpha_complex(random_cloud(120, 28, 2), seed=120)
    crit = critical_alphas(cx)
    lap = persistent_laplacian(cx, 1, crit[13], 2 * (crit[-1] - crit[0]) / 3)
    eigs, betti, lam_min, flags = reference_spectrum(lap.matrix)
    rec = spectrum(lap)
    assert (rec.betti, rec.flags) == (betti, flags)
    assert abs(rec.lambda_min_nonzero - lam_min) <= PIN_TOL * eigs[-1]
    real = lapack.dstebz

    def short_by_index(t, which, *args):
        w, info = real(t, which, *args)
        if which == spectra._INDICES:
            w, info = w[:0], 2
        return w, info

    monkeypatch.setattr(lapack, "dstebz", short_by_index)
    fallback = spectrum(lap)
    assert (fallback.betti, fallback.flags) == (betti, flags)
    assert abs(fallback.lambda_min_nonzero - lam_min) <= PIN_TOL * eigs[-1]


def _count_reductions(monkeypatch) -> list:
    """The orders of the matrices lapack.dsytrd reduces from now on."""
    orders, real = [], lapack.dsytrd

    def counting(a):
        orders.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(lapack, "dsytrd", counting)
    return orders


def _agrees_with_whole_matrix(rec, lap) -> None:
    # a record from the Hodge parts against spectrum() on the whole matrix:
    # equal Betti number, flags and n_simplices, lambda_min_nonzero within
    # PIN_TOL * lambda_max
    whole = spectrum(lap, full=True)
    assert (rec.betti, rec.flags, rec.n_simplices) == (whole.betti, whole.flags, whole.n_simplices)
    if whole.lambda_min_nonzero is None:
        assert rec.lambda_min_nonzero is None
    else:
        tol = PIN_TOL * whole.eigenvalues[-1]
        assert abs(rec.lambda_min_nonzero - whole.lambda_min_nonzero) <= tol


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
    assert [snapshot(cx, a).counts for a in alphas] == [(4, 6, 4, 0), (4, 6, 4, 1)]
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
    assert [snapshot(cx, a).counts for a in alphas] == [(3, 1, 0, 0), (3, 2, 0, 0)]
    assert [snapshot(cx, a + p).count(1) for a in alphas] == [2, 2]
    reduced.clear()
    first, second = sweep(cx, [0], alphas, p=p)
    assert reduced == [2]
    assert replace(first, alpha=alphas[1]) == second
    _agrees_with_whole_matrix(second, persistent_laplacian(cx, 0, alphas[1], p))


def test_equal_keys_give_equal_laplacians(cloud20_complex, chain_clean_complex):
    # every two (alpha, p) with equal (q, N_q(alpha), N_{q+1}(alpha + p)), at
    # p = 0 or span/3, assemble the same matrix bit for bit, and every matrix
    # is exactly symmetric.  Every sweep record equals the spectrum_at one,
    # and agrees with spectrum() on the whole matrix (see
    # _agrees_with_whole_matrix), checked once per key
    complexes = [cloud20_complex, chain_clean_complex] + [
        alpha_complex(random_cloud(seed, n, d), seed=seed) for seed, n, d in CLOUDS_4
    ]
    repeats = checked = 0
    for cx in complexes:
        crit = critical_alphas(cx)
        first = {}  # key -> matrix
        for p in (0.0, (crit[-1] - crit[0]) / 3.0):
            for q in (0, 1, 2):
                for a, from_sweep in zip(crit, sweep(cx, [q], crit, p)):
                    assert from_sweep == spectrum_at(cx, q, a, p), (q, a, p)
                    key = (q, snapshot(cx, a).count(q), snapshot(cx, a + p).count(q + 1))
                    lap = persistent_laplacian(cx, q, a, p)
                    if key in first:
                        assert np.array_equal(lap.matrix, first[key]), (key, a, p)
                        repeats += 1
                        continue
                    assert np.array_equal(lap.matrix, lap.matrix.T), key
                    first[key] = lap.matrix
                    _agrees_with_whole_matrix(from_sweep, lap)
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
    assert snapshot(cx, a + p).count(2) == snapshot(cx, a).count(2)
    spectrum_at(cx, 1, a, 0.0)
    with pytest.raises(SnapshotOrderViolation):
        spectrum_at(cx, 1, a, p)

    # a solve that raises keeps nothing: once LAPACK converges again, the
    # same complex gives the record a fresh one gives
    real = lapack.dstebz
    monkeypatch.setattr(lapack, "dstebz", lambda *args: (*real(*args)[:-1], 1))
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
        (q, snapshot(cx, a).count(q), snapshot(cx, a + p).count(q + 1))
        for q in (0, 1, 2) for p in (0.0, 0.3) for a in critical_alphas(cx)
    }
    assert 0 < len(reduced) < len(keys), (len(reduced), len(keys))


def test_larger_lambda_max_of_one_part_sets_the_threshold():
    # the first part's lambda_max of 1e4 sets the zero threshold at 1e-6,
    # above the second part's 1e-7, which its own threshold of 1e-8 counted
    # as nonzero: the record bisects that part again and counts 1e-7 as a
    # zero, and gap_ambiguous compares it with 1e-5, the second part's next
    # value.  The record equals spectrum() on the block-diagonal whole
    big, small = np.diag([1e4, 1.0]), np.diag([1e-7, 1e-5, 2.0])
    parts = []
    for matrix in (big, small):
        with lapack.dsytrd(matrix) as t:
            parts.append(spectra._part(t, lambda cx, m=matrix: m))
    assert parts[1].zeros == 0 and parts[1].lambda_min == pytest.approx(1e-7)
    n = 6  # one more simplex than the parts' orders: one harmonic chain
    betti, lam_min, flags = spectra._combine(None, n, parts)
    whole = np.zeros((n, n))
    whole[:2, :2], whole[2:5, 2:5] = big, small
    rec = spectrum(PersistentLaplacian(whole, 1, 0.0, 0.0))
    assert (betti, flags) == (rec.betti, rec.flags) == (2, ("gap_ambiguous",))
    assert lam_min == pytest.approx(rec.lambda_min_nonzero) == pytest.approx(1e-5)
    # in the other order the parts combine alike
    assert spectra._combine(None, n, parts[::-1]) == (betti, lam_min, flags)


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
    # scipy (and its import time and memory) out; checked in a fresh
    # interpreter
    src = str(pathlib.Path(spectra.__file__).parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pslap; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["False"]


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
    assert [snapshot(path, a).count(1) for a in at] == [1, 2]
    assert [snapshot(path, a).count(1) for a in below] == [1, 1]
    assert np.array_equal(accumulated_laplacian_diagonal(path, at), [2 / 3, 1.0, 1 / 3])
    assert np.array_equal(accumulated_laplacian_diagonal(path, below), [1.0, 1.0, 0.0])


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
