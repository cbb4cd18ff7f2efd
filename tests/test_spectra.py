import numpy as np
import pytest

from conftest import reference_restriction
from pslap import spectra
from pslap.alpha import alpha_complex, critical_alphas
from pslap.boundary import full_boundary, persistent_boundary
from pslap.errors import DimensionMismatch
from pslap.oracle import BettiOracle
from pslap.simplices import build_complex, snapshot
from pslap.spectra import (
    accumulated_laplacian_diagonal,
    assemble_laplacian,
    detect_anomalies,
    persistent_laplacian,
    spectrum,
    spectrum_at,
    sweep,
)

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
        rec = spectrum_at(six_complex, q, 0.6)
        assert rec.betti == betti
        assert rec.n_simplices == len(expected)
        assert np.allclose(rec.eigenvalues, expected, atol=5e-5)
        assert not rec.flags


def test_table2_matrix_and_spectrum(six_complex):
    lap = persistent_laplacian(six_complex, 0, 0.2, 0.4)
    assert np.array_equal(lap.matrix, TABLE1_L0)
    rec = spectrum_at(six_complex, 0, 0.2, 0.4)
    assert rec.betti == 1
    assert np.allclose(rec.eigenvalues, SPEC_L0, atol=5e-5)


def test_spectrum_record_invariants(six_complex):
    for q in range(3):
        rec = spectrum_at(six_complex, q, 0.6)
        nonzero = sum(1 for x in rec.eigenvalues if x >= 1e-8)
        assert rec.betti + nonzero == rec.n_simplices
        assert list(rec.eigenvalues) == sorted(rec.eigenvalues)
        if rec.lambda_min_nonzero is not None:
            assert rec.lambda_min_nonzero >= 1e-8


def test_psd_and_symmetry(six_complex):
    for q in range(3):
        for a in critical_alphas(six_complex):
            lap = persistent_laplacian(six_complex, q, a)
            if lap.n_simplices == 0:
                continue
            assert np.allclose(lap.matrix, lap.matrix.T, atol=1e-12)
            eigs = np.linalg.eigvalsh(lap.matrix)
            assert eigs[0] >= -1e-9 * max(1.0, eigs[-1])


def test_assemble_dimension_mismatch(six_complex):
    snap = snapshot(six_complex, 0.6)
    b1 = reference_restriction(six_complex, 1, snap)
    pb = persistent_boundary(full_boundary(six_complex, 1), snap, snap)
    with pytest.raises(DimensionMismatch):
        assemble_laplacian(b1, pb)  # up-term rows are edge-counted, not q+1


def test_empty_spectrum():
    c = build_complex([(0,)], {(0,): 0.0})
    rec = spectrum_at(c, 2, 1.0)
    assert rec.n_simplices == 0
    assert rec.betti == 0
    assert rec.lambda_min_nonzero is None


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
    r = sweep(six_complex, [1], [0.46, 0.48, 0.50], p=0.0)
    assert r[0].eigenvalues == r[1].eigenvalues == r[2].eigenvalues


def test_iterative_solver_matches_dense(six_complex, monkeypatch):
    # above the cutoff every record must keep the dense path's zero/nonzero
    # split, including a zero Laplacian (q=0 at alpha=0, where ARPACK fails)
    # and Betti 5 of 6 (q=0 at alpha=0.4383, past the shift-invert window)
    oracle = BettiOracle(six_complex)
    monkeypatch.setattr(spectra, "DENSE_CUTOFF", 3)
    shift_invert = 0
    for q in (0, 1, 2):
        for p in (0.0, 0.3):
            for a in critical_alphas(six_complex):
                lap = persistent_laplacian(six_complex, q, a, p)
                dense = spectra._dense_spectrum(lap)
                it = spectrum(lap)
                assert it.betti == dense.betti == oracle.betti(q, a, p)
                if dense.lambda_min_nonzero is None:
                    assert it.lambda_min_nonzero is None
                else:
                    assert np.isclose(it.lambda_min_nonzero, dense.lambda_min_nonzero, rtol=1e-6)
                shift_invert += "partial_spectrum" in it.flags
    assert shift_invert > 0


def test_iterative_solver_is_reproducible(six_complex, monkeypatch):
    # an unseeded ARPACK start vector moves the last digits from call to call
    monkeypatch.setattr(spectra, "DENSE_CUTOFF", 3)
    shift_invert = 0
    for q in (0, 1, 2):
        for a in critical_alphas(six_complex):
            lap = persistent_laplacian(six_complex, q, a, 0.3)
            first = spectrum(lap)
            assert spectrum(lap) == first  # every field, eigenvalues included
            shift_invert += "partial_spectrum" in first.flags
    assert shift_invert > 0


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
