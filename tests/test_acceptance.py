"""Acceptance suite: one test per criterion, each printing a pass/fail line
(visible with `pytest -s tests/test_acceptance.py`)."""

import json
import os
import pathlib
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    audit_empty_circumspheres,
    euler_characteristic,
    exact_rank_betti,
    harmonic_eigenvalues,
    prefix_states,
    production_boundary,
    random_cloud,
    reference_laplacian,
)
from pslap.alpha import alpha_complex, critical_alphas
from pslap.cli import main
from pslap.dataio import read_pdb_ca, read_xyz
from pslap.oracle import BettiOracle, betti_from_barcode, reduce
from pslap.simplices import snapshot
from pslap.spectra import detect_anomalies, spectrum_at, sweep

DATA = pathlib.Path(__file__).parent / "data"
SIX = str(DATA / "six_points.xyz")

TABLE1 = {
    0: ([0.0, 1.0, 1.5858, 3.0, 4.0, 4.4142], 1),
    1: ([0.0, 1.0, 1.5858, 3.0, 3.0, 4.0, 4.4142], 1),
    2: ([3.0], 0),
}
NAMES = "ABCDEF"


@contextmanager
def criterion(num: int, budget: float, desc: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL: {desc}")
        raise
    elapsed = time.monotonic() - t0
    status = "PASS" if elapsed < budget else "FAIL"
    print(f"\nACCEPTANCE {num} {status} ({elapsed:.1f}s, budget {budget:.0f}s): {desc}")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_table1(tmp_path, six_points, six_complex):
    with criterion(1, 1.0, "Table 1 spectra from cmd_spectra --critical on the 6-point fixture"):
        # the committed fixture realizes exactly the target alpha=0.6 complex
        edges = sorted(
            "".join(NAMES[v] for v in s)
            for s in six_complex.simplices(1)
            if six_complex.filtration_sq(s) <= 0.36
        )
        tris = [
            "".join(NAMES[v] for v in s)
            for s in six_complex.simplices(2)
            if six_complex.filtration_sq(s) <= 0.36
        ]
        assert edges == ["AB", "AE", "BC", "CD", "DE", "DF", "EF"]
        assert tris == ["DEF"]

        out = tmp_path / "six.csv"
        js = tmp_path / "six.json"
        code = main([
            "spectra", "--input", SIX, "--critical", "--q", "0,1,2", "--p", "0",
            "--out", str(out), "--json", str(js),
        ])
        assert code == 0
        payload = json.loads(js.read_text())
        for q, (expected, betti) in TABLE1.items():
            recs = [r for r in payload["records"] if r["q"] == q and r["alpha"] <= 0.6]
            rec = max(recs, key=lambda r: r["alpha"])
            assert rec["betti"] == betti
            assert len(rec["eigenvalues"]) == len(expected)
            assert max(
                abs(a - b) for a, b in zip(rec["eigenvalues"], expected)
            ) <= 5e-5


def test_criterion_2_table2(six_complex):
    with criterion(2, 1.0, "Table 2: L_0^{0.2,0.4} equals L_0^{0.6,0} with matching spectrum"):
        l_06 = reference_laplacian(six_complex, 0, 0.6, 0.0)
        l_0204 = reference_laplacian(six_complex, 0, 0.2, 0.4)
        assert np.array_equal(l_06, l_0204)
        rec = spectrum_at(six_complex, 0, 0.2, 0.4, full=True)
        assert rec.eigenvalues == spectrum_at(six_complex, 0, 0.6, 0.0, full=True).eigenvalues
        assert rec.betti == 1
        assert max(abs(a - b) for a, b in zip(rec.eigenvalues, TABLE1[0][0])) <= 5e-5


def test_criterion_3_barcode(six_complex):
    with criterion(3, 1.0, "barcode: 6 bars alive at 0.2; one 1-cycle alive at 0.6, dead by 0.83"):
        bc = reduce(six_complex)
        alive0 = [iv for iv in bc.bars(0) if iv[0] <= 0.2 < iv[1]]
        assert len(alive0) == 6
        alive1 = [iv for iv in bc.bars(1) if iv[0] <= 0.6 < iv[1]]
        assert len(alive1) == 1
        death = alive1[0][1]
        assert 0.6 < death <= 0.83


# cloud roster: n stays within [8, 40]; 3D sizes are capped at 20 to keep the
# full-spectrum eigensolves inside the runtime budget
CLOUDS_4 = [(100 + i, int(n), 2) for i, n in enumerate(np.linspace(8, 40, 32))] + [
    (200 + i, int(n), 3) for i, n in enumerate(np.linspace(8, 20, 18))
]


def test_criterion_4_triple_oracle_agreement():
    with criterion(4, 300.0, "triple-oracle agreement on 50 seeded random clouds"):
        assert len(CLOUDS_4) == 50
        total_checks = 0
        for seed, n, d in CLOUDS_4:
            pts = random_cloud(seed, n, d)
            cx = alpha_complex(pts, seed=seed)
            crit = critical_alphas(cx)
            span = crit[-1] - crit[0]
            bc = reduce(cx)
            oracle = BettiOracle(cx)
            rng = np.random.default_rng(seed)
            for p in (0.0, span / 3.0, 2.0 * span / 3.0):
                for q in (0, 1, 2):
                    for rec in sweep(cx, [q], crit, p=p):
                        assert not any(f.startswith("failed") for f in rec.flags)
                        b_bar = betti_from_barcode(bc, q, rec.alpha, p)
                        b_exact = oracle.betti(q, rec.alpha, p)
                        assert rec.betti == b_bar == b_exact, (seed, q, rec.alpha, p)
                        total_checks += 1
            # tie the bulk rank oracle to the direct Bareiss computation
            for _ in range(3):
                q = int(rng.integers(0, 3))
                a = float(rng.choice(crit))
                p = float(rng.uniform(0, span))
                assert exact_rank_betti(cx, q, a, p) == oracle.betti(q, a, p)
        print(f"criterion 4: {total_checks} (q, alpha, p) cells checked", end=" ")


CLOUDS_5 = [(300 + i, 8 + (i * 5) % 13, 2 if i % 2 == 0 else 3) for i in range(20)]


def test_criterion_5_cross_method_spectra():
    with criterion(5, 120.0, "spectra agree with the harmonic-extension reference to rel 1e-8"):
        for seed, n, d in CLOUDS_5:
            pts = random_cloud(seed, n, d)
            cx = alpha_complex(pts, seed=seed)
            crit = critical_alphas(cx)
            span = crit[-1] - crit[0]
            rng = np.random.default_rng(seed)
            a = float(rng.choice(crit[: max(1, len(crit) // 2)]))
            p = float(span * rng.uniform(0.3, 0.9))
            for q in range(0, min(cx.max_dim, 2) + 1):
                r1 = spectrum_at(cx, q, a, p, full=True)
                ref = harmonic_eigenvalues(cx, q, a, p)
                assert r1.n_simplices == len(ref)
                if r1.eigenvalues:
                    scale = max(1.0, r1.eigenvalues[-1])
                    diff = max(abs(x - y) for x, y in zip(r1.eigenvalues, ref))
                    assert diff <= 1e-8 * scale, (seed, q, a, p, diff)


def test_criterion_6_invariant_suite(
    six_points, six_complex, icosahedron_points, icosahedron_complex
):
    with criterion(6, 120.0, "dd=0, PSD, Euler-Poincare, p-monotonicity, Delaunay audit"):
        chain = read_xyz(DATA / "chain_defect.xyz")
        cloud2, cloud3 = random_cloud(61, 50, 2), random_cloud(62, 45, 3)
        fixtures = [
            (six_points, six_complex),
            (icosahedron_points, icosahedron_complex),
            (chain, alpha_complex(chain)),
            (cloud2, alpha_complex(cloud2, seed=61)),
            (cloud3, alpha_complex(cloud3, seed=62)),
        ]
        for points, cx in fixtures:
            # boundary composite vanishes exactly in integer arithmetic, on
            # the face-index blocks the sweep reads
            for q in range(1, cx.max_dim + 1):
                bq, bq1 = (production_boundary(cx, k).astype(np.int64) for k in (q, q + 1))
                prod = bq @ bq1
                assert prod.dtype.kind == "i"
                assert np.count_nonzero(prod) == 0
            # Delaunay audit under the same perturbed predicate
            if cx.n_simplices(0) <= 50:
                assert not audit_empty_circumspheres(cx, points.coords)
            crit = critical_alphas(cx)
            span = crit[-1] - crit[0]
            # each critical alpha is a distinct state, and no state is skipped
            assert [snapshot(cx, a).counts for a in crit] == prefix_states(cx)
            # PSD bound and Euler-Poincare at every critical alpha, p = 0
            by_q = {
                q: {round(r.alpha, 12): r for r in sweep(cx, [q], crit, p=0.0, full=True)}
                for q in range(cx.max_dim + 1)
            }
            for recs in by_q.values():
                for r in recs.values():
                    if r.eigenvalues:
                        assert r.eigenvalues[0] >= -1e-9 * max(1.0, r.eigenvalues[-1])
            for a in crit:
                key = round(float(a), 12)
                chi = euler_characteristic(snapshot(cx, a))
                betti_alt = sum(
                    (-1) ** q * by_q[q][key].betti for q in range(cx.max_dim + 1)
                )
                assert chi == betti_alt, (a, chi, betti_alt)
            # persistence is monotone non-increasing in p
            sample = crit if len(crit) <= 15 else crit[:: len(crit) // 15]
            for a in sample:
                for q in range(cx.max_dim + 1):
                    seq = [
                        spectrum_at(cx, q, a, p).betti
                        for p in (0.0, span / 4, span / 2, span)
                    ]
                    assert all(x >= y for x, y in zip(seq, seq[1:])), (a, q, seq)


@pytest.mark.skipif(
    "PSLAP_1O08" not in os.environ,
    reason="manual protein-scale check: set PSLAP_1O08 to a local PDB file of 1O08",
)
def test_criterion_7_protein_smoke():
    with criterion(7, 3600.0, "PDB 1O08 anomaly pairs and sub-1.9A spectral onsets"):
        pts = read_pdb_ca(os.environ["PSLAP_1O08"])
        cx = alpha_complex(pts)
        pairs = detect_anomalies(cx, pts, 3.0)
        dists = sorted(d for _, d in pairs)
        assert len(dists) == 2
        assert abs(dists[0] - 2.914) <= 1e-3
        assert abs(dists[1] - 2.996) <= 1e-3
        grid = np.sqrt(1.5) + 0.01 * np.arange(
            int((np.sqrt(10) - np.sqrt(1.5)) / 0.01) + 1
        )
        recs = sweep(cx, [0, 1], grid, p=0.0)
        n = len(pts)
        beta0 = {r.alpha: r.betti for r in recs if r.q == 0}
        beta1 = {r.alpha: r.betti for r in recs if r.q == 1}
        assert any(a < 1.9 and b < n for a, b in beta0.items())
        assert any(a < 1.9 and b > 0 for a, b in beta1.items())
