import math

import numpy as np

from conftest import exact_rank_betti, exact_rank_int, random_cloud
from pslap.alpha import alpha_complex, critical_alphas
from pslap.oracle import BettiOracle, betti_from_barcode, reduce
from pslap.simplices import build_complex, euler_characteristic, snapshot
from pslap.spectra import spectrum_at


def test_exact_rank_int_basics():
    assert exact_rank_int(np.array([[1, 0], [0, 1]])) == 2
    assert exact_rank_int(np.array([[1, 2], [2, 4]])) == 1
    assert exact_rank_int(np.zeros((3, 4), dtype=np.int64)) == 0
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.integers(-3, 4, size=(8, 11))
        assert exact_rank_int(m) == np.linalg.matrix_rank(m.astype(float))


def test_exact_rank_int_bigint_fallback():
    # ill-conditioned for floats, trivial for exact arithmetic
    n = 12
    m = np.array([[(i + 1) ** j for j in range(n)] for i in range(n)], dtype=np.int64)
    assert exact_rank_int(m) == n


def test_six_point_barcode(six_complex):
    bc = reduce(six_complex)
    dim0 = bc.bars(0)
    assert len(dim0) == 6
    assert all(b == 0.0 for b, _ in dim0)
    assert sum(1 for _, d in dim0 if math.isinf(d)) == 1
    alive_06 = [iv for iv in bc.bars(1) if iv[0] <= 0.6 < iv[1]]
    assert len(alive_06) == 1
    assert 0.6 < alive_06[0][1] <= 0.83


def test_betti_from_barcode_examples(six_complex):
    bc = reduce(six_complex)
    assert betti_from_barcode(bc, 1, 0.6, 0.0) == 1
    assert betti_from_barcode(bc, 0, 0.2, 0.4) == 1
    assert betti_from_barcode(bc, 1, 0.9, 0.0) == 0
    assert betti_from_barcode(bc, 0, 0.2, 0.0) == 6


def test_tetrahedron_contractible():
    c = build_complex([(0, 1, 2, 3)], {(0, 1, 2, 3): 1.0})
    bc = reduce(c)
    at_end = [betti_from_barcode(bc, q, 1.0, 0.0) for q in range(3)]
    assert at_end == [1, 0, 0]


def test_exact_rank_betti_table1(six_complex):
    assert exact_rank_betti(six_complex, 0, 0.6, 0.0) == 1
    assert exact_rank_betti(six_complex, 1, 0.6, 0.0) == 1
    assert exact_rank_betti(six_complex, 2, 0.6, 0.0) == 0
    assert exact_rank_betti(six_complex, 0, 0.2, 0.4) == 1


def test_exact_rank_betti_empty_snapshot(six_complex):
    assert exact_rank_betti(six_complex, 1, 0.05, 0.0) == 0


def test_bulk_oracle_matches_direct(six_complex):
    orc = BettiOracle(six_complex)
    crit = critical_alphas(six_complex)
    for q in range(3):
        for a in crit:
            for p in (0.0, 0.15, 0.4):
                assert orc.betti(q, a, p) == exact_rank_betti(six_complex, q, a, p)


def test_triple_agreement_random(six_complex):
    for seed, n, d in [(31, 9, 2), (32, 14, 3), (33, 18, 2)]:
        pts = random_cloud(seed, n, d)
        c = alpha_complex(pts, seed=seed)
        bc = reduce(c)
        orc = BettiOracle(c)
        crit = critical_alphas(c)
        span = crit[-1] - crit[0]
        for q in range(3):
            for a in crit:
                for p in (0.0, span / 3):
                    b1 = spectrum_at(c, q, a, p).betti
                    b2 = betti_from_barcode(bc, q, a, p)
                    b3 = orc.betti(q, a, p)
                    assert b1 == b2 == b3, (seed, q, a, p, b1, b2, b3)


def test_barcode_pairing_conservation(six_complex, icosahedron_complex):
    # every q-simplex is a birth or a death: bar count equals positive count
    for c in (six_complex, icosahedron_complex):
        bc = reduce(c)
        n_total = sum(c.n_simplices(q) for q in range(4))
        births = sum(len(bc.bars(q)) for q in range(4))
        deaths = sum(
            1 for q in range(4) for _, d in bc.bars(q) if not math.isinf(d)
        )
        assert births + deaths == n_total
        for q in range(4):
            assert len(bc.bars(q)) <= c.n_simplices(q)
            for b, d in bc.bars(q):
                assert b <= d


def test_icosahedron_beta2_window(icosahedron_complex):
    bc = reduce(icosahedron_complex)
    # one 2-cycle from the hollow shell; the fixture icosahedron has edge 2.
    # Bars narrower than the filtration comparison tolerance are zero-length
    # artifacts of cospherical float noise.
    bars2 = [iv for iv in bc.bars(2) if iv[1] > iv[0] * (1 + 1e-9)]
    assert len(bars2) == 1
    birth, death = bars2[0]
    assert np.isclose(birth, 2.0 / np.sqrt(3.0), atol=1e-9)
    phi = (1 + np.sqrt(5.0)) / 2
    assert np.isclose(death, np.sqrt(2.0 + phi), atol=1e-9)
    assert betti_from_barcode(bc, 2, 1.5, 0.0) == 1
    assert betti_from_barcode(bc, 2, 2.0, 0.0) == 0


def test_euler_poincare_from_barcode(six_complex, icosahedron_complex):
    for c in (six_complex, icosahedron_complex):
        bc = reduce(c)
        for a in critical_alphas(c):
            chi = euler_characteristic(snapshot(c, a))
            betti_sum = sum(
                (-1) ** q * betti_from_barcode(bc, q, a, 0.0) for q in range(4)
            )
            assert chi == betti_sum
