import math

import numpy as np
import pytest

from conftest import (
    DATA,
    build_complex,
    euler_characteristic,
    exact_rank_betti,
    exact_rank_int,
    random_cloud,
    reference_bars,
    reference_reduce_rational,
    snapshot_counts,
)
from pslap.alpha import alpha_complex, critical_alphas
from pslap.dataio import read_pdb_ca, read_xyz
from pslap import oracle
from pslap.oracle import BettiOracle, betti_from_barcode, reduce
from pslap.simplices import bound_sq
from pslap.spectra import spectrum_at
from test_acceptance import CLOUDS_4


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


def test_bulk_oracle_matches_direct(six_complex, icosahedron_complex):
    # the icosahedron's tied values pin the prefix-count ranks where many
    # columns enter at once
    for cx in (six_complex, icosahedron_complex):
        orc = BettiOracle(cx)
        crit = critical_alphas(cx)
        for q in range(3):
            for a in crit:
                for p in (0.0, 0.15, 0.4):
                    assert orc.betti(q, a, p) == exact_rank_betti(cx, q, a, p)


def test_reduce_matches_the_tuple_sort_reference(six_complex, icosahedron_complex):
    # the array order gives the bars of the (value, vertex count, vertex
    # tuple) sort; the cospherical inputs tie the most values, where a face
    # placed after its coface would pair the wrong simplices
    complexes = [six_complex, icosahedron_complex] + [
        alpha_complex(read_xyz(DATA / name)) for name in ("grid4.xyz", "near_tie.xyz")
    ] + [alpha_complex(random_cloud(seed, n, d), seed=seed)
         for seed, n, d in [(31, 9, 2), (32, 14, 3), (33, 18, 2)]]
    for cx in complexes:
        bc, reference = reduce(cx), reference_bars(cx)
        for q in range(4):
            assert bc.bars(q) == reference[q], q


def test_oracles_agree_on_the_standin_chain():
    # the 220-residue chain at the paper's scale: both oracles at every
    # critical value (2 916) for q = 0, 1, 2 at p = 0 and 0.5
    cx = alpha_complex(read_pdb_ca(DATA / "ca_chain220_seed1.pdb"))
    bc, orc = reduce(cx), BettiOracle(cx)
    crit = critical_alphas(cx)
    assert len(crit) == 2916
    for q in range(3):
        for p in (0.0, 0.5):
            for a in crit:
                assert orc.betti(q, a, p) == betti_from_barcode(bc, q, a, p), (q, a, p)


def test_array_queries_equal_scalar_queries(monkeypatch, six_complex, icosahedron_complex):
    # one query over an array of alphas gives each alpha's scalar answer,
    # also where its counts run over blocks of a few queries each; the
    # barcode's counts are checked against a loop over its bars
    monkeypatch.setattr(oracle, "_BLOCK", 7)
    complexes = [six_complex, icosahedron_complex] + [
        alpha_complex(random_cloud(seed, n, d), seed=seed)
        for seed, n, d in [(31, 9, 2), (32, 14, 3)]
    ]
    for cx in complexes:
        bc, orc = reduce(cx), BettiOracle(cx)
        crit = critical_alphas(cx)
        alphas = np.concatenate([crit, [0.0, 2.0 * crit[-1] + 1.0]])
        for q in range(4):
            for p in (0.0, 0.3):
                bars = betti_from_barcode(bc, q, alphas, p).tolist()
                exact = orc.betti(q, alphas, p).tolist()
                assert bars == [
                    sum(b * b <= bound_sq(a) and d * d > bound_sq(a + p) for b, d in bc.bars(q))
                    for a in alphas.tolist()
                ]
                assert exact == [orc.betti(q, a, p) for a in alphas.tolist()]
                assert exact == bars
    assert type(orc.betti(1, 1.0)) is int and type(betti_from_barcode(bc, 1, 1.0)) is int
    assert betti_from_barcode(bc, 1, np.empty(0)).shape == orc.betti(1, np.empty(0)).shape == (0,)
    # through count_held, the exact oracle rejects a negative or NaN alpha or alpha + p
    for alpha, p in ((np.array([0.5, -0.1]), 0.0), (np.array([0.5, np.nan]), 0.0), (0.5, -1.0)):
        with pytest.raises(ValueError):
            orc.betti(1, alpha, p)


def test_rational_reduction_keeps_the_reference_pivots():
    # the in-place elimination, which takes the gcd of the entries it wrote,
    # ends on the pivot rows of the rebuild-and-divide reference on every
    # input fixture that builds and on the 50 criterion-4 clouds
    fixtures = [path for path in sorted(DATA.iterdir())
                if path.suffix in (".xyz", ".pdb") and not path.name.startswith("overflow")]
    complexes = [
        alpha_complex(read_pdb_ca(path) if path.suffix == ".pdb" else read_xyz(path))
        for path in fixtures
    ] + [alpha_complex(random_cloud(seed, n, d), seed=seed) for seed, n, d in CLOUDS_4]
    assert len(complexes) == len(fixtures) + 50 >= 60
    for cx in complexes:
        orc = BettiOracle(cx)
        assert sorted(orc._lows) == list(range(1, cx.max_dim + 1))
        for q, lows in orc._lows.items():
            assert np.array_equal(lows, reference_reduce_rational(cx, q)), q


def test_rational_reduction_of_random_signed_columns():
    # boundary columns of alpha complexes keep every pivot entry at +-1, so
    # the steps that scale a column by a pivot that does not divide (about
    # one trial in five here) and divide out a gcd are taken on random
    # columns: k distinct rows each, signed (-1)**i by position
    class Columns:
        def __init__(self, faces):
            self.faces = faces

        def face_rows(self, q):
            return self.faces

    rng = np.random.default_rng(0)
    orc = BettiOracle.__new__(BettiOracle)
    for _ in range(500):
        rows, cols, k = (int(x) for x in rng.integers((4, 4, 2), (9, 12, 5)))
        orc.complex = Columns(np.array([rng.choice(rows, k, replace=False) for _ in range(cols)]))
        assert np.array_equal(orc._reduce_rational(1), reference_reduce_rational(orc.complex, 1))


@pytest.mark.parametrize("name", ["six_points.xyz", "cloud20_3d.xyz"])
def test_oracles_agree_at_infinity(name):
    # an essential bar outlives every alpha + p, inf included: both oracles
    # give the same Betti numbers at alpha = inf and at alpha + p = inf, for
    # scalar and array queries
    cx = alpha_complex(read_xyz(DATA / name))
    bc, orc = reduce(cx), BettiOracle(cx)
    crit = critical_alphas(cx)
    alphas = np.concatenate([crit, [math.inf]])
    for q in range(4):
        for alpha, p in ((math.inf, 0.0), (math.inf, 0.3), (0.0, math.inf), (crit[-1], math.inf)):
            assert betti_from_barcode(bc, q, alpha, p) == orc.betti(q, alpha, p), (q, alpha, p)
        for p in (0.0, 0.3, math.inf):
            bars = betti_from_barcode(bc, q, alphas, p)
            assert bars.tolist() == orc.betti(q, alphas, p).tolist(), (q, p)
            assert bars.tolist() == [betti_from_barcode(bc, q, a, p) for a in alphas.tolist()]
    # every bar that never dies: one component, and no cycle of the filled complex
    essential = [sum(d == math.inf for _, d in bc.bars(q)) for q in range(4)]
    assert [orc.betti(q, math.inf) for q in range(4)] == essential
    assert essential[0] == 1


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
            chi = euler_characteristic(snapshot_counts(c, a))
            betti_sum = sum(
                (-1) ** q * betti_from_barcode(bc, q, a, 0.0) for q in range(4)
            )
            assert chi == betti_sum
