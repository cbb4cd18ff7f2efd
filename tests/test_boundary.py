import math

import numpy as np
import pytest
import scipy.linalg

from conftest import harmonic_persistent_boundary, harmonic_projector, random_cloud
from pslap.alpha import alpha_complex, critical_alphas
from pslap.boundary import (
    _kernel_projector,
    _row_count,
    dense_block,
    diff_operator,
    full_boundary,
    persistent_boundary,
    restrict,
)
from pslap.errors import LinearSolveFailure, SnapshotOrderViolation
from pslap.simplices import build_complex, snapshot
from pslap.spectra import sweep

TABLE1_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (0, 4)]
TABLE1_B1 = np.array(
    [
        [-1, 0, 0, 0, 0, 0, -1],
        [1, -1, 0, 0, 0, 0, 0],
        [0, 1, -1, 0, 0, 0, 0],
        [0, 0, 1, -1, 0, -1, 0],
        [0, 0, 0, 1, -1, 0, 1],
        [0, 0, 0, 0, 1, 1, 0],
    ]
)
TABLE1_B2 = {(0, 1): 0, (1, 2): 0, (2, 3): 0, (3, 4): 1, (4, 5): 1, (3, 5): -1, (0, 4): 0}


def test_edge_column_signs():
    c = build_complex(
        [(0,), (1,), (0, 1)], {(0,): 0.0, (1,): 0.0, (0, 1): 1.0}
    )
    b1 = full_boundary(c, 1).matrix.toarray()
    assert b1.tolist() == [[-1], [1]]


def test_b0_is_zero_row():
    c = build_complex([(0,), (1,)], {(0,): 0.0, (1,): 0.0})
    b0 = full_boundary(c, 0)
    assert b0.shape == (1, 2)
    assert b0.matrix.count_nonzero() == 0


def test_table1_boundary_matrices(six_complex):
    snap = snapshot(six_complex, 0.6)
    b1 = restrict(full_boundary(six_complex, 1), snap).matrix.toarray()
    assert b1.shape == (6, 7)
    # vertex rows are index order A..F; edge columns via the complex's order
    col = {e: six_complex.index_of(e) for e in TABLE1_EDGES}
    reordered = b1[:, [col[e] for e in TABLE1_EDGES]]
    assert np.array_equal(reordered, TABLE1_B1)
    b2 = restrict(full_boundary(six_complex, 2), snap).matrix.toarray()
    assert b2.shape == (7, 1)
    for e, val in TABLE1_B2.items():
        assert b2[col[e], 0] == val


def test_boundary_of_boundary_is_zero(six_complex, icosahedron_complex):
    for c in (six_complex, icosahedron_complex):
        for q in range(1, c.max_dim + 1):
            bq = full_boundary(c, q).matrix
            bq1 = full_boundary(c, q + 1).matrix
            prod = (bq @ bq1).toarray()
            assert prod.dtype.kind == "i"
            assert not prod.any()


def test_column_structure(six_complex):
    for q in range(1, six_complex.max_dim + 1):
        b = full_boundary(six_complex, q).matrix.toarray()
        for j in range(b.shape[1]):
            col = b[:, j]
            assert np.sum(col != 0) == q + 1
            assert set(np.abs(col[col != 0])) == {1}


def test_restrict_blocks(six_complex):
    full = full_boundary(six_complex, 1)
    low = restrict(full, snapshot(six_complex, 0.1))
    assert low.shape == (6, 0)
    everything = restrict(full, snapshot(six_complex, math.inf))
    assert everything.shape == full.shape
    assert (everything.matrix != full.matrix).nnz == 0


def _snapshot_pairs(c):
    crit = critical_alphas(c)
    snaps = [snapshot(c, a) for a in (crit[0], crit[len(crit) // 3], crit[-1], math.inf)]
    return [(s_t, s_tp) for i, s_t in enumerate(snaps) for s_tp in snaps[i:]]


def test_dense_block_matches_sparse_blocks(six_complex):
    cloud = alpha_complex(random_cloud(51, 12, 3), seed=51)
    for c in (six_complex, cloud):
        for q in range(4):
            full = full_boundary(c, q)
            for s_t, s_tp in _snapshot_pairs(c):
                r_t, r_p = _row_count(q, s_t), _row_count(q, s_tp)
                c_t, c_p = s_t.count(q), s_tp.count(q)
                for s in (s_t, s_tp):
                    block = dense_block(full, 0, _row_count(q, s), 0, s.count(q))
                    assert block.dtype == np.float64 and block.flags.f_contiguous
                    assert np.array_equal(block, restrict(full, s).matrix.toarray())
                # Diff is zero outside its tail rows, and earlier simplices
                # have no faces among the later rows
                diff = diff_operator(full, s_t, s_tp).toarray()
                assert not diff[:r_t].any() and not diff[:, :c_t].any()
                tail = dense_block(full, r_t, r_p, c_t, c_p)
                assert tail.shape == (r_p - r_t, c_p - c_t) and tail.flags.f_contiguous
                assert np.array_equal(tail, diff[r_t:, c_t:])
                top = dense_block(full, 0, r_t, 0, c_p)
                assert np.array_equal(top, restrict(full, s_tp).matrix.toarray()[:r_t])


def test_dense_block_empty_and_q0(six_complex):
    full0 = full_boundary(six_complex, 0)
    assert full0.faces.shape == (6, 0)
    assert np.array_equal(dense_block(full0, 0, 1, 0, 6), np.zeros((1, 6)))
    full1 = full_boundary(six_complex, 1)
    assert full1.faces.shape == (full1.shape[1], 2)
    assert dense_block(full1, 3, 3, 0, 5).shape == (0, 5)
    assert dense_block(full1, 0, 6, 4, 4).shape == (6, 0)
    assert dense_block(full1, 2, 2, 4, 4).shape == (0, 0)


def test_diff_operator_p0_is_zero(six_complex):
    snap = snapshot(six_complex, 0.6)
    d = diff_operator(full_boundary(six_complex, 1), snap, snap)
    assert d.count_nonzero() == 0


def test_diff_operator_table2_case(six_complex):
    # all vertices exist at 0.2, so Diff_1 vanishes and the persistent chain
    # space is everything
    s_t = snapshot(six_complex, 0.2)
    s_tp = snapshot(six_complex, 0.6)
    d = diff_operator(full_boundary(six_complex, 1), s_t, s_tp)
    assert d.shape == (6, 7)
    assert d.count_nonzero() == 0


def _two_edge_complex():
    # vertex 3 and edge (2, 3) appear only at alpha = 2
    return build_complex(
        [(0,), (1,), (2,), (3,), (0, 1), (2, 3)],
        {(0,): 0.0, (1,): 0.0, (2,): 0.0, (3,): 4.0, (0, 1): 1.0, (2, 3): 4.0},
    )


def test_diff_operator_two_edges():
    # edge e2 has an endpoint appearing only at alpha+p: its column survives
    c = _two_edge_complex()
    s_t = snapshot(c, 1.0)
    s_tp = snapshot(c, 2.0)
    d = diff_operator(full_boundary(c, 1), s_t, s_tp).toarray()
    assert d.shape == (4, 2)
    e2_col = c.index_of((2, 3))
    assert d[:, e2_col].any()
    assert not d[:, c.index_of((0, 1))].any()
    kernel = scipy.linalg.null_space(d)
    assert kernel.shape[1] == 1  # e2 excluded from the persistent chain space


def test_diff_operator_order_violation(six_complex):
    with pytest.raises(SnapshotOrderViolation):
        diff_operator(
            full_boundary(six_complex, 1),
            snapshot(six_complex, 0.6),
            snapshot(six_complex, 0.2),
        )


def test_persistent_boundary_p0_equals_restriction(six_complex):
    snap = snapshot(six_complex, 0.6)
    full = full_boundary(six_complex, 1)
    pb = persistent_boundary(full, snap, snap)
    assert np.array_equal(pb, restrict(full, snap).matrix.toarray())


def test_persistent_boundary_table2(six_complex):
    pb = persistent_boundary(
        full_boundary(six_complex, 1),
        snapshot(six_complex, 0.2),
        snapshot(six_complex, 0.6),
    )
    b_full = restrict(full_boundary(six_complex, 1), snapshot(six_complex, 0.6))
    assert np.array_equal(pb, b_full.matrix.toarray())


def test_null_space_failure_is_typed(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(scipy.linalg, "null_space", no_convergence)
    c = _two_edge_complex()
    full = full_boundary(c, 1)
    s_t, s_tp = snapshot(c, 1.0), snapshot(c, 2.0)
    with pytest.raises(LinearSolveFailure):
        persistent_boundary(full, s_t, s_tp)
    (rec,) = sweep(c, [0], [1.0], p=1.0)
    assert rec.flags == ("failed:LinearSolveFailure",)


def test_projector_idempotent_and_symmetric():
    rng = np.random.default_rng(0)
    for d_rows, d_cols in [(4, 7), (6, 3), (5, 5)]:
        d_tail = rng.integers(-1, 2, size=(d_rows, d_cols)).astype(float)
        proj = _kernel_projector(d_tail)
        assert np.allclose(proj @ proj, proj, atol=1e-10)
        assert np.allclose(proj, proj.T, atol=1e-10)
        assert np.allclose(harmonic_projector(d_tail), proj, atol=1e-9)


def test_persistent_rank_matches_exact_formula():
    # numerical rank of the projected operator equals the exact rational rank
    # of the restriction to ker(Diff): rank(B^{a+p}) - rank(Diff)
    from pslap.oracle import _exact_rank_int

    for seed, n, d in [(41, 10, 2), (42, 11, 3)]:
        pts = random_cloud(seed, n, d)
        c = alpha_complex(pts, seed=seed)
        crit = critical_alphas(c)
        span = crit[-1] - crit[0]
        a = float(crit[len(crit) // 3])
        p = float(span / 2)
        s_t, s_tp = snapshot(c, a), snapshot(c, a + p)
        for q in range(1, c.max_dim + 1):
            full = full_boundary(c, q)
            pb = persistent_boundary(full, s_t, s_tp)
            num_rank = np.linalg.matrix_rank(pb) if pb.size else 0
            b_up = restrict(full, s_tp).matrix.toarray()
            diff = diff_operator(full, s_t, s_tp).toarray()
            assert num_rank == _exact_rank_int(b_up) - _exact_rank_int(diff)


def test_methods_agree_on_random_clouds():
    for seed, n, d in [(21, 10, 2), (22, 12, 3)]:
        pts = random_cloud(seed, n, d)
        c = alpha_complex(pts, seed=seed)
        crit = critical_alphas(c)
        span = crit[-1] - crit[0]
        rng = np.random.default_rng(seed)
        a = float(rng.choice(crit[:-1]))
        p = float(span * 0.5)
        s_t, s_tp = snapshot(c, a), snapshot(c, a + p)
        for q in range(1, c.max_dim + 1):
            m1 = persistent_boundary(full_boundary(c, q), s_t, s_tp)
            m2 = harmonic_persistent_boundary(c, q, s_t, s_tp)
            assert m1.shape == m2.shape
            assert np.allclose(m1, m2, atol=1e-8)
            # columns are coordinates in the alpha+p basis, rows in the alpha one
            assert m1.shape == (
                1 if q == 0 else s_t.count(q - 1),
                s_tp.count(q),
            )
