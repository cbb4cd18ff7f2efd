import math

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    DATA,
    build_complex,
    exact_rank_int,
    harmonic_persistent_boundary,
    harmonic_projector,
    kernel_projector,
    production_boundary,
    random_cloud,
    reference_boundary,
    reference_diff,
    reference_kernel,
    reference_persistent_boundary,
    reference_restriction,
    row_count,
    simplex_index,
    snapshot_counts,
)
from pslap import boundary
from pslap.alpha import alpha_complex, critical_alphas
from pslap.boundary import (
    SparseBoundaryMatrix,
    dense_block,
    full_boundary,
    kernel_is_trivial,
    persistent_boundary,
    split,
)
from pslap.dataio import read_xyz
from pslap.errors import LinearSolveFailure, MatrixTooLarge
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
    b1 = production_boundary(c, 1)
    assert b1.tolist() == [[-1], [1]]
    assert np.array_equal(b1, reference_boundary(c, 1))


def test_b0_is_zero_row():
    c = build_complex([(0,), (1,)], {(0,): 0.0, (1,): 0.0})
    b0 = production_boundary(c, 0)
    assert b0.shape == (1, 2)
    assert not b0.any()


def test_table1_boundary_matrices(six_complex):
    snap = snapshot_counts(six_complex, 0.6)
    b1 = reference_restriction(six_complex, 1, snap)
    assert b1.shape == (6, 7)
    assert np.array_equal(dense_block(full_boundary(six_complex, 1), 0, 6, 0, 7), b1)
    # vertex rows are index order A..F; edge columns via the complex's order
    col = simplex_index(six_complex, 1)
    reordered = b1[:, [col[e] for e in TABLE1_EDGES]]
    assert np.array_equal(reordered, TABLE1_B1)
    b2 = reference_restriction(six_complex, 2, snap)
    assert b2.shape == (7, 1)
    assert np.array_equal(dense_block(full_boundary(six_complex, 2), 0, 7, 0, 1), b2)
    for e, val in TABLE1_B2.items():
        assert b2[col[e], 0] == val


def test_boundary_of_boundary_is_zero(six_complex, icosahedron_complex):
    for c in (six_complex, icosahedron_complex):
        for q in range(1, c.max_dim + 1):
            bq, bq1 = (production_boundary(c, k).astype(np.int64) for k in (q, q + 1))
            prod = bq @ bq1
            assert prod.dtype.kind == "i"
            assert not prod.any()


def test_column_structure(six_complex):
    for q in range(1, six_complex.max_dim + 1):
        b = production_boundary(six_complex, q)
        for j in range(b.shape[1]):
            col = b[:, j]
            assert np.sum(col != 0) == q + 1
            assert set(np.abs(col[col != 0])) == {1}


def test_restrict_blocks(six_complex):
    # a snapshot's boundary is the top-left block of the full matrix
    full = full_boundary(six_complex, 1)
    low = snapshot_counts(six_complex, 0.1)
    assert dense_block(full, 0, row_count(1, low), 0, low[1]).shape == (6, 0)
    everything = snapshot_counts(six_complex, math.inf)
    block = dense_block(full, 0, row_count(1, everything), 0, everything[1])
    assert block.shape == reference_boundary(six_complex, 1).shape
    assert np.array_equal(block, reference_boundary(six_complex, 1))


def _snapshot_pairs(c):
    crit = critical_alphas(c)
    snaps = [snapshot_counts(c, a) for a in (crit[0], crit[len(crit) // 3], crit[-1], math.inf)]
    return [(s_t, s_tp) for i, s_t in enumerate(snaps) for s_tp in snaps[i:]]


def test_dense_block_matches_sparse_blocks(six_complex):
    cloud = alpha_complex(random_cloud(51, 12, 3), seed=51)
    for c in (six_complex, cloud):
        for q in range(4):
            full = full_boundary(c, q)
            for s_t, s_tp in _snapshot_pairs(c):
                r_t, r_p = row_count(q, s_t), row_count(q, s_tp)
                c_t, c_p = s_t[q], s_tp[q]
                for s in (s_t, s_tp):
                    block = dense_block(full, 0, row_count(q, s), 0, s[q])
                    assert block.dtype == np.float64 and block.flags.f_contiguous
                    assert np.array_equal(block, reference_restriction(c, q, s))
                # earlier simplices have no faces among the later rows, so
                # Diff is zero outside its tail columns
                diff = reference_diff(c, q, s_t, s_tp)
                assert not diff[:, :c_t].any()
                tail = dense_block(full, r_t, r_p, c_t, c_p)
                assert tail.shape == (r_p - r_t, c_p - c_t) and tail.flags.f_contiguous
                assert np.array_equal(tail, diff[:, c_t:])
                top = dense_block(full, 0, r_t, 0, c_p)
                assert np.array_equal(top, reference_restriction(c, q, s_tp)[:r_t])


def test_transpose_times_matches_reference(six_complex):
    # B^T u on every prefix of columns, against the reference boundary; u has
    # integer entries, so both sums are exact
    cloud = alpha_complex(random_cloud(51, 12, 3), seed=51)
    rng = np.random.default_rng(0)
    for c in (six_complex, cloud):
        for q in range(1, 4):
            full, ref = full_boundary(c, q), reference_boundary(c, q)
            u = rng.integers(-3, 4, size=(ref.shape[0], 3)).astype(float)
            for cols in range(ref.shape[1] + 1):
                assert np.array_equal(full.transpose_times(cols, u), ref[:, :cols].T @ u)


def test_dense_block_empty_and_q0(six_complex):
    full0 = full_boundary(six_complex, 0)
    assert full0.faces.shape == (6, 0)
    assert np.array_equal(dense_block(full0, 0, 1, 0, 6), np.zeros((1, 6)))
    full1 = full_boundary(six_complex, 1)
    assert full1.faces.shape == (six_complex.n_simplices(1), 2)
    assert dense_block(full1, 3, 3, 0, 5).shape == (0, 5)
    assert dense_block(full1, 0, 6, 4, 4).shape == (6, 0)
    assert dense_block(full1, 2, 2, 4, 4).shape == (0, 0)


def _tail(c, q: int, s_t, s_tp) -> np.ndarray:
    """The production Diff tail block: later rows, later columns."""
    return dense_block(
        full_boundary(c, q), row_count(q, s_t), row_count(q, s_tp), s_t[q], s_tp[q]
    )


def test_diff_operator_p0_is_zero(six_complex):
    snap = snapshot_counts(six_complex, 0.6)
    assert not _tail(six_complex, 1, snap, snap).any()
    assert not reference_diff(six_complex, 1, snap, snap).any()


def test_diff_operator_table2_case(six_complex):
    # all vertices exist at 0.2, so Diff_1 vanishes and the persistent chain
    # space is everything
    s_t = snapshot_counts(six_complex, 0.2)
    s_tp = snapshot_counts(six_complex, 0.6)
    assert reference_restriction(six_complex, 1, s_tp).shape == (6, 7)
    assert reference_diff(six_complex, 1, s_t, s_tp).shape == (0, 7)
    assert _tail(six_complex, 1, s_t, s_tp).shape == (0, 7 - s_t[1])


def _two_edge_complex():
    # vertex 3 and edge (2, 3) appear only at alpha = 2
    return build_complex(
        [(0,), (1,), (2,), (3,), (0, 1), (2, 3)],
        {(0,): 0.0, (1,): 0.0, (2,): 0.0, (3,): 4.0, (0, 1): 1.0, (2, 3): 4.0},
    )


def test_diff_operator_two_edges():
    # edge e2 has an endpoint appearing only at alpha+p: its column survives
    c = _two_edge_complex()
    s_t = snapshot_counts(c, 1.0)
    s_tp = snapshot_counts(c, 2.0)
    d = reference_diff(c, 1, s_t, s_tp)
    assert d.shape == (1, 2)  # the row of vertex 3
    col = simplex_index(c, 1)
    assert d[:, col[(2, 3)]].any()
    assert not d[:, col[(0, 1)]].any()
    kernel = scipy.linalg.null_space(d)
    assert kernel.shape[1] == 1  # e2 excluded from the persistent chain space
    # production reads only the new edge's column of Diff, and it is nonzero
    tail = _tail(c, 1, s_t, s_tp)
    assert np.array_equal(tail, d[:, s_t[1]:])
    assert scipy.linalg.null_space(tail).shape[1] == 0


def _factored(full, s_t, s_tp) -> np.ndarray:
    """[B_c | U]: the persistent boundary with its integer columns up to the
    split point and the rest in the orthonormal kernel basis production
    returns them in; same Gram matrix B B^T and same rank as the persistent
    boundary."""
    c, u = persistent_boundary(full, row_count(full.q, s_t), s_tp[full.q])
    return np.hstack([dense_block(full, 0, row_count(full.q, s_t), 0, c), u])


def test_persistent_boundary_p0_equals_restriction(six_complex):
    snap = snapshot_counts(six_complex, 0.6)
    full = full_boundary(six_complex, 1)
    c, u = persistent_boundary(full, row_count(1, snap), snap[1])
    assert (c, u.shape) == (snap[1], (6, 0))  # no new columns
    assert np.array_equal(_factored(full, snap, snap), reference_restriction(six_complex, 1, snap))
    assert np.array_equal(
        reference_persistent_boundary(full, snap, snap),
        reference_restriction(six_complex, 1, snap),
    )


def test_persistent_boundary_table2(six_complex):
    # every vertex exists at 0.2, so Diff has no rows: the split point is
    # the later edge count and every new edge is an integer column
    s_t, s_tp = snapshot_counts(six_complex, 0.2), snapshot_counts(six_complex, 0.6)
    full = full_boundary(six_complex, 1)
    b_full = reference_restriction(six_complex, 1, s_tp)
    c, u = persistent_boundary(full, row_count(1, s_t), s_tp[1])
    assert (c, u.shape) == (s_tp[1], (6, 0))
    assert np.array_equal(_factored(full, s_t, s_tp), b_full)
    assert np.array_equal(reference_persistent_boundary(full, s_t, s_tp), b_full)


def test_split_point_is_longest_face_prefix():
    # the split point is the longest prefix of columns whose faces are all
    # among the earlier rows: never below the earlier column count, never
    # past the later one, and Diff is nonzero on the first column after it
    for seed, n, d in [(31, 12, 2), (32, 11, 3)]:
        c = alpha_complex(random_cloud(seed, n, d), seed=seed)
        for q in range(1, c.max_dim + 1):
            full = full_boundary(c, q)
            b = reference_boundary(c, q)
            for s_t, s_tp in _snapshot_pairs(c):
                r_t, c_p = row_count(q, s_t), s_tp[q]
                split, u = persistent_boundary(full, r_t, c_p)
                assert s_t[q] <= split <= c_p
                assert not b[r_t:, :split].any()
                if split < c_p:
                    assert b[r_t:, split].any()
                # U has one column per dimension of ker(Diff) on the rest
                kernel_dim = (c_p - split) - exact_rank_int(b[r_t:, split:c_p])
                assert u.shape == (r_t, kernel_dim)


def _new_vertex_two_edges():
    # vertex 3 and its edges (0, 3) and (2, 3) appear only at alpha = 2:
    # Diff is the 1 x 2 row of vertex 3, whose kernel is a line
    return build_complex(
        [(0,), (1,), (2,), (3,), (0, 1), (0, 3), (2, 3)],
        {(0,): 0.0, (1,): 0.0, (2,): 0.0, (3,): 4.0, (0, 1): 1.0, (0, 3): 4.0, (2, 3): 4.0},
    )


def test_null_space_failure_is_typed(monkeypatch):
    # an SVD that does not converge (numpy's LinAlgError) is a
    # LinearSolveFailure.  Diff keeps a kernel here, so the Z2 pivot count
    # cannot prove it empty and the SVD is taken
    def no_convergence(a, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    c = _new_vertex_two_edges()
    full = full_boundary(c, 1)
    s_t, s_tp = snapshot_counts(c, 1.0), snapshot_counts(c, 2.0)
    with pytest.raises(LinearSolveFailure):
        persistent_boundary(full, row_count(1, s_t), s_tp[1])
    (rec,) = sweep(c, [0], [1.0], p=1.0)
    assert rec.flags == ("failed:LinearSolveFailure",)


def test_kernel_basis_matches_null_space(monkeypatch):
    # numpy's SVD gives scipy.linalg.null_space's kernel basis bit for bit on
    # every Diff block the sweeps of these inputs project.  The complexes are
    # fresh ones: a shared one may hold solved parts, whose sweeps then
    # project fewer blocks.  Blocks whose kernel the Z2 pivot count proves
    # empty take no SVD, so the random cloud keeps the block count up
    blocks = []
    kernel = boundary._null_space

    def record(d):
        blocks.append(d.copy())
        return kernel(d)

    monkeypatch.setattr(boundary, "_null_space", record)
    inputs = (
        (read_xyz(DATA / "cloud20_3d.xyz"), (0.3, None)),
        (read_xyz(DATA / "chain_clean.xyz"), (0.5, None)),
        (random_cloud(1, 30, 3), (0.3, 0.5)),
    )
    for points, p_values in inputs:
        cx = alpha_complex(points)
        crit = critical_alphas(cx)
        for p in p_values:
            sweep(cx, [0, 1, 2], crit, p=(crit[-1] - crit[0]) / 3.0 if p is None else p)
    assert len(blocks) > 400, len(blocks)
    for d in blocks:
        assert np.array_equal(kernel(d), reference_kernel(d))


def _certification_inputs():
    """The point sets the pivot-count tests run on."""
    names = ("cloud20_3d", "chain_clean", "grid4", "icosahedron")
    named = [read_xyz(DATA / f"{name}.xyz") for name in names]
    return named + [random_cloud(61, 14, 2), random_cloud(62, 12, 3), random_cloud(63, 16, 3)]


def _z2_rank(matrix: np.ndarray) -> int:
    """Rank over Z2 of an integer matrix, by row reduction mod 2."""
    m = (np.asarray(matrix) % 2).astype(bool)
    rank = 0
    for col in range(m.shape[1]):
        pivots = np.flatnonzero(m[rank:, col])
        if not len(pivots):
            continue
        m[[rank, rank + pivots[0]]] = m[[rank + pivots[0], rank]]
        below = np.flatnonzero(m[rank + 1:, col]) + rank + 1
        m[below] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def test_pivot_count_certifies_only_full_column_rank():
    # the pairing lemma: the pivots of lows at or past row r_t among the
    # columns from the split on count the Z2 rank of Diff there, and where
    # they cover every column, Diff has full column rank over Q too
    certified = 0
    for points in _certification_inputs():
        cx = alpha_complex(points)
        crit = critical_alphas(cx)
        for q in range(1, cx.max_dim + 1):
            full = full_boundary(cx, q)
            b = reference_boundary(cx, q)
            seen = set()
            for p in (0.3, 0.5):
                for a in crit:
                    s_t, s_tp = snapshot_counts(cx, a), snapshot_counts(cx, a + p)
                    r_t, c_p = row_count(q, s_t), s_tp[q]
                    c = int(split(full, r_t, c_p))
                    if c == c_p or (r_t, c, c_p) in seen:
                        continue
                    seen.add((r_t, c, c_p))
                    diff = b[r_t:, c:c_p]
                    assert np.count_nonzero(full.lows[c:c_p] >= r_t) == _z2_rank(diff)
                    if kernel_is_trivial(full, r_t, c, c_p):
                        certified += 1
                        assert exact_rank_int(diff) == c_p - c
                        assert persistent_boundary(full, r_t, c_p)[1].shape == (r_t, 0)
    assert certified > 100, certified


def test_sweep_records_do_not_depend_on_the_pivot_count(monkeypatch):
    # with every pivot row -1 the count certifies nothing and every Diff
    # block takes the SVD; the records are the same to the bit
    def sweeps():
        out = []
        for points in _certification_inputs():
            for p in (0.3, 0.5):
                for full in (False, True):
                    cx = alpha_complex(points)
                    out.append(sweep(cx, [0, 1, 2], critical_alphas(cx), p=p, full=full))
        return out

    counted = sweeps()
    monkeypatch.setattr(
        SparseBoundaryMatrix, "lows", property(lambda self: np.full(len(self.faces), -1))
    )
    assert sweeps() == counted


def test_p0_sweeps_never_reduce_the_boundaries():
    # at p = 0 the split leaves no column after it, so no sweep needs lows
    cx = alpha_complex(read_xyz(DATA / "cloud20_3d.xyz"))
    sweep(cx, [0, 1, 2], critical_alphas(cx))
    assert not any("lows" in vars(full_boundary(cx, q)) for q in range(4))


def test_dense_matrices_above_the_cap_are_typed(monkeypatch):
    # a block or Gram matrix larger than MAX_DENSE_BYTES raises MatrixTooLarge
    # before it is allocated, and inside a sweep fails its row, not the run
    cx = alpha_complex(read_xyz(DATA / "cloud20_3d.xyz"))
    full = full_boundary(cx, 2)
    monkeypatch.setattr(boundary, "MAX_DENSE_BYTES", 8 * 6 * 5)
    assert dense_block(full, 0, 6, 0, 5).shape == (6, 5)
    with pytest.raises(MatrixTooLarge):
        dense_block(full, 0, 6, 0, 6)
    assert full.down_gram(0, 5).shape == (5, 5)
    with pytest.raises(MatrixTooLarge):
        full.up_gram(3, 6)
    crit = critical_alphas(cx)
    records = sweep(cx, [1], [crit[0], crit[-1]])
    assert records[0].flags == ()  # no edge yet: nothing to allocate
    assert records[1].flags == ("failed:MatrixTooLarge",)


def test_projector_idempotent_and_symmetric():
    rng = np.random.default_rng(0)
    for d_rows, d_cols in [(4, 7), (6, 3), (5, 5)]:
        d_tail = rng.integers(-1, 2, size=(d_rows, d_cols)).astype(float)
        proj = kernel_projector(d_tail)
        assert np.allclose(proj @ proj, proj, atol=1e-10)
        assert np.allclose(proj, proj.T, atol=1e-10)
        assert np.allclose(harmonic_projector(d_tail), proj, atol=1e-9)


def test_persistent_rank_matches_exact_formula():
    # numerical rank of the projected operator equals the exact rational rank
    # of the restriction to ker(Diff): rank(B^{a+p}) - rank(Diff)
    for seed, n, d in [(41, 10, 2), (42, 11, 3)]:
        pts = random_cloud(seed, n, d)
        c = alpha_complex(pts, seed=seed)
        crit = critical_alphas(c)
        span = crit[-1] - crit[0]
        a = float(crit[len(crit) // 3])
        p = float(span / 2)
        s_t, s_tp = snapshot_counts(c, a), snapshot_counts(c, a + p)
        for q in range(1, c.max_dim + 1):
            full = full_boundary(c, q)
            pb = _factored(full, s_t, s_tp)
            num_rank = np.linalg.matrix_rank(pb) if pb.size else 0
            b_up = reference_restriction(c, q, s_tp)
            diff = reference_diff(c, q, s_t, s_tp)
            assert num_rank == exact_rank_int(b_up) - exact_rank_int(diff)


def test_methods_agree_on_random_clouds():
    for seed, n, d in [(21, 10, 2), (22, 12, 3)]:
        pts = random_cloud(seed, n, d)
        c = alpha_complex(pts, seed=seed)
        crit = critical_alphas(c)
        span = crit[-1] - crit[0]
        rng = np.random.default_rng(seed)
        a = float(rng.choice(crit[:-1]))
        p = float(span * 0.5)
        s_t, s_tp = snapshot_counts(c, a), snapshot_counts(c, a + p)
        for q in range(1, c.max_dim + 1):
            full = full_boundary(c, q)
            m1 = reference_persistent_boundary(full, s_t, s_tp)
            m2 = harmonic_persistent_boundary(c, q, s_t, s_tp)
            assert m1.shape == m2.shape
            assert np.allclose(m1, m2, atol=1e-8)
            # production's new columns differ by an orthogonal change of
            # basis, which leaves B B^T unchanged
            factored = _factored(full, s_t, s_tp)
            assert np.allclose(factored @ factored.T, m2 @ m2.T, atol=1e-8)
            # columns are coordinates in the alpha+p basis, rows in the alpha one
            assert m1.shape == (
                1 if q == 0 else s_t[q - 1],
                s_tp[q],
            )
