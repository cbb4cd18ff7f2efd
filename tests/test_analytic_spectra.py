"""Persistent Laplacian spectra against closed forms and the Hodge split.

The expected values come from no code in pslap: graph spectra of regular
polygons and polyhedra, and, for the persistent term of a filled shape, the
one chain in ker(Diff), the oriented sum of the fill's top simplices, whose
eigenvalue is |boundary of the sum|^2 / (number of top simplices).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    random_cloud,
    reference_boundary,
    reference_laplacian,
    row_count,
    snapshot_counts,
)
from pslap.alpha import alpha_complex, critical_alphas
from pslap.boundary import full_boundary, persistent_boundary
from pslap.geometry import PointSet
from pslap.spectra import spectrum_at
from test_acceptance import CLOUDS_4

# every eigenvalue must match within TOL * lambda_max, lambda_max being the
# largest eigenvalue of the Laplacian under test
TOL = 1e-12


def _assert_spectrum(cx, q, alpha, p, expected):
    # the record pslap reports of L_q^{alpha,p}: every eigenvalue, as many
    # harmonic chains as zeros, and the smallest nonzero value.  The dense
    # projector route's Laplacian, the tests' reference, has the same
    # eigenvalues by eigvalsh
    rec = spectrum_at(cx, q, alpha, p, full=True)
    eigs = np.array(rec.eigenvalues)
    expected = np.sort(expected)
    assert eigs.shape == expected.shape
    assert np.max(np.abs(eigs - expected)) <= TOL * eigs[-1]
    assert rec.betti == np.count_nonzero(expected == 0)
    assert abs(rec.lambda_min_nonzero - expected[expected > 0][0]) <= TOL * eigs[-1]
    reference = np.linalg.eigvalsh(reference_laplacian(cx, q, alpha, p))
    assert np.max(np.abs(reference - expected)) <= TOL * eigs[-1]


@pytest.mark.parametrize("n", [5, 6, 7, 9])
def test_regular_polygon_spectra(n):
    # the vertices of a regular n-gon on the unit circle: its sides enter at
    # half the side length, its triangles and diagonals at the circumradius 1
    t = 2 * math.pi * np.arange(n) / n
    cx = alpha_complex(PointSet(np.c_[np.cos(t), np.sin(t)]))
    alpha = (math.sin(math.pi / n) + 1) / 2
    assert snapshot_counts(cx, alpha) == (n, n, 0, 0)
    assert snapshot_counts(cx, 2.0) == (n, 2 * n - 3, n - 2, 0)
    cycle = 2 - 2 * np.cos(2 * math.pi * np.arange(1, n) / n)
    # the bare cycle: the cycle graph's nonzero spectrum and its one 1-cycle
    _assert_spectrum(cx, 1, alpha, 0.0, np.r_[cycle, 0.0])
    # filled by alpha + p: the n - 2 triangles sum to a chain with the n-cycle
    # as boundary
    _assert_spectrum(cx, 1, alpha, 2.0, np.r_[cycle, n / (n - 2)])


def test_icosahedron_graph_spectra(icosahedron_complex):
    cx = icosahedron_complex
    alpha = 1.53  # the surface: 12 vertices, 30 edges, 20 triangles
    assert snapshot_counts(cx, alpha) == (12, 30, 20, 0)
    r5 = math.sqrt(5)
    # L_0 is the icosahedral graph Laplacian, 5 - (5, sqrt5 x3, -1 x5, -sqrt5 x3)
    _assert_spectrum(cx, 0, alpha, 0.0, [0.0] + [5 - r5] * 3 + [6.0] * 5 + [5 + r5] * 3)
    # L_2 is the Laplacian of the dual graph, the dodecahedron:
    # 3 - (3, sqrt5 x3, 1 x5, 0 x4, -2 x4, -sqrt5 x3)
    dodecahedral = [3 - r5] * 3 + [2.0] * 5 + [3.0] * 4 + [5.0] * 4 + [3 + r5] * 3
    _assert_spectrum(cx, 2, alpha, 0.0, [0.0] + dodecahedral)
    # filled by alpha + p: the sum of the tetrahedra has the 20 surface
    # triangles as boundary
    n_tets = snapshot_counts(cx, 3.0)[3]
    _assert_spectrum(cx, 2, alpha, 3.0 - alpha, [20 / n_tets] + dodecahedral)


def test_octahedron_spectra():
    # the vertices +-e_x, +-e_y, +-e_z: cospherical, so the Delaunay
    # triangulation breaks a tie to fill the solid with 4 tetrahedra about
    # one diagonal; at 0.9 only the surface is present, its sides entering
    # at sqrt(2)/2 and its faces at sqrt(2/3)
    cx = alpha_complex(PointSet(np.vstack([np.eye(3), -np.eye(3)])))
    alpha = 0.9
    assert snapshot_counts(cx, alpha) == (6, 12, 8, 0)
    n_tets = snapshot_counts(cx, alpha + 0.5)[3]
    assert n_tets == 4
    # L_0 is the octahedral graph Laplacian, 4 - (4, 0 x3, -2 x2)
    _assert_spectrum(cx, 0, alpha, 0.0, [0.0] + [4.0] * 3 + [6.0] * 2)
    # L_1 = B_1^T B_1 + B_2 B_2^T has no zeros, the surface having no 1-cycle
    _assert_spectrum(cx, 1, alpha, 0.0, [2.0] * 3 + [4.0] * 6 + [6.0] * 3)
    # L_2 is the Laplacian of the dual graph, the cube: 3 - (3, 1 x3, -1 x3, -3)
    cubical = [2.0] * 3 + [4.0] * 3 + [6.0]
    _assert_spectrum(cx, 2, alpha, 0.0, [0.0] + cubical)
    # filled by alpha + p: the sum of the tetrahedra has the 8 surface
    # triangles as boundary
    _assert_spectrum(cx, 2, alpha, 0.5, [8 / n_tets] + cubical)


def test_vertex_laplacian_at_alpha_plus_p(six_complex, icosahedron_complex, cloud20_complex):
    # every vertex enters at 0, so Diff_1 has no rows and the persistent
    # boundary is the whole later B_1, without projected columns:
    # L_0^{alpha,p} is the graph Laplacian at alpha + p, L_0^{alpha+p,0}, as
    # an exact integer matrix, and has its record
    checked = 0
    for cx in (six_complex, icosahedron_complex, cloud20_complex):
        crit = critical_alphas(cx)
        span = crit[-1] - crit[0]
        for p in (span / 7.0, span / 3.0, span):
            for a in crit:
                s_t, s_tp = snapshot_counts(cx, a), snapshot_counts(cx, a + p)
                c, u = persistent_boundary(full_boundary(cx, 1), s_t[0], s_tp[1])
                assert (c, u.shape[1]) == (s_tp[1], 0), (a, p)
                lap = reference_laplacian(cx, 0, a, p)
                assert np.array_equal(lap, reference_laplacian(cx, 0, a + p)), (a, p)
                rec = spectrum_at(cx, 0, a, p, full=True)
                assert rec == replace(spectrum_at(cx, 0, a + p, full=True), alpha=a, p=p), (a, p)
                checked += 1
    assert checked > 300, checked


def _hodge_parts(boundaries, q, s_t, s_tp):
    """B_q^T B_q and B_up B_up^T from the reference boundaries, B_up being the
    later B_{q+1} on an orthonormal basis of ker(Diff): the unit vectors of
    the columns Diff is zero on, and a kernel basis of the other columns."""
    bq = boundaries[q][: row_count(q, s_t), : s_t[q]]
    r_t = s_t[q]
    later = boundaries[q + 1][: s_tp[q], : s_tp[q + 1]]
    zero = ~later[r_t:].any(axis=0)
    b_up = np.hstack([
        later[:r_t, zero],
        later[:r_t, ~zero] @ scipy.linalg.null_space(later[r_t:, ~zero]),
    ])
    return bq.T @ bq, b_up @ b_up.T


def test_hodge_split_on_oracle_clouds():
    # B_q B_up = 0 for the persistent boundary too, so the nonzero spectrum of
    # L_q^{alpha,p} is the union of those of B_q^T B_q and B_up B_up^T; it
    # checks the projector and the assembly at every third critical value
    checked = 0
    for seed, n, d in CLOUDS_4:
        cx = alpha_complex(random_cloud(seed, n, d), seed=seed)
        boundaries = [reference_boundary(cx, k).astype(float) for k in range(4)]
        crit = critical_alphas(cx)
        span = crit[-1] - crit[0]
        seen = set()
        for p in (span / 3.0,):
            for q in (0, 1, 2):
                for a in crit[::3]:
                    s_t, s_tp = snapshot_counts(cx, a), snapshot_counts(cx, a + p)
                    key = (q, s_t, s_tp)
                    if s_t[q] == 0 or key in seen:
                        continue
                    seen.add(key)
                    down, up = _hodge_parts(boundaries, q, s_t, s_tp)
                    eigs = np.array(spectrum_at(cx, q, a, p, full=True).eigenvalues)
                    # the parts hold at least n zeros between them; the rest,
                    # with the zeros of L, is L's spectrum
                    union = np.sort(np.r_[np.linalg.eigvalsh(down), np.linalg.eigvalsh(up)])
                    assert np.max(np.abs(eigs - union[len(eigs):])) <= TOL * eigs[-1], (
                        seed, q, a, p,
                    )
                    checked += 1
    assert checked > 3000, checked
