import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import audit_empty_circumspheres, random_cloud, reference_min_circumsphere
from pslap import geometry
from pslap.errors import AllCollinear, AllCoplanar, DegenerateSimplex, DuplicatePoints
from pslap.geometry import (
    PointSet,
    delaunay,
    in_sphere_indexed,
    min_circumsphere,
    orientation,
    side_of_circumsphere,
)


def test_orientation_2d():
    assert orientation([(0, 0), (1, 0), (0, 1)]) == 1
    assert orientation([(0, 0), (0, 1), (1, 0)]) == -1
    assert orientation([(0, 0), (1, 1), (2, 2)]) == 0


def test_orientation_3d():
    assert orientation([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    assert orientation([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 0


def test_orientation_is_exact_near_collinear():
    # classic float-breaker: tiny offsets around a long segment
    a, b = (0.0, 0.0), (1e8, 1e8)
    for k in range(1, 6):
        eps = 10.0 ** -k
        assert orientation([a, b, (0.5e8, 0.5e8 + eps)]) == 1
        assert orientation([a, b, (0.5e8, 0.5e8 - eps)]) == -1
        assert orientation([a, b, (0.5e8, 0.5e8)]) == 0


def test_orientation_permutation_parity():
    pts = np.array([(0.1, 0.2), (1.3, 0.4), (0.5, 1.6)])
    base = orientation(pts)
    for perm in itertools.permutations(range(3)):
        sign = 1
        # parity via inversion count
        inv = sum(
            1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j]
        )
        sign = -1 if inv % 2 else 1
        assert orientation(pts[list(perm)]) == sign * base


def test_side_of_circumsphere_2d_examples():
    tri = [(0, 0), (1, 0), (0, 1)]
    assert side_of_circumsphere(tri, (1, 1)) == 0
    assert side_of_circumsphere(tri, (0.3, 0.3)) == 1
    assert side_of_circumsphere(tri, (2, 2)) == -1


def test_side_of_circumsphere_orientation_independent():
    rng = np.random.default_rng(1)
    tet = rng.normal(size=(4, 3))
    q_in = tet.mean(axis=0)
    q_out = tet.mean(axis=0) + 100.0
    for perm in itertools.permutations(range(4)):
        assert side_of_circumsphere(tet[list(perm)], q_in) == 1
        assert side_of_circumsphere(tet[list(perm)], q_out) == -1


def test_side_of_circumsphere_degenerate_raises():
    with pytest.raises(DegenerateSimplex):
        side_of_circumsphere([(0, 0), (1, 1), (2, 2)], (0, 1))


def test_in_sphere_indexed_breaks_ties_consistently():
    # four cocircular points: opposite tie answers must complement each other
    coords = np.array([(0, 0), (1, 0), (0, 1), (1, 1)], float)
    s1 = in_sphere_indexed(coords, (0, 1, 2), 3)
    s2 = in_sphere_indexed(coords, (0, 1, 3), 2)
    assert abs(s1) == 1 and abs(s2) == 1
    assert (s1 > 0) != (s2 > 0)


def test_min_circumsphere_examples():
    cs = min_circumsphere([(0, 0), (2, 0)])
    assert np.allclose(cs.center, (1, 0)) and np.isclose(cs.radius_sq, 1.0)
    cs = min_circumsphere([(0, 0), (1, 0), (0.5, np.sqrt(3) / 2)])
    assert np.isclose(cs.radius_sq, 1.0 / 3.0)
    cs = min_circumsphere([(0, 0), (4, 0), (2, 0.5)])
    assert np.allclose(cs.center, (2, -3.75)) and np.isclose(cs.radius_sq, 18.0625)
    cs = min_circumsphere([(5.0, 6.0)])
    assert cs.radius_sq == 0.0
    # needle triangle: affinely independent in exact arithmetic, singular to
    # the floating-point solve
    cs = min_circumsphere([(0, 0, 0), (1, 0, 0), (2, 1e-9, 0)])
    assert np.allclose(cs.center, (0.5, 1e9, 0)) and np.isclose(cs.radius_sq, 1e18)


def test_min_circumsphere_equidistance_property():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        for k in range(1, d + 1):
            pts = rng.normal(size=(k + 1, d))
            cs = min_circumsphere(pts)
            dists = np.sum((pts - cs.center) ** 2, axis=1)
            assert np.allclose(dists, cs.radius_sq, rtol=1e-9, atol=1e-12)


def test_min_circumsphere_degenerate():
    with pytest.raises(DegenerateSimplex):
        min_circumsphere([(0, 0), (1, 1), (2, 2)])


def test_side_of_circumsphere_lower_dim():
    # edge in 3D: ball around the midpoint
    edge = [(0, 0, 0), (2, 0, 0)]
    assert side_of_circumsphere(edge, (1, 0.5, 0)) == 1
    assert side_of_circumsphere(edge, (1, 5, 0)) == -1
    assert side_of_circumsphere(edge, (1, 1, 0)) == 0
    # needle triangle with a far query near its circumsphere
    needle = [(0.098, 3.472, 1.397), (2.418, -4.085, 0.411), (4.739, -11.643, -0.575)]
    assert side_of_circumsphere(needle, (146539.326, 4875.563, 90800.682)) == -1


# Near-tie inputs for the predicate kernel.  Vertices and queries are points of
# the 0.001 grid on a common sphere around a grid center, so each tie is exact
# in decimal; the binary floats of those decimals are not, so the true signs
# hinge on the last bits and a float sign without its bound or exact fallback
# gets many of them wrong.  The spheres are lattice circles of squared radius
# _TIE_N (in grid units), placed in 3D as great circles through the rows of an
# orthogonal integer basis of squared norm 9.
_TIE_N = 5**4 * 13**2 * 17**2 * 29  # 360 lattice points, radius ~29.75 in 0.001 units
_FRAME = np.array([(1, 2, 2), (2, 1, -2), (2, -2, 1)])


def _tie_circle() -> np.ndarray:
    """Integer points on x^2 + y^2 = _TIE_N, ordered by angle."""
    x = np.arange(-math.isqrt(_TIE_N), math.isqrt(_TIE_N) + 1)
    y = np.sqrt(_TIE_N - x * x).round().astype(np.int64)
    x, y = x[x * x + y * y == _TIE_N], y[x * x + y * y == _TIE_N]
    pts = np.unique(np.concatenate([np.stack([x, y], 1), np.stack([x, -y], 1)]), axis=0)
    return pts[np.argsort(np.arctan2(pts[:, 1], pts[:, 0]))]


def _exact_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _exact_orientation(pts):
    base = [Fraction(x) for x in pts[0]]
    return int(np.sign(_exact_det([[Fraction(x) - b for x, b in zip(p, base)] for p in pts[1:]])))


# Independent exact reference: a Gauss-Jordan solve of the circumcenter
# system, sharing no code with the kernel's Gram polynomials.
def _circumsphere_exact(pts):
    """Circumcenter (affine-hull) and squared radius as exact rationals."""
    base = [Fraction(x) for x in pts[0]]
    dim = len(base)
    V = [[Fraction(p[k]) - base[k] for k in range(dim)] for p in pts[1:]]
    k = len(V)
    if k == 0:
        return base, Fraction(0)
    G = [[2 * sum(vi[m] * vj[m] for m in range(dim)) for vj in V] for vi in V]
    rhs = [sum(v[m] * v[m] for m in range(dim)) for v in V]
    t = _solve_exact(G, rhs)
    offset = [sum(t[j] * V[j][m] for j in range(k)) for m in range(dim)]
    center = [base[m] + offset[m] for m in range(dim)]
    r2 = sum(o * o for o in offset)
    return center, r2


def _solve_exact(A, b):
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise DegenerateSimplex("singular exact circumsphere system")
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col] / inv
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


def _exact_side(pts, q):
    center, r2 = _circumsphere_exact(pts.tolist())
    d2 = sum((Fraction(x) - c) ** 2 for x, c in zip(q.tolist(), center))
    return int(np.sign(r2 - d2))


def _near_tie_cases(rng, d, k, count):
    """(simplex, query, orientation points) on the 0.001 grid; every third
    simplex with k >= 2 is a needle cut from neighbouring circle points."""
    circle = _tie_circle()
    m = len(circle)
    circles = [circle]
    if d == 3:  # great circles of the sphere of squared radius 9 * _TIE_N
        circles = [circle @ _FRAME[[a, b]] for a, b in ((0, 1), (0, 2), (1, 2))]
    sphere = np.concatenate(circles)
    for case in range(count):
        needle = k >= 2 and case % 3 == 0
        ring = circles[rng.integers(len(circles))]
        start = int(rng.integers(m))
        if k == 1:
            u = ring[start]
            verts = np.stack([u, -u])
        elif k < 3:
            idx = [start, start + 1, start + 2] if needle else rng.choice(m, 3, replace=False)
            verts = ring[np.asarray(idx) % m]
        elif needle:  # a needle triangle and the sphere point nearest its plane
            tri = ring[np.arange(start, start + 3) % m]
            height = np.cross(tri[1] - tri[0], tri[2] - tri[0]) @ (sphere - tri[0]).T
            nearest = np.argmin(np.where(height == 0, np.inf, np.abs(height)))
            verts = np.vstack([tri, sphere[nearest]])
        else:
            while True:
                verts = sphere[rng.choice(len(sphere), 4, replace=False)]
                if abs(np.linalg.det((verts[1:] - verts[0]).astype(float))) > 0.5:
                    break
        # coplanar queries from the simplex's own great circle half of the time
        pool = ring if (d == 3 and k == 2 and case % 2) else sphere
        query = pool[rng.integers(len(pool))]
        while any((query == v).all() for v in verts):
            query = pool[rng.integers(len(pool))]
        center = rng.integers(-5000, 5001, size=d)
        verts, query = (verts + center) / 1000.0, (query + center) / 1000.0
        if k == d:
            orient = verts
        elif k == 1:  # collinear through the center
            orient = np.vstack([verts[0], center / 1000.0, verts[1], query][: d + 1])
        else:
            orient = np.vstack([verts, query])
        yield verts, query, orient


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_predicate_kernel_matches_exact_reference(d, k):
    rng = np.random.default_rng(100 * d + k)
    cases, sides = [], []
    for verts, query, orient in _near_tie_cases(rng, d, k, 600):
        side = _exact_side(verts, query)
        cases.append((verts, query))
        sides.append(side)
        assert side_of_circumsphere(verts, query) == side, (verts, query)
        if k == d:
            coords = np.vstack([verts, query])
            s = in_sphere_indexed(coords, tuple(range(d + 1)), d + 1)
            assert s == side or (side == 0 and abs(s) == 1), (verts, query)
        assert orientation(orient) == _exact_orientation(orient), orient
    # the same cases as one batch, whose uncertain rows take the exact path
    batch = geometry.side_of_circumsphere_batch(
        np.array([v for v, _ in cases]), np.array([q for _, q in cases])
    )
    assert batch.tolist() == sides


def test_min_circumsphere_batch_with_a_needle_row():
    # the needle makes the stacked solve singular; its row takes the exact
    # path and every other row keeps the radius the scalar formula gives it
    needle = [(0, 0, 0), (1, 0, 0), (2, 1e-9, 0)]
    tris = [[(0, 0, 0), (2, 0, 0), (0, 1, 0)], needle, [(1, 1, 1), (2, 1, 0), (0, 3, 1)]]
    centers, radius_sq = geometry.min_circumsphere_batch(np.array(tris, float))
    for row, tri in enumerate(tris):
        alone = reference_min_circumsphere(tri)
        assert radius_sq[row] == alone.radius_sq
        assert np.array_equal(centers[row], alone.center)
    assert radius_sq[1] == float(_circumsphere_exact(needle)[1])


def test_delaunay_square():
    ps = PointSet(np.array([(0, 0), (1, 0), (0, 1), (1, 1)], float))
    c = delaunay(ps)
    assert [c.n_simplices(q) for q in range(3)] == [4, 5, 2]
    for seed in (1, 2, 3, 17):
        c2 = delaunay(ps, seed=seed)
        assert c2.simplices(2) == c.simplices(2)


def test_delaunay_convex_position_five_points():
    # five points in convex position: every triangle circumcircle is empty
    ang = np.deg2rad([90, 162, 234, 306, 18])
    ps = PointSet(np.stack([np.cos(ang), np.sin(ang)], axis=1) + 0.01 * np.arange(10).reshape(5, 2))
    c = delaunay(ps)
    assert not audit_empty_circumspheres(c, ps.coords)
    assert c.n_simplices(2) == 3


def test_delaunay_errors():
    with pytest.raises(AllCollinear):
        delaunay(PointSet(np.array([(0, 0), (1, 1), (2, 2), (3, 3)], float)))
    with pytest.raises(AllCoplanar):
        delaunay(PointSet(np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], float)))
    with pytest.raises(AllCoplanar):
        delaunay(PointSet(np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0)], float)))
    with pytest.raises(DuplicatePoints):
        delaunay(PointSet(np.array([(0, 0), (1, 0), (0, 1), (1, 0)], float)))


@pytest.mark.parametrize("d,seed,n", [(2, 0, 25), (2, 5, 40), (3, 1, 20), (3, 6, 30)])
def test_delaunay_random_audit(d, seed, n):
    ps = random_cloud(seed, n, d)
    c = delaunay(ps, seed=seed)
    assert not audit_empty_circumspheres(c, ps.coords)
    # output is a closed complex
    for q in range(1, d + 1):
        faces = set(c.simplices(q - 1))
        for s in c.simplices(q):
            for i in range(q + 1):
                assert s[:i] + s[i + 1:] in faces


@pytest.mark.parametrize("d", [2, 3])
def test_delaunay_insertion_order_invariance(d, icosahedron_points):
    inputs = [random_cloud(11, 18, d)]
    if d == 3:  # degenerate: the grid's builds break hull-plane ties
        inputs += [PointSet(np.array(list(itertools.product(range(3), repeat=3)), float)),
                   icosahedron_points]
    for ps in inputs:
        base = delaunay(ps, seed=0)
        for seed in (3, 9):
            alt = delaunay(ps, seed=seed)
            for q in range(d + 1):
                assert alt.simplices(q) == base.simplices(q)


def test_delaunay_degenerate_grids():
    g = PointSet(np.array([(i, j) for i in range(4) for j in range(4)], float))
    c = delaunay(g)
    assert not audit_empty_circumspheres(c, g.coords)
    g3 = PointSet(np.array(
        [(i, j, k) for i in range(3) for j in range(3) for k in range(3)], float
    ))
    c3 = delaunay(g3)
    assert not audit_empty_circumspheres(c3, g3.coords)
    assert c3.n_simplices(0) == 27


def test_delaunay_cospherical_icosahedron(icosahedron_points):
    c = delaunay(icosahedron_points)
    assert not audit_empty_circumspheres(c, icosahedron_points.coords)
    assert c.n_simplices(0) == 12
    # hull of the icosahedron: 20 faces and 30 edges among the surface simplices
    assert c.n_simplices(2) >= 20
    assert c.n_simplices(1) >= 30


def test_delaunay_conflict_search_is_local(monkeypatch):
    # a scan of every cell per insertion runs about 62 300 conflict tests here
    ps = random_cloud(2, 150, 3)
    calls = 0
    in_conflict = geometry._Triangulation.in_conflict

    def counted(self, cell, p_idx):
        nonlocal calls
        calls += 1
        return in_conflict(self, cell, p_idx)

    monkeypatch.setattr(geometry._Triangulation, "in_conflict", counted)
    c = delaunay(ps)
    assert calls < 10_000
    assert not audit_empty_circumspheres(c, ps.coords)
