import itertools

import numpy as np
import pytest

from conftest import random_cloud
from pslap.errors import AllCollinear, AllCoplanar, DegenerateSimplex, DuplicatePoints
from pslap.geometry import (
    PointSet,
    audit_empty_circumspheres,
    delaunay,
    in_sphere,
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


def test_in_sphere_2d_examples():
    tri = [(0, 0), (1, 0), (0, 1)]
    assert in_sphere(tri, (1, 1)) == 0
    assert in_sphere(tri, (0.3, 0.3)) == 1
    assert in_sphere(tri, (2, 2)) == -1


def test_in_sphere_orientation_independent():
    rng = np.random.default_rng(1)
    tet = rng.normal(size=(4, 3))
    q_in = tet.mean(axis=0)
    q_out = tet.mean(axis=0) + 100.0
    for perm in itertools.permutations(range(4)):
        assert in_sphere(tet[list(perm)], q_in) == 1
        assert in_sphere(tet[list(perm)], q_out) == -1


def test_in_sphere_degenerate_raises():
    with pytest.raises(DegenerateSimplex):
        in_sphere([(0, 0), (1, 1), (2, 2)], (0, 1))


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
    assert not audit_empty_circumspheres(c)
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
    assert not audit_empty_circumspheres(c)
    # output is a closed complex
    for q in range(1, d + 1):
        for s in c.simplices(q):
            for i in range(q + 1):
                assert s[:i] + s[i + 1:] in c


@pytest.mark.parametrize("d", [2, 3])
def test_delaunay_insertion_order_invariance(d):
    ps = random_cloud(11, 18, d)
    base = delaunay(ps, seed=0)
    for seed in (3, 9):
        alt = delaunay(ps, seed=seed)
        for q in range(d + 1):
            assert alt.simplices(q) == base.simplices(q)


def test_delaunay_degenerate_grids():
    g = PointSet(np.array([(i, j) for i in range(4) for j in range(4)], float))
    c = delaunay(g)
    assert not audit_empty_circumspheres(c)
    g3 = PointSet(np.array(
        [(i, j, k) for i in range(3) for j in range(3) for k in range(3)], float
    ))
    c3 = delaunay(g3)
    assert not audit_empty_circumspheres(c3)
    assert c3.n_simplices(0) == 27


def test_delaunay_cospherical_icosahedron(icosahedron_points):
    c = delaunay(icosahedron_points)
    assert not audit_empty_circumspheres(c)
    assert c.n_simplices(0) == 12
    # hull of the icosahedron: 20 faces and 30 edges among the surface simplices
    assert c.n_simplices(2) >= 20
    assert c.n_simplices(1) >= 30
