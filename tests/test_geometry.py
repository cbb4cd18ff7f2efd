import itertools
import math
import operator
import struct
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    DATA,
    audit_empty_circumspheres,
    circumradius_sq,
    exact_circumsphere,
    exact_det,
    gram_radius,
    random_cloud,
    reference_circumradius_sq,
    reference_in_sphere,
    side_of_circumsphere,
    simplex_tuples,
)
from pslap import alpha, geometry
from pslap.alpha import alpha_complex
from pslap.dataio import read_pdb_ca, read_xyz
from pslap.errors import AllCollinear, AllCoplanar, DegenerateSimplex, DuplicatePoints
from pslap.geometry import PointSet, delaunay, orientation


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


def test_reference_in_sphere_breaks_ties_consistently(icosahedron_points):
    # four cocircular points: opposite tie answers must complement each other
    rows = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    s1 = reference_in_sphere(rows, (0, 1, 2), 3)
    s2 = reference_in_sphere(rows, (0, 1, 3), 2)
    assert abs(s1) == 1 and abs(s2) == 1
    assert (s1 > 0) != (s2 > 0)
    # on two cospherical inputs, every point tied with a Delaunay cell's
    # circumsphere is put outside it by the perturbation
    grid = np.array(list(itertools.product(range(3), repeat=3)), float)
    for coords in (grid, icosahedron_points.coords):
        rows, ties = coords.tolist(), 0
        for cell in simplex_tuples(delaunay(PointSet(coords)), 3):
            for idx in set(range(len(rows))) - set(cell):
                pts = [rows[i] for i in cell + (idx,)]
                if geometry._exact_signs(geometry._gram_power, pts)[1] == 0:
                    ties += 1
                    assert reference_in_sphere(rows, cell, idx) == -1, (cell, idx)
        assert ties > 0


def test_min_circumsphere_examples():
    # each radius is the distance to the known center: (1, 0), the centroid,
    # (2, -3.75) and, for the needle, (0.5, 1e9, 0)
    assert circumradius_sq([(0, 0), (2, 0)]) == 1.0
    assert np.isclose(circumradius_sq([(0, 0), (1, 0), (0.5, np.sqrt(3) / 2)]), 1.0 / 3.0)
    assert circumradius_sq([(0, 0), (4, 0), (2, 0.5)]) == 2.0**2 + 3.75**2
    assert circumradius_sq([(5.0, 6.0)]) == 0.0
    # needle triangle: affinely independent in exact arithmetic, and the
    # float radius's bound is too large, so it is the exact one rounded
    needle = [(0, 0, 0), (1, 0, 0), (2, 1e-9, 0)]
    assert circumradius_sq(needle) == float(exact_circumsphere(needle)[1])
    assert np.isclose(circumradius_sq(needle), 0.5**2 + 1e18)


def test_min_circumsphere_equidistance_property():
    # the tests' exact center is equidistant from every point, and each float
    # radius lies within its proven bound of that distance
    rng = np.random.default_rng(2)
    for d in (2, 3):
        for k in range(1, d + 1):
            pts = rng.normal(size=(k + 1, d))
            center, r2 = exact_circumsphere(pts.tolist())
            dists = {sum((Fraction(x) - c) ** 2 for x, c in zip(p, center)) for p in pts.tolist()}
            assert dists == {r2}
            bound = gram_radius(pts)[2]
            assert bound <= geometry._RADIUS_ERR
            assert abs(Fraction(circumradius_sq(pts)) - r2) <= Fraction(bound) * r2


def test_min_circumsphere_degenerate():
    with pytest.raises(DegenerateSimplex):
        circumradius_sq([(0, 0), (1, 1), (2, 2)])


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


def _exact_orientation(pts):
    base = [Fraction(x) for x in pts[0]]
    return int(np.sign(exact_det([[Fraction(x) - b for x, b in zip(p, base)] for p in pts[1:]])))


def _exact_side(pts, q):
    center, r2 = exact_circumsphere(pts.tolist())
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
            s = reference_in_sphere(coords, tuple(range(d + 1)), d + 1)
            assert s == side or (side == 0 and abs(s) == 1), (verts, query)
        assert orientation(orient) == _exact_orientation(orient), orient
    # the same cases as one batch, whose uncertain rows take the exact path
    batch = geometry.side_of_circumsphere_batch(
        np.array([v for v, _ in cases]), np.array([q for _, q in cases])
    )
    assert batch.tolist() == sides


# Every (polynomial, point count, dimension) the kernel is compiled for: the
# orientation of d + 1 points, the Gram signs of k + 1 points (det) and of
# k + 1 points and a query (power), k = 1..d, the lifted determinant of a
# query and d + 1 points, and the circumradius polynomials of k + 1 points.
_KERNEL_SHAPES = (
    [(geometry._orient, d + 1, d) for d in (2, 3)]
    + [(geometry._gram_det, k + 1, d) for d in (2, 3) for k in range(1, d + 1)]
    + [(geometry._gram_power, k + 2, d) for d in (2, 3) for k in range(1, d + 1)]
    + [(geometry._lifted, d + 2, d) for d in (2, 3)]
    + [(geometry._gram_radius, k + 1, d) for d in (2, 3) for k in range(1, d + 1)]
)


def _generic_kernel(poly, rows):
    """(values, mags) from the polynomial body itself, interpreted."""
    base, *rest = rows
    diffs = [[x - y for x, y in zip(p, base)] for p in rest]
    return poly(diffs, operator.sub), poly([[abs(x) for x in row] for row in diffs], operator.add)


def _bits(pair) -> list[bytes]:
    """The IEEE bytes of (values, mags), each a tuple of floats or of
    equal-length columns, so that NaN, its sign and -0.0 compare too."""
    flat = [np.ravel(np.asarray(values, dtype=float)) for values in pair]
    return [struct.pack(f"<{x.size}d", *x) for x in flat]


def _kernel_rows(poly, m, d, rng):
    """(name, (M, m, d) stack): random, small-integer (zero differences and
    -0.0 products), near-tie and overflowing rows."""
    gram = poly in (geometry._gram_det, geometry._gram_radius)
    k = m - 1 if gram else m - 2
    ties = []
    for verts, query, orient in _near_tie_cases(rng, d, max(k, 1), 60):
        if poly is geometry._lifted:  # the query is the base point
            ties.append(np.vstack([query, verts]))
        else:
            ties.append(orient if poly is geometry._orient
                        else verts if gram else np.vstack([verts, query]))
    return [
        ("random", rng.normal(size=(60, m, d)) * 10.0 ** rng.integers(-3, 4, size=(60, 1, 1))),
        ("integer", rng.integers(-2, 3, size=(60, m, d)).astype(float)),
        ("near_tie", np.array(ties)),
        ("overflow", rng.uniform(-1.0, 1.0, size=(60, m, d)) * 1e200),
    ]


@pytest.mark.parametrize("poly,m,d", _KERNEL_SHAPES,
                         ids=[f"{p.__name__}-{m}x{d}" for p, m, d in _KERNEL_SHAPES])
def test_compiled_kernel_is_the_polynomial_body(poly, m, d):
    # bit for bit the generic body's values and magnitudes, on Python floats
    # row by row and on the columns of the whole stack; the sign function,
    # traced apart from the same body, gives the body's signs where the
    # float test is certain for every value, and None where it is not
    compiled = geometry._compiled(poly, m, d)
    signs = geometry._compiled(poly, m, d, signs=True)
    rng = np.random.default_rng(7 * m + d)
    outcomes = set()
    for name, stack in _kernel_rows(poly, m, d, rng):
        assert stack.shape[1:] == (m, d)
        scalar = [compiled(*rows) for rows in stack.tolist()]
        for rows, got in zip(stack.tolist(), scalar):
            values, mags = _generic_kernel(poly, rows)
            assert _bits(got) == _bits((values, mags)), (name, rows)
            certain = all(abs(v) > geometry._ERR * mg for v, mg in zip(values, mags))
            want = tuple(geometry._sign(v) for v in values) if certain else None
            assert signs(*rows) == want, (name, rows)
            outcomes.add(certain)
        columns = list(stack.transpose(1, 2, 0))
        with np.errstate(over="ignore", invalid="ignore"):
            got = compiled(*columns)
            assert _bits(got) == _bits(_generic_kernel(poly, columns)), name
        # entry r of each column is row r's value on Python floats
        assert _bits(got) == _bits(np.transpose(scalar, (1, 2, 0))), name
        if name == "overflow":
            # inf or NaN fails the certainty test, so the signs come out exact
            exact = []
            for (values, mags), rows in zip(scalar, stack.tolist()):
                assert not all(abs(v) > geometry._ERR * mg for v, mg in zip(values, mags))
                base = [Fraction(x) for x in rows[0]]
                diffs = [[Fraction(x) - y for x, y in zip(p, base)] for p in rows[1:]]
                exact.append([int(np.sign(v)) for v in poly(diffs, operator.sub)])
                assert list(geometry._exact_signs(poly, rows)) == exact[-1]
            assert geometry._batch_signs(poly, stack).T.tolist() == exact
    assert outcomes == {True, False}


class _Depth:
    """A value's rounding count by the rule of the geometry module docstring:
    one per coordinate difference, addition and subtraction, and for a
    product both factors' counts plus one."""

    def __init__(self, n):
        self.n = n

    def __add__(self, other):
        return _Depth(max(self.n, other.n) + 1)

    __sub__ = __add__

    def __mul__(self, other):
        return _Depth(self.n + other.n + 1)


def _depth(poly, m, d) -> int:
    """The deepest rounding count among poly's values on m points in R^d."""
    diffs = [[_Depth(1)] * d for _ in range(m - 1)]
    return max(v.n for v in poly(diffs, operator.sub))


def test_kernel_rounding_depth_is_covered_by_the_error_bound():
    # _ERR = 2**-48 covers a depth of D = 29, the power for k = 3; the
    # lifted in-sphere determinant is far shallower
    depths = {shape: _depth(*shape) for shape in _KERNEL_SHAPES}
    assert max(depths.values()) == depths[geometry._gram_power, 5, 3] == 29
    assert depths[geometry._lifted, 4, 2] == 11
    assert depths[geometry._lifted, 5, 3] == 16


def test_kernel_shapes_cover_every_compiled_shape():
    # builds and filtrations in 2D and 3D compile no shape the test above skips
    for d in (2, 3):
        alpha_complex(random_cloud(4, 12, d))
    assert {key[:3] for key in geometry._COMPILED} <= set(_KERNEL_SHAPES)


def test_pipeline_compiles_a_rounding_depth_of_20_at_most(monkeypatch):
    # the sign polynomials of a build and its filtration are det(G) and the
    # power of 4 points in 3D at most, both of depth 20; only the tests'
    # in-sphere reference compiles the power of 5 points (depth 29).  The
    # circumradius numerators, whose signs are never taken, reach 28, within
    # the 29 that _ERR covers.  Each shape is traced in the one kind the
    # pipeline calls: the radii as values, the build's tests as signs
    monkeypatch.setattr(geometry, "_COMPILED", {})
    for d in (2, 3):
        alpha_complex(random_cloud(4, 12, d))
    kinds = {}
    for poly, m, d, signs in geometry._COMPILED:
        kinds.setdefault(poly, set()).add(signs)
    assert kinds == {geometry._orient: {True}, geometry._lifted: {True},
                     geometry._gram_det: {True}, geometry._gram_power: {False},
                     geometry._gram_radius: {False}}, kinds
    depths = {key[:3]: _depth(*key[:3]) for key in geometry._COMPILED}
    radius = geometry._gram_radius
    signs = {shape: n for shape, n in depths.items() if shape[0] is not radius}
    assert max(signs.values()) == 20, signs
    assert (geometry._gram_power, 5, 3) not in depths
    radii = {shape[1:]: n for shape, n in depths.items() if shape[0] is radius}
    assert radii == {(2, 2): 9, (3, 2): 16, (2, 3): 11, (3, 3): 19, (4, 3): 28}
    assert max(radii.values()) <= 29


def test_min_circumsphere_batch_with_a_needle_row():
    # the kernel's bound routes the needle to exact arithmetic; every other
    # row keeps the radius the scalar formula gives it
    needle = [(0, 0, 0), (1, 0, 0), (2, 1e-9, 0)]
    tris = [[(0, 0, 0), (2, 0, 0), (0, 1, 0)], needle, [(1, 1, 1), (2, 1, 0), (0, 3, 1)]]
    radius_sq = geometry.min_circumsphere_batch(np.array(tris, float))
    for row, tri in enumerate(tris):
        assert radius_sq[row] == reference_circumradius_sq(tri)
    assert radius_sq[1] == float(exact_circumsphere(needle)[1])


# needles and flat simplices whose float radius has a bound above _RADIUS_ERR
_NEEDLES = {
    "3d-needle-1e-7": [(0, 0, 0), (1, 0, 0), (2, 1e-7, 0)],
    "3d-needle-1e-6": [(0, 0, 0), (1, 0, 0), (2, 1e-6, 0)],
    "2d-needle-1e-7": [(0, 0), (1, 0), (2, 1e-7)],
    "flat-1e-7": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.3, 0.3, 1e-7)],
    "flat-1e-8": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.3, 0.3, 1e-8)],
    # the magnitudes overflow
    "3d-needle-1e80": [(0, 0, 0), (1e80, 0, 0), (2e80, 1e72, 0)],
    # not a needle: det(G) is finite and b^T adj(G) b overflows
    "2d-overflowing-gram": [(0, 0), (1e154, 0), (0, 1)],
}


@pytest.mark.parametrize("name", list(_NEEDLES))
def test_needle_circumsphere_is_the_exact_one_rounded(name):
    # the kernel's bound sends these to exact arithmetic, rounded once
    assert not gram_radius(_NEEDLES[name])[2] <= geometry._RADIUS_ERR
    assert circumradius_sq(_NEEDLES[name]) == float(exact_circumsphere(_NEEDLES[name])[1])


@pytest.mark.parametrize("k", [2, 3])
def test_min_circumsphere_batch_mixes_routed_and_solved_rows(k):
    # routed rows between ordinary ones: each row is what it is alone, the
    # routed ones the exact radius rounded and the rest the float formula
    routed = [p for p in _NEEDLES.values() if len(p) == k + 1 and len(p[0]) == 3]
    rng = np.random.default_rng(k)
    stack = np.concatenate([rng.normal(size=(3, k + 1, 3)), routed, rng.normal(size=(3, k + 1, 3))])
    radius_sq = geometry.min_circumsphere_batch(stack)
    for row, pts in enumerate(stack):
        assert radius_sq[row] == reference_circumradius_sq(pts)
    for row, pts in enumerate(routed, start=3):
        assert radius_sq[row] == float(exact_circumsphere(pts)[1])


@pytest.mark.parametrize("dependent", [
    [(0, 0, 0), (1, 1, 1), (3, 3, 3)],
    [(0, 0, 0), (1e160, 1e160, 0), (2e160, 2e160, 0)],  # its float Gram matrix overflows
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
], ids=["collinear", "collinear-overflow", "coplanar"])
def test_min_circumsphere_batch_dependent_row_raises(dependent):
    rng = np.random.default_rng(3)
    ordinary = rng.normal(size=(2, len(dependent), 3))
    stack = np.concatenate([ordinary[:1], [dependent], ordinary[1:]])
    with pytest.raises(DegenerateSimplex):
        geometry.min_circumsphere_batch(stack)


def _needle_family(rng, count):
    """(M, k+1, d) stacks of needle triangles in 2D and 3D and flat
    tetrahedra, whose det(G) over its magnitude spans 1e-12 to 1e-5: the
    axis-aligned shapes, then randomly rotated, scaled and shifted copies."""
    shapes = {
        (3, 2): lambda h: [(0, 0), (1, 0), (2, h)],
        (3, 3): lambda h: [(0, 0, 0), (1, 0, 0), (2, h, 0)],
        (4, 3): lambda h: [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.3, 0.3, h)],
    }
    for (m, d), shape in shapes.items():
        # det(G) is h² for each shape, over a magnitude of about 8 or 3
        heights = np.sqrt(8.0 * 10.0 ** rng.uniform(-12, -5, size=count))
        plain = np.array([shape(h) for h in heights])
        rotation = np.linalg.qr(rng.normal(size=(count, d, d)))[0]
        scale = 10.0 ** rng.uniform(-3, 3, size=(count, 1, 1))
        shift = rng.normal(size=(count, 1, d)) * 10.0 ** rng.uniform(-3, 3, size=(count, 1, 1))
        yield plain
        yield (plain @ rotation) * scale + shift


def test_float_radii_lie_within_their_proven_bound():
    # every row the float formula keeps is within its bound of the exact
    # radius, and within _RADIUS_ERR; every other row, among them all of det
    # ratio 1e-12 to 1e-9, is the exact radius rounded
    rng = np.random.default_rng(24)
    kept, routed, low = 0, 0, 0
    for stack in _needle_family(rng, 120):
        radius_sq = geometry.min_circumsphere_batch(stack)
        for pts, got in zip(stack.tolist(), radius_sq.tolist()):
            det, num, bound = gram_radius(pts)
            mag = [[abs(x - y) for x, y in zip(p, pts[0])] for p in pts[1:]]
            ratio = det / geometry._gram_det(mag, operator.add)[0]
            low += 1e-12 <= ratio <= 1e-9
            exact = exact_circumsphere(pts)[1]
            if bound <= geometry._RADIUS_ERR:
                kept += 1
                error = abs(Fraction(got) - exact)
                assert error <= Fraction(bound) * exact, pts
                assert error <= Fraction(geometry._RADIUS_ERR) * exact, pts
            else:
                routed += 1
                assert got == float(exact), pts
    assert kept > 100 and routed > 100 and low > 100, (kept, routed, low)


def test_two_point_edge_is_its_batch_row():
    # 6 000 random pairs, 2D and 3D alternating: where half the squared
    # distance differs from the closed form, the two-point complex still
    # gives its edge the value any edge of a larger complex gets
    rng = np.random.default_rng(0)
    pairs = [rng.normal(size=(2, 2 + i % 2)) * 10.0 ** rng.uniform(-3, 3) for i in range(6000)]
    differ = 0
    for d in (2, 3):
        stack = np.array([p for p in pairs if p.shape[1] == d])
        radius_sq = geometry.min_circumsphere_batch(stack)
        quarter = np.sum((stack[:, 1] - stack[:, 0]) ** 2, axis=1) / 4.0
        for pts, r2 in zip(stack[radius_sq != quarter], radius_sq[radius_sq != quarter]):
            differ += 1
            assert alpha_complex(PointSet(pts)).filtration_values_sq(1).tolist() == [r2]
    assert differ > 100, differ


# routed rows per input: chain_clean and chain_defect carry thin tetrahedra
# whose bound is above _RADIUS_ERR
_ROUTED = {
    "chain_clean.xyz": 8, "chain_defect.xyz": 9, "ca_chain220_seed1.pdb": 2, "needle.xyz": 1,
    "cloud20_3d.xyz": 0, "grid4.xyz": 0, "icosahedron.xyz": 0, "near_tie.xyz": 0,
    "pair.xyz": 0, "six_points.xyz": 0,
}


def test_rows_are_routed_iff_their_bound_exceeds_the_threshold(monkeypatch):
    rows, routed = [], []
    batch, exact = geometry.min_circumsphere_batch, geometry._exact

    def recorded(simplices):
        rows.extend(simplices.tolist())
        return batch(simplices)

    def counted(poly, points):
        if poly is geometry._gram_radius:
            routed.append(points)
        return exact(poly, points)

    monkeypatch.setattr(alpha, "min_circumsphere_batch", recorded)
    monkeypatch.setattr(geometry, "_exact", counted)
    counts = {}
    for name in _ROUTED:
        rows.clear()
        routed.clear()
        path = DATA / name
        alpha_complex(read_pdb_ca(path) if path.suffix == ".pdb" else read_xyz(path))
        assert routed == [r for r in rows if not gram_radius(r)[2] <= geometry._RADIUS_ERR], name
        counts[name] = len(routed)
        if name == "needle.xyz":
            assert routed == [[[0.0, 0.0], [1.0, 0.0], [2.0, 1e-7]]]
    assert counts == _ROUTED


def test_delaunay_square():
    ps = PointSet(np.array([(0, 0), (1, 0), (0, 1), (1, 1)], float))
    c = delaunay(ps)
    assert [c.n_simplices(q) for q in range(3)] == [4, 5, 2]
    for seed in (1, 2, 3, 17):
        c2 = delaunay(ps, seed=seed)
        assert np.array_equal(c2.vertex_rows(2), c.vertex_rows(2))


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
        faces = set(simplex_tuples(c, q - 1))
        for s in simplex_tuples(c, q):
            for i in range(q + 1):
                assert s[:i] + s[i + 1:] in faces


def _far_near_duplicates(d):
    """12 points in [-1, 1]^d and four pairs 1e-7 apart at distance 30:
    near-duplicate vertices far from the rest."""
    rng = np.random.default_rng(60 + d)
    far = rng.normal(size=(4, d))
    far *= 30.0 / np.linalg.norm(far, axis=1, keepdims=True)
    nudge = rng.normal(size=(4, d))
    nudge *= 1e-7 / np.linalg.norm(nudge, axis=1, keepdims=True)
    return PointSet(np.concatenate([rng.uniform(-1.0, 1.0, size=(12, d)), far, far + nudge]))


@pytest.mark.parametrize("d", [2, 3])
def test_delaunay_insertion_order_invariance(d, icosahedron_points):
    inputs = [random_cloud(11, 18, d), _far_near_duplicates(d)]
    if d == 3:  # degenerate: the grid's builds break hull-plane ties
        inputs += [PointSet(np.array(list(itertools.product(range(3), repeat=3)), float)),
                   icosahedron_points]
    for ps in inputs:
        base = delaunay(ps, seed=0)
        assert not audit_empty_circumspheres(base, ps.coords)
        for seed in (3, 9):
            alt = delaunay(ps, seed=seed)
            for q in range(d + 1):
                assert np.array_equal(alt.vertex_rows(q), base.vertex_rows(q))


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
    # a scan of every cell per insertion runs about 62 300 conflict tests
    # here; the walk's facet-side tests and the conflict tests take about
    # 7 900, a hull cell's conflict test counting twice as it is a `_side`
    ps = random_cloud(2, 150, 3)
    calls = 0

    def counted(method):
        def call(self, *args):
            nonlocal calls
            calls += 1
            return method(self, *args)
        return call

    tri = geometry._Triangulation
    for name in ("_side", "in_conflict"):
        monkeypatch.setattr(tri, name, counted(getattr(tri, name)))
    c = delaunay(ps)
    assert calls < 10_000
    assert not audit_empty_circumspheres(c, ps.coords)


def _grid_points():
    return PointSet(np.array(list(itertools.product(range(3), repeat=3)), float))


def test_delaunay_cells_are_linked_and_oriented(monkeypatch, icosahedron_points):
    # the insertion state each build leaves, on the random audits' clouds,
    # two cospherical inputs and a 2D cloud
    built = []

    class Recorded(geometry._Triangulation):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(geometry, "_Triangulation", Recorded)
    audits = ((2, 0, 25), (2, 5, 40), (3, 1, 20), (3, 6, 30))
    inputs = [random_cloud(seed, n, d) for d, seed, n in audits]
    inputs += [_grid_points(), icosahedron_points, random_cloud(9, 60, 2)]
    for ps in inputs:
        cx = delaunay(ps)
        tri, d = built[-1], ps.dim
        finite = []
        for c, cell in enumerate(tri.cells):
            if cell is None:
                continue
            assert len(tri.nbr[c]) == d + 1
            for j, other in enumerate(tri.nbr[c]):
                # mutual, across the facet opposite index j on both sides
                assert tri.cells[other] is not None
                k = tri.nbr[other].index(c)
                assert set(tri.cells[other]) - {tri.cells[other][k]} == set(cell) - {cell[j]}
            if cell[-1] != geometry._INF:
                finite.append(cell)
                pts = [tri.rows[v] for v in cell]
                assert tri.orient[c] == geometry._exact_signs(geometry._orient, pts)[0] != 0
        assert sorted(finite) == sorted(simplex_tuples(cx, d))
        # the next walk's start: a live finite cell
        assert tri.cells[tri.last] is not None and tri.cells[tri.last][-1] != geometry._INF


def test_delaunay_ties_break_on_the_stored_orientation(monkeypatch, icosahedron_points):
    # on a tie the lifted determinant is 0 and so is the power: the build
    # breaks it from the cell's stored orientation without evaluating the
    # power, into the cells the tests' reference tie-break gives
    octahedron = np.concatenate([np.eye(3), -np.eye(3)])
    inputs = [np.array(list(itertools.product(range(4), repeat=3)), float),
              icosahedron_points.coords, octahedron]
    calls = {"power": 0, "tie": 0}
    exact_signs = geometry._exact_signs

    def counted(poly, points):
        signs = exact_signs(poly, points)
        calls["power"] += poly is geometry._gram_power
        calls["tie"] += poly is geometry._lifted and signs == (0,)
        return signs

    def inside_by_power(self, c, p_idx):
        cell, rows = self.cells[c], self.rows
        s = exact_signs(geometry._lifted, [rows[p_idx]] + [rows[v] for v in cell])[0]
        return (s * self.orient[c] * self.cal if s else reference_in_sphere(rows, cell, p_idx)) > 0

    for coords in inputs:
        calls.update(power=0, tie=0)
        with monkeypatch.context() as m:
            m.setattr(geometry, "_exact_signs", counted)
            built = delaunay(PointSet(coords))
        assert calls["tie"] > 0 and calls["power"] == 0
        with monkeypatch.context() as m:
            m.setattr(geometry._Triangulation, "_inside", inside_by_power)
            reference = delaunay(PointSet(coords))
        assert np.array_equal(built.vertex_rows(3), reference.vertex_rows(3))


def _lifted_side(rows, cell, query):
    """The lifted determinant's in-sphere sign: its exact sign about the
    query, times the cell's orientation, times the per-dimension constant."""
    pts = [rows[query]] + [rows[v] for v in cell]
    lifted = geometry._exact_signs(geometry._lifted, pts)[0]
    orient = geometry._exact_signs(geometry._orient, pts[1:])[0]
    return lifted * orient * geometry._INSPHERE_CAL[len(rows[0])]


@pytest.mark.parametrize("d", [2, 3])
def test_lifted_in_sphere_matches_reference_in_sphere(d, icosahedron_points):
    rng = np.random.default_rng(40 + d)
    cell = tuple(range(d + 1))
    inputs = [("random", rng.normal(size=(d + 2, d)) * 10.0 ** rng.integers(-3, 4))
              for _ in range(200)]
    inputs += [("near_tie", np.vstack([verts, query]))
               for verts, query, _ in _near_tie_cases(rng, d, d, 200)]
    inputs += [("overflow", rng.uniform(-1.0, 1.0, size=(d + 2, d)) * 1e200) for _ in range(60)]
    ties = 0
    for name, coords in inputs:
        rows = coords.tolist()
        if name == "overflow":  # the float test fails, so the sign is exact
            pts = [rows[d + 1]] + rows[:d + 1]
            assert geometry._compiled(geometry._lifted, d + 2, d, signs=True)(*pts) is None
        side = _lifted_side(rows, cell, d + 1)
        power = geometry._exact_signs(geometry._gram_power, rows)[1]
        assert side == power, (name, rows)
        if side:
            assert side == reference_in_sphere(rows, cell, d + 1), (name, rows)
        ties += side == 0
    # cospherical inputs: both polynomials vanish on the same cells and
    # queries, and agree in sign elsewhere
    cospherical = [_grid_points().coords] if d == 3 else [
        np.array(list(itertools.product(range(4), repeat=2)), float)]
    if d == 3:
        cospherical.append(icosahedron_points.coords)
    for coords in cospherical:
        rows = coords.tolist()
        for cell in simplex_tuples(delaunay(PointSet(coords)), d):
            for query in set(range(len(rows))) - set(cell):
                side = _lifted_side(rows, cell, query)
                pts = [rows[i] for i in cell + (query,)]
                assert side == geometry._exact_signs(geometry._gram_power, pts)[1]
                if side:
                    assert side == reference_in_sphere(rows, cell, query)
                ties += side == 0
    assert ties > 0
