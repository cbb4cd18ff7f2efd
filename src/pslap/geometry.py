"""Geometric predicates, circumspheres, and Delaunay tessellation in 2D/3D.

Predicates are evaluated with a floating-point filter backed by an exact
rational fallback, so a sign is never wrong due to rounding.  Cospherical
degeneracies are broken by a symbolic perturbation of the lifted weights
(point i lowered by an infinitesimal eps**(n-i), so the highest-index point
dominates ties); the tessellation built from the perturbed predicate is the
regular triangulation of the perturbed lift and is therefore independent of
insertion order.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AllCollinear,
    AllCoplanar,
    DegenerateSimplex,
    DuplicatePoints,
    PslapError,
)
from .simplices import FilteredComplex, closure_of_cells

_EPS = 2.220446049250313e-16
_ORIENT_FILTER = 16.0 * _EPS
_INSPHERE_FILTER = 64.0 * _EPS

# Sign fix so that in_sphere is +1 for interior points in either dimension
# (the translated lifted determinant flips parity between 2D and 3D).
_INSPHERE_CAL = {2: 1, 3: -1}


@dataclass(frozen=True)
class PointSet:
    """An n x d coordinate array (d in {2, 3}) with optional per-point labels."""

    coords: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] not in (2, 3):
            raise ValueError(f"coords must be n x 2 or n x 3, got shape {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "coords", coords)
        if self.labels is not None and len(self.labels) != len(coords):
            raise ValueError("labels length must match number of points")

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class Circumsphere:
    center: np.ndarray
    radius_sq: float


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = m[0][0] * 0
    sign = 1
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += sign * m[0][j] * _det(minor)
        sign = -sign
    return total


def _perm(m):
    n = len(m)
    if n == 1:
        return abs(m[0][0])
    if n == 2:
        return abs(m[0][0] * m[1][1]) + abs(m[0][1] * m[1][0])
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += abs(m[0][j]) * _perm(minor)
    return total


def _sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _filtered_sign(rows_float, rows_exact, filter_const) -> int:
    det = _det(rows_float)
    bound = filter_const * _perm(rows_float)
    if abs(det) > bound:
        return _sign(det)
    return _sign(_det(rows_exact()))


def orientation(points) -> int:
    """Sign of the orientation determinant of d+1 points in R^d; exact."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    if pts.shape[0] != d + 1:
        raise ValueError(f"orientation needs {d + 1} points in {d}D, got {pts.shape[0]}")
    rows = [(pts[i] - pts[0]).tolist() for i in range(1, d + 1)]

    def exact_rows():
        base = [Fraction(x) for x in pts[0]]
        return [
            [Fraction(pts[i][k]) - base[k] for k in range(d)]
            for i in range(1, d + 1)
        ]

    return _filtered_sign(rows, exact_rows, _ORIENT_FILTER)


def _lifted_rows_float(pts, q):
    rows = []
    for p in pts:
        diff = [p[k] - q[k] for k in range(len(q))]
        rows.append(diff + [sum(x * x for x in diff)])
    return rows


def _lifted_rows_exact(pts, q):
    qf = [Fraction(x) for x in q]
    rows = []
    for p in pts:
        diff = [Fraction(p[k]) - qf[k] for k in range(len(qf))]
        rows.append(diff + [sum(x * x for x in diff)])
    return rows


def in_sphere(simplex_points, query) -> int:
    """+1 if query is strictly inside the circumsphere of the d+1 simplex
    points, -1 outside, 0 on it; exact, independent of vertex order."""
    pts = np.asarray(simplex_points, dtype=float)
    q = np.asarray(query, dtype=float)
    d = q.shape[0]
    s_or = orientation(pts)
    if s_or == 0:
        raise DegenerateSimplex("in_sphere of an affinely dependent simplex")
    raw = _filtered_sign(
        _lifted_rows_float(pts.tolist(), q.tolist()),
        lambda: _lifted_rows_exact(pts.tolist(), q.tolist()),
        _INSPHERE_FILTER,
    )
    return raw * s_or * _INSPHERE_CAL[d]


def in_sphere_indexed(coords: np.ndarray, simplex: tuple[int, ...], query: int) -> int:
    """Perturbed circumsphere test on indexed points; never returns 0.

    Ties (cospherical configurations) are resolved by the symbolic lift
    perturbation, dominated by the involved point with the largest index.
    """
    d = coords.shape[1]
    simplex = tuple(simplex)
    s_or = orientation(coords[list(simplex)])
    if s_or == 0:
        raise DegenerateSimplex(f"degenerate cell {simplex}")
    pts = [coords[i].tolist() for i in simplex]
    q = coords[query].tolist()
    raw = _filtered_sign(
        _lifted_rows_float(pts, q),
        lambda: _lifted_rows_exact(pts, q),
        _INSPHERE_FILTER,
    )
    cal = s_or * _INSPHERE_CAL[d]
    if raw != 0:
        return raw * cal
    row_idx = simplex + (query,)
    for r in sorted(range(d + 2), key=lambda r: row_idx[r], reverse=True):
        others = [row_idx[i] for i in range(d + 2) if i != r]
        o = orientation(coords[others])
        if o != 0:
            # first-order term of the perturbed determinant: -(-1)^r * o
            return (o if r % 2 else -o) * cal
    raise DegenerateSimplex(f"fully degenerate configuration {row_idx}")


def min_circumsphere(simplex_points) -> Circumsphere:
    """Smallest sphere through k+1 affinely independent points (center in
    their affine hull); a single point has radius 0."""
    pts = np.asarray(simplex_points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[0] == 1:
        return Circumsphere(center=pts[0].copy(), radius_sq=0.0)
    V = pts[1:] - pts[0]
    G = 2.0 * (V @ V.T)
    if _gram_det_exact(pts) == 0:
        raise DegenerateSimplex("affinely dependent circumsphere input")
    b = np.einsum("ij,ij->i", V, V)
    try:
        t = np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        # a needle simplex can pass the exact test and still be singular in
        # floating point
        center, r2 = _circumsphere_exact(pts.tolist())
        return Circumsphere(center=np.array(center, dtype=float), radius_sq=float(r2))
    offset = t @ V
    return Circumsphere(center=pts[0] + offset, radius_sq=float(offset @ offset))


def circumradius_sq(simplex_points) -> float:
    return min_circumsphere(simplex_points).radius_sq


def _gram_det_exact(pts) -> Fraction:
    base = [Fraction(x) for x in pts[0]]
    V = [[Fraction(p[k]) - base[k] for k in range(len(base))] for p in pts[1:]]
    G = [[2 * sum(vi[k] * vj[k] for k in range(len(base))) for vj in V] for vi in V]
    return _det(G)


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


def side_of_circumsphere(simplex_points, query) -> int:
    """+1 if query lies strictly inside the minimal circumsphere of the given
    points, -1 strictly outside, 0 on it; exact."""
    pts = np.asarray(simplex_points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    q = np.asarray(query, dtype=float)
    if pts.shape[0] == 1:
        return -1 if np.any(q != pts[0]) else 0
    sphere = min_circumsphere(pts)
    diff = q - sphere.center
    margin = sphere.radius_sq - float(diff @ diff)
    scale = max(sphere.radius_sq, float(diff @ diff), 1e-300)
    if abs(margin) > 1e-9 * scale:
        return _sign(margin)
    center, r2 = _circumsphere_exact(pts.tolist())
    qf = [Fraction(x) for x in q]
    d2 = sum((qf[m] - center[m]) ** 2 for m in range(len(qf)))
    return _sign(r2 - d2)


def _point_in_open_segment_exact(a, b, p) -> bool:
    af = [Fraction(x) for x in a]
    bf = [Fraction(x) for x in b]
    pf = [Fraction(x) for x in p]
    ab = [y - x for x, y in zip(af, bf)]
    ap = [y - x for x, y in zip(af, pf)]
    dot = sum(x * y for x, y in zip(ab, ap))
    return 0 < dot < sum(x * x for x in ab)


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _barycentric_exact(tri, p):
    """Exact affine coordinates of p (coplanar with the triangle) wrt tri."""
    a, b, c = ([Fraction(x) for x in row] for row in tri)
    pf = [Fraction(x) for x in p]
    v0 = [y - x for x, y in zip(a, b)]
    v1 = [y - x for x, y in zip(a, c)]
    vp = [y - x for x, y in zip(a, pf)]
    n = _cross3(v0, v1)
    nn = sum(x * x for x in n)
    if nn == 0:
        raise DegenerateSimplex("degenerate facet in barycentric computation")
    s = sum(x * y for x, y in zip(_cross3(vp, v1), n)) / nn
    t = sum(x * y for x, y in zip(_cross3(v0, vp), n)) / nn
    return (1 - s - t, s, t)


def _in_circumdisk_perturbed(coords, facet, p_idx) -> bool:
    """Perturbed in-circumcircle test for a point coplanar with a 3D facet.

    Ties (p on the facet circumcircle) are broken consistently with the
    lifted-weight perturbation: conflict iff sum(lambda_i * delta_i) < delta_p
    with delta dominated by the largest involved point index.
    """
    fpts = coords[list(facet)]
    s = side_of_circumsphere(fpts, coords[p_idx])
    if s != 0:
        return s > 0
    lam = _barycentric_exact(fpts.tolist(), coords[p_idx].tolist())
    for idx in sorted(tuple(facet) + (p_idx,), reverse=True):
        if idx == p_idx:
            return True
        l = lam[facet.index(idx)]
        if l != 0:
            return l < 0
    return False


_INF = -1  # sentinel vertex of the unbounded cells


class _Triangulation:
    """Incremental insertion state: finite + infinite cells with facet adjacency."""

    def __init__(self, coords: np.ndarray):
        self.coords = coords
        self.d = coords.shape[1]
        self.cells: set[tuple[int, ...]] = set()
        self.facet_map: dict[tuple[int, ...], set] = {}

    def _facets(self, cell):
        if cell[-1] == _INF:
            finite = cell[:-1]
            out = [finite]
            out.extend(
                tuple(sorted(finite[:i] + finite[i + 1:])) + (_INF,)
                for i in range(len(finite))
            )
            return out
        return [cell[:i] + cell[i + 1:] for i in range(len(cell))]

    def add_cell(self, cell):
        self.cells.add(cell)
        for f in self._facets(cell):
            self.facet_map.setdefault(f, set()).add(cell)

    def remove_cell(self, cell):
        self.cells.remove(cell)
        for f in self._facets(cell):
            owners = self.facet_map[f]
            owners.discard(cell)
            if not owners:
                del self.facet_map[f]

    def _finite_neighbor_vertex(self, facet):
        # the vertex opposite a hull facet in its unique finite cell
        for cell in self.facet_map[facet]:
            if cell[-1] != _INF:
                return next(v for v in cell if v not in facet)
        raise PslapError(f"hull facet {facet} has no finite cell")

    def in_conflict(self, cell, p_idx) -> bool:
        coords = self.coords
        if cell[-1] != _INF:
            return in_sphere_indexed(coords, cell, p_idx) > 0
        facet = cell[:-1]
        x = self._finite_neighbor_vertex(facet)
        fpts = coords[list(facet)]
        s_p = orientation(np.vstack([fpts, coords[p_idx]]))
        if s_p != 0:
            s_x = orientation(np.vstack([fpts, coords[x]]))
            return s_p == -s_x
        # p on the facet's affine hull: conflict iff inside the facet's disk
        if self.d == 2:
            return _point_in_open_segment_exact(coords[facet[0]], coords[facet[1]], coords[p_idx])
        return _in_circumdisk_perturbed(coords, facet, p_idx)

    def insert(self, p_idx):
        conflicts = [c for c in self.cells if self.in_conflict(c, p_idx)]
        if not conflicts:
            raise PslapError(
                f"point {p_idx} conflicts with no cell; configuration too degenerate"
            )
        conflict_set = set(conflicts)
        boundary = []
        for cell in conflicts:
            for f in self._facets(cell):
                other = self.facet_map[f] - {cell}
                if not (other & conflict_set):
                    boundary.append(f)
        for cell in conflicts:
            self.remove_cell(cell)
        for f in boundary:
            if f[-1] == _INF:
                new = tuple(sorted(f[:-1] + (p_idx,))) + (_INF,)
            else:
                new = tuple(sorted(f + (p_idx,)))
                if orientation(self.coords[list(new)]) == 0:
                    raise PslapError(f"degenerate cell {new} produced during insertion")
            self.add_cell(new)


def _bootstrap_simplex(coords: np.ndarray):
    n, d = coords.shape
    err = AllCollinear if d == 2 else AllCoplanar
    chosen = [0]
    for j in range(1, n):
        if not np.array_equal(coords[j], coords[0]):
            chosen.append(j)
            break
    while len(chosen) < d + 1:
        k = len(chosen)
        found = None
        for j in range(n):
            if j in chosen:
                continue
            pts = coords[chosen + [j]]
            if k == d:
                if orientation(pts) != 0:
                    found = j
            else:
                # affine independence of k+1 < d+1 points: some k x k minor nonzero
                base = pts[0]
                V = pts[1:] - base
                for cols in itertools.combinations(range(d), k):
                    sub = np.vstack([V[:, list(cols)]])
                    rows = [sub[i].tolist() for i in range(k)]
                    if _filtered_sign(
                        rows,
                        lambda p=pts, c=cols: [
                            [Fraction(p[i + 1][m]) - Fraction(p[0][m]) for m in c]
                            for i in range(k)
                        ],
                        _ORIENT_FILTER,
                    ) != 0:
                        found = j
                        break
            if found is not None:
                break
        if found is None:
            raise err(f"no full-dimensional simplex among the {n} input points")
        chosen.append(found)
    return chosen


def delaunay(points: PointSet, seed: int = 0) -> FilteredComplex:
    """Delaunay tessellation of the point set as a FilteredComplex with
    filtration values unset.

    Deterministic for fixed input order and seed; the seed shuffles the
    insertion order only, which does not change the output.
    """
    coords = points.coords
    n, d = coords.shape
    if n < d + 1:
        raise (AllCollinear if d == 2 else AllCoplanar)(
            f"need at least {d + 1} points in {d}D, got {n}"
        )
    seen = {}
    for i in range(n):
        key = tuple(coords[i])
        if key in seen:
            raise DuplicatePoints(f"points {seen[key]} and {i} coincide")
        seen[key] = i

    first = _bootstrap_simplex(coords)
    tri = _Triangulation(coords)
    base = tuple(sorted(first))
    tri.add_cell(base)
    for i in range(d + 1):
        facet = base[:i] + base[i + 1:]
        tri.add_cell(tuple(sorted(facet)) + (_INF,))

    rest = [i for i in range(n) if i not in set(first)]
    random.Random(seed).shuffle(rest)
    for p in rest:
        tri.insert(p)

    finite = [c for c in tri.cells if c[-1] != _INF]
    by_dim = closure_of_cells(finite)
    values = {s: math.inf for sims in by_dim.values() for s in sims}
    return FilteredComplex(by_dim, values, points=coords)


def audit_empty_circumspheres(complex: FilteredComplex) -> list:
    """All (cell, point) pairs violating the perturbed empty-sphere property."""
    coords = complex.points
    d = coords.shape[1]
    violations = []
    for cell in complex.simplices(d):
        members = set(cell)
        for idx in range(coords.shape[0]):
            if idx in members:
                continue
            if in_sphere_indexed(coords, cell, idx) > 0:
                violations.append((cell, idx))
    return violations
