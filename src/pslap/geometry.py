"""Geometric predicates, circumspheres, and Delaunay tessellation in 2D/3D.

Every predicate sign comes from one kernel, ``_exact_signs``, applied to two
polynomials in the coordinate differences ``p_i - a`` from a base point ``a``:

- the orientation determinant (2x2 or 3x3), and
- the Gram signs of k+1 points, k = 1..d: ``det(G)``, positive iff the points
  are affinely independent, and the power ``b_q^T adj(G) b - det(G)|q - a|^2``
  of a query q, positive iff q lies strictly inside the minimal circumsphere.
  G is the Gram matrix of the edge vectors from a, b its diagonal and b_q the
  dot products of q - a with the edge vectors.

Each polynomial is closed-form straight-line code in ``+``, ``*`` and a
subtraction passed in as ``sub``, so one body evaluates the float value, its
magnitude (leaves replaced by their absolute values, ``sub`` by addition) and,
when needed, the exact value in ``Fraction``.  The same body evaluates a whole
batch of point lists at once on per-coordinate numpy columns
(``_batch_signs``), with the same roundings as one list on Python floats.
The float sign is accepted when ``|value| > 2**-48 * magnitude``.  The bound: with unit roundoff u = 2**-53,
count the roundings on the worst path from a leaf to the result, one for each
coordinate difference, addition and subtraction, and for a product the sum of
both factors' counts plus one.  The deepest polynomial, the power for k = 3,
has D = 29.  Expanding the expression into monomials, each picks up at most D
factors (1 + delta), |delta| <= u, so the float value differs from the exact
one by at most gamma_D = D*u / (1 - D*u) times the exact magnitude, and the
float magnitude is at least (1 - u)**D times the exact one; 32u covers both and
the rounding of the bound itself.  This assumes no product underflows, which holds when every
nonzero coordinate difference exceeds 1e-30 in magnitude (the polynomials have
degree at most 8).  An overflow or NaN fails the comparison and goes to the
exact path.

Cospherical degeneracies are broken by a symbolic perturbation of the lifted
weights (point i lowered by an infinitesimal eps**(n-i), so the highest-index
point dominates ties); the tessellation built from the perturbed predicate is
the regular triangulation of the perturbed lift and is therefore independent
of insertion order.

Points are inserted one at a time (Bowyer-Watson, with an infinite cell on
each hull facet).  The cells in conflict with a new point p are found
locally.  Take the nearest inserted vertex v: the edge pv has an empty closed
diametral ball, so it is an edge of every Delaunay triangulation of the
inserted points and p, the perturbed one included.  Hence v lies on the
cavity boundary and some cell of its star conflicts with p.  The conflict
region is connected, so a search over shared facets from that cell finds all
of it, testing each cell once.  The nearest vertex is chosen by floating-point
distance; only rounding between near-equidistant vertices could pick one whose
star has no conflict, and insertion then raises ``PslapError``.

A point p on the affine hull of a hull facet conflicts with the facet's
infinite cell iff it lies inside the facet's circumsphere, which is where any
sphere through the facet meets that hull, so the perturbed in-sphere test of
the facet's finite cell decides.  On a tie the opposite vertex's cofactor is
orient(facet + p) = 0 and facet vertex i's is lambda_i * orient(cell), lambda
the affine coordinates of p, so the facet vertices and p alone break it.
"""

from __future__ import annotations

import math
import operator
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

_ERR = 2.0**-48  # relative error bound of every kernel polynomial; see above

# Sign fix relating in_sphere_indexed's tie-break, a term of the perturbed
# lifted determinant, to +1 for interior points (the translated lifted
# determinant flips parity between 2D and 3D).
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


def _sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _dot(x, y):
    return sum(map(operator.mul, x, y))  # the start value 0 adds no rounding


def _orient(rows, sub):
    """(det of the 2x2 or 3x3 matrix with the given rows,)"""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return (sub(a * d, b * c),)
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (sub(a * sub(e * i, f * h) + c * sub(d * h, e * g), b * sub(d * i, f * g)),)


def _gram(vectors, sub):
    """det(G) and adj(G) b for the Gram matrix G of the vectors, b = diag(G)."""
    G = [[_dot(x, y) for y in vectors] for x in vectors]
    b = [G[i][i] for i in range(len(G))]
    if len(G) == 1:
        return b[0], b
    if len(G) == 2:
        det = sub(G[0][0] * G[1][1], G[0][1] * G[1][0])
        return det, [sub(G[1][1] * b[0], G[0][1] * b[1]), sub(G[0][0] * b[1], G[1][0] * b[0])]
    # 3x3 cofactors in cyclic form, sign (-1)**(i+j) built in; G is symmetric,
    # so C is too and equals adj(G)
    C = [
        [
            sub(G[(i + 1) % 3][(j + 1) % 3] * G[(i + 2) % 3][(j + 2) % 3],
                G[(i + 1) % 3][(j + 2) % 3] * G[(i + 2) % 3][(j + 1) % 3])
            for j in range(3)
        ]
        for i in range(3)
    ]
    return _dot(G[0], C[0]), [_dot(row, b) for row in C]


def _gram_det(rows, sub):
    """(det(G),) for the edge vectors in rows."""
    return _gram(rows, sub)[:1]


def _gram_power(rows, sub):
    """det(G) and the power b_q^T adj(G) b - det(G)|w|^2, for the edge vectors
    in rows[:-1] and the query offset w = rows[-1]."""
    *vectors, w = rows
    det, adj_b = _gram(vectors, sub)
    return det, sub(_dot([_dot(v, w) for v in vectors], adj_b), det * _dot(w, w))


def _exact_signs(poly, points) -> tuple[int, ...]:
    """Exact signs of poly's values on the differences points[1:] - points[0]."""
    base, *rest = points
    diffs = [[x - y for x, y in zip(p, base)] for p in rest]
    values = poly(diffs, operator.sub)
    mags = poly([[abs(x) for x in row] for row in diffs], operator.add)
    if all(abs(v) > _ERR * m for v, m in zip(values, mags)):
        return tuple(_sign(v) for v in values)
    fbase = [Fraction(x) for x in base]
    exact = poly([[Fraction(x) - y for x, y in zip(p, fbase)] for p in rest], operator.sub)
    return tuple(_sign(v) for v in exact)


def _simplex_rows(simplex_points) -> np.ndarray:
    pts = np.asarray(simplex_points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[0] > pts.shape[1] + 1:
        raise DegenerateSimplex(f"{pts.shape[0]} points in {pts.shape[1]}D are affinely dependent")
    return pts


def orientation(points) -> int:
    """Sign of the orientation determinant of d+1 points in R^d; exact."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    if pts.shape[0] != d + 1:
        raise ValueError(f"orientation needs {d + 1} points in {d}D, got {pts.shape[0]}")
    return _exact_signs(_orient, pts.tolist())[0]


def _batch_signs(poly, points: np.ndarray) -> np.ndarray:
    """``_exact_signs`` row by row on an (M, m, d) stack of point lists, as an
    (n_values, M) array: the float value and magnitude are evaluated on
    per-coordinate (M,) columns, and only the uncertain rows are recomputed
    by ``_exact_signs``."""
    base, rest = points[:, 0].T, points[:, 1:].T  # per-coordinate columns
    with np.errstate(over="ignore", invalid="ignore"):  # overflow goes to the exact path
        diffs = [[x - y for x, y in zip(p, base)] for p in rest.swapaxes(0, 1)]
        values = np.array(poly(diffs, operator.sub))
        mags = np.array(poly([[abs(x) for x in row] for row in diffs], operator.add))
        certain = np.all(abs(values) > _ERR * mags, axis=0)
        signs = np.sign(values).astype(np.int64)
    for r in np.flatnonzero(~certain):
        signs[:, r] = _exact_signs(poly, points[r].tolist())
    return signs


def side_of_circumsphere_batch(simplices: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """side_of_circumsphere for an (M, k+1, d) stack of simplices and the
    (M, d) queries, one sign per row, for k >= 1; exact."""
    independent, power = _batch_signs(_gram_power, np.concatenate([simplices, queries[:, None]], 1))
    if not np.all(independent):
        raise DegenerateSimplex("affinely dependent circumsphere input")
    return power


def side_of_circumsphere(simplex_points, query) -> int:
    """+1 if query lies strictly inside the minimal circumsphere of the given
    points, -1 strictly outside, 0 on it; exact."""
    pts = _simplex_rows(simplex_points)
    q = np.asarray(query, dtype=float)
    if pts.shape[0] == 1:
        return -1 if np.any(q != pts[0]) else 0
    return int(side_of_circumsphere_batch(pts[None], q[None])[0])


def in_sphere_indexed(coords: np.ndarray, simplex: tuple[int, ...], query: int) -> int:
    """Perturbed circumsphere test on indexed points; never returns 0.

    Ties (cospherical configurations) are resolved by the symbolic lift
    perturbation, dominated by the involved point with the largest index.
    """
    d = coords.shape[1]
    simplex = tuple(simplex)
    independent, raw = _exact_signs(
        _gram_power, [coords[i].tolist() for i in simplex + (query,)]
    )
    if not independent:
        raise DegenerateSimplex(f"degenerate cell {simplex}")
    if raw != 0:
        return raw
    cal = orientation(coords[list(simplex)]) * _INSPHERE_CAL[d]
    row_idx = simplex + (query,)
    for r in sorted(range(d + 2), key=lambda r: row_idx[r], reverse=True):
        others = [row_idx[i] for i in range(d + 2) if i != r]
        o = orientation(coords[others])
        if o != 0:
            # first-order term of the perturbed determinant: -(-1)^r * o
            return (o if r % 2 else -o) * cal
    raise DegenerateSimplex(f"fully degenerate configuration {row_idx}")


def min_circumsphere_batch(simplices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers (M, d) and squared radii (M,) of the smallest spheres through
    an (M, k+1, d) stack of affinely independent point lists, k >= 1.

    The stacked matmul and solve treat each row as its own matrix, so a row's
    result does not depend on the rest of the batch; ``einsum`` rounds
    differently from matmul for G, the offset and r², so it forms b only."""
    m, k = simplices.shape[0], simplices.shape[1] - 1
    if not np.all(_batch_signs(_gram_det, simplices)):
        raise DegenerateSimplex("affinely dependent circumsphere input")
    with np.errstate(over="ignore", invalid="ignore"):
        V = simplices[:, 1:] - simplices[:, :1]
        G = 2.0 * (V @ V.transpose(0, 2, 1))
        b = np.einsum("mij,mij->mi", V, V)
        needles = []
        try:
            t = np.linalg.solve(G, b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # a needle simplex can pass the exact test and still be singular
            # in floating point; solve row by row and mark the singular ones
            t = np.zeros((m, k))
            for r in range(m):
                try:
                    t[r] = np.linalg.solve(G[r], b[r])
                except np.linalg.LinAlgError:
                    needles.append(r)
        offset = t[:, None] @ V
        centers = simplices[:, 0] + offset[:, 0]
        radius_sq = (offset @ offset.transpose(0, 2, 1))[:, 0, 0]
    for r in needles:
        center, r2 = _circumsphere_exact(simplices[r].tolist())
        centers[r], radius_sq[r] = np.array(center, dtype=float), float(r2)
    return centers, radius_sq


def min_circumsphere(simplex_points) -> Circumsphere:
    """Smallest sphere through k+1 affinely independent points (center in
    their affine hull); a single point has radius 0."""
    pts = _simplex_rows(simplex_points)
    if pts.shape[0] == 1:
        return Circumsphere(center=pts[0].copy(), radius_sq=0.0)
    centers, radius_sq = min_circumsphere_batch(pts[None])
    return Circumsphere(center=centers[0], radius_sq=float(radius_sq[0]))


def _circumsphere_exact(pts):
    """Circumcenter (affine hull) and squared radius as exact rationals: the
    offset from pts[0] is V^T t with t = adj(G) b / (2 det G)."""
    base = [Fraction(x) for x in pts[0]]
    V = [[Fraction(x) - y for x, y in zip(p, base)] for p in pts[1:]]
    det, adj_b = _gram(V, operator.sub)
    t = [x / (2 * det) for x in adj_b]
    offset = [_dot(t, column) for column in zip(*V)]
    return [a + o for a, o in zip(base, offset)], _dot(offset, offset)


_INF = -1  # sentinel vertex of the unbounded cells


class _Triangulation:
    """Incremental insertion state: finite + infinite cells with facet
    adjacency, and the star (incident cells) of every vertex."""

    def __init__(self, coords: np.ndarray, first):
        self.coords = coords
        self.d = coords.shape[1]
        self.cells: set[tuple[int, ...]] = set()
        self.facet_map: dict[tuple[int, ...], set] = {}
        self.star: dict[int, set] = {}
        self.vertices = list(first)
        base = tuple(sorted(first))
        self.add_cell(base)
        for i in range(self.d + 1):
            self.add_cell(base[:i] + base[i + 1:] + (_INF,))

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
        for v in cell:
            self.star.setdefault(v, set()).add(cell)
        for f in self._facets(cell):
            self.facet_map.setdefault(f, set()).add(cell)

    def remove_cell(self, cell):
        self.cells.remove(cell)
        for v in cell:
            self.star[v].remove(cell)
        for f in self._facets(cell):
            owners = self.facet_map[f]
            owners.discard(cell)
            if not owners:
                del self.facet_map[f]

    def _finite_neighbor(self, facet):
        # the unique finite cell on a hull facet
        for cell in self.facet_map[facet]:
            if cell[-1] != _INF:
                return cell
        raise PslapError(f"hull facet {facet} has no finite cell")

    def in_conflict(self, cell, p_idx) -> bool:
        coords = self.coords
        if cell[-1] != _INF:
            return in_sphere_indexed(coords, cell, p_idx) > 0
        facet = cell[:-1]
        finite = self._finite_neighbor(facet)
        fpts = coords[list(facet)]
        s_p = orientation(np.vstack([fpts, coords[p_idx]]))
        if s_p != 0:
            x = next(v for v in finite if v not in facet)
            s_x = orientation(np.vstack([fpts, coords[x]]))
            return s_p == -s_x
        # p on the facet's affine hull, where the finite cell's circumsphere
        # is the facet's; on a tie the opposite vertex's cofactor,
        # orient(facet + p), is 0, so only the facet and p break it
        return in_sphere_indexed(coords, finite, p_idx) > 0

    def _conflict_region(self, p_idx):
        """The cells in conflict with p: the first found in the star of the
        nearest inserted vertex, then the rest by search over shared facets,
        each cell tested once (the region is connected)."""
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported by alpha
            dist_sq = ((self.coords[self.vertices] - self.coords[p_idx]) ** 2).sum(axis=1)
        nearest = self.vertices[int(np.argmin(dist_sq))]
        tested = set()
        for cell in self.star[nearest]:
            tested.add(cell)
            if self.in_conflict(cell, p_idx):
                conflicts = [cell]
                break
        else:
            raise PslapError(
                f"point {p_idx} conflicts with no cell; configuration too degenerate"
            )
        for cell in conflicts:  # grows while it is walked
            for f in self._facets(cell):
                for other in self.facet_map[f]:
                    if other not in tested:
                        tested.add(other)
                        if self.in_conflict(other, p_idx):
                            conflicts.append(other)
        return conflicts

    def insert(self, p_idx):
        conflicts = self._conflict_region(p_idx)
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
        self.vertices.append(p_idx)


def _bootstrap_simplex(coords: np.ndarray):
    n, d = coords.shape
    chosen = [0]
    while len(chosen) < d + 1:
        for j in range(n):
            # det(G) > 0 iff chosen + [j] are affinely independent
            if j not in chosen and _exact_signs(_gram_det, coords[chosen + [j]].tolist())[0]:
                chosen.append(j)
                break
        else:
            raise (AllCollinear if d == 2 else AllCoplanar)(
                f"no full-dimensional simplex among the {n} input points"
            )
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
    tri = _Triangulation(coords, first)
    rest = [i for i in range(n) if i not in set(first)]
    random.Random(seed).shuffle(rest)
    for p in rest:
        tri.insert(p)

    finite = [c for c in tri.cells if c[-1] != _INF]
    by_dim = closure_of_cells(finite)
    values = {s: math.inf for sims in by_dim.values() for s in sims}
    return FilteredComplex(by_dim, values)
