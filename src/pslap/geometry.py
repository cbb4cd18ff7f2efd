"""Geometric predicates, circumspheres, and Delaunay tessellation in 2D/3D.

Every predicate sign comes from one kernel, ``_exact_signs``, applied to
polynomials in the coordinate differences ``p_i - a`` from a base point ``a``:

- the orientation determinant (2x2 or 3x3),
- the Gram signs of k+1 points, k = 1..d: ``det(G)``, positive iff the points
  are affinely independent, and the power ``b_q^T adj(G) b - det(G)|q - a|^2``
  of a query q, positive iff q lies strictly inside the minimal circumsphere.
  G is the Gram matrix of the edge vectors from a, b its diagonal and b_q the
  dot products of q - a with the edge vectors, and
- the lifted determinant of d+1 points about a query a (Shewchuk, *Adaptive
  Precision Floating-Point Arithmetic and Fast Robust Geometric Predicates*,
  1997): the (d+1)x(d+1) determinant with rows (w, |w|^2), w = p_i - a.  Its
  sign times the points' orientation times a constant per d is the power's
  sign when the points span R^d, and both vanish on the same queries.

Each polynomial is closed-form straight-line code in ``+``, ``*`` and a
subtraction passed in as ``sub``, so one body defines the float value, its
magnitude (leaves replaced by their absolute values, ``sub`` by addition) and,
when needed, the exact value in ``Fraction``.  For floats the body is not
interpreted: ``_compiled`` traces it into one straight-line function of the
points' coordinates that returns the values and the magnitudes, one
assignment per operation, in the body's order, so it rounds exactly as the
body does.  The batch path (``_batch_signs``, a whole batch of point lists
on per-coordinate numpy columns) calls that function.  The scalar path
(``_exact_signs``, one point list on Python floats) calls its twin, the same
trace ending in the certainty test below, which returns the signs, or None
to send the call to the rational path, which still runs the body.  Each
function is traced once per (polynomial, point count, dimension), on its
first use.

The float sign is accepted when ``|value| > 2**-48 * magnitude``.  The bound:
with unit roundoff u = 2**-53, count the roundings on the worst path from a
leaf to the result, one for each coordinate difference, addition and
subtraction, and for a product the sum of both factors' counts plus one.  The
deepest sign polynomials the pipeline compiles, det(G) and the power of 4
points in 3D, have D = 20, the lifted determinant 11 in 2D and 16 in 3D; the
deepest the kernel supports, the power for k = 3, has D = 29.  Expanding the
expression into monomials, each picks up at most D factors (1 + delta),
|delta| <= u, so the float value differs from the exact one by at most
gamma_D = D*u / (1 - D*u) times the exact magnitude, and the float magnitude
is at least (1 - u)**D times the exact one; 32u covers both and the rounding
of the bound itself.  This assumes no product underflows, which holds when
every nonzero coordinate difference exceeds 1e-30 in magnitude (the
polynomials have degree at most 8).  An overflow or NaN fails the comparison
and goes to the exact path.

The squared radius of the smallest sphere through k + 1 points is
r^2 = b^T adj(G) b / (4 det(G)) (``_gram_radius``; its center is a + V^T t,
G t = b / 2, so r^2 = t^T G t).  The numerator has D = 9, 16 for k = 1, 2 in
2D and 11, 19, 28 for k = 1, 2, 3 in 3D, and det(G) at most 20, so by the
rule above each float value is its exact value times (1 + theta),
|theta| <= 29.1u * rho, rho its float magnitude over its float absolute
value, and rho >= 1.  ``4 * det`` is exact, as a det(G) near overflow makes
the numerator, at least det(G)**(1 + 1/k), overflow first.  With the
quotient's rounding the float r^2 is within (1 + u)(1 + theta_det) /
(1 - theta_num) - 1 <= 29.2u (rho_num + rho_det) + 1.01u of the exact one,
relative, where both thetas are below 2e-8; as each rho >= 1, that is
under ``_ERR * (rho_num + rho_det)`` rounded three more times.  Where this
bound exceeds ``_RADIUS_ERR`` = 1e-8 or is NaN (an overflow, or a det(G)
that underflows to 0), the same body runs in ``Fraction``, rounded once.

Cospherical degeneracies are broken by a symbolic perturbation of the lift:
point i's lift |p_i|^2 is lowered to |p_i|^2 - eps**(n-i), eps > 0
infinitesimal and n the number of points, so the highest-index point
dominates ties; the tessellation built from the perturbed predicate is the
regular triangulation of the perturbed lift and is therefore independent
of insertion order.

Points are inserted one at a time (Bowyer-Watson, with an infinite cell on
each hull facet).  Each cell stores its neighbours, entry j across the facet
opposite its vertex j, and each finite cell the exact sign of its
orientation.  A new point p is located by a visibility walk (Devillers, Pion
and Teillaud, *Walking in a triangulation*, 2002) from the finite cell created
last, which is live.  Its one test is the facet side: the exact orientation
of a finite cell with its vertex j replaced by p, times the cell's stored
orientation, is -1 iff p lies strictly beyond facet j.  From each finite cell
the walk crosses a facet, other than the one it came through, that p lies
strictly beyond.  It ends, since a visibility walk cannot cycle in a regular
triangulation (Edelsbrunner, *An acyclicity theorem for cell complexes in d
dimensions*, 1990) and the perturbed build is one.  It stops at an infinite
cell, whose hull facet p lies strictly beyond, so that the cell conflicts
with p (below), or at a finite cell with no facet to cross.  Then p lies in
that closed cell and is none of its vertices; a closed simplex meets its
circumsphere only at its vertices, so p lies strictly inside it and the cell
conflicts with p, no tie arising.  The conflict region is connected, so a
search over neighbours from that cell finds all of it, testing each cell
once.  The region's boundary facets are those whose neighbour lies outside
it; each new cell joins p to one of them, links across it to that neighbour
and across its other facets to the other new cells.

A finite cell conflicts with p iff p lies inside its circumsphere: the sign
of the lifted determinant of its vertices about p, times the cell's stored
orientation and the constant for d.  Only an exact 0, p on the circumsphere,
runs the perturbation's tie-break, given that stored orientation, so ties are
broken exactly as the perturbation says.

A point p off the affine hull of a hull facet conflicts with the facet's
infinite cell iff it lies strictly beyond the facet: the facet side of the
finite cell across it, at its vertex x opposite the facet, is -1.
A point p on the affine hull of a hull facet conflicts with the infinite
cell iff it lies inside the facet's circumsphere, which is where any sphere
through the facet meets that hull, so the in-sphere test of the facet's
finite cell decides.  On a tie the opposite vertex's cofactor is
orient(facet + p) = 0 and facet vertex i's is lambda_i * orient(cell), lambda
the affine coordinates of p, so the facet vertices and p alone break it.
"""

from __future__ import annotations

import functools
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
from .simplices import FilteredComplex

_ERR = 2.0**-48  # relative error bound of every kernel polynomial; see above
_RADIUS_ERR = 1e-8  # a squared radius whose proven bound exceeds this is exact

# Sign fix relating the lifted determinant of a cell's vertices about a query,
# times the cell's orientation, to +1 for interior queries (the translated
# lifted determinant flips parity between 2D and 3D).
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


def _sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _dot(x, y):
    # no start value: its addition would be one more operation to trace
    return functools.reduce(operator.add, map(operator.mul, x, y))


def _orient(rows, sub):
    """(det of the 2x2 or 3x3 matrix with the given rows,)"""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return (sub(a * d, b * c),)
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (sub(a * sub(e * i, f * h) + c * sub(d * h, e * g), b * sub(d * i, f * g)),)


def _gram(vectors, sub):
    """det(G), adj(G) b and b for the Gram matrix G of the vectors, b = diag(G)."""
    G = [[_dot(x, y) for y in vectors] for x in vectors]
    b = [G[i][i] for i in range(len(G))]
    if len(G) == 1:
        return b[0], b, b
    if len(G) == 2:
        det = sub(G[0][0] * G[1][1], G[0][1] * G[1][0])
        return det, [sub(G[1][1] * b[0], G[0][1] * b[1]), sub(G[0][0] * b[1], G[1][0] * b[0])], b
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
    return _dot(G[0], C[0]), [_dot(row, b) for row in C], b


def _gram_det(rows, sub):
    """(det(G),) for the edge vectors in rows."""
    return _gram(rows, sub)[:1]


def _gram_radius(rows, sub):
    """det(G) and b^T adj(G) b = 4 r^2 det(G) for the edge vectors in rows."""
    det, adj_b, b = _gram(rows, sub)
    return det, _dot(b, adj_b)


def _gram_power(rows, sub):
    """det(G) and the power b_q^T adj(G) b - det(G)|w|^2, for the edge vectors
    in rows[:-1] and the query offset w = rows[-1]."""
    *vectors, w = rows
    det, adj_b, _ = _gram(vectors, sub)
    return det, sub(_dot([_dot(v, w) for v in vectors], adj_b), det * _dot(w, w))


def _lifted(rows, sub):
    """(det of the (d+1) x (d+1) matrix with rows (w, |w|^2),) for the d + 1
    offsets w in rows."""
    lifts = [_dot(w, w) for w in rows]
    if len(rows) == 3:
        return _orient([[*w, lift] for w, lift in zip(rows, lifts)], sub)
    # expanded along the lift column, whose minors are orientations
    l0, l1, l2, l3 = lifts
    m0, m1, m2, m3 = (_orient(rows[:i] + rows[i + 1:], sub)[0] for i in range(4))
    return (sub(l1 * m1 + l3 * m3, l0 * m0 + l2 * m2),)


class _Leaf:
    """A named value in a trace: each ``+``, ``-``, ``*`` and ``abs`` appends
    one assignment to the trace's lines and returns a leaf naming its result."""

    __slots__ = ("lines", "name")

    def __init__(self, lines: list[str], name: str):
        self.lines, self.name = lines, name

    def _emit(self, expr: str) -> _Leaf:
        name = f"t{len(self.lines)}"
        self.lines.append(f"    {name} = {expr}")
        return _Leaf(self.lines, name)

    def __add__(self, other):
        return self._emit(f"{self.name} + {other.name}")

    def __sub__(self, other):
        return self._emit(f"{self.name} - {other.name}")

    def __mul__(self, other):
        return self._emit(f"{self.name} * {other.name}")

    def __abs__(self):
        return self._emit(f"abs({self.name})")


_COMPILED: dict[tuple, object] = {}


def _compiled(poly, m: int, d: int, signs: bool = False):
    """poly on m points in R^d as one straight-line function of the points'
    rows (each a sequence of d coordinates): it returns ``(values, mags)``,
    poly's values on the differences points[1:] - points[0] and their
    magnitudes, as the generic body evaluates them.  With ``signs``, the
    function of the same trace for one point list on Python floats: it ends
    in the certainty test and returns the values' signs where the test holds
    for all of them, else None.  Each kind is traced on its first use and
    kept for the life of the process; the rows of the ``(values, mags)``
    function may hold Python floats or per-coordinate numpy columns alike."""
    key = poly, m, d, signs
    fn = _COMPILED.get(key)
    if fn is None:
        lines = []
        coords = [[_Leaf(lines, f"x{i}_{j}") for j in range(d)] for i in range(m)]
        base, *rest = coords
        diffs = [[x - y for x, y in zip(p, base)] for p in rest]
        values = poly(diffs, operator.sub)
        mags = poly([[abs(x) for x in row] for row in diffs], operator.add)
        name = f"{poly.__name__}_{m}x{d}{'_signs' if signs else ''}"
        params = ", ".join(f"r{i}" for i in range(m))
        unpack = [f"    {', '.join(x.name for x in row)}, = r{i}" for i, row in enumerate(coords)]
        if signs:
            certain = " and ".join(f"abs({v.name}) > {_ERR!r} * {g.name}" for v, g in zip(values, mags))
            signed = "".join(f"1 if {v.name} > 0 else -1, " for v in values)
            tail = [f"    if {certain}:", f"        return ({signed})"]
        else:
            returns = ", ".join("(" + "".join(f"{v.name}, " for v in out) + ")" for out in (values, mags))
            tail = [f"    return {returns}"]
        namespace = {}
        exec("\n".join([f"def {name}({params}):", *unpack, *lines, *tail]), namespace)
        fn = _COMPILED[key] = namespace[name]
    return fn


def _exact(poly, points):
    """poly's values on points[1:] - points[0], from the body in ``Fraction``."""
    base, *rest = [[Fraction(x) for x in p] for p in points]
    return poly([[x - y for x, y in zip(p, base)] for p in rest], operator.sub)


def _exact_signs(poly, points) -> tuple[int, ...]:
    """Exact signs of poly's values on the differences points[1:] - points[0],
    for a list of m point rows (sequences of d floats): the traced kernel's
    where its float test is certain, else those of ``_exact``."""
    signs = _compiled(poly, len(points), len(points[0]), True)(*points)
    return signs or tuple(_sign(v) for v in _exact(poly, points))


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
    _, m, d = points.shape
    with np.errstate(over="ignore", invalid="ignore"):  # overflow goes to the exact path
        # per point, its d per-coordinate (M,) columns
        values, mags = map(np.array, _compiled(poly, m, d)(*points.transpose(1, 2, 0)))
        certain = np.all(abs(values) > _ERR * mags, axis=0)
        signs = np.sign(values).astype(np.int64)
    for r in np.flatnonzero(~certain):
        signs[:, r] = _exact_signs(poly, points[r].tolist())
    return signs


def side_of_circumsphere_batch(simplices: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """For an (M, k+1, d) stack of simplices and the (M, d) queries, k >= 1:
    per row +1 if the query lies strictly inside the minimal circumsphere of
    the simplex, -1 strictly outside, 0 on it; exact."""
    independent, power = _batch_signs(_gram_power, np.concatenate([simplices, queries[:, None]], 1))
    if not np.all(independent):
        raise DegenerateSimplex("affinely dependent circumsphere input")
    return power


def min_circumsphere_batch(simplices: np.ndarray) -> np.ndarray:
    """Squared radii (M,) of the smallest spheres through an (M, k+1, d)
    stack of affinely independent point lists, k >= 1, each row apart: from
    one ``_gram_radius`` evaluation, or in ``Fraction`` where its bound (see
    above) fails; an exact det(G) of 0 raises ``DegenerateSimplex``."""
    _, m, d = simplices.shape
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # such rows go exact
        (det, num), (mag_det, mag_num) = _compiled(_gram_radius, m, d)(*simplices.transpose(1, 2, 0))
        radius_sq = num / (4.0 * det)
        exact = ~(_ERR * (mag_num / abs(num) + mag_det / abs(det)) <= _RADIUS_ERR)
    for r in np.flatnonzero(exact):
        det, num = _exact(_gram_radius, simplices[r].tolist())
        if det == 0:
            raise DegenerateSimplex("affinely dependent circumsphere input")
        radius_sq[r] = _to_double(num / (4 * det))
    return radius_sq


def _to_double(x: Fraction) -> float:
    """x rounded to the nearest double, or an infinity past double range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


_INF = -1  # sentinel vertex of the unbounded cells


class _Triangulation:
    """Incremental insertion state: finite and infinite cells linked to their
    neighbours.  Cell c has the vertices ``cells[c]`` (sorted; an infinite
    cell is its sorted hull facet, then _INF), ``nbr[c][j]``, the cell across
    the facet opposite ``cells[c][j]``, and ``orient[c]``, the exact sign of
    its orientation (0 for an infinite cell).  ``last`` is the finite cell
    added last, which is live.  A removed cell's vertices and neighbours
    become None."""

    def __init__(self, rows: list[list[float]], first):
        self.rows = rows
        self.d = len(rows[0])
        self.cal = _INSPHERE_CAL[self.d]
        # the traced sign functions, called straight: None sends a call to
        # the exact path
        self.orient_signs = _compiled(_orient, self.d + 1, self.d, True)
        self.lifted_signs = _compiled(_lifted, self.d + 2, self.d, True)
        self.cells: list[tuple[int, ...] | None] = []
        self.nbr: list[list[int] | None] = []
        self.orient: list[int] = []
        base = tuple(sorted(first))
        link = {}
        for cell in [base] + [base[:i] + base[i + 1:] + (_INF,) for i in range(self.d + 1)]:
            self._link(self._add(cell), link)

    def _add(self, cell) -> int:
        c = len(self.cells)
        orient = 0
        if cell[-1] != _INF:
            pts = [self.rows[v] for v in cell]
            orient = (self.orient_signs(*pts) or _exact_signs(_orient, pts))[0]
            if orient == 0:
                raise PslapError(f"degenerate cell {cell} produced during insertion")
            self.last = c
        self.cells.append(cell)
        self.nbr.append([None] * (self.d + 1))
        self.orient.append(orient)
        return c

    def _link(self, c, link, skip=None):
        """Link cell c across each facet but the one opposite index ``skip``
        to the cell that ``link`` holds under that facet, or leave c there."""
        cell = self.cells[c]
        for j in range(self.d + 1):
            if j != skip:
                facet = cell[:j] + cell[j + 1:]
                other = link.pop(facet, None)
                if other is None:
                    link[facet] = c, j
                else:
                    o, k = other
                    self.nbr[c][j], self.nbr[o][k] = o, c

    def _side(self, c, j, p_idx) -> int:
        """The exact orientation of the finite cell c with its vertex j
        replaced by p, times c's: -1 iff p lies strictly beyond facet j."""
        pts = [self.rows[v] for v in self.cells[c]]
        pts[j] = self.rows[p_idx]
        return (self.orient_signs(*pts) or _exact_signs(_orient, pts))[0] * self.orient[c]

    def _inside(self, c, p_idx) -> bool:
        """Whether p lies inside the circumsphere of the finite cell c: the
        lifted determinant, or on a tie the perturbed one."""
        cell, rows = self.cells[c], self.rows
        pts = [rows[p_idx]] + [rows[v] for v in cell]
        s = (self.lifted_signs(*pts) or _exact_signs(_lifted, pts))[0]
        if s:
            return s * self.orient[c] * self.cal > 0
        # A tie: the perturbation's term of the largest index with a nonzero
        # cofactor decides.  For the point at place r of pts its sign is
        # (-1)**r orient(pts without r) times the cell's orientation, +1 for
        # p itself, so p decides unless a vertex of larger index does (the
        # cell is sorted).
        for r in range(self.d + 1, 0, -1):
            if cell[r - 1] < p_idx:
                break
            o = _exact_signs(_orient, pts[:r] + pts[r + 1:])[0]
            if o:
                return (o if r % 2 == 0 else -o) * self.orient[c] > 0
        return True

    def in_conflict(self, c, p_idx) -> bool:
        if self.cells[c][-1] != _INF:
            return self._inside(c, p_idx)
        finite = self.nbr[c][-1]
        s = self._side(finite, self.nbr[finite].index(c), p_idx)
        if s:
            return s < 0
        # p on the facet's affine hull, where the finite cell's circumsphere
        # is the facet's; on a tie the opposite vertex's cofactor,
        # orient(facet + p), is 0, so only the facet and p break it
        return self._inside(finite, p_idx)

    def _locate(self, p_idx) -> int:
        """A cell in conflict with p: walked from ``last`` across any facet
        but the one just crossed that p lies strictly beyond, up to a cell
        whose closure holds p or an infinite cell."""
        c, prev = self.last, None
        while self.cells[c][-1] != _INF:
            for j, other in enumerate(self.nbr[c]):
                if other != prev and self._side(c, j, p_idx) < 0:
                    c, prev = other, c
                    break
            else:
                break
        return c

    def _conflict_region(self, p_idx):
        """The cells in conflict with p: ``_locate``'s, then the rest by
        search over neighbours, each cell tested once (the region is
        connected)."""
        conflicts = [self._locate(p_idx)]
        tested = set(conflicts)
        for c in conflicts:  # grows while it is walked
            for other in self.nbr[c]:
                if other not in tested:
                    tested.add(other)
                    if self.in_conflict(other, p_idx):
                        conflicts.append(other)
        return conflicts

    def insert(self, p_idx):
        """Replace the conflict region by the cells joining p to its boundary
        facets: each new cell links across its facet opposite p to the cell
        outside, and across the others to its fellow new cells."""
        conflicts = self._conflict_region(p_idx)
        region = set(conflicts)
        cells, nbr = self.cells, self.nbr
        link = {}
        for c in conflicts:
            cell = cells[c]
            for j, out in enumerate(nbr[c]):
                if out in region:
                    continue
                facet = cell[:j] + cell[j + 1:]
                if facet[-1] == _INF:
                    new = tuple(sorted(facet[:-1] + (p_idx,))) + (_INF,)
                else:
                    new = tuple(sorted(facet + (p_idx,)))
                n = self._add(new)
                i = new.index(p_idx)
                nbr[n][i] = out
                nbr[out][nbr[out].index(c)] = n
                self._link(n, link, skip=i)
        for c in conflicts:
            cells[c] = nbr[c] = None


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
    tri = _Triangulation(coords.tolist(), first)  # the predicates read rows, not the array
    rest = [i for i in range(n) if i not in set(first)]
    random.Random(seed).shuffle(rest)
    for p in rest:
        tri.insert(p)

    return FilteredComplex.from_cells(
        np.array([c for c in tri.cells if c is not None and c[-1] != _INF], dtype=np.int64)
    )
