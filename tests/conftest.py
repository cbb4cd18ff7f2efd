import itertools
import math
import operator
import pathlib
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from pslap.alpha import alpha_complex
from pslap.boundary import dense_block, full_boundary
from pslap.dataio import CSV_HEADER, read_xyz
from pslap.errors import DegenerateSimplex, NegativeFiltration, ParseError
from pslap.geometry import (
    _ERR,
    _RADIUS_ERR,
    PointSet,
    _exact_signs,
    _gram_power,
    _gram_radius,
    _to_double,
    min_circumsphere_batch,
    side_of_circumsphere_batch,
)
from pslap.simplices import MAX_DIM, FilteredComplex, count_held
from pslap.spectra import GAP_FACTOR, ZERO_ABS, ZERO_REL, SpectrumRecord

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def six_points() -> PointSet:
    return read_xyz(DATA / "six_points.xyz")


@pytest.fixture(scope="session")
def six_complex(six_points):
    return alpha_complex(six_points)


@pytest.fixture(scope="session")
def icosahedron_points() -> PointSet:
    return read_xyz(DATA / "icosahedron.xyz")


@pytest.fixture(scope="session")
def icosahedron_complex(icosahedron_points):
    return alpha_complex(icosahedron_points)


@pytest.fixture(scope="session")
def cloud20_complex():
    return alpha_complex(read_xyz(DATA / "cloud20_3d.xyz"))


@pytest.fixture(scope="session")
def chain_clean_complex():
    return alpha_complex(read_xyz(DATA / "chain_clean.xyz"))


def chain48_pdb(tmp_path) -> pathlib.Path:
    """The first 48 residues of the stand-in chain, written to ``tmp_path``:
    its critical sweeps at p = 0.5 solve Hodge parts of order up to 293."""
    atoms = [line for line in (DATA / "ca_chain220_seed1.pdb").read_text().splitlines()
             if line.startswith("ATOM")]
    path = tmp_path / "chain48.pdb"
    path.write_text("\n".join(atoms[:48]) + "\n")
    return path


def random_cloud(seed: int, n: int, d: int) -> PointSet:
    rng = np.random.default_rng(seed)
    return PointSet(rng.uniform(0.0, 2.0, size=(n, d)))


def simplex_tuples(cx, q: int) -> list[tuple[int, ...]]:
    """The q-simplices of ``cx`` as vertex tuples, in filtration order: a
    tuple view of ``cx.vertex_rows(q)``, empty past ``MAX_DIM``."""
    return list(map(tuple, cx.vertex_rows(q).tolist())) if 0 <= q <= MAX_DIM else []


def value_of(cx) -> dict:
    """Each simplex's squared value, keyed by its vertex tuple."""
    return {
        s: v for q in range(MAX_DIM + 1)
        for s, v in zip(simplex_tuples(cx, q), cx.filtration_values_sq(q).tolist())
    }


def build_complex(simplices, filtration_sq) -> FilteredComplex:
    """A hand-built complex from vertex tuples and their squared values,
    completed to its closure.

    Missing faces are inserted with the minimum value over their cofaces;
    a face whose given value exceeds a coface's value is clamped down to it.
    """
    values = {s: float(filtration_sq[s]) for s in simplices}
    by_dim: dict[int, set] = {q: set() for q in range(MAX_DIM + 1)}
    for s in values:
        by_dim[len(s) - 1].add(s)
    # top-down: inserts missing faces and clamps non-monotone given values
    for q in range(MAX_DIM, 0, -1):
        for s in list(by_dim[q]):
            for i in range(q + 1):
                face = s[:i] + s[i + 1:]
                by_dim[q - 1].add(face)
                values[face] = min(values.get(face, math.inf), values[s])
    return FilteredComplex(
        {q: list(sims) for q, sims in by_dim.items()},
        {q: [values[s] for s in sims] for q, sims in by_dim.items()},
    )


def snapshot_counts(cx, alpha) -> tuple:
    """The snapshot at alpha as its simplex counts (N_0, ..., N_MAX_DIM)."""
    return tuple(int(count_held(cx, q, alpha)) for q in range(MAX_DIM + 1))


def count_of(counts: tuple, q: int) -> int:
    """N_q of a snapshot's counts, 0 for a q outside 0..MAX_DIM."""
    return counts[q] if 0 <= q <= MAX_DIM else 0


def euler_characteristic(counts: tuple) -> int:
    """Alternating sum of a snapshot's simplex counts."""
    return sum((-1) ** q * n for q, n in enumerate(counts))


def prefix_states(cx) -> list:
    """Sorted distinct snapshot counts at each simplex's own alpha: the states
    a sweep over the critical values visits, each exactly once."""
    return sorted({
        snapshot_counts(cx, math.sqrt(v))
        for q in range(cx.max_dim + 1)
        for v in cx.filtration_values_sq(q).tolist()
    })


def exact_det(rows) -> Fraction:
    """Determinant of a square matrix of rationals, by its permutation sum."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _lifted_row(x) -> list:
    x = [Fraction(c) for c in x]
    return x + [sum(c * c for c in x), Fraction(1)]


def reference_in_sphere(rows, cell, query: int) -> int:
    """+1 if point ``query`` lies inside the circumsphere of the d-simplex
    ``cell`` (indices into the point rows), -1 if outside; never 0.

    The sign is the Gram power's.  A tie is broken by the perturbation of
    the geometry module docstring, which lowers point i's lift |p_i|^2 by
    eps**(n - i): the in-sphere determinant of the rows (x, |x|^2, 1), in
    Fraction, is linear in the lift column, so lowering row j's lift adds
    -eps**(n - i_j) times its cofactor, the determinant with that column
    replaced by the unit vector e_j, and the largest index with a nonzero
    cofactor decides.  The determinant's sign for a point inside is read
    off the cell's centroid, which lies strictly inside.
    """
    idx = tuple(cell) + (query,)
    pts = [rows[i] for i in idx]
    independent, power = _exact_signs(_gram_power, pts)
    if not independent:
        raise DegenerateSimplex(f"degenerate cell {tuple(cell)}")
    if power:
        return power
    matrix = [_lifted_row(p) for p in pts]
    centroid = [sum(map(Fraction, column)) / len(cell) for column in zip(*pts[:-1])]
    inside = np.sign(exact_det(matrix[:-1] + [_lifted_row(centroid)]))
    assert inside != 0
    # the query's cofactor is the cell's orientation, nonzero: the loop returns
    for j in sorted(range(len(idx)), key=idx.__getitem__, reverse=True):
        unit = [row[:-2] + [Fraction(i == j), row[-1]] for i, row in enumerate(matrix)]
        cofactor = exact_det(unit)
        if cofactor:
            return int(-np.sign(cofactor) * inside)


def audit_empty_circumspheres(cx, coords: np.ndarray) -> list:
    """All (cell, point) pairs of a tessellation of ``coords`` violating the
    perturbed empty-sphere property of :func:`reference_in_sphere`."""
    violations, rows = [], coords.tolist()
    for cell in simplex_tuples(cx, coords.shape[1]):
        members = set(cell)
        for idx in range(coords.shape[0]):
            if idx not in members and reference_in_sphere(rows, cell, idx) > 0:
                violations.append((cell, idx))
    return violations


# Scalar circumsphere predicates: one-row calls of the batched geometry code,
# which pslap.alpha runs on whole dimensions at a time.


def _simplex_rows(simplex_points) -> np.ndarray:
    pts = np.asarray(simplex_points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[0] > pts.shape[1] + 1:
        raise DegenerateSimplex(f"{pts.shape[0]} points in {pts.shape[1]}D are affinely dependent")
    return pts


def side_of_circumsphere(simplex_points, query) -> int:
    """+1 if query lies strictly inside the minimal circumsphere of the given
    points, -1 strictly outside, 0 on it; exact."""
    pts = _simplex_rows(simplex_points)
    q = np.asarray(query, dtype=float)
    if pts.shape[0] == 1:
        return -1 if np.any(q != pts[0]) else 0
    return int(side_of_circumsphere_batch(pts[None], q[None])[0])


def circumradius_sq(simplex_points) -> float:
    """Squared radius of the smallest sphere through k+1 affinely independent
    points; a single point has radius 0."""
    pts = _simplex_rows(simplex_points)
    if pts.shape[0] == 1:
        return 0.0
    return float(min_circumsphere_batch(pts[None])[0])


# Exact reference: a Gauss-Jordan solve of the circumcenter system, sharing no
# code with the kernel's Gram polynomials.


def exact_circumsphere(pts):
    """Circumcenter (in the affine hull) and squared radius of the point rows
    as exact rationals."""
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


# Per-simplex reference for pslap.alpha.assign_filtration, which computes the
# same values one dimension at a time on arrays, and the scalar predicates it
# uses: the circumradius formula's body interpreted row by row on Python
# floats and the exact side test straight through _exact_signs, independent
# of the batched and traced geometry code.


def gram_radius(simplex_points) -> tuple:
    """(det(G), b^T adj(G) b, bound) of k+1 points, k >= 1: the values of
    ``_gram_radius``'s body interpreted on Python floats, and the proven
    relative error bound of their quotient over 4, inf or NaN where a value
    is 0 or out of double range."""
    base, *rest = np.asarray(simplex_points, dtype=float).tolist()
    diffs = [[x - y for x, y in zip(p, base)] for p in rest]
    det, num = _gram_radius(diffs, operator.sub)
    mag_det, mag_num = _gram_radius([[abs(x) for x in row] for row in diffs], operator.add)
    try:
        bound = _ERR * (mag_num / abs(num) + mag_det / abs(det))
    except ZeroDivisionError:
        bound = math.inf
    return det, num, bound


def reference_side_of_circumsphere(simplex_points, query) -> int:
    pts = np.asarray(simplex_points, dtype=float)
    q = np.asarray(query, dtype=float)
    if pts.shape[0] == 1:
        return -1 if np.any(q != pts[0]) else 0
    independent, power = _exact_signs(_gram_power, pts.tolist() + [q.tolist()])
    if not independent:
        raise DegenerateSimplex("affinely dependent circumsphere input")
    return power


def reference_circumradius_sq(simplex_points) -> float:
    """num / (4 det) from :func:`gram_radius` where its bound is at most
    ``_RADIUS_ERR``, else the exact squared radius rounded to the nearest
    double."""
    pts = np.asarray(simplex_points, dtype=float)
    if pts.shape[0] == 1:
        return 0.0
    det, num, bound = gram_radius(pts)
    if bound <= _RADIUS_ERR:
        return num / (4.0 * det)
    return _to_double(exact_circumsphere(pts.tolist())[1])


def reference_filtration_values(by_dim: dict, points: PointSet) -> dict:
    """Squared alpha value of every simplex of ``by_dim[q]``, q = 0..top, a
    closed complex given as vertex tuples."""
    coords = points.coords
    values: dict[tuple, float] = {}
    top = max(by_dim)
    for q in range(top, -1, -1):
        for s in by_dim[q]:
            if s not in values:
                values[s] = reference_circumradius_sq(coords[list(s)])
            if q == 0:
                continue
            v_s = values[s]
            for i in range(q + 1):
                tau = s[:i] + s[i + 1:]
                opposite = s[i]
                if reference_side_of_circumsphere(coords[list(tau)], coords[opposite]) > 0:
                    prior = values.get(tau, math.inf)
                    if v_s < prior:
                        values[tau] = v_s

    # radii of mathematically equal spheres, from the polynomials of different
    # dimensions, can disagree by an ulp; repair bottom-up so monotonicity holds exactly
    # (face values stay authoritative, cofaces are clamped up)
    for q in range(1, top + 1):
        for s in by_dim[q]:
            face_max = max(values[s[:i] + s[i + 1:]] for i in range(q + 1))
            if values[s] < face_max:
                values[s] = face_max

    # squared distances beyond double range come out inf or NaN, and NaN
    # passes every comparison above unnoticed
    for s, v in values.items():
        if not math.isfinite(v):
            raise NegativeFiltration(
                f"filtration value {v} for simplex {s}: squared distances overflow"
            )
    return values


def reference_assign_filtration(complex: FilteredComplex, points: PointSet) -> FilteredComplex:
    """Return a new complex with alpha filtration values (squared) assigned."""
    by_dim = {q: simplex_tuples(complex, q) for q in range(complex.max_dim + 1)}
    values = reference_filtration_values(by_dim, points)
    return FilteredComplex(by_dim, {q: [values[s] for s in sims] for q, sims in by_dim.items()})


# The tuple construction of a filtered complex, which pslap.simplices builds
# on integer arrays instead: the closure as Python sets of vertex tuples, a
# (value, vertex tuple) sort per dimension and face rows from index dicts.


def closure_of_cells(cells) -> dict[int, set]:
    """All faces of the given top cells, grouped by dimension."""
    by_dim: dict[int, set] = {q: set() for q in range(MAX_DIM + 1)}
    for cell in cells:
        t = tuple(sorted(cell))
        for q in range(len(t)):
            for s in itertools.combinations(t, q + 1):
                by_dim[q].add(s)
    return by_dim


def reference_complex(by_dim: dict, filtration_sq) -> dict:
    """q -> (simplices, squared values, face rows) of the complex whose
    q-simplices are ``by_dim[q]`` with values ``filtration_sq(s)``, each
    dimension sorted by (value, vertex tuple); face rows are None for q=0."""
    out, index = {}, {}
    for q in range(MAX_DIM + 1):
        sims = sorted(by_dim.get(q, ()), key=lambda s: (filtration_sq(s), s))
        index[q] = {s: i for i, s in enumerate(sims)}
        faces = None
        if q:
            faces = np.array(
                [[index[q - 1][s[:i] + s[i + 1:]] for i in range(q + 1)] for s in sims],
                dtype=np.int64,
            ).reshape(-1, q + 1)
        out[q] = (sims, np.array([filtration_sq(s) for s in sims], dtype=float), faces)
    return out


def assert_matches_reference(cx, ref: dict) -> None:
    """``cx`` lists, values and indexes its simplices as ``reference_complex``
    does."""
    for q, (sims, values, faces) in ref.items():
        assert simplex_tuples(cx, q) == sims
        assert np.array_equal(cx.filtration_values_sq(q), values)
        if q:
            assert np.array_equal(cx.face_rows(q), faces)


def read_spectra_csv(path) -> list[SpectrumRecord]:
    """Records back from a ``write_spectra_csv`` file, without eigenvalues."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ParseError(f"{path}:1: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise ParseError(f"{path}:{lineno}: expected 7 fields")
            q, alpha, p, n, betti, lam, flags = parts
            records.append(
                SpectrumRecord(
                    q=int(q),
                    alpha=float(alpha),
                    p=float(p),
                    eigenvalues=(),
                    betti=int(betti),
                    lambda_min_nonzero=float(lam) if lam else None,
                    n_simplices=int(n),
                    flags=tuple(f for f in flags.split(";") if f),
                )
            )
    return records


# Reference boundary matrices.  They are built from the simplex lists alone,
# without pslap.boundary's face-index arrays or sign table, so the tests can
# check the production blocks against them.


def simplex_index(cx, q: int) -> dict:
    """Each q-simplex's position in ``cx.vertex_rows(q)``."""
    return {s: i for i, s in enumerate(simplex_tuples(cx, q))}


def reference_boundary(cx, q: int) -> np.ndarray:
    """Dense integer boundary matrix B_q of the whole filtration: column j is
    the boundary of ``cx.vertex_rows(q)[j]``, face i carrying (-1)^i; q=0 gives
    a (1, N_0) zero matrix."""
    if q == 0:
        return np.zeros((1, cx.n_simplices(0)), dtype=np.int64)
    out = np.zeros((cx.n_simplices(q - 1), cx.n_simplices(q)), dtype=np.int64)
    faces = simplex_index(cx, q - 1)
    for j, s in enumerate(simplex_tuples(cx, q)):
        for i in range(len(s)):
            out[faces[s[:i] + s[i + 1:]], j] = (-1) ** i
    return out


def production_boundary(cx, q: int) -> np.ndarray:
    """The full boundary matrix B_q as pslap's sweep reads it: one dense block
    from the face-index array."""
    rows = 1 if q == 0 else cx.n_simplices(q - 1)
    return dense_block(full_boundary(cx, q), 0, rows, 0, cx.n_simplices(q))


def row_count(q: int, snap) -> int:
    """Rows of B_q at a snapshot: its (q-1)-simplices, or one zero row for q=0."""
    return 1 if q == 0 else count_of(snap, q - 1)


def reference_restriction(cx, q: int, snap) -> np.ndarray:
    """B_q at a snapshot: the top-left block of :func:`reference_boundary`."""
    return reference_boundary(cx, q)[: row_count(q, snap), : count_of(snap, q)]


def reference_diff(cx, q: int, snap_t, snap_tp) -> np.ndarray:
    """Diff_q for the snapshot pair: the rows of B_q at the later snapshot for
    (q-1)-simplices absent from the earlier one.  Its kernel is the persistent
    chain space."""
    return reference_restriction(cx, q, snap_tp)[row_count(q, snap_t):]


# The tuple-sort Z2 reduction that pslap.oracle.reduce runs on arrays: every
# simplex sorted as the tuple (value, vertex count, vertex tuple), faces
# looked up by position, so its ties are ordered without the complex's own
# order.


def reference_bars(cx) -> dict:
    """q -> sorted (birth, death) bars of ``cx`` in unsquared alpha units,
    from the standard column reduction of the tuple-sorted boundary matrix."""
    value = value_of(cx)
    order = sorted(value, key=lambda s: (value[s], len(s), s))
    position = {s: i for i, s in enumerate(order)}
    low_to_col: dict[int, int] = {}
    columns: dict[int, set] = {}
    for j, s in enumerate(order):
        col = {position[s[:i] + s[i + 1:]] for i in range(len(s))} if len(s) > 1 else set()
        while col:
            low = max(col)
            k = low_to_col.get(low)
            if k is None:
                break
            col ^= columns[k]
        columns[j] = col
        if col:
            low_to_col[max(col)] = j
    bars: dict[int, list] = {q: [] for q in range(MAX_DIM + 1)}
    for i, s in enumerate(order):
        if columns[i]:
            continue  # negative simplex: kills a bar, births nothing
        j = low_to_col.get(i)
        death = math.inf if j is None else math.sqrt(value[order[j]])
        bars[len(s) - 1].append((math.sqrt(value[s]), death))
    return {q: sorted(b) for q, b in bars.items()}


def reference_reduce_rational(cx, q: int) -> np.ndarray:
    """The pivot row of each column of the q boundary (-1 for none) after
    the left-to-right reduction over the rationals that rebuilds each
    reduced column from the union of two columns' entries and divides it by
    the gcd of all of them: the reference for BettiOracle's in-place one."""
    lows: list = []
    low_to_col: dict[int, int] = {}
    columns: dict[int, dict] = {}
    for faces in cx.face_rows(q).tolist():
        col: dict[int, int] = {r: (-1) ** i for i, r in enumerate(faces)}
        while col:
            low = max(col)
            k = low_to_col.get(low)
            if k is None:
                break
            other = columns[k]
            a, b = col[low], other[low]
            col = {
                r: v
                for r in set(col) | set(other)
                if (v := b * col.get(r, 0) - a * other.get(r, 0)) != 0
            }
            if col:
                g = 0
                for v in col.values():
                    g = math.gcd(g, abs(v))
                if g > 1:
                    col = {r: v // g for r, v in col.items()}
        if col:
            low = max(col)
            low_to_col[low] = len(lows)
            columns[len(lows)] = col
            lows.append(low)
        else:
            lows.append(-1)
    return np.array(lows, dtype=np.int64)


# Exact rational ranks by fraction-free elimination, the per-query reference
# for pslap.oracle.BettiOracle.


def exact_rank_int(matrix: np.ndarray) -> int:
    """Rank over Q of an integer matrix by fraction-free (Bareiss) elimination.

    Runs on int64 with an overflow guard; restarts with arbitrary-precision
    Python integers if entries outgrow the safe range.
    """
    m = np.array(matrix, dtype=np.int64, copy=True)
    try:
        return _bareiss(m, guard=True)
    except OverflowError:
        m = np.array(matrix, dtype=object, copy=True)
        return _bareiss(m, guard=False)


def _bareiss(m, guard: bool) -> int:
    rows, cols = m.shape
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i, c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[[r, piv], :] = m[[piv, r], :]
        pivot = m[r, c]
        if r + 1 < rows and c + 1 < cols:
            block = m[r + 1:, c + 1:]
            m[r + 1:, c + 1:] = (pivot * block - np.outer(m[r + 1:, c], m[r, c + 1:])) // prev
            # products must stay within int64 on the fast path
            if guard and np.abs(m[r + 1:, c + 1:]).max(initial=0) > 2**30:
                raise OverflowError
        m[r + 1:, c] = 0
        prev = pivot
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def exact_rank_betti(cx, q: int, alpha: float, p: float = 0.0) -> int:
    """beta_q^{alpha,p} by exact rational ranks: dim ker B_q^alpha minus the
    rank of the persistent boundary image.

    The image rank is rank(B_{q+1}^{alpha+p}) - rank(Diff_{q+1}^{alpha,p}),
    both integer matrices, so no rational kernel basis is ever formed.
    """
    snap_t, snap_tp = snapshot_counts(cx, alpha), snapshot_counts(cx, alpha + p)
    n_q = count_of(snap_t, q)
    if n_q == 0:
        return 0
    rank_bq = exact_rank_int(reference_restriction(cx, q, snap_t))
    rank_image = exact_rank_int(reference_restriction(cx, q + 1, snap_tp)) - exact_rank_int(
        reference_diff(cx, q + 1, snap_t, snap_tp)
    )
    return (n_q - rank_bq) - rank_image


# Harmonic-extension reference for the persistent boundary.  It shares no
# projector code with pslap.boundary, which projects through an orthonormal
# kernel basis of the Diff tail, so the tests use it as an independent check.


def harmonic_projector(d_tail: np.ndarray, down_tail: np.ndarray | None = None) -> np.ndarray:
    """I - Diff^T (L~)^{-1} Diff on the tail block, with the rank deficiency of
    the difference-complex Laplacian L~ fixed by completing its kernel."""
    n = d_tail.shape[1]
    if d_tail.shape[0] == 0 or not d_tail.any():
        return np.eye(n)
    lap = d_tail @ d_tail.T
    if down_tail is not None and down_tail.size:
        lap = lap + down_tail.T @ down_tail
    kernel = scipy.linalg.null_space(lap)
    if kernel.size:
        lap = lap + kernel @ kernel.T
    return np.eye(n) - d_tail.T @ scipy.linalg.solve(lap, d_tail, assume_a="pos")


def harmonic_persistent_boundary(cx, q: int, snap_t, snap_tp) -> np.ndarray:
    """Persistent boundary B_q for the snapshot pair (q >= 1) through
    :func:`harmonic_projector`, read from the reference boundaries."""
    r_t, c_t = row_count(q, snap_t), count_of(snap_t, q)
    up = reference_restriction(cx, q, snap_tp).astype(float)
    down = reference_restriction(cx, q - 1, snap_tp).astype(float)
    out = up[:r_t].copy()
    out[:, c_t:] = up[:r_t, c_t:] @ harmonic_projector(
        up[r_t:, c_t:], down[row_count(q - 1, snap_t):, r_t:]
    )
    return out


def harmonic_eigenvalues(cx, q: int, alpha: float, p: float) -> np.ndarray:
    """Ascending spectrum of the persistent Laplacian L_q^{alpha,p} with the
    up-term built from :func:`harmonic_persistent_boundary`."""
    snap_t, snap_tp = snapshot_counts(cx, alpha), snapshot_counts(cx, alpha + p)
    up = harmonic_persistent_boundary(cx, q + 1, snap_t, snap_tp)
    bq = reference_restriction(cx, q, snap_t).astype(float)
    return np.linalg.eigvalsh(up @ up.T + bq.T @ bq)


def reference_spectrum(matrix: np.ndarray) -> tuple:
    """(eigenvalues, betti, lambda_min_nonzero, flags) of a dense Laplacian
    from every eigenvalue by numpy's eigvalsh, under pslap.spectra's zero
    threshold and gap rule: the record its targeted solve must give."""
    eigs = np.linalg.eigvalsh(matrix)
    tau = max(ZERO_ABS, ZERO_REL * max(float(eigs[-1]), 0.0))
    betti = int(np.sum(eigs < tau))
    lam_min = float(eigs[betti]) if betti < len(eigs) else None
    largest_zero = float(eigs[betti - 1]) if betti else 0.0
    flags = ()
    if lam_min is not None and largest_zero > 0 and lam_min / largest_zero < GAP_FACTOR:
        flags = ("gap_ambiguous",)
    return tuple(eigs.tolist()), betti, lam_min, flags


# Dense projector reference for the persistent Laplacian.  pslap.spectra adds
# the integer Gram terms of the earlier snapshot and a rank-k term U U^T of the
# new columns; this route projects every new column through the n x n
# projector K K^T and multiplies the full dense blocks, sharing only
# dense_block with it.


def reference_kernel(d_tail: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker(d_tail) from the SVD, by scipy's wrapper: the
    basis pslap.boundary computes with one direct LAPACK call."""
    return scipy.linalg.null_space(d_tail)


def kernel_projector(d_tail: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto ker(d_tail) through an orthonormal kernel
    basis from the SVD."""
    kernel = reference_kernel(d_tail)
    return kernel @ kernel.T


def reference_persistent_boundary(full, snap_t, snap_tp) -> np.ndarray:
    """The full persistent boundary matrix for the snapshot pair: rows the
    (q-1)-simplices of the earlier snapshot, columns all q-simplices of the
    later one, the new columns projected onto ker(Diff)."""
    q = full.q
    r_t, r_p = row_count(q, snap_t), row_count(q, snap_tp)
    c_t, c_p = count_of(snap_t, q), count_of(snap_tp, q)
    b_top = dense_block(full, 0, r_t, 0, c_p)
    if c_p == c_t:
        return b_top
    d_tail = dense_block(full, r_t, r_p, c_t, c_p)
    if d_tail.shape[0] == 0 or not d_tail.any():
        return b_top
    b_top[:, c_t:] = b_top[:, c_t:] @ kernel_projector(d_tail)
    return b_top


def reference_laplacian(cx, q: int, alpha: float, p: float = 0.0) -> np.ndarray:
    """L_q^{alpha,p} = B_up B_up^T + B_q^T B_q by dense products, with B_up
    from :func:`reference_persistent_boundary`."""
    snap_t, snap_tp = snapshot_counts(cx, alpha), snapshot_counts(cx, alpha + p)
    bq = dense_block(full_boundary(cx, q), 0, row_count(q, snap_t), 0, count_of(snap_t, q))
    bup = reference_persistent_boundary(full_boundary(cx, q + 1), snap_t, snap_tp)
    lap = bup @ bup.T + bq.T @ bq
    return 0.5 * (lap + lap.T)
