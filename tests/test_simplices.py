import math

import numpy as np
import pytest

from conftest import (
    DATA,
    assert_matches_reference,
    build_complex,
    closure_of_cells,
    euler_characteristic,
    production_boundary,
    random_cloud,
    reference_boundary,
    reference_complex,
    reference_filtration_values,
    simplex_tuples,
    snapshot_counts,
    value_of,
)
from pslap.alpha import alpha_complex
from pslap.dataio import read_pdb_ca, read_xyz
from pslap.geometry import delaunay
from pslap.simplices import MAX_DIM, FilteredComplex, count_held
from pslap.spectra import accumulated_laplacian_diagonal, spectrum_at


def test_build_single_vertex():
    c = build_complex([(0,)], {(0,): 0.0})
    assert c.n_simplices(0) == 1
    assert c.n_simplices(1) == 0
    assert c.n_simplices(2) == 0


def test_build_closure_completion():
    c = build_complex([(0, 1, 2)], {(0, 1, 2): 4.0})
    assert c.n_simplices(0) == 3
    assert c.n_simplices(1) == 3
    assert c.n_simplices(2) == 1
    assert np.all(c.filtration_values_sq(1) <= 4.0)


def test_build_enforces_monotonicity():
    # a face given a value above its coface is clamped down to it
    c = build_complex(
        [(0, 1), (0, 1, 2)],
        {(0, 1): 9.0, (0, 1, 2): 4.0},
    )
    assert value_of(c)[(0, 1)] == 4.0


def test_build_pentagon_with_flap():
    # six vertices, the pentagon cycle plus a filled triangle hanging off one
    # edge; built directly rather than from coordinates
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (0, 4)]
    values = {e: 0.2 for e in edges}
    values[(3, 4, 5)] = 0.26
    values.update({(v,): 0.0 for v in range(6)})
    c = build_complex(values, values)
    assert snapshot_counts(c, 1.0) == (6, 7, 1, 0)


def test_six_point_snapshots(six_complex):
    assert snapshot_counts(six_complex, 0.2) == (6, 0, 0, 0)
    assert snapshot_counts(six_complex, 0.6) == (6, 7, 1, 0)
    full = snapshot_counts(six_complex, math.inf)
    assert full == tuple(six_complex.n_simplices(q) for q in range(4))


def test_snapshot_at_zero(six_complex):
    assert snapshot_counts(six_complex, 0.0) == (6, 0, 0, 0)


def test_snapshot_monotone_in_alpha(six_complex):
    alphas = np.linspace(0.0, 1.2, 25)
    prev = (0, 0, 0, 0)
    for a in alphas:
        cur = snapshot_counts(six_complex, a)
        assert all(x >= y for x, y in zip(cur, prev))
        prev = cur


def test_snapshot_threshold_domain(six_complex):
    # infinity admits everything; NaN and negative thresholds are errors,
    # not a full or empty complex, and they reach spectrum_at's caller
    full = tuple(six_complex.n_simplices(q) for q in range(4))
    assert snapshot_counts(six_complex, math.inf) == full
    for bad in (math.nan, -0.1, -math.inf):
        with pytest.raises(ValueError):
            snapshot_counts(six_complex, bad)
        with pytest.raises(ValueError):
            spectrum_at(six_complex, 1, bad)


@pytest.mark.parametrize("bad", [-0.1, -math.inf, math.nan])
def test_count_held_rejects_negative_and_nan(six_complex, bad):
    # count_held is the one place a threshold is checked: a negative or NaN
    # alpha raises at every q, one outside 0..MAX_DIM included, alone or
    # among valid ones
    for q in range(-1, MAX_DIM + 2):
        for alpha in (bad, np.array([0.5, bad, 1.0])):
            with pytest.raises(ValueError):
                count_held(six_complex, q, alpha)
        assert count_held(six_complex, q, np.array([0.0, math.inf])).shape == (2,)
    with pytest.raises(ValueError):
        accumulated_laplacian_diagonal(six_complex, [0.5, bad])


def test_snapshot_includes_its_own_critical_value():
    # sqrt/square round trips must not drop the simplex at its own alpha
    val = 0.3700000000000001
    c = build_complex(
        [(0,), (1,), (0, 1)],
        {(0,): 0.0, (1,): 0.0, (0, 1): val},
    )
    assert snapshot_counts(c, math.sqrt(val))[1] == 1


def test_euler_characteristic():
    assert euler_characteristic((6, 0, 0, 0)) == 6
    assert euler_characteristic((6, 7, 1, 0)) == 0
    assert euler_characteristic((4, 6, 4, 1)) == 1


def test_filtration_order_is_value_then_lex():
    c = build_complex(
        [(0, 1), (2, 3), (1, 2)],
        {(0, 1): 2.0, (2, 3): 1.0, (1, 2): 2.0},
    )
    assert c.vertex_rows(1).tolist() == [[2, 3], [0, 1], [1, 2]]


def test_closure_boundary_lookup_never_misses(six_complex):
    for q in range(1, six_complex.max_dim + 1):
        faces = set(simplex_tuples(six_complex, q - 1))
        for s in simplex_tuples(six_complex, q):
            for i in range(q + 1):
                assert s[:i] + s[i + 1:] in faces


# -- the array complex against the tuple construction ----------------------------

# the Delaunay audit's random clouds as (d, seed, n), and data files
REFERENCE_INPUTS = [
    (2, 0, 25), (2, 5, 40), (3, 1, 20), (3, 6, 30), (2, 61, 50), (3, 62, 45),
    "grid4.xyz", "icosahedron.xyz", "near_tie.xyz", "needle.xyz", "chain_clean.xyz",
    "ca_chain220_seed1.pdb",
]


@pytest.mark.parametrize("source", REFERENCE_INPUTS, ids=str)
def test_array_complex_matches_tuple_reference(source):
    # the Delaunay complex (every value inf, so lexicographic order) and the
    # alpha complex list, value and index their simplices as the tuple
    # closure sorted by (value, vertex tuple) does
    if isinstance(source, tuple):
        d, seed, n = source
        points = random_cloud(seed, n, d)
    else:
        points = (read_pdb_ca if source.endswith(".pdb") else read_xyz)(DATA / source)
    unvalued = delaunay(points)
    by_dim = closure_of_cells(simplex_tuples(unvalued, points.dim))
    assert_matches_reference(unvalued, reference_complex(by_dim, lambda s: math.inf))
    top = {q: sims for q, sims in by_dim.items() if sims}
    values = reference_filtration_values(top, points)
    assert_matches_reference(alpha_complex(points), reference_complex(by_dim, values.__getitem__))


@pytest.mark.parametrize("labels", [
    # base-n keys of the face (2e6, 2.5e6, 3e6) reach about 1.8e19, past int64
    (0, 2_000_000, 2_500_000, 3_000_000),
    (2_999_997, 2_999_998, 2_999_999, 3_000_000),
    # labels too far apart even for ranked keys
    (-(2**62), 0, 2**40, 2**62),
])
def test_face_rows_at_large_vertex_labels(labels):
    # one value throughout, so each dimension is in lexicographic order
    cx = build_complex([labels], {labels: 1.0})
    by_dim = closure_of_cells([labels])
    assert_matches_reference(cx, reference_complex(by_dim, value_of(cx).__getitem__))
    for q in range(1, 4):
        assert np.array_equal(production_boundary(cx, q), reference_boundary(cx, q))


# -- the constructor's contract ------------------------------------------------


@pytest.mark.parametrize("given_faces", [True, False], ids=["faces", "lookup"])
@pytest.mark.parametrize("valued", [True, False], ids=["alpha", "inf"])
@pytest.mark.parametrize("name", ["chain_clean.xyz", "six_points.xyz"])
def test_constructor_ignores_input_order(name, valued, given_faces):
    # every dimension's rows and values shuffled, with the face rows shuffled
    # to match or left to the lookup; all-inf values tie throughout, so there
    # the vertex rows alone decide the order
    points = read_xyz(DATA / name)
    cx = alpha_complex(points) if valued else delaunay(points)
    rng = np.random.default_rng(3)
    rows, values, faces, inverse = {}, {}, {}, {}
    for q in range(MAX_DIM + 1):
        perm = rng.permutation(cx.n_simplices(q))
        rows[q], values[q] = cx.vertex_rows(q)[perm], cx.filtration_values_sq(q)[perm]
        if q:
            faces[q] = inverse[q - 1][cx.face_rows(q)[perm]]
        inverse[q] = np.argsort(perm)
    built = FilteredComplex(rows, values, faces=faces if given_faces else None)
    by_dim = {q: simplex_tuples(cx, q) for q in range(MAX_DIM + 1)}
    assert_matches_reference(built, reference_complex(by_dim, value_of(cx).__getitem__))


@pytest.mark.parametrize("rows", [
    {0: [(0,), (1,)], 1: [(0, 2)]},  # the face (2,) sorts past every vertex
    {0: [(0,), (2,)], 1: [(0, 1)]},  # the face (1,) sorts between two vertices
    {0: [(0,), (1,), (2,)], 1: [(0, 1), (1, 2)], 2: [(0, 1, 2)]},  # no edge (0, 2)
], ids=["past-end", "between", "triangle"])
def test_missing_face_raises(rows):
    values = {q: [1.0] * len(sims) for q, sims in rows.items()}
    with pytest.raises(ValueError, match="face of a simplex is missing"):
        FilteredComplex(rows, values)


def test_values_must_match_rows():
    with pytest.raises(ValueError, match="2 0-simplices but 1 values"):
        FilteredComplex({0: [(0,), (1,)]}, {0: [0.0]})
