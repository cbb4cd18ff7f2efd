import itertools
import re

import numpy as np
import pytest

from conftest import (
    DATA,
    build_complex,
    circumradius_sq,
    exact_circumsphere,
    prefix_states,
    random_cloud,
    reference_assign_filtration,
    side_of_circumsphere,
)
from pslap import geometry
from pslap.alpha import alpha_complex, assign_filtration, critical_alphas
from pslap.dataio import read_xyz
from pslap.errors import NegativeFiltration
from pslap.geometry import PointSet, delaunay
from pslap.simplices import FilteredComplex, snapshot

NAMES = "ABCDEF"


def is_gabriel(points: PointSet, simplex) -> bool:
    """Brute-force reference: True iff the open ball of the simplex's minimal
    circumsphere contains no input point.  Vertices (radius 0) are always
    Gabriel."""
    if len(simplex) == 1:
        return True
    coords = points.coords
    spts = coords[list(simplex)]
    return not any(
        side_of_circumsphere(spts, coords[idx]) > 0
        for idx in range(coords.shape[0])
        if idx not in simplex
    )


def test_gabriel_examples():
    pts = PointSet(np.array([(0, 0), (2, 0), (1, 5)], float))
    assert is_gabriel(pts, (0, 1))  # ball radius 1 excludes (1,5)
    assert is_gabriel(pts, (0,))  # vertices always
    tri = PointSet(np.array([(0, 0), (4, 0), (2, 0.5)], float))
    assert not is_gabriel(tri, (0, 1))  # (2,0.5) inside the radius-2 ball


def test_assign_filtration_equilateral():
    pts = PointSet(np.array([(0, 0), (1, 0), (0.5, np.sqrt(3) / 2)]))
    c = alpha_complex(pts)
    for v in c.simplices(0):
        assert c.filtration_sq(v) == 0.0
    for e in c.simplices(1):
        assert np.isclose(c.filtration_sq(e), 0.25)
    assert np.isclose(c.filtration_sq((0, 1, 2)), 1.0 / 3.0)
    assert np.allclose(critical_alphas(c), [0.0, 0.5, np.sqrt(1.0 / 3.0)])


def test_assign_filtration_non_gabriel_inherits():
    pts = PointSet(np.array([(0, 0), (4, 0), (2, 0.5)], float))
    c = alpha_complex(pts)
    assert np.isclose(c.filtration_sq((0, 1)), 18.0625)  # long edge inherits
    assert np.isclose(c.filtration_sq((0, 2)), 1.0625)  # short edges keep their own
    assert np.isclose(c.filtration_sq((1, 2)), 1.0625)


def test_six_point_complex_at_rest_alphas(six_points, six_complex):
    present = lambda a: (
        sorted(
            "".join(NAMES[v] for v in s)
            for s in six_complex.simplices(1)
            if six_complex.filtration_sq(s) <= a * a
        ),
        sorted(
            "".join(NAMES[v] for v in s)
            for s in six_complex.simplices(2)
            if six_complex.filtration_sq(s) <= a * a
        ),
    )
    edges, tris = present(0.6)
    assert edges == ["AB", "AE", "BC", "CD", "DE", "DF", "EF"]
    assert tris == ["DEF"]
    assert present(0.2) == ([], [])


def test_critical_alphas_single_edge():
    pts = PointSet(np.array([(0.0, 0.0), (2.0, 0.0)]))
    c = alpha_complex(pts)
    assert np.allclose(critical_alphas(c), [0.0, 1.0])


def test_six_point_cycle_death_in_window(six_complex):
    # the pentagon 1-cycle must die in (0.6, 0.83]
    fills = sorted(
        np.sqrt(six_complex.filtration_sq(s))
        for s in six_complex.simplices(2)
        if s != (3, 4, 5)
    )
    assert 0.6 < fills[-1] <= 0.83


def test_monotone_filtration_random_clouds():
    # exact (not tolerance-level) monotonicity after the bottom-up repair
    for seed, n, d in [(0, 12, 2), (1, 15, 3), (2, 30, 2), (3, 20, 3)]:
        pts = random_cloud(seed, n, d)
        c = alpha_complex(pts, seed=seed)
        for q in range(1, c.max_dim + 1):
            for s in c.simplices(q):
                v = c.filtration_sq(s)
                for i in range(q + 1):
                    assert c.filtration_sq(s[:i] + s[i + 1:]) <= v


def test_gabriel_value_assignment_rule():
    # Gabriel simplices carry their own squared circumradius; non-Gabriel ones
    # a value attained by some coface
    for seed, n, d in [(4, 10, 2), (5, 12, 3)]:
        pts = random_cloud(seed, n, d)
        c = alpha_complex(pts, seed=seed)
        for q in range(1, c.max_dim + 1):
            for s in c.simplices(q):
                own = circumradius_sq(pts.coords[list(s)])
                if is_gabriel(pts, s):
                    assert np.isclose(c.filtration_sq(s), own, rtol=1e-10)
                else:
                    cofaces = [
                        t
                        for t in c.simplices(q + 1)
                        if set(s) <= set(t)
                    ]
                    vals = [c.filtration_sq(t) for t in cofaces]
                    assert any(
                        np.isclose(c.filtration_sq(s), v, rtol=1e-12) for v in vals
                    )


# -- nerve-definition oracle ---------------------------------------------------


def _nerve_member(coords, simplex, alpha, resolution=160):
    """Membership of a simplex in the alpha complex straight from the nerve
    definition: a witness x must be within alpha of every simplex vertex and
    have no other point strictly closer.  Witnesses live on the equidistance
    subspace through the circumcenter, which is sampled densely."""
    pts = coords[list(simplex)]
    center = np.array([float(c) for c in exact_circumsphere(pts.tolist())[0]])
    d = coords.shape[1]
    V = pts[1:] - pts[0]
    if len(V):
        basis = np.linalg.svd(V, full_matrices=True)[2][len(V):]
    else:
        basis = np.eye(d)
    if basis.shape[0] == 0:
        samples = center[None, :]
    else:
        ticks = np.linspace(-alpha, alpha, resolution)
        grids = np.meshgrid(*([ticks] * basis.shape[0]), indexing="ij")
        offsets = np.stack([g.ravel() for g in grids], axis=1)
        samples = center[None, :] + offsets @ basis
    d_own = np.linalg.norm(samples[:, None, :] - pts[None, :, :], axis=2)
    ok = np.all(d_own <= alpha * (1 + 1e-9), axis=1)
    others = [i for i in range(coords.shape[0]) if i not in set(simplex)]
    if others:
        d_other = np.linalg.norm(
            samples[:, None, :] - coords[None, others, :], axis=2
        )
        ok &= np.all(d_other >= d_own[:, :1] * (1 - 1e-9), axis=1)
    return bool(np.any(ok))


@pytest.mark.parametrize("seed,n,d", [(7, 7, 2), (8, 8, 2), (9, 7, 3)])
def test_filtration_matches_nerve_definition(seed, n, d):
    pts = random_cloud(seed, n, d)
    c = alpha_complex(pts, seed=seed)
    for q in range(1, c.max_dim + 1):
        for s in c.simplices(q):
            a = np.sqrt(c.filtration_sq(s))
            assert _nerve_member(pts.coords, s, a * 1.02), (s, a)
            assert not _nerve_member(pts.coords, s, a * 0.98), (s, a)


def test_alpha_complex_tiny_inputs():
    c1 = alpha_complex(PointSet(np.array([(0.5, 0.5)])))
    assert c1.n_simplices(0) == 1 and c1.n_simplices(1) == 0
    c2 = alpha_complex(PointSet(np.array([(-1.0, 0.0), (1.0, 0.0)])))
    assert c2.n_simplices(1) == 1
    assert np.isclose(c2.filtration_sq((0, 1)), 1.0)


def test_overflowing_filtration_is_an_error():
    # squared circumradii overflow to inf and NaN; no value may pass as finite
    with pytest.raises(NegativeFiltration):
        alpha_complex(read_xyz(DATA / "overflow.xyz"))
    # the two-point complex skips the tessellation, not the finiteness check
    with pytest.raises(NegativeFiltration, match=r"value inf for simplex \(0, 1\)"):
        alpha_complex(read_xyz(DATA / "overflow_two.xyz"))


def test_needle_beyond_double_range_is_an_error():
    # the needle's exact r², about 1e330, rounds to inf: a typed error, not
    # an OverflowError from rounding the rational
    with pytest.raises(NegativeFiltration, match=r"value inf for simplex \(0, 1, 2\)"):
        alpha_complex(PointSet(np.array([(0, 0), (1e70, 0), (2e70, 1e-25)])))


# -- the batched filtration against the per-simplex reference -------------------


def _assert_same_filtration(pts: PointSet, seed: int = 0):
    """assign_filtration equals the per-simplex reference: the same simplex
    order and == on every value, or the same error."""
    cx = delaunay(pts, seed=seed)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
            ref = reference_assign_filtration(cx, pts)
    except NegativeFiltration as exc:
        with pytest.raises(NegativeFiltration, match=re.escape(str(exc))):
            assign_filtration(cx, pts)
        return
    got = assign_filtration(cx, pts)
    assert got.max_dim == ref.max_dim
    for q in range(ref.max_dim + 1):
        assert got.simplices(q) == ref.simplices(q)
        assert [got.filtration_sq(s) for s in got.simplices(q)] == [
            ref.filtration_sq(s) for s in ref.simplices(q)
        ]


GRID = PointSet(np.array(list(itertools.product(range(3), repeat=3)), float))
# the two-point files never reach assign_filtration (no tessellation)
DATA_FILES = [f for f in sorted(DATA.glob("*.xyz")) if len(read_xyz(f)) > 2]


@pytest.mark.parametrize("path", DATA_FILES, ids=[f.stem for f in DATA_FILES])
def test_batched_filtration_matches_reference_on_data(path):
    _assert_same_filtration(read_xyz(path))


def test_batched_filtration_matches_reference_on_cospherical(icosahedron_points):
    _assert_same_filtration(GRID)
    _assert_same_filtration(icosahedron_points)


@pytest.mark.parametrize("d", [2, 3])
def test_batched_filtration_matches_reference_on_random_clouds(d):
    for seed in range(20):
        _assert_same_filtration(random_cloud(seed, 10 + seed, d), seed=seed)


def test_batched_exact_fallback_runs_on_cospherical_input(monkeypatch):
    # the grid's cube faces are cospherical with their opposite vertices, so
    # the float power is within its error bound and the exact kernel decides
    cx = delaunay(GRID)
    polys = []
    exact_signs = geometry._exact_signs

    def spy(poly, points):
        polys.append(poly)
        return exact_signs(poly, points)

    monkeypatch.setattr(geometry, "_exact_signs", spy)
    assign_filtration(cx, GRID)
    assert geometry._gram_power in polys


def test_snapshot_counts_at_critical_values(six_complex):
    # the critical alphas visit every prefix state once; near_tie's two
    # shortest edges differ by 1.5e-12 relative in squared value, beyond the
    # slack, so both states (one edge, two edges) must be visited
    near_tie = alpha_complex(read_xyz(DATA / "near_tie.xyz"))
    for cx in (six_complex, near_tie):
        states = [snapshot(cx, a).counts for a in critical_alphas(cx)]
        assert states == prefix_states(cx)
    assert (4, 1, 0, 0) in states and (4, 2, 0, 0) in states


def test_critical_alphas_follow_chained_near_ties():
    # a path of four edges whose squared values step by less than the slack:
    # each lies within the slack of the one before it but not of the one two
    # before, so the snapshots at their own alphas hold 2, 3, 4 and 4 edges,
    # and each of the three states needs its own critical value
    values = {(v,): 0.0 for v in range(5)}
    values.update({(0, 1): 1.0, (1, 2): 1 + 0.8e-12, (2, 3): 1 + 1.6e-12, (3, 4): 1 + 2.2e-12})
    cx = build_complex(list(values), values)
    crit = critical_alphas(cx)
    states = [snapshot(cx, a).counts for a in crit]
    assert states == prefix_states(cx)
    assert [s[1] for s in states] == [0, 2, 3, 4]



def test_assign_filtration_on_a_valued_complex(chain_clean_complex):
    # the new values are sorted with the vertex rows as tie-break, whatever
    # order the rows come in, so the valued complex's order leaves no trace
    # in the new one
    points = read_xyz(DATA / "chain_clean.xyz")
    cx = delaunay(points)
    by_dim = {q: cx.simplices(q) for q in range(cx.max_dim + 1)}
    scrambled = FilteredComplex(
        by_dim, {q: [float(-sum(s) % 7) for s in sims] for q, sims in by_dim.items()}
    )
    again = assign_filtration(scrambled, points)
    for q in range(4):
        assert again.simplices(q) == chain_clean_complex.simplices(q)
        assert np.array_equal(
            again.filtration_values_sq(q), chain_clean_complex.filtration_values_sq(q)
        )
        if q:
            assert np.array_equal(again.face_rows(q), chain_clean_complex.face_rows(q))
