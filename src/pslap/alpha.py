"""Alpha-complex filtration values on a Delaunay tessellation.

Every simplex gets a squared filtration value: its own squared circumradius
if it is Gabriel, otherwise the minimum value over the cofaces whose opposite
vertex breaks the Gabriel property.  Values are assigned from the top
dimension downwards so that non-Gabriel propagation is complete before a
lower dimension is visited.  They are computed on the Delaunay complex's
rows as they stand, and ``FilteredComplex.with_values`` passes them with
the known face rows to the one constructor, which sorts each dimension by
(value, vertex row).
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeFiltration
from .geometry import (
    PointSet,
    delaunay,
    min_circumsphere_batch,
    side_of_circumsphere_batch,
)
from .simplices import FilteredComplex, _faces_of, bound_sq

__all__ = ["assign_filtration", "critical_alphas", "alpha_complex"]


def assign_filtration(complex: FilteredComplex, points: PointSet) -> FilteredComplex:
    """Return a new complex with alpha filtration values (squared) assigned.

    Works one dimension at a time on arrays, each row of a batch giving the
    value the per-simplex formula gives: a q-simplex inherits the smallest
    value among its (q+1)-cofaces whose opposite vertex lies strictly inside
    its circumsphere, and otherwise takes its own squared circumradius."""
    coords = points.coords
    top = complex.max_dim
    values = {0: np.zeros(complex.n_simplices(0))}
    inherited = np.full(complex.n_simplices(top), np.inf)
    for q in range(top, 0, -1):
        sims = complex.vertex_rows(q)
        own = inherited == np.inf
        v = inherited.copy()
        v[own] = min_circumsphere_batch(coords[sims[own]])
        values[q] = v
        inherited = np.full(complex.n_simplices(q - 1), np.inf)
        if q == 1:
            break  # an edge's vertex faces have radius 0, nothing is inside
        # face i of every simplex against its opposite vertex i, in one batch
        inside = side_of_circumsphere_batch(
            coords[_faces_of(sims)],
            coords[sims].reshape(-1, coords.shape[1]),
        ).reshape(sims.shape) > 0
        # NaN and inf values never pass down, as in `v < prior`
        inside &= (v < np.inf)[:, None]
        faces = complex.face_rows(q)
        np.minimum.at(inherited, faces[inside], np.broadcast_to(v[:, None], inside.shape)[inside])

    # radii of mathematically equal spheres, from the polynomials of different
    # dimensions, can disagree by an ulp; repair bottom-up so monotonicity holds exactly
    # (face values stay authoritative, cofaces are clamped up)
    for q in range(1, top + 1):
        values[q] = np.maximum(values[q], values[q - 1][complex.face_rows(q)].max(axis=1))
    _check_finite(complex, values)
    return complex.with_values(values)


def _check_finite(complex: FilteredComplex, values: dict) -> None:
    """Raise unless every value is finite, ``values[q][j]`` belonging to
    ``complex.vertex_rows(q)[j]``: squared distances beyond double range
    come out inf or NaN, and NaN passes every comparison unnoticed."""
    for q in sorted(values, reverse=True):
        bad = np.flatnonzero(~np.isfinite(values[q]))
        if bad.size:
            raise NegativeFiltration(
                f"filtration value {values[q][bad[0]]} for simplex "
                f"{tuple(complex.vertex_rows(q)[bad[0]].tolist())}: squared distances overflow"
            )


def critical_alphas(complex: FilteredComplex) -> np.ndarray:
    """Sorted alpha values (unsquared) at which the complex changes, one per
    snapshot state: sqrt(v) for each distinct squared value v whose snapshot
    holds more values than that of the value before it, so every value lies
    in the snapshot of its own critical alpha and no state is skipped, even
    where near-ties chain across more than one slack."""
    vals = np.unique(np.concatenate(
        [complex.filtration_values_sq(q) for q in range(complex.max_dim + 1)]
    ))
    roots = np.sqrt(vals)
    held = np.searchsorted(vals, bound_sq(roots), side="right")
    return roots[np.r_[True, held[1:] > held[:-1]]]


def alpha_complex(points: PointSet, seed: int = 0) -> FilteredComplex:
    """Full pipeline: Delaunay tessellation plus alpha filtration values.

    Point sets too small to tessellate (n <= 2) degenerate to the complex
    the alpha filtration would produce directly: isolated vertices, plus for
    n == 2 the connecting edge, whose value comes from the same
    ``min_circumsphere_batch`` row as any other edge's, built from
    per-dimension value lists with the face rows looked up.
    """
    coords = points.coords
    n = coords.shape[0]
    if n == 1:
        return FilteredComplex({0: [(0,)]}, {0: [0.0]})
    if n == 2:
        edge = min_circumsphere_batch(coords[None])
        cx = FilteredComplex({0: [(0,), (1,)], 1: [(0, 1)]}, {0: [0.0, 0.0], 1: edge})
        _check_finite(cx, {q: cx.filtration_values_sq(q) for q in (0, 1)})
        return cx
    return assign_filtration(delaunay(points, seed=seed), points)
