"""Alpha-complex filtration values on a Delaunay tessellation.

Every simplex gets a squared filtration value: its own squared circumradius
if it is Gabriel, otherwise the minimum value over the cofaces whose opposite
vertex breaks the Gabriel property.  Values are assigned from the top
dimension downwards so that non-Gabriel propagation is complete before a
lower dimension is visited.
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
from .simplices import REL_TOL, FilteredComplex

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
    faces = {}
    inherited = np.full(complex.n_simplices(top), np.inf)
    for q in range(top, 0, -1):
        sims = np.array(complex.simplices(q), dtype=np.int64).reshape(-1, q + 1)
        own = inherited == np.inf
        v = inherited.copy()
        v[own] = min_circumsphere_batch(coords[sims[own]])[1]
        values[q], faces[q] = v, complex.face_rows(q)
        inherited = np.full(complex.n_simplices(q - 1), np.inf)
        if q == 1:
            break  # an edge's vertex faces have radius 0, nothing is inside
        # face i of every simplex against its opposite vertex i, in one batch
        drop = [[j for j in range(q + 1) if j != i] for i in range(q + 1)]
        inside = side_of_circumsphere_batch(
            coords[sims[:, drop]].reshape(-1, q, coords.shape[1]),
            coords[sims].reshape(-1, coords.shape[1]),
        ).reshape(sims.shape) > 0
        # NaN and inf values never pass down, as in `v < prior`
        inside &= (v < np.inf)[:, None]
        np.minimum.at(inherited, faces[q][inside], np.broadcast_to(v[:, None], inside.shape)[inside])

    # circumsphere solves of mathematically equal spheres can disagree by an
    # ulp across dimensions; repair bottom-up so monotonicity holds exactly
    # (face values stay authoritative, cofaces are clamped up)
    for q in range(1, top + 1):
        values[q] = np.maximum(values[q], values[q - 1][faces[q]].max(axis=1))
    return _checked_complex({q: complex.simplices(q) for q in range(top + 1)}, values)


def _checked_complex(simplices: dict, values: dict) -> FilteredComplex:
    """The complex with values[q][j] on simplices[q][j], after checking that
    every value is finite: squared distances beyond double range come out inf
    or NaN, and NaN passes every comparison unnoticed."""
    for q in sorted(values, reverse=True):
        bad = np.flatnonzero(~np.isfinite(values[q]))
        if bad.size:
            raise NegativeFiltration(
                f"filtration value {values[q][bad[0]]} for simplex {simplices[q][bad[0]]}: "
                "squared distances overflow"
            )
    filtration = {}
    for q, sims in simplices.items():
        filtration.update(zip(sims, values[q].tolist()))
    return FilteredComplex(simplices, filtration)


def critical_alphas(complex: FilteredComplex) -> np.ndarray:
    """Sorted unique alpha values (unsquared) at which the complex changes."""
    vals = np.concatenate(
        [complex.filtration_values_sq(q) for q in range(complex.max_dim + 1)]
    )
    vals = np.sqrt(np.sort(vals))
    out = []
    for v in vals:
        if not out or v > out[-1] * (1.0 + REL_TOL) + 1e-300:
            out.append(float(v))
    return np.array(out)


def alpha_complex(points: PointSet, seed: int = 0) -> FilteredComplex:
    """Full pipeline: Delaunay tessellation plus alpha filtration values.

    Point sets too small to tessellate (n <= 2) degenerate to the complex
    the alpha filtration would produce directly: isolated vertices, plus the
    connecting edge at half the pair distance for n == 2.
    """
    coords = points.coords
    n = coords.shape[0]
    if n == 1:
        return FilteredComplex({0: [(0,)]}, {(0,): 0.0})
    if n == 2:
        with np.errstate(over="ignore"):  # an inf is reported by the check
            d_sq = float(np.sum((coords[1] - coords[0]) ** 2))
        return _checked_complex(
            {0: [(0,), (1,)], 1: [(0, 1)]}, {0: np.zeros(2), 1: np.array([d_sq / 4.0])}
        )
    return assign_filtration(delaunay(points, seed=seed), points)
