"""Alpha-complex filtration values on a Delaunay tessellation.

Every simplex gets a squared filtration value: its own squared circumradius
if it is Gabriel, otherwise the minimum value over the cofaces whose opposite
vertex breaks the Gabriel property.  Values are assigned from the top
dimension downwards so that non-Gabriel propagation is complete before a
lower dimension is visited.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NegativeFiltration
from .geometry import (
    PointSet,
    delaunay,
    min_circumsphere,
    side_of_circumsphere,
)
from .simplices import REL_TOL, FilteredComplex

__all__ = ["assign_filtration", "critical_alphas", "alpha_complex"]


def assign_filtration(complex: FilteredComplex, points: PointSet) -> FilteredComplex:
    """Return a new complex with alpha filtration values (squared) assigned."""
    coords = points.coords
    values: dict[tuple, float] = {}
    top = complex.max_dim
    for q in range(top, -1, -1):
        for s in complex.simplices(q):
            if s not in values:
                values[s] = 0.0 if q == 0 else min_circumsphere(coords[list(s)]).radius_sq
            if q == 0:
                continue
            v_s = values[s]
            for i in range(q + 1):
                tau = s[:i] + s[i + 1:]
                opposite = s[i]
                if side_of_circumsphere(coords[list(tau)], coords[opposite]) > 0:
                    prior = values.get(tau, math.inf)
                    if v_s < prior:
                        values[tau] = v_s

    # circumsphere solves of mathematically equal spheres can disagree by an
    # ulp across dimensions; repair bottom-up so monotonicity holds exactly
    # (face values stay authoritative, cofaces are clamped up)
    for q in range(1, top + 1):
        for s in complex.simplices(q):
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
    return FilteredComplex({q: complex.simplices(q) for q in range(top + 1)}, values)


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
        d_sq = float(np.sum((coords[1] - coords[0]) ** 2))
        return FilteredComplex(
            {0: [(0,), (1,)], 1: [(0, 1)]},
            {(0,): 0.0, (1,): 0.0, (0, 1): d_sq / 4.0},
        )
    return assign_filtration(delaunay(points, seed=seed), points)
