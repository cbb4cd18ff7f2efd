"""Seeded input generators: synthetic alpha-carbon chains and uniform clouds.

The program under test only ever sees the files written here.  Every
coordinate is rounded to the 0.001 grid of a PDB ATOM record before any
distance is checked, so the constraints below hold for the written files,
not only for the floats that produced them.
"""

from __future__ import annotations

import math

import numpy as np

BOND = 3.8  # CA-CA virtual bond length
MIN_NONBONDED = 4.0  # closest allowed non-bonded pair, apart from planted ones
PLANTED = (2.914, 2.996)  # the close pairs the anomaly screen must report
CHAIN_ID = "A"


def _grid(x: np.ndarray) -> np.ndarray:
    return np.round(x, 3)


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _angle_ok(prev2, prev, new) -> bool:
    # CA virtual bond angles in proteins lie roughly between 80 and 150 degrees
    a, b = prev2 - prev, new - prev
    cos = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return -0.87 <= cos <= 0.17


def _clear(coords, new, skip=()) -> bool:
    """True if new is at least MIN_NONBONDED from every placed atom except the
    previous one (its bond partner) and those in skip."""
    if not coords:
        return True
    d = np.linalg.norm(np.asarray(coords[:-1]) - new, axis=1) if len(coords) > 1 else np.array([])
    for i in skip:
        if i < len(d):
            d[i] = math.inf
    return bool(np.all(d >= MIN_NONBONDED))


def _free_step(coords, rng, radius):
    prev = coords[-1]
    for _ in range(200):
        new = _grid(prev + BOND * _unit(rng))
        if np.linalg.norm(new) > radius:
            continue
        if len(coords) >= 2 and not _angle_ok(coords[-2], prev, new):
            continue
        if _clear(coords, new):
            return new
    return None


def _planted_step(coords, rng, radius, dist):
    """Next atom at BOND from the previous one and at dist (to 3 decimals,
    after grid rounding) from an earlier, non-adjacent atom."""
    prev = coords[-1]
    k = len(coords)
    cands = [
        i for i in range(k - 3)
        if abs(BOND - dist) + 0.3 < np.linalg.norm(coords[i] - prev) < BOND + dist - 0.3
    ]
    rng.shuffle(cands)
    for i in cands[:20]:
        c = coords[i]
        axis = c - prev
        L = float(np.linalg.norm(axis))
        axis /= L
        # circle of points at BOND from prev and dist from c
        t = (BOND**2 - dist**2 + L**2) / (2 * L)
        r = math.sqrt(max(BOND**2 - t**2, 0.0))
        u = np.cross(axis, _unit(rng))
        u /= np.linalg.norm(u)
        w = np.cross(axis, u)
        for _ in range(60):
            phi = rng.uniform(0, 2 * math.pi)
            new = _grid(prev + t * axis + r * (math.cos(phi) * u + math.sin(phi) * w))
            if abs(float(np.linalg.norm(new - c)) - dist) >= 0.0004:
                continue
            if np.linalg.norm(new) > radius:
                continue
            if len(coords) >= 2 and not _angle_ok(coords[-2], prev, new):
                continue
            if _clear(coords, new, skip=(i,)):
                return new, i
    return None, None


def ca_chain(n: int, seed: int):
    """A compact self-avoiding CA chain of n atoms with the PLANTED close pairs.

    Returns (coords, planted) where planted lists (i, j, distance) with the
    distance measured on the rounded coordinates.
    """
    if n < 12:
        raise ValueError("a chain with two planted pairs needs at least 12 atoms")
    rng = np.random.default_rng(seed)
    # confine to a sphere about 1.5x the radius of a globular protein of n residues
    radius = 1.5 * (n * 130.0 * 3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    plant_at = {n // 3: PLANTED[0], (2 * n) // 3: PLANTED[1]}
    for _ in range(500):
        coords = [np.zeros(3)]
        planted = []
        while len(coords) < n:
            k = len(coords)
            if k in plant_at:
                new, i = _planted_step(coords, rng, radius, plant_at[k])
                if new is not None:
                    planted.append((i, k, float(np.linalg.norm(new - coords[i]))))
            else:
                new = _free_step(coords, rng, radius)
            if new is None:
                break
            coords.append(new)
        if len(coords) == n:
            return np.array(coords), planted
    raise RuntimeError(f"could not grow a chain of {n} atoms")


def close_pairs(coords: np.ndarray, cutoff: float):
    """Every pair (i, j, distance) closer than cutoff, by brute force."""
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    i, j = np.nonzero(np.triu(d < cutoff, k=1))
    return [(int(a), int(b), float(d[a, b])) for a, b in zip(i, j)]


def residue_label(i: int) -> str:
    """The label read_pdb_ca gives atom i: chain id plus residue number."""
    return f"{CHAIN_ID}{i + 1}"


def write_pdb(coords: np.ndarray, path) -> None:
    """CA-only ATOM records in fixed PDB columns, one residue per atom."""
    lines = ["HEADER    SYNTHETIC CA CHAIN"]
    for i, (x, y, z) in enumerate(coords):
        lines.append(
            f"ATOM  {i + 1:5d}  CA  ALA {CHAIN_ID}{i + 1:4d}    "
            f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           C"
        )
    lines += ["TER", "END"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_xyz(coords: np.ndarray, path) -> None:
    """One point per line with round-trip float precision."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in coords:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def uniform_batch(count: int, sizes_2d: tuple[int, int], sizes_3d: tuple[int, int], seed: int):
    """count uniform clouds in the unit square or cube.

    Sizes and dimensions follow a fixed schedule, so the seed moves only the
    coordinates: dimensions alternate 2D/3D and each dimension's sizes step
    evenly through its inclusive (low, high) range, visited in a strided
    order so that small and large clouds are interleaved in time.
    """
    rng = np.random.default_rng(seed)
    per_dim = (count + 1) // 2
    stride = next(s for s in range(max(per_dim // 3, 1), per_dim + 1) if math.gcd(s, per_dim) == 1)
    clouds = []
    for k in range(count):
        lo, hi = sizes_2d if k % 2 == 0 else sizes_3d
        step = (k // 2) * stride % per_dim
        n = lo + round(step * (hi - lo) / max(per_dim - 1, 1))
        clouds.append(rng.uniform(size=(n, 2 if k % 2 == 0 else 3)))
    return clouds
