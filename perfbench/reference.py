"""A fixed reference kernel that shares no code with pslap.

On a shared virtual machine the speed shifts between levels about 30% apart
for seconds to minutes at a time, and a slow stretch slows this kernel and
pslap alike.  The benchmark times the kernel between consecutive commands
and scales each command's time by NOMINAL_S over the mean of the kernel
times just before and just after it, which states every end-to-end time at
one fixed machine speed.
"""

from __future__ import annotations

import time

import numpy as np

# a round figure near reference_seconds() on the 2-vCPU development machine
NOMINAL_S = 0.01

_M = [[1.0 + ((3 * i + 7 * j) % 11) / 10.0 for j in range(4)] for i in range(4)]
_A = np.random.default_rng(0).standard_normal((40, 40))
_A = _A + _A.T


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]]) for j in range(len(m)))


def _kernel() -> float:
    """Interpreted arithmetic, dict and set traffic, and small dense
    eigensolves: the mix pslap's own time is spent on."""
    t0 = time.perf_counter()
    for _ in range(75):
        _det(_M)
    cells = {}
    for i in range(2000):
        key = tuple(sorted((i % 37, i % 53, i % 71)))
        cells.setdefault(key, set()).add(i)
    for _ in range(10):
        np.linalg.eigvalsh(_A)
        np.asarray(_A.tolist())
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """The faster of two kernel runs, so that one interruption does not count."""
    return min(_kernel(), _kernel())


def scaled(seconds: float, ref: float) -> float:
    """A measured time restated at the nominal machine speed, given the
    reference time around it."""
    return seconds * NOMINAL_S / ref
