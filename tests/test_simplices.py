import math

import numpy as np
import pytest

from conftest import build_complex, euler_characteristic
from pslap.simplices import Snapshot, snapshot
from pslap.spectra import spectrum_at


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
    for e in c.simplices(1):
        assert c.filtration_sq(e) <= 4.0


def test_build_enforces_monotonicity():
    # a face given a value above its coface is clamped down to it
    c = build_complex(
        [(0, 1), (0, 1, 2)],
        {(0, 1): 9.0, (0, 1, 2): 4.0},
    )
    assert c.filtration_sq((0, 1)) == 4.0


def test_build_pentagon_with_flap():
    # six vertices, the pentagon cycle plus a filled triangle hanging off one
    # edge; built directly rather than from coordinates
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (0, 4)]
    values = {e: 0.2 for e in edges}
    values[(3, 4, 5)] = 0.26
    values.update({(v,): 0.0 for v in range(6)})
    c = build_complex(values, values)
    assert snapshot(c, 1.0).counts == (6, 7, 1, 0)


def test_six_point_snapshots(six_complex):
    assert snapshot(six_complex, 0.2).counts == (6, 0, 0, 0)
    assert snapshot(six_complex, 0.6).counts == (6, 7, 1, 0)
    full = snapshot(six_complex, math.inf).counts
    assert full == tuple(six_complex.n_simplices(q) for q in range(4))


def test_snapshot_at_zero(six_complex):
    assert snapshot(six_complex, 0.0).counts == (6, 0, 0, 0)


def test_snapshot_monotone_in_alpha(six_complex):
    alphas = np.linspace(0.0, 1.2, 25)
    prev = (0, 0, 0, 0)
    for a in alphas:
        cur = snapshot(six_complex, a).counts
        assert all(x >= y for x, y in zip(cur, prev))
        prev = cur


def test_snapshot_threshold_domain(six_complex):
    # infinity admits everything; NaN and negative thresholds are errors,
    # not a full or empty complex, and they reach spectrum_at's caller
    full = tuple(six_complex.n_simplices(q) for q in range(4))
    assert snapshot(six_complex, math.inf).counts == full
    for bad in (math.nan, -0.1, -math.inf):
        with pytest.raises(ValueError):
            snapshot(six_complex, bad)
        with pytest.raises(ValueError):
            spectrum_at(six_complex, 1, bad)


def test_snapshot_includes_its_own_critical_value():
    # sqrt/square round trips must not drop the simplex at its own alpha
    val = 0.3700000000000001
    c = build_complex(
        [(0,), (1,), (0, 1)],
        {(0,): 0.0, (1,): 0.0, (0, 1): val},
    )
    assert snapshot(c, math.sqrt(val)).counts[1] == 1


def test_euler_characteristic():
    assert euler_characteristic(snapshot_like((6, 0, 0, 0))) == 6
    assert euler_characteristic(snapshot_like((6, 7, 1, 0))) == 0
    assert euler_characteristic(snapshot_like((4, 6, 4, 1))) == 1


def snapshot_like(counts):
    return Snapshot(alpha_sq=1.0, counts=counts)


def test_filtration_order_is_value_then_lex():
    c = build_complex(
        [(0, 1), (2, 3), (1, 2)],
        {(0, 1): 2.0, (2, 3): 1.0, (1, 2): 2.0},
    )
    assert c.simplices(1) == [(2, 3), (0, 1), (1, 2)]


def test_closure_boundary_lookup_never_misses(six_complex):
    for q in range(1, six_complex.max_dim + 1):
        faces = set(six_complex.simplices(q - 1))
        for s in six_complex.simplices(q):
            for i in range(q + 1):
                assert s[:i] + s[i + 1:] in faces
