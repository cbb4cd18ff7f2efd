import numpy as np
import pytest
import scipy.linalg.lapack as scipy_lapack

from conftest import random_cloud, reference_laplacian
from pslap import lapack
from pslap.alpha import alpha_complex, critical_alphas
from pslap.errors import EigensolveFailure

# scipy's dstebz names its ranges by number
SCIPY_RANGE = {b"V": 1, b"I": 2}


@pytest.fixture(params=["numpy", "cython"])
def source(request, monkeypatch):
    """The LAPACK routines of numpy's bundled OpenBLAS, or of
    scipy.linalg.cython_lapack (the fallback for a numpy without them)."""
    load = lapack._cython_lapack if request.param == "cython" else lapack._numpy_openblas
    monkeypatch.setattr(lapack, "_lib", load())
    return request.param


def _matrices():
    """Persistent Laplacians of a 2D and a 3D cloud at p = 0 and p > 0
    (orders 1 to 108, so both sides of dsytrd's blocked crossover at 32 and of
    the kept workspaces at 64), and random symmetric matrices, also not
    positive semidefinite."""
    out = []
    for seed, n, d in [(3, 40, 2), (4, 14, 3)]:
        cx = alpha_complex(random_cloud(seed, n, d), seed=seed)
        crit = critical_alphas(cx)
        for p in (0.0, (crit[-1] - crit[0]) / 3.0):
            for q in (0, 1, 2):
                for a in crit[::7]:
                    lap = reference_laplacian(cx, q, a, p)
                    if len(lap):
                        out.append(lap)
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 33, 70):
        m = rng.normal(size=(n, n))
        out.append(m + m.T)
    return out


MATRICES = _matrices()


def _scipy_tridiagonal(a):
    n = len(a)
    lwork, info = scipy_lapack.dsytrd_lwork(n, lower=1)
    assert info == 0
    _, d, e, _, info = scipy_lapack.dsytrd(a, lower=1, lwork=int(lwork))
    assert info == 0
    # scipy's dstebz and dsterf take e as long as d at order 1
    return d, e if n > 1 else np.zeros(1)


def test_matrices_cover_the_orders():
    orders = {len(a) for a in MATRICES}
    assert min(orders) == 1 and max(orders) > 64
    assert len(MATRICES) > 150, len(MATRICES)


def test_dsytrd_matches_scipy(source):
    for a in MATRICES:
        d, e = _scipy_tridiagonal(a)
        before = a.copy()
        with lapack.dsytrd(a) as t:
            assert np.array_equal(t.d, d) and np.array_equal(t.e, e[:len(a) - 1]), len(a)
        assert np.array_equal(a, before)  # the reduction works on a copy


def test_dstebz_matches_scipy(source):
    checked = 0
    for a in MATRICES:
        n = len(a)
        d, e = _scipy_tridiagonal(a)
        ranges = [
            (b"V", -np.inf, np.inf),
            (b"V", -np.inf, 1e-8),
            (b"V", 100.0, np.inf),
            (b"V", float(np.median(d)) - 1.0, float(np.median(d))),
            (b"I", -np.inf, np.inf, 1, 1),
            (b"I", -np.inf, np.inf, n, n),
            (b"I", -np.inf, np.inf, (n + 1) // 2, n),
        ]
        with lapack.dsytrd(a) as t:
            for which, vl, vu, *idx in ranges:
                il, iu = idx or (0, 0)
                m, w, _, _, info = scipy_lapack.dstebz(
                    d, e, SCIPY_RANGE[which], vl, vu, il, iu, 0.0, b"E"
                )
                ours = lapack.dstebz(t, which, vl, vu, il, iu)
                assert np.array_equal(ours, w[:m]) and info in (0, 2), (n, which, vl, vu, il, iu)
                checked += 1
    assert checked > 1000, checked


def test_dsterf_matches_scipy(source):
    for a in MATRICES:
        d, e = _scipy_tridiagonal(a)
        w, info = scipy_lapack.dsterf(d, e)
        assert info == 0
        with lapack.dsytrd(a) as t:
            bisected = lapack.dstebz(t, b"V")
            assert np.array_equal(lapack.dsterf(t), w), len(a)
            # dsterf works on copies of d and e: the same tridiagonal is left
            assert np.array_equal(lapack.dstebz(t, b"V"), bisected)


def test_tridiagonal_loads_a_stored_form(source):
    # a form kept from a reduction, loaded into a workspace, bisects and
    # gives every eigenvalue as the workspace it came from does, and the
    # kept arrays are left as they are
    for a in MATRICES:
        with lapack.dsytrd(a) as t:
            d, e = t.d.copy(), t.e.copy()
            bisected, everything = lapack.dstebz(t, b"V"), lapack.dsterf(t)
            zeros = lapack.dstebz(t, b"V", vu=1e-8)
        kept = d.copy(), e.copy()
        with lapack.tridiagonal(d, e) as t:
            assert np.array_equal(lapack.dstebz(t, b"V"), bisected), len(a)
            assert np.array_equal(lapack.dsterf(t), everything), len(a)
            assert np.array_equal(lapack.dstebz(t, b"V", vu=1e-8), zeros), len(a)
        assert np.array_equal(d, kept[0]) and np.array_equal(e, kept[1])


def test_tridiagonal_rejects_bad_arguments(source, capfd):
    bad = [
        (np.empty(0), np.empty(0)),
        (np.ones(3), np.ones(3)),
        (np.ones(3), np.ones(1)),
        (np.ones((2, 2)), np.ones(1)),
        (2.0, np.empty(0)),
        (None, None),
    ]
    for d, e in bad:
        with pytest.raises(EigensolveFailure):
            lapack.tridiagonal(d, e)
    assert capfd.readouterr() == ("", "")


def test_dsytrd_takes_any_memory_order(source):
    a = MATRICES[-2]  # order 33
    with lapack.dsytrd(np.ascontiguousarray(a)) as t:
        d, e = t.d.copy(), t.e.copy()
    for view in (np.asfortranarray(a), a.T, np.repeat(a, 2, axis=1)[:, ::2]):
        with lapack.dsytrd(view) as t:
            assert np.array_equal(t.d, d) and np.array_equal(t.e, e)


def test_workspace_is_reused_after_a_with_block(source):
    # a with block hands the workspace back: the next reduction of the same
    # order overwrites it, and gives the same form as a fresh workspace
    a, b = _two_of_one_order()
    with lapack.dsytrd(a) as first:
        d = first.d.copy()
    with lapack.dsytrd(b) as second:
        assert second is first
    with lapack.dsytrd(a) as again:
        assert np.array_equal(again.d, d)
    big = MATRICES[-1]  # order 70: not kept
    with lapack.dsytrd(big) as t:
        pass
    with lapack.dsytrd(big) as u:
        assert u is not t


def _two_of_one_order():
    """Two different matrices of one order, below the kept-workspace limit."""
    for a in MATRICES:
        for b in MATRICES:
            if 1 < len(a) == len(b) <= 64 and not np.array_equal(a, b):
                return a, b
    raise AssertionError("no two matrices of one order")


def test_dsytrd_rejects_bad_arguments(source, capfd):
    # every check runs before the foreign call, so nothing reaches LAPACK's
    # own argument check (which prints to stderr) or reads past a buffer
    bad = [
        np.eye(3, dtype=np.float32),
        np.eye(3, dtype=np.int64),
        np.eye(3).tolist(),
        np.ones((3, 4)),
        np.ones(3),
        np.ones((2, 2, 2)),
        np.zeros((0, 0)),
    ]
    for a in bad:
        with pytest.raises(EigensolveFailure):
            lapack.dsytrd(a)
    assert capfd.readouterr() == ("", "")


def test_dstebz_rejects_bad_arguments(source, capfd):
    with lapack.dsytrd(MATRICES[-3]) as t:  # order 5
        bad = [
            (b"V", 1.0, 1.0, 0, 0),  # vl = vu: LAPACK's info -5
            (b"V", 2.0, 1.0, 0, 0),
            (b"V", np.nan, 1.0, 0, 0),
            (b"I", -np.inf, np.inf, 0, 1),
            (b"I", -np.inf, np.inf, 1, 6),
            (b"I", -np.inf, np.inf, 3, 2),
            (b"A", -np.inf, np.inf, 0, 0),
            (b"X", -np.inf, np.inf, 0, 0),
            ("V", -np.inf, np.inf, 0, 0),
        ]
        for args in bad:
            with pytest.raises(EigensolveFailure):
                lapack.dstebz(t, *args)
        with pytest.raises(EigensolveFailure):
            lapack.dstebz(t.d, b"V")
        # the workspace is untouched: it still bisects
        assert len(lapack.dstebz(t, b"V")) == 5
    assert capfd.readouterr() == ("", "")


def test_dstebz_raises_on_a_failed_bisection(source, monkeypatch):
    # info 2, an index range that came back short, is a result; any other
    # nonzero info from the routine is a failure of lapack.dstebz itself
    with lapack.dsytrd(MATRICES[-3]) as t:  # order 5
        routine, info = t._lib.dstebz, 2

        def reporting(*args):
            routine(*args)
            t._i[2] = info

        monkeypatch.setattr(t._lib, "dstebz", reporting)
        assert len(lapack.dstebz(t, b"I", il=1, iu=5)) == 5
        for info in (1, 3, 4):
            with pytest.raises(EigensolveFailure) as failed:
                lapack.dstebz(t, b"V")
            assert str(failed.value) == f"LAPACK dstebz failed (info={info})"


def test_dsterf_rejects_bad_arguments(source, capfd):
    with lapack.dsytrd(MATRICES[-3]) as t:
        for bad in (t.d, (t.d, t.e), None):
            with pytest.raises(EigensolveFailure):
                lapack.dsterf(bad)
    assert capfd.readouterr() == ("", "")
