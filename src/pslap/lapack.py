"""The three LAPACK routines of the eigensolver, called through ctypes.

:func:`dsytrd` reduces a symmetric matrix to tridiagonal form, and
:func:`dstebz` (Sturm bisection) and :func:`dsterf` (every eigenvalue) work
on that form.  The routines come from the OpenBLAS bundled with numpy's
wheels, whose LAPACK symbols carry a ``scipy_`` prefix and a ``64_`` suffix
and take 64-bit integers; they are found through numpy's own linear-algebra
extension, which links that library.  A numpy without it (1.x wheels, conda
builds) gets the same routines from ``scipy.linalg.cython_lapack``, with
32-bit integers, and only then imports scipy.  Both sources take one calling
path; only the integer width and gfortran's hidden string lengths differ.
:func:`tridiagonal` loads a form kept from an earlier reduction into a
workspace, so the two work on it again without reducing anything.

A foreign call checks nothing Python can see: a wrong dtype, layout or size
reads or writes past a buffer, and an illegal argument makes LAPACK print to
stderr.  So each wrapper checks its arguments first and raises an
EigensolveFailure on a bad one, as it does on a nonzero info.

A solve of order 20 costs microseconds, so the glue around the calls
(allocations, buffer addresses, ctypes arguments) would otherwise dominate
it.  Each :class:`Tridiagonal` owns one float and one int workspace and
builds every argument of its calls once; a ``with`` block hands it back to
be reused by the next reduction of the same order, up to order
_SPARE_MAX_ORDER.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import EigensolveFailure

# each routine, with the number of character flags its arguments start with
_ROUTINES = {"dsytrd": 1, "dstebz": 2, "dsterf": 0}
_LENGTH = ctypes.c_size_t(1)  # gfortran's hidden length of a character flag
_F8 = 8  # bytes per float64
_ABSTOL = ctypes.byref(ctypes.c_double(0.0))  # dstebz's default tolerance
# ctypes array types are made once: making one takes about 28 us and
# leaves a cycle for the garbage collector, so no type is sized by the
# matrix order
_PAIR = ctypes.c_double * 2
# Workspaces up to this order are kept for reuse, one per order and 1.4 MB
# in all.  Setting one up costs about 10 us, as much as a whole solve of
# order 10; a solve of order 64 takes about 0.1 ms.
_SPARE_MAX_ORDER = 64

# Every argument is passed as a ctypes object of its exact C type: bytes for
# a character flag, byref() for a pointer, _LENGTH for a hidden length.
# ctypes passes those as they are, so the functions declare no argtypes:
# with argtypes, ctypes calls a converter on each argument, which made each
# dstebz call (20 arguments) 1.3 us slower on a 2-vCPU Xeon VM.


class _Library:
    """dsytrd, dstebz and dsterf from one LAPACK build, with the C integer
    type they take and the hidden string lengths they end with (gfortran
    passes one per character flag; the Cython wrappers take none)."""

    def __init__(self, functions: dict, int_type, hidden_lengths: bool):
        self.dsytrd, self.dstebz, self.dsterf = (functions[name] for name in _ROUTINES)
        for fn in functions.values():
            fn.restype = None
        self.int = int_type
        self.size = ctypes.sizeof(int_type)
        # n (also lda), lwork, info, il, iu, m, nsplit
        self.scalars = int_type * 7
        self.lengths = {
            name: (_LENGTH,) * count if hidden_lengths else () for name, count in _ROUTINES.items()
        }
        self._lwork: dict[int, int] = {}  # order -> dsytrd's optimal lwork
        self.spare: dict[int, Tridiagonal] = {}  # order -> a workspace handed back

    def dsytrd_lwork(self, n: int) -> int:
        """dsytrd's optimal work length at order n, from a workspace query
        (lwork = -1), made once per order."""
        lwork = self._lwork.get(n)
        if lwork is None:
            ints = self.scalars(n, -1)
            slot = ctypes.c_double()  # the query's only output, work(1)
            n_, w = ctypes.byref(ints), ctypes.byref(slot)
            self.dsytrd(b"L", n_, w, n_, w, w, w, w, ctypes.byref(ints, self.size),
                        ctypes.byref(ints, 2 * self.size), *self.lengths["dsytrd"])
            if ints[2]:
                raise EigensolveFailure(f"LAPACK dsytrd workspace query failed (info={ints[2]})")
            lwork = self._lwork[n] = max(int(slot.value), 1)
        return lwork


def _numpy_openblas() -> _Library:
    # dlsym on the extension's handle also searches the libraries it links
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    functions = {name: lib[f"scipy_{name}_64_"] for name in _ROUTINES}
    return _Library(functions, ctypes.c_int64, hidden_lengths=True)


def _cython_lapack() -> _Library:
    from scipy.linalg import cython_lapack

    get_name = ctypes.pythonapi["PyCapsule_GetName"]
    get_name.argtypes, get_name.restype = (ctypes.py_object,), ctypes.c_char_p
    get_pointer = ctypes.pythonapi["PyCapsule_GetPointer"]
    get_pointer.argtypes, get_pointer.restype = (ctypes.py_object, ctypes.c_char_p), ctypes.c_void_p
    functions = {}
    for name in _ROUTINES:
        capsule = cython_lapack.__pyx_capi__[name]
        functions[name] = ctypes.CFUNCTYPE(None)(get_pointer(capsule, get_name(capsule)))
    return _Library(functions, ctypes.c_int, hidden_lengths=False)


def _load(fallback: bool = False) -> _Library:
    """The routines from numpy's bundled OpenBLAS, or from
    ``scipy.linalg.cython_lapack`` where numpy lacks them or ``fallback``
    asks for it (the tests run both sources)."""
    if not fallback:
        try:
            return _numpy_openblas()
        except (OSError, AttributeError):
            pass
    return _cython_lapack()


_lib: _Library | None = None  # loaded with the first workspace


class Tridiagonal:
    """A workspace of one order n, holding the symmetric tridiagonal form
    T = Q^T A Q of the last matrix A that :func:`dsytrd` reduced in it, or
    the form that :func:`tridiagonal` loaded, for :func:`dstebz` and
    :func:`dsterf`.

    The float workspace holds A in Fortran order (overwritten by dsytrd),
    then d, e, tau, w (dstebz's eigenvalues), the work array, dstebz's int
    arrays iblock, isplit and iwork (which nothing reads, in 5n slots) and
    its bounds vl and vu.  The int workspace holds the integer scalars.
    The arguments of the three calls, all pointers into the two, are made
    once.  Leaving a ``with`` block hands the workspace back for reuse: T
    is not to be read after it.
    """

    __slots__ = ("n", "_lib", "_f", "_a", "_i", "_bounds", "_dsytrd", "_dstebz", "_dsterf")

    def __init__(self, lib: _Library, n: int):
        nn, lwork = n * n, lib.dsytrd_lwork(n)
        self.n, self._lib = n, lib
        ints = nn + 4 * n + max(lwork, 4 * n)  # offset of iblock
        self._f = f = np.empty(ints + 5 * n + 2)
        self._a = f[:nn].reshape(n, n).T  # A in Fortran order
        self._i = i = lib.scalars(n, lwork)
        self._bounds = _PAIR.from_buffer(f, _F8 * (ints + 5 * n))
        floats, ref, s = ctypes.c_char.from_buffer(f), ctypes.byref, lib.size
        n_, info = ref(i), ref(i, 2 * s)
        d, e, tau, w, work = (ref(floats, _F8 * (nn + k * n)) for k in range(5))
        self._dsytrd = (b"L", n_, ref(floats), n_, d, e, tau, work, ref(i, s), info,
                        *lib.lengths["dsytrd"])
        self._dstebz = (
            b"E", n_, ref(self._bounds), ref(self._bounds, _F8), ref(i, 3 * s), ref(i, 4 * s),
            _ABSTOL, d, e, ref(i, 5 * s), ref(i, 6 * s), w, ref(floats, _F8 * ints),
            ref(floats, _F8 * ints + s * n), work, ref(floats, _F8 * ints + 2 * s * n), info,
            *lib.lengths["dstebz"],
        )
        self._dsterf = (n_, w, work, info)  # on copies of d and e

    def __enter__(self) -> Tridiagonal:
        return self

    def __exit__(self, *exc) -> None:
        if self.n <= _SPARE_MAX_ORDER:
            self._lib.spare[self.n] = self

    @property
    def d(self) -> np.ndarray:
        """The diagonal of T."""
        nn = self.n * self.n
        return self._f[nn:nn + self.n]

    @property
    def e(self) -> np.ndarray:
        """The subdiagonal of T."""
        nn = self.n * self.n
        return self._f[nn + self.n:nn + 2 * self.n - 1]


def _workspace(n: int) -> Tridiagonal:
    """A workspace of order n: one handed back, or a new one."""
    global _lib
    if _lib is None:
        _lib = _load()
    return _lib.spare.pop(n, None) or Tridiagonal(_lib, n)


def dsytrd(a: np.ndarray) -> Tridiagonal:
    """Tridiagonal form of the symmetric matrix ``a`` from its lower
    triangle, on a Fortran-ordered copy (``a`` is left as it is), as
    ``scipy.linalg.lapack.dsytrd(a, lower=1)`` computes it with the optimal
    lwork.  ``a`` is a square float64 array of order at least 1, in any
    memory order; a nonzero info is an EigensolveFailure."""
    if not isinstance(a, np.ndarray) or a.dtype != np.float64:
        raise EigensolveFailure(f"dsytrd takes a float64 array, not {getattr(a, 'dtype', type(a))}")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise EigensolveFailure(f"dsytrd takes a square matrix of order >= 1, not shape {a.shape}")
    t = _workspace(a.shape[0])
    t._a[...] = a
    t._lib.dsytrd(*t._dsytrd)
    if t._i[2]:
        raise EigensolveFailure(f"LAPACK dsytrd failed (info={t._i[2]})")
    return t


def tridiagonal(d: np.ndarray, e: np.ndarray) -> Tridiagonal:
    """A workspace holding the tridiagonal form with diagonal ``d`` and
    subdiagonal ``e``, as the ``d`` and ``e`` of an earlier reduction give
    it (copied in, so they are left as they are); no reduction runs."""
    shape = np.shape(d)
    if len(shape) != 1 or not shape[0] or np.shape(e) != (shape[0] - 1,):
        raise EigensolveFailure(f"tridiagonal takes d of length n >= 1 and e of length n - 1, "
                                f"not shapes {shape} and {np.shape(e)}")
    t = _workspace(shape[0])
    t.d[...], t.e[...] = d, e
    return t


def dstebz(
    t: Tridiagonal, range: bytes, vl: float = -np.inf, vu: float = np.inf, il: int = 0, iu: int = 0
) -> tuple[np.ndarray, int]:
    """Ascending eigenvalues of ``t`` in one range, by Sturm-sequence
    bisection to dstebz's default absolute tolerance, and LAPACK's info.

    ``range`` is b"A" (every eigenvalue), b"V" (those in (vl, vu], with
    vl < vu) or b"I" (those with indices il..iu, 1 <= il <= iu <= n).
    info is returned, not raised: 2 is a result, an index range that came
    back short where eigenvalues closer than the tolerance straddle a split
    of the tridiagonal.
    """
    if not isinstance(t, Tridiagonal):
        raise EigensolveFailure(f"dstebz takes a Tridiagonal, not {type(t).__name__}")
    if range == b"V":
        if not vl < vu:  # also rejects NaN
            raise EigensolveFailure(f"dstebz: empty value range ({vl}, {vu}]")
    elif range == b"I":
        if not 1 <= il <= iu <= t.n:
            raise EigensolveFailure(f"dstebz: index range {il}..{iu} outside 1..{t.n}")
    elif range != b"A":
        raise EigensolveFailure(f"dstebz: range must be b'A', b'V' or b'I', not {range!r}")
    t._bounds[0], t._bounds[1] = vl, vu
    i = t._i
    i[3], i[4] = il, iu
    t._lib.dstebz(range, *t._dstebz)
    w = t.n * (t.n + 3)
    return t._f[w:w + i[5]].copy(), i[2]


def dsterf(t: Tridiagonal) -> np.ndarray:
    """Every eigenvalue of ``t``, ascending, by the root-free QL/QR
    iteration (eigvalsh's second half), on a copy of d and e; a nonzero
    info is an EigensolveFailure."""
    if not isinstance(t, Tridiagonal):
        raise EigensolveFailure(f"dsterf takes a Tridiagonal, not {type(t).__name__}")
    f, n = t._f, t.n
    w = n * (n + 3)  # w, then the work array
    f[w:w + n] = t.d
    f[w + n:w + 2 * n - 1] = t.e
    t._lib.dsterf(*t._dsterf)
    if t._i[2]:
        raise EigensolveFailure(f"LAPACK dsterf failed (info={t._i[2]})")
    return f[w:w + n].copy()
