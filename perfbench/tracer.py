"""Spans and counts recorded from outside pslap, by wrapping its public functions.

Each wrapper is patched into every ``pslap`` module namespace that binds the
wrapped object (``cli`` binds ``alpha_complex`` from ``alpha``, ``spectra``
binds ``persistent_boundary`` from ``boundary``, and so on), so internal
calls are seen as well as calls through the package.  A name the program no
longer has is reported as absent instead of failing the run.

Spans are kept in memory as tuples ``(run_id, span_id, parent_id, name,
start, end)`` and written out by the caller at the end of the run.  Predicate
calls are counted, not spanned: there are far too many of them, and their
time is part of the enclosing span's self time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# layer -> public functions that get a span
SPANNED = {
    "geometry": ("delaunay",),
    "alpha": ("alpha_complex", "assign_filtration", "critical_alphas", "is_gabriel"),
    "boundary": ("full_boundary", "restrict", "diff_operator", "persistent_boundary"),
    "spectra": (
        "sweep", "spectrum_at", "persistent_laplacian", "assemble_laplacian",
        "spectrum", "detect_anomalies", "accumulated_laplacian_diagonal",
    ),
    "oracle": ("reduce", "betti_from_barcode", "exact_rank_betti"),
    "dataio": (
        "read_xyz", "read_pdb_ca", "read_spectra_csv", "write_spectra_csv",
        "write_spectra_json", "write_curves_svg", "file_sha256",
    ),
    "cli": ("main",),
}
# layer -> class -> method -> span name (a constructor span is named after its class)
METHODS = {"oracle": {"BettiOracle": {"__init__": "BettiOracle", "betti": "betti"}}}
# geometry predicates: counted per enclosing span, outermost call only
PREDICATES = ("orientation", "in_sphere", "in_sphere_indexed", "side_of_circumsphere", "min_circumsphere")

LAYERS = tuple(SPANNED)


def _files_bytes(args):
    path = args.get("path")
    return {"dataio.bytes_written": os.path.getsize(path)} if path is not None else {}


def _top_cells(args, cx):
    return {"geometry.cells": cx.n_simplices(cx.max_dim)}


def _all_simplices(args, cx):
    return {"alpha.simplices": sum(cx.n_simplices(q) for q in range(cx.max_dim + 1))}


def _projector(args, result):
    q = args["full"].q
    cols = args["snap_tp"].count(q) - args["snap_t"].count(q)
    return {"boundary.projector_cols": cols, "boundary.identity_calls": int(cols == 0)}


def _records(args, records):
    return {
        "spectra.sweep.records": len(records),
        "spectra.failed_records": sum(
            any(f.startswith("failed:") for f in r.flags) for r in records
        ),
        "spectra.flagged_records": sum(
            any(f in ("gap_ambiguous", "partial_spectrum") for f in r.flags) for r in records
        ),
    }


def _eig_work(args, rec):
    n = args["lap"].matrix.shape[0]
    return {"spectra.eig_flops_computed": n**3, "max:spectra.matrix_order.max": n}


# span name -> hook(bound arguments, result) -> {counter: increment}; a counter
# named "max:<metric>" keeps the maximum instead of the sum
HOOKS = {
    "geometry.delaunay": _top_cells,
    "alpha.assign_filtration": _all_simplices,
    "alpha.critical_alphas": lambda args, r: {"alpha.critical_values": len(r)},
    "boundary.persistent_boundary": _projector,
    "spectra.sweep": _records,
    "spectra.spectrum": _eig_work,
    "dataio.write_spectra_csv": lambda args, r: _files_bytes(args),
    "dataio.write_spectra_json": lambda args, r: _files_bytes(args),
    "dataio.write_curves_svg": lambda args, r: _files_bytes(args),
}


class Tracer:
    """Installs wrappers on the pslap modules and collects spans and counts.

    Tracing is single-threaded: the benchmark runs pslap with one sweep
    thread, so one span stack suffices.
    """

    package = "pslap"

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self.run_id = 0
        self._stack: list[tuple[int, str]] = []  # open spans: (id, name)
        self._pred_depth = 0
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._wrappers: list[tuple] = []  # (original, wrapper)
        self._build()

    # -- wrappers ---------------------------------------------------------

    def _module(self, layer):
        return sys.modules.get(f"{self.package}.{layer}")

    def _span_wrapper(self, name, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer._stack.append((sid, name))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((tracer.run_id, sid, parent, name, t0, t1))
            if hook is not None:
                tracer._run_hook(name, hook, sig, args, kwargs, result)
            return result

        return wrapper

    def _run_hook(self, name, hook, sig, args, kwargs, result):
        try:
            bound = sig.bind(*args, **kwargs).arguments
            increments = hook(bound, result)
        except Exception as exc:  # a renamed parameter must not end the run
            self.hook_errors.setdefault(name, f"{type(exc).__name__}: {exc}")
            return
        counts = self.counts[self.run_id]
        for key, value in increments.items():
            if key.startswith("max:"):
                key = key[4:]
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value

    def _predicate_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._pred_depth == 0:
                parent = tracer._stack[-1][1] if tracer._stack else None
                tracer.counts[tracer.run_id][f"predicates:{parent}"] += 1
            tracer._pred_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._pred_depth -= 1

        return wrapper

    def _build(self):
        """Create one wrapper per public name; nothing is patched yet."""
        for layer in LAYERS:
            try:
                __import__(f"{self.package}.{layer}")
            except ImportError:
                pass  # its names are reported absent below
        for layer, names in SPANNED.items():
            mod = self._module(layer)
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is None:
                    self.absent.append(f"{layer}.{fname}")
                    continue
                self._wrappers.append((fn, self._span_wrapper(f"{layer}.{fname}", fn)))
        geometry = self._module("geometry")
        for fname in PREDICATES:
            fn = getattr(geometry, fname, None)
            if fn is None:
                self.absent.append(f"geometry.{fname}")
                continue
            self._wrappers.append((fn, self._predicate_wrapper(fn)))
        self._methods = []
        for layer, classes in METHODS.items():
            mod = self._module(layer)
            for cname, methods in classes.items():
                cls = getattr(mod, cname, None)
                for meth, span in methods.items():
                    fn = None if cls is None else cls.__dict__.get(meth)
                    if fn is None:
                        self.absent.append(f"{layer}.{cname}.{meth}")
                        continue
                    self._methods.append((cls, meth, fn, self._span_wrapper(f"{layer}.{span}", fn)))

    def install(self):
        """Patch every binding of every wrapped object in the package's modules."""
        if self._patches:
            return
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == self.package or k.startswith(self.package + "."))]
        by_id = {id(orig): wrapper for orig, wrapper in self._wrappers}
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for cls, meth, orig, wrapper in self._methods:
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, float]]:
        """run id -> span name -> summed self time (duration minus direct children)."""
        child = defaultdict(float)
        for _run, _sid, parent, _name, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for run, sid, _parent, name, t0, t1 in self.spans:
            out[run][name] += (t1 - t0) - child[sid]
        return out

    def calls(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for run, _sid, _parent, name, _t0, _t1 in self.spans:
            out[run][name] += 1
        return out

