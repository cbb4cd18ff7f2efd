"""Point-cloud ingestion and result serialization (CSV, JSON, SVG)."""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

from . import __version__
from .errors import MixedDimensions, NoCAAtoms, ParseError
from .geometry import PointSet
from .spectra import SpectrumRecord

CSV_HEADER = "q,alpha,p,n_simplices,betti,lambda_min_nonzero,flags"


def _check_finite(row, path, lineno) -> None:
    if not all(math.isfinite(x) for x in row):
        raise ParseError(f"{path}:{lineno}: coordinates must be finite, got {row}")


def read_xyz(path) -> PointSet:
    """Read one 2D or 3D point per non-empty, non-comment line."""
    coords = []
    dim = None
    # undecodable bytes are kept as surrogates so that the error can name
    # their line
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(f"{path}:{lineno}: not valid UTF-8 text") from None
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in (2, 3):
                raise ParseError(f"{path}:{lineno}: expected 2 or 3 fields, got {len(fields)}")
            try:
                row = [float(x) for x in fields]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            _check_finite(row, path, lineno)
            if dim is None:
                dim = len(row)
            elif len(row) != dim:
                raise MixedDimensions(f"{path}:{lineno}: {len(row)} columns after {dim}")
            coords.append(row)
    if not coords:
        raise ParseError(f"{path}: no data lines")
    return PointSet(np.array(coords))


def read_pdb_ca(path, chain_filter: str | None = None) -> PointSet:
    """Alpha-carbon coordinates from PDB ATOM records (fixed-width columns).

    Keeps altLoc ' ' or 'A' only, first model only; labels are chain id plus
    residue number.
    """
    coords = []
    labels = []
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            rec = line[:6]
            if rec in ("ENDMDL", "END   ") or line.rstrip() == "END":
                break
            if rec != "ATOM  ":
                continue
            if line[12:16].strip() != "CA":
                continue
            if len(line.rstrip("\r\n")) < 22:  # altLoc and chain id: columns 17 and 22
                raise ParseError(f"{path}:{lineno}: truncated CA ATOM record")
            if line[16] not in (" ", "A"):
                continue
            chain = line[21]
            if chain_filter is not None and chain not in chain_filter:
                continue
            try:
                xyz = [float(line[30:38]), float(line[38:46]), float(line[46:54])]
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}:{lineno}: bad coordinate field: {exc}") from exc
            _check_finite(xyz, path, lineno)
            coords.append(xyz)
            labels.append(f"{chain.strip() or '_'}{line[22:26].strip()}")
    if not coords:
        raise NoCAAtoms(f"{path}: no CA ATOM records" + (f" in chains {chain_filter}" if chain_filter else ""))
    return PointSet(np.array(coords), labels=tuple(labels))


def write_spectra_csv(records: list[SpectrumRecord], path) -> None:
    """Records as CSV rows sorted by (q, alpha); lambda at full precision,
    alpha at 6 significant digits, absent lambda left empty."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in sorted(records, key=lambda r: (r.q, r.alpha)):
            lam = "" if r.lambda_min_nonzero is None else format(r.lambda_min_nonzero, ".17g")
            fh.write(f"{r.q},{r.alpha:.6g},{r.p:.6g},{r.n_simplices},{r.betti},{lam},"
                     f"{';'.join(r.flags)}\n")


def write_spectra_json(records, path, metadata=None) -> None:
    """CSV-equivalent records (plus full eigenvalue lists) in a JSON envelope,
    written by ``json.dump(indent=1, sort_keys=True)``: each record is its
    fields by name, its tuples as lists."""
    payload = {
        "tool": "pslap",
        "version": __version__,
        "metadata": metadata or {},
        "records": [vars(r) for r in sorted(records, key=lambda r: (r.q, r.alpha))],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# -- SVG curve plot -----------------------------------------------------------

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 64, 64, 24, 40


def _xpos(a, a0, a1):
    span = (a1 - a0) or 1.0
    return _ML + (_W - _ML - _MR) * (a - a0) / span


def _ypos(v, v0, v1):
    span = (v1 - v0) or 1.0
    return _H - _MB - (_H - _MT - _MB) * (v - v0) / span


def write_curves_svg(records: list[SpectrumRecord], path, title: str = "") -> None:
    """Dual-axis chart for a single dimension: Betti step curve on the left
    axis, smallest nonzero eigenvalue on the right axis, versus alpha.
    Deterministic byte output for a fixed record list."""
    rows = sorted(records, key=lambda r: r.alpha)
    qs = {r.q for r in rows}
    if len(qs) > 1:
        raise ValueError(f"records span several dimensions: {sorted(qs)}")
    alphas = [r.alpha for r in rows]
    bettis = [r.betti for r in rows]
    lams = [r.lambda_min_nonzero for r in rows]
    a0, a1 = (alphas[0], alphas[-1]) if alphas else (0.0, 1.0)
    b_max = max(bettis, default=1) or 1
    l_vals = [x for x in lams if x is not None]
    l_max = max(l_vals, default=1.0) or 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W // 2}" y="16" text-anchor="middle" font-size="13" '
            f'font-family="sans-serif">{title}</text>'
        )
    # axis labels and extreme ticks
    parts.append(
        f'<text x="{_W // 2}" y="{_H - 8}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">alpha</text>'
    )
    for a in ({a0, a1} if alphas else set()):
        x = _xpos(a, a0, a1)
        parts.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{a:.4g}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        yb = _ypos(frac * b_max, 0, b_max)
        yl = _ypos(frac * l_max, 0, l_max)
        parts.append(
            f'<text x="{_ML - 6}" y="{yb:.2f}" text-anchor="end" font-size="10" '
            f'fill="#1f4e9e" font-family="sans-serif">{frac * b_max:.4g}</text>'
        )
        parts.append(
            f'<text x="{_W - _MR + 6}" y="{yl:.2f}" text-anchor="start" font-size="10" '
            f'fill="#b22222" font-family="sans-serif">{frac * l_max:.4g}</text>'
        )
    parts.append(
        f'<text x="14" y="{_H // 2}" font-size="12" fill="#1f4e9e" '
        f'font-family="sans-serif" transform="rotate(-90 14 {_H // 2})" '
        f'text-anchor="middle">betti</text>'
    )
    parts.append(
        f'<text x="{_W - 10}" y="{_H // 2}" font-size="12" fill="#b22222" '
        f'font-family="sans-serif" transform="rotate(90 {_W - 10} {_H // 2})" '
        f'text-anchor="middle">lambda_min_nonzero</text>'
    )

    if alphas:
        # betti: piecewise-constant step curve
        pts = []
        for i, (a, b) in enumerate(zip(alphas, bettis)):
            x, y = _xpos(a, a0, a1), _ypos(b, 0, b_max)
            if i and bettis[i - 1] != b:
                pts.append(f"{x:.2f},{_ypos(bettis[i - 1], 0, b_max):.2f}")
            pts.append(f"{x:.2f},{y:.2f}")
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="#1f4e9e" '
            'stroke-width="1.5"/>'
        )
        # lambda: polyline broken at absent values
        for present, run in itertools.groupby(zip(alphas, lams), key=lambda t: t[1] is not None):
            if not present:
                continue
            seg = [f"{_xpos(a, a0, a1):.2f},{_ypos(lam, 0, l_max):.2f}" for a, lam in run]
            if len(seg) == 1:
                x, y = seg[0].split(",")
                parts.append(f'<circle cx="{x}" cy="{y}" r="2" fill="#b22222"/>')
            else:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" stroke="#b22222" '
                    'stroke-width="1.5"/>'
                )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
