"""Command-line interface: spectra sweeps, oracle validation, anomaly
detection, and accumulated-Laplacian diagnostics."""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import dataio
from .alpha import alpha_complex, critical_alphas
from .errors import (
    AllCollinear,
    AllCoplanar,
    DegenerateSimplex,
    DuplicatePoints,
    EigensolveFailure,
    LinearSolveFailure,
    MixedDimensions,
    NoCAAtoms,
    ParseError,
    PslapError,
)
from .oracle import BettiOracle, betti_from_barcode, reduce
from .spectra import accumulated_laplacian_diagonal, detect_anomalies, sweep

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GEOMETRY = 2
EXIT_SOLVER = 3
EXIT_DISAGREEMENT = 4

DEFAULT_ALPHA_MIN = math.sqrt(1.5)
DEFAULT_ALPHA_MAX = math.sqrt(10.0)
DEFAULT_STEP = 0.01
MAX_GRID_POINTS = 10**6  # the default grid has 170

_INPUT_ERRORS = (ParseError, MixedDimensions, NoCAAtoms, OSError)
_GEOMETRY_ERRORS = (AllCollinear, AllCoplanar, DegenerateSimplex, DuplicatePoints)
_SOLVER_ERRORS = (LinearSolveFailure, EigensolveFailure)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ParseError, so they exit with the input-error
    code instead of argparse's 2, which is the geometry-error code here."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


# flag converters; argparse names them in its messages ("invalid
# positive_float value: '0'")
def non_negative_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(text)
    return value


def positive_float(text: str) -> float:
    value = non_negative_float(text)
    if value == 0:
        raise ValueError(text)
    return value


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="point cloud file")
    p.add_argument("--format", choices=("xyz", "pdb"), default=None,
                   help="input format (default: by file extension)")
    p.add_argument("--chain", default=None, help="PDB chain filter, e.g. A or AB")
    p.add_argument("--seed", type=int, default=0, help="perturbation/insertion seed")


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha-min", type=non_negative_float, default=DEFAULT_ALPHA_MIN)
    p.add_argument("--alpha-max", type=non_negative_float, default=DEFAULT_ALPHA_MAX)
    p.add_argument("--step", type=positive_float, default=DEFAULT_STEP)
    p.add_argument("--critical", action="store_true",
                   help="evaluate at the critical alpha values instead of the grid")


def _load_points(args) -> dataio.PointSet:
    fmt = args.format
    if fmt is None:
        fmt = "pdb" if str(args.input).lower().endswith(".pdb") else "xyz"
    if fmt == "pdb":
        return dataio.read_pdb_ca(args.input, chain_filter=args.chain)
    return dataio.read_xyz(args.input)


def _build(args):
    points = _load_points(args)
    return points, alpha_complex(points, seed=args.seed)


def _grid_points(args):
    """The count of grid values alpha_min + i * step up to alpha_max; inf
    when the quotient overflows."""
    span = (args.alpha_max - args.alpha_min) / args.step + 1e-9
    return math.floor(span) + 1 if math.isfinite(span) else math.inf


def _check_grid(args) -> None:
    if args.alpha_min > args.alpha_max:
        raise ParseError(
            f"--alpha-min {args.alpha_min:g} is above --alpha-max {args.alpha_max:g}"
        )
    points = _grid_points(args)
    if not args.critical and points > MAX_GRID_POINTS:
        raise ParseError(f"the alpha grid has {points} points, above the cap of {MAX_GRID_POINTS}")


def _alpha_values(args, complex) -> np.ndarray:
    if args.critical:
        return critical_alphas(complex)
    return args.alpha_min + args.step * np.arange(_grid_points(args))


def _parse_list(option: str, text: str, convert) -> list:
    try:
        values = [convert(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise ParseError(f"{option}: invalid value in {text!r}") from None
    if not values:
        raise ParseError(f"{option}: no values in {text!r}")
    return values


def _parse_q(text: str) -> list[int]:
    q_list = _parse_list("--q", text, int)
    if any(q < 0 for q in q_list):
        raise ParseError(f"--q: dimensions must be non-negative, got {text!r}")
    return q_list


def cmd_spectra(args) -> int:
    q_list = _parse_q(args.q)
    _check_grid(args)
    points, complex = _build(args)
    alphas = _alpha_values(args, complex)
    records = sweep(complex, q_list, alphas, p=args.p, full=args.json is not None)
    dataio.write_spectra_csv(records, args.out)
    if args.json:
        meta = {
            "input": str(args.input),
            "input_sha256": dataio.file_sha256(args.input),
            "p": args.p,
            "alphas": [float(a) for a in alphas],
            "seed": args.seed,
        }
        dataio.write_spectra_json(records, args.json, metadata=meta)
    if args.svg:
        qs = sorted({r.q for r in records})
        for q in qs:
            path = args.svg
            if len(qs) > 1:
                root, ext = os.path.splitext(args.svg)
                path = f"{root}_q{q}{ext or '.svg'}"
            dataio.write_curves_svg(
                [r for r in records if r.q == q], path, title=f"q={q}, p={args.p:g}"
            )
    return EXIT_OK


def cmd_validate(args) -> int:
    q_list = _parse_q(args.q)
    p_values = _parse_list("--p", args.p, non_negative_float)
    points, complex = _build(args)
    crit = critical_alphas(complex)
    barcode = reduce(complex)
    oracle = BettiOracle(complex)
    print("q     p        alphas  mismatches  status")
    failures = 0
    for q in q_list:
        for p in p_values:
            records = sweep(complex, [q], crit, p=p)
            bad = 0
            for rec in records:
                b_bar = betti_from_barcode(barcode, q, rec.alpha, p)
                b_exact = oracle.betti(q, rec.alpha, p)
                if not (rec.betti == b_bar == b_exact) or any(
                    f == "gap_ambiguous" or f.startswith("failed:") for f in rec.flags
                ):
                    bad += 1
            failures += bad
            status = "PASS" if bad == 0 else "FAIL"
            print(f"{q}  {p:8.4f}  {len(records):6d}  {bad:10d}  {status}")
    if failures:
        print(f"{failures} disagreement(s) between spectra and oracles", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_anomaly(args) -> int:
    points, complex = _build(args)
    pairs = detect_anomalies(complex, points, args.threshold)
    if not pairs:
        print("no anomalies")
        return EXIT_OK
    labels = points.labels or tuple(str(i) for i in range(len(points)))
    for (u, v), dist in pairs:
        print(f"{labels[u]} {labels[v]} distance {dist:.6f}")
    return EXIT_OK


def cmd_accumulate(args) -> int:
    _check_grid(args)
    points, complex = _build(args)
    alphas = _alpha_values(args, complex)
    values = accumulated_laplacian_diagonal(complex, alphas)
    labels = points.labels or tuple(str(i) for i in range(len(points)))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("vertex,label,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{labels[i]},{v:.12g}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pslap",
        description="Persistent spectral Laplacians over alpha-complex filtrations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectra", help="sweep persistent spectra over alpha")
    _add_input_args(p)
    _add_grid_args(p)
    p.add_argument("--q", default="0,1,2", help="comma-separated dimensions")
    p.add_argument("--p", type=non_negative_float, default=0.0, help="persistence parameter")
    p.add_argument("--out", default="spectra.csv", help="output CSV path")
    p.add_argument(
        "--json", default=None,
        help="optional JSON output, adding every eigenvalue of each record: betti exact zeros, "
             "then its Hodge parts' nonzero eigenvalues",
    )
    p.add_argument("--svg", default=None, help="optional SVG curve plot path")
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("validate", help="triple-oracle agreement check")
    _add_input_args(p)
    p.add_argument("--q", default="0,1,2")
    p.add_argument("--p", default="0", help="comma-separated persistence values")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("anomaly", help="report abnormally close vertex pairs")
    _add_input_args(p)
    p.add_argument("--threshold", type=non_negative_float, default=3.0,
                   help="onset threshold in input length units")
    p.set_defaults(func=cmd_anomaly)

    p = sub.add_parser("accumulate", help="normalized accumulated Laplacian diagonal")
    _add_input_args(p)
    _add_grid_args(p)
    p.add_argument("--out", default="accumulated.csv", help="output CSV path")
    p.set_defaults(func=cmd_accumulate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"pslap: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _GEOMETRY_ERRORS as exc:
        print(f"pslap: geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except _SOLVER_ERRORS as exc:
        print(f"pslap: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except PslapError as exc:
        print(f"pslap: error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY


if __name__ == "__main__":
    sys.exit(main())
