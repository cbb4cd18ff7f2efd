"""The benchmark's workloads: their inputs, their pslap commands, and the
checks on every output, which run after the timed region.

One operation is one spectrum record, one validated cloud, or one planted
close pair.  An operation fails if its record carries a ``failed:*`` flag,
its Betti number disagrees with ``BettiOracle`` or the Z2 barcode, its
``validate`` exits nonzero, or ``anomaly`` misses the pair or reports an
extra one.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

# the CLI's default alpha grid: sqrt(1.5) .. sqrt(10) in steps of 0.01
GRID = (math.sqrt(1.5), math.sqrt(10.0), 0.01)
FLAGGED = ("gap_ambiguous", "partial_spectrum")

# Sizes keep one pass of each workload short (about 2 s for the chains, 10 s
# for the batch on a 2-core machine), so a 30 s run takes 15 or more samples
# of every chain command and three of every cloud.
FULL = {
    "chain-screen": {"n": 48},
    "chain-persist": {"n": 32},
    "batch-validate": {"count": 40, "sizes_2d": (8, 24), "sizes_3d": (8, 12)},
}
TINY = {
    "chain-screen": {"n": 16},
    "chain-persist": {"n": 14},
    "batch-validate": {"count": 4, "sizes_2d": (8, 10), "sizes_3d": (8, 9)},
}
NAMES = tuple(FULL)


@dataclass
class Command:
    """One pslap CLI invocation; ``{k}`` in argv becomes the execution tag."""

    argv: list[str]
    kind: str  # "anomaly", "spectra" or "validate"
    latency: bool  # sampled for latency_p50_s / latency_p75_s
    records: bool  # produces spectrum records (records_per_s)
    input: Path
    out: str | None = None  # CSV path pattern, for "spectra"


@dataclass
class Execution:
    cmd: int
    k: int  # pass number
    tag: str
    seconds: float
    cpu_seconds: float  # process CPU time of the same interval
    rc: object  # exit code, or "crash:<exception type>"
    stdout: str
    traced: bool
    run_id: int
    ref_seconds: float = 0.0  # mean reference-kernel time just before and after


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    flagged: int = 0
    spectrum_records: int = 0  # records seen in CSVs, the base of flagged_share
    records: dict = field(default_factory=dict)  # command index -> records per execution
    sha256: dict = field(default_factory=dict)  # CSV path -> digest (recorded, not gated)
    problems: list = field(default_factory=list)

    def add(self, attempted, failed, problem=None):
        self.attempted += attempted
        self.failed += failed
        if failed and problem and len(self.problems) < 20:
            self.problems.append(problem)


def _grid_alphas():
    lo, hi, step = GRID
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Writes the inputs for one seed and size, and checks command outputs."""

    def __init__(self, name: str, work: Path, seed: int, sizes: dict):
        self.name = name
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.planted: list = []
        self.describe = ""
        work.mkdir(parents=True, exist_ok=True)
        self.commands = getattr(self, "_prepare_" + name.replace("-", "_"))()
        self._expected: dict = {}

    # -- inputs and commands ---------------------------------------------

    def _chain(self, suffix):
        n = self.sizes["n"]
        coords, planted = gen.ca_chain(n, self.seed)
        close = gen.close_pairs(coords, 3.0)
        if sorted((i, j) for i, j, _ in close) != sorted((i, j) for i, j, _ in planted):
            raise RuntimeError(f"generator error: close pairs {close} != planted {planted}")
        self.planted = planted
        path = self.work / f"chain.{suffix}"
        (gen.write_pdb if suffix == "pdb" else gen.write_xyz)(coords, path)
        self.describe = f"CA chain n={n}, planted " + ", ".join(
            f"{gen.residue_label(i)}-{gen.residue_label(j)} {d:.3f}" for i, j, d in planted
        )
        return path

    def _prepare_chain_screen(self):
        pdb = self._chain("pdb")
        out = str(self.work / "screen-{k}.csv")
        return [
            Command(["anomaly", "--input", str(pdb), "--threshold", "3.0"],
                    "anomaly", latency=True, records=False, input=pdb),
            Command(["spectra", "--input", str(pdb), "--q", "0,1,2", "--p", "0", "--out", out],
                    "spectra", latency=False, records=True, input=pdb, out=out),
        ]

    def _prepare_chain_persist(self):
        xyz = self._chain("xyz")
        out = str(self.work / "persist-{k}.csv")
        return [
            Command(["spectra", "--input", str(xyz), "--critical", "--q", "1,2", "--p", "0.5",
                     "--out", out],
                    "spectra", latency=True, records=True, input=xyz, out=out),
        ]

    def _prepare_batch_validate(self):
        s = self.sizes
        clouds = gen.uniform_batch(s["count"], s["sizes_2d"], s["sizes_3d"], self.seed)
        cmds = []
        for k, coords in enumerate(clouds):
            path = self.work / f"cloud-{k:02d}.xyz"
            gen.write_xyz(coords, path)
            cmds.append(Command(["validate", "--input", str(path), "--q", "0,1,2", "--p", "0,0.3"],
                                "validate", latency=True, records=True, input=path))
        self.describe = (f"{len(clouds)} uniform clouds, 2D n={s['sizes_2d'][0]}..{s['sizes_2d'][1]}, "
                         f"3D n={s['sizes_3d'][0]}..{s['sizes_3d'][1]}")
        return cmds

    # -- checks -------------------------------------------------------------

    def _points(self, pslap, path: Path):
        return pslap.read_pdb_ca(path) if path.suffix == ".pdb" else pslap.read_xyz(path)

    def _spectra_expected(self, pslap, cmd: Command):
        """(q, alpha as the CSV prints it, oracle Betti or None) per expected row."""
        key = ("spectra", str(cmd.input), tuple(cmd.argv))
        if key not in self._expected:
            argv = cmd.argv
            qs = sorted({int(t) for t in argv[argv.index("--q") + 1].split(",")})
            p = float(argv[argv.index("--p") + 1])
            cx = pslap.alpha_complex(self._points(pslap, cmd.input))
            alphas = pslap.critical_alphas(cx) if "--critical" in argv else _grid_alphas()
            barcode = pslap.reduce(cx)
            oracle = pslap.BettiOracle(cx)
            rows = []
            for q in qs:
                for a in sorted(float(x) for x in alphas):
                    b_exact = oracle.betti(q, a, p)
                    b_bar = pslap.betti_from_barcode(barcode, q, a, p)
                    rows.append((q, f"{a:.6g}", b_exact if b_exact == b_bar else None))
            self._expected[key] = rows
        return self._expected[key]

    def _check_spectra(self, pslap, cmd, ex, out: Outcome):
        expected = self._spectra_expected(pslap, cmd)
        path = Path(cmd.out.replace("{k}", ex.tag))
        if ex.rc != 0 or not path.is_file():
            out.add(len(expected), len(expected), f"{path.name}: exit {ex.rc}")
            return
        out.sha256[path.name] = _sha256(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:] if line]
        out.records.setdefault(ex.cmd, []).append(len(rows))
        out.spectrum_records += len(rows)
        bad = abs(len(rows) - len(expected))
        problem = f"{path.name}: {len(rows)} rows, expected {len(expected)}" if bad else None
        for row, (q, alpha, betti) in zip(rows, expected):
            flags = row[6].split(";") if len(row) == 7 else ["malformed"]
            if any(f in FLAGGED for f in flags):
                out.flagged += 1
            ok = (
                len(row) == 7 and row[0] == str(q) and row[1] == alpha
                and betti is not None and row[4] == str(betti)
                and not any(f.startswith("failed:") or f == "malformed" for f in flags)
            )
            if not ok:
                bad += 1
                problem = problem or f"{path.name}: row {row} expected q={q} alpha={alpha} betti={betti}"
        out.add(max(len(rows), len(expected)), bad, problem)

    def _check_anomaly(self, pslap, cmd, ex, out: Outcome):
        if not self._expected.get("anomaly"):
            coords = self._points(pslap, cmd.input).coords
            self._expected["anomaly"] = {
                (gen.residue_label(i), gen.residue_label(j)): float(np.linalg.norm(coords[i] - coords[j]))
                for i, j, _ in self.planted
            }
        expected = self._expected["anomaly"]
        reported = {}
        if ex.rc == 0:
            for line in ex.stdout.splitlines():
                parts = line.split()
                if len(parts) == 4 and parts[2] == "distance":
                    reported[(parts[0], parts[1])] = float(parts[3])
        missed = sum(
            1 for pair, d in expected.items()
            if pair not in reported or abs(reported[pair] - d) > 1e-6
        )
        extra = sum(1 for pair in reported if pair not in expected)
        out.add(len(expected) + extra, missed + extra,
                f"anomaly exit {ex.rc}: reported {reported}, expected {expected}")

    def _check_validate(self, pslap, cmd, ex, out: Outcome):
        key = ("validate", str(cmd.input))
        if key not in self._expected:
            cx = pslap.alpha_complex(self._points(pslap, cmd.input))
            self._expected[key] = len(pslap.critical_alphas(cx))
        n_crit = self._expected[key]
        rows = [line.split() for line in ex.stdout.splitlines()[1:] if line.strip()]
        ok = (
            ex.rc == 0 and len(rows) == 6
            and all(len(r) == 5 and r[2] == str(n_crit) and r[3] == "0" and r[4] == "PASS" for r in rows)
        )
        if ok:
            out.records.setdefault(ex.cmd, []).append(sum(int(r[2]) for r in rows))
        out.add(1, 0 if ok else 1, f"{cmd.input.name}: exit {ex.rc}, table {rows}")

    def check(self, pslap, executions) -> Outcome:
        out = Outcome()
        for ex in executions:
            cmd = self.commands[ex.cmd]
            getattr(self, "_check_" + cmd.kind)(pslap, cmd, ex, out)
        return out
