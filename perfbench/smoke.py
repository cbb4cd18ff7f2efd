"""Self-checks for ``run.py --smoke``: result shape, the output checks, and
agreement between BENCHMARK.json and the metrics this benchmark reports."""

from __future__ import annotations

import contextlib
import io
import json
import math

import metrics
import workloads
from workloads import Execution


def result_problems(name, trace, line) -> list[str]:
    where = f"{name} trace={int(trace)}"
    out = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"{where}: result keys {sorted(line)}")
    if line.get("correct") is not True or line.get("failed") != 0 or line.get("attempted", 0) < 1:
        out.append(f"{where}: correct={line.get('correct')} failed={line.get('failed')} "
                   f"attempted={line.get('attempted')}")
    spec = metrics.PER_LAYER if trace else metrics.END_TO_END
    spec = [(n, u) for n, u, *_ in spec]
    got = line.get("metrics", {})
    if list(got) != [n for n, _ in spec]:
        out.append(f"{where}: metric names {list(got)}")
    for n, u in spec:
        mv = got.get(n, {})
        v = mv.get("value")
        if mv.get("unit") != u or not isinstance(v, (int, float)) or not math.isfinite(v):
            out.append(f"{where}: {n} = {mv}")
        elif not trace and v <= 0:
            out.append(f"{where}: end-to-end {n} is not positive: {v}")
    if trace:
        for n in ("geometry.delaunay.calls", "spectra.sweep.records", "cli.main.self_s", "trace.wall_s"):
            if got.get(n, {}).get("value", 0) <= 0:
                out.append(f"{where}: traced {n} is zero; a wrapper did not take effect")
        wall = got["trace.wall_s"]["value"]
        if abs(got["trace.self_sum_s"]["value"] - wall) > 0.05 * wall + 0.01:
            out.append(f"{where}: layer self times {got['trace.self_sum_s']['value']} != traced wall {wall}")
    return out


def _failed(wl, pslap, ex) -> int:
    return wl.check(pslap, [ex]).failed


def checker_problems(pslap, work) -> list[str]:
    """Feed the checks wrong outputs and confirm each one is caught."""
    out = []
    wl = workloads.Workload("chain-screen", work / "screen", 5, workloads.TINY["chain-screen"])
    (i, j, d), (k, m, e) = wl.planted
    lab = workloads.gen.residue_label
    right = f"{lab(i)} {lab(j)} distance {d:.6f}\n{lab(k)} {lab(m)} distance {e:.6f}\n"
    wrong = f"{lab(i)} {lab(j)} distance {d:.6f}\n{lab(0)} {lab(1)} distance 3.800000\n"
    if _failed(wl, pslap, Execution(0, 0, "a", 0.0, 0.0, 0, right, False, 0)) != 0:
        out.append("anomaly check rejects the planted pairs")
    if _failed(wl, pslap, Execution(0, 0, "b", 0.0, 0.0, 0, wrong, False, 0)) != 2:
        out.append("anomaly check misses a lost pair plus an extra pair")

    spectra = wl.commands[1]
    argv = [a.replace("{k}", "ok") for a in spectra.argv]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = pslap.cli.main(argv)
    good = spectra.out.replace("{k}", "ok")
    if _failed(wl, pslap, Execution(1, 0, "ok", 0.0, 0.0, rc, "", False, 0)) != 0:
        out.append("spectra check rejects a correct CSV")
    with open(good, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = lines[5].split(",")
    row[4] = str(int(row[4]) + 1)
    lines[5] = ",".join(row)
    row = lines[6].split(",")
    row[6] = "failed:EigensolveFailure"
    lines[6] = ",".join(row)
    with open(spectra.out.replace("{k}", "bad"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    if _failed(wl, pslap, Execution(1, 0, "bad", 0.0, 0.0, 0, "", False, 0)) != 3:
        out.append("spectra check misses a wrong Betti number, a failed flag or a lost row")

    batch = workloads.Workload("batch-validate", work / "batch", 5, workloads.TINY["batch-validate"])
    if _failed(batch, pslap, Execution(0, 0, "c", 0.0, 0.0, 4, "", False, 0)) != 1:
        out.append("validate check accepts a nonzero exit")
    return out


def benchmark_json_problems(path) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"BENCHMARK.json unreadable: {exc}"]
    out = []
    e2e = [{"name": n, "unit": u, "better": b, "bound": bd} for n, u, b, bd in metrics.END_TO_END]
    if spec.get("end_to_end") != e2e:
        out.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    per = [{"name": n, "unit": u, "better": b} for n, u, b in metrics.PER_LAYER]
    if spec.get("per_layer") != per:
        out.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if [w["name"] for w in spec.get("workloads", [])] != list(workloads.NAMES):
        out.append("BENCHMARK.json workloads differ from workloads.NAMES")
    return out
