"""Metric names, units, and how each is computed from a run's executions.

A pass is one execution of every command of a workload.  Pass times sum,
over the commands, the mean of that command's executions in the run.  The
mean, not the median: the machine's speed shifts between levels for seconds
at a time, and with two or three samples of a cloud a median snaps to one
level where the mean averages over the run.  Latencies are percentiles.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from reference import scaled

# name, unit, better, bound (the share of the parent's median a change may
# lose).  Times are stated at the reference kernel's nominal speed (see
# reference.py) and still get the 0.25 ceiling: on a shared 2-vCPU machine
# whole runs of the same input drift by 10% or more with the neighbours' load.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_p75_s", "s", "lower", 0.25),
    ("records_per_s", "1/s", "higher", 0.25),
]

_SELF = "s"
# name, unit, better; counts of outputs (cells, records, bytes) should not drop
PER_LAYER = [
    ("geometry.self_s", _SELF, "lower"),
    ("geometry.delaunay.self_s", _SELF, "lower"),
    ("geometry.delaunay.calls", "count", "lower"),
    ("geometry.cells", "count", "higher"),
    ("geometry.predicate_calls", "count", "lower"),
    ("alpha.self_s", _SELF, "lower"),
    ("alpha.assign_filtration.self_s", _SELF, "lower"),
    ("alpha.predicate_calls", "count", "lower"),
    ("alpha.critical_alphas.self_s", _SELF, "lower"),
    ("alpha.simplices", "count", "higher"),
    ("alpha.critical_values", "count", "higher"),
    ("boundary.self_s", _SELF, "lower"),
    ("boundary.full_boundary.self_s", _SELF, "lower"),
    ("boundary.restrict.self_s", _SELF, "lower"),
    ("boundary.persistent_boundary.self_s", _SELF, "lower"),
    ("boundary.persistent_boundary.calls", "count", "lower"),
    ("boundary.projector_cols", "count", "lower"),
    ("boundary.identity_share", "ratio", "higher"),
    ("spectra.self_s", _SELF, "lower"),
    ("spectra.sweep.self_s", _SELF, "lower"),
    ("spectra.sweep.records", "count", "higher"),
    ("spectra.dedup_share", "ratio", "higher"),
    ("spectra.persistent_laplacian.self_s", _SELF, "lower"),
    ("spectra.assemble_laplacian.self_s", _SELF, "lower"),
    ("spectra.spectrum.self_s", _SELF, "lower"),
    ("spectra.spectrum.calls", "count", "lower"),
    ("spectra.matrix_order.max", "count", "lower"),
    ("spectra.eig_flops_computed", "flop-computed", "lower"),
    ("spectra.failed_records", "count", "lower"),
    ("spectra.flagged_records", "count", "lower"),
    ("spectra.flagged_share", "ratio", "lower"),
    ("oracle.self_s", _SELF, "lower"),
    ("oracle.reduce.self_s", _SELF, "lower"),
    ("oracle.BettiOracle.self_s", _SELF, "lower"),
    ("oracle.betti.calls", "count", "lower"),
    ("oracle.betti.self_s", _SELF, "lower"),
    ("oracle.betti_from_barcode.self_s", _SELF, "lower"),
    ("dataio.self_s", _SELF, "lower"),
    ("dataio.read.self_s", _SELF, "lower"),
    ("dataio.write.self_s", _SELF, "lower"),
    ("dataio.bytes_written", "B", "higher"),
    ("cli.main.self_s", _SELF, "lower"),
    ("trace.wall_s", _SELF, "lower"),
    ("trace.untraced_wall_s", _SELF, "lower"),
    ("trace.overhead_s", _SELF, "lower"),
    ("trace.self_sum_s", _SELF, "lower"),
    ("checks.fail_share", "ratio", "lower"),
]

LAYERS = ("geometry", "alpha", "boundary", "spectra", "oracle", "dataio", "cli")
_MAXED = {"spectra.matrix_order.max"}


def _seconds(ex, scale: bool) -> float:
    return scaled(ex.seconds, ex.ref_seconds) if scale else ex.seconds


def _mean_seconds_by_command(execs, scale: bool = False) -> dict:
    by_cmd = defaultdict(list)
    for ex in execs:
        by_cmd[ex.cmd].append(_seconds(ex, scale))
    return {cmd: statistics.fmean(v) for cmd, v in by_cmd.items()}


def pass_seconds(execs) -> float:
    """Unscaled seconds of one pass: the sum over commands of their mean time."""
    return sum(_mean_seconds_by_command(execs).values())


def _p75(samples) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def end_to_end(commands, execs, outcome, setup_s, peak_rss_mb, scale: bool) -> dict:
    """End-to-end metrics; with ``scale`` every command time is first stated
    at the reference speed (``setup_s`` arrives already scaled or not)."""
    plain = [ex for ex in execs if not ex.traced]
    # latency samples come from complete passes only, so every run samples
    # the workload's commands in the same proportions however fast it goes
    per_pass = defaultdict(int)
    for ex in plain:
        per_pass[ex.k] += 1
    latency = [
        _seconds(ex, scale) for ex in plain
        if commands[ex.cmd].latency and per_pass[ex.k] == len(commands)
    ]
    mean = _mean_seconds_by_command(plain, scale)
    producing = [c for c in mean if commands[c].records]
    records = sum(statistics.median(outcome.records.get(c, [0])) for c in producing)
    busy = sum(mean[c] for c in producing)
    return {
        "wall_s": sum(mean.values()),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "latency_p50_s": statistics.median(latency),
        "latency_p75_s": _p75(latency),
        "records_per_s": records / busy if busy > 0 else 0.0,
    }


def per_layer(execs, tracer, outcome) -> dict:
    """Per-layer figures for one pass, taken for each command from its traced
    execution of median duration, so that the layer self times of a pass add
    up to its traced wall time."""
    self_times = tracer.self_times()
    calls = tracer.calls()
    by_cmd = defaultdict(list)
    for ex in execs:
        if ex.traced:
            by_cmd[ex.cmd].append(ex)
    chosen = [sorted(runs, key=lambda ex: ex.seconds)[(len(runs) - 1) // 2] for runs in by_cmd.values()]
    P: dict[str, float] = defaultdict(float)
    for ex in chosen:
        vals = {f"self:{k}": v for k, v in self_times[ex.run_id].items()}
        vals.update({f"calls:{k}": v for k, v in calls[ex.run_id].items()})
        vals.update(tracer.counts[ex.run_id])
        for key, v in vals.items():
            P[key] = max(P[key], v) if key in _MAXED else P[key] + v

    def self_of(*names):
        return sum(P[f"self:{n}"] for n in names)

    layer_self = {
        layer: sum(v for k, v in P.items() if k.startswith(f"self:{layer}."))
        for layer in LAYERS
    }
    records = P["spectra.sweep.records"]
    pb_calls = P["calls:boundary.persistent_boundary"]
    traced_wall = sum(ex.seconds for ex in chosen)
    plain_wall = pass_seconds([ex for ex in execs if not ex.traced])
    out = {
        "geometry.self_s": layer_self["geometry"],
        "geometry.delaunay.self_s": self_of("geometry.delaunay"),
        "geometry.delaunay.calls": P["calls:geometry.delaunay"],
        "geometry.cells": P["geometry.cells"],
        "geometry.predicate_calls": P["predicates:geometry.delaunay"],
        "alpha.self_s": layer_self["alpha"],
        "alpha.assign_filtration.self_s": self_of("alpha.assign_filtration"),
        "alpha.predicate_calls": P["predicates:alpha.assign_filtration"],
        "alpha.critical_alphas.self_s": self_of("alpha.critical_alphas"),
        "alpha.simplices": P["alpha.simplices"],
        "alpha.critical_values": P["alpha.critical_values"],
        "boundary.self_s": layer_self["boundary"],
        "boundary.full_boundary.self_s": self_of("boundary.full_boundary"),
        "boundary.restrict.self_s": self_of("boundary.restrict"),
        "boundary.persistent_boundary.self_s": self_of("boundary.persistent_boundary"),
        "boundary.persistent_boundary.calls": pb_calls,
        "boundary.projector_cols": P["boundary.projector_cols"],
        "boundary.identity_share": P["boundary.identity_calls"] / pb_calls if pb_calls else 0.0,
        "spectra.self_s": layer_self["spectra"],
        "spectra.sweep.self_s": self_of("spectra.sweep"),
        "spectra.sweep.records": records,
        "spectra.dedup_share": 1.0 - P["calls:spectra.persistent_laplacian"] / records if records else 0.0,
        "spectra.persistent_laplacian.self_s": self_of("spectra.persistent_laplacian"),
        "spectra.assemble_laplacian.self_s": self_of("spectra.assemble_laplacian"),
        "spectra.spectrum.self_s": self_of("spectra.spectrum"),
        "spectra.spectrum.calls": P["calls:spectra.spectrum"],
        "spectra.matrix_order.max": P["spectra.matrix_order.max"],
        "spectra.eig_flops_computed": P["spectra.eig_flops_computed"],
        "spectra.failed_records": P["spectra.failed_records"],
        "spectra.flagged_records": P["spectra.flagged_records"],
        "spectra.flagged_share": P["spectra.flagged_records"] / records if records else 0.0,
        "oracle.self_s": layer_self["oracle"],
        "oracle.reduce.self_s": self_of("oracle.reduce"),
        "oracle.BettiOracle.self_s": self_of("oracle.BettiOracle"),
        "oracle.betti.calls": P["calls:oracle.betti"],
        "oracle.betti.self_s": self_of("oracle.betti"),
        "oracle.betti_from_barcode.self_s": self_of("oracle.betti_from_barcode"),
        "dataio.self_s": layer_self["dataio"],
        "dataio.read.self_s": self_of("dataio.read_xyz", "dataio.read_pdb_ca"),
        "dataio.write.self_s": self_of(
            "dataio.write_spectra_csv", "dataio.write_spectra_json", "dataio.write_curves_svg"
        ),
        "dataio.bytes_written": P["dataio.bytes_written"],
        "cli.main.self_s": self_of("cli.main"),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.self_sum_s": sum(layer_self.values()),
        "checks.fail_share": outcome.failed / outcome.attempted if outcome.attempted else 0.0,
    }
    return out
