"""pslap benchmark: one workload, one seed, timed through ``pslap.cli.main``.

    python3 perfbench/run.py --workload chain-screen --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; pslap is imported from ``src/``.
The inputs are generated from ``--seed``.  Each command of the workload is
repeated until ``--seconds`` is used up (at least once), outputs are checked
after the timed region, and the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` every
command also runs with pslap's public functions wrapped, and the metrics are
the per-layer ones.  Inputs, CSVs, a report and the spans go to
``.perfbench_work/`` in the checkout.  ``--smoke`` runs every workload at
toy size, in both modes, and checks the benchmark itself.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported: one process, one
# thread, so runs neither contend with themselves nor vary with the load.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PSLAP_THREADS")
INHERITED_THREAD_ENV = {k: os.environ.get(k) for k in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from reference import reference_seconds, scaled  # noqa: E402
from workloads import Execution  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS},
        "thread_env_inherited": INHERITED_THREAD_ENV,
    }


def measure_setup(reps: int) -> tuple[list[float], list[float]]:
    """Wall times of a fresh interpreter running ``import pslap``, and the
    mean reference-kernel time around each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import pslap"]

    def once() -> float:
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
        return time.perf_counter() - t0

    once()  # compiles the bytecode, which a user pays once per install
    times, refs = [], [reference_seconds()]
    for _ in range(reps):
        times.append(once())
        refs.append(reference_seconds())
    return times, [(a + b) / 2 for a, b in zip(refs, refs[1:])]


def execute(cli, tracer, cmd: workloads.Command, index: int, k: int, traced: bool) -> Execution:
    tag = f"{k}t" if traced else str(k)
    argv = [a.replace("{k}", tag) for a in cmd.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    run_id = 0
    if traced:
        tracer.run_id = run_id = tracer.run_id + 1
        tracer.install()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code
            except Exception as exc:  # a crash fails this command's operations, not the run
                rc = f"crash:{type(exc).__name__}"
                traceback.print_exc(file=stderr)
            seconds, cpu_seconds = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if traced:
            tracer.uninstall()
    if rc != 0:
        print(f"[{' '.join(argv)}] exit {rc}: {stderr.getvalue().strip()[-400:]}", file=sys.stderr)
    return Execution(index, k, tag, seconds, cpu_seconds, rc, stdout.getvalue(), traced, run_id)


def measure(cli, commands, seconds: float, tracer) -> list[Execution]:
    """Repeat the commands in order until the next one would overrun ``seconds``.

    The first pass always completes.  With a tracer, each command runs
    twice back to back, untraced and traced, alternating which goes first,
    so the tracing overhead is measured on the same work.
    """
    execs: list[Execution] = []
    last: dict[int, float] = {}
    start = time.perf_counter()
    ref = reference_seconds()
    k = 0
    while True:
        for i, cmd in enumerate(commands):
            if k > 0 and time.perf_counter() - start + last[i] > seconds:
                return execs
            t0 = time.perf_counter()
            if tracer is None:
                modes = (False,)
            else:
                modes = (False, True) if k % 2 == 0 else (True, False)
            done = [execute(cli, tracer, cmd, i, k, traced) for traced in modes]
            ref_after = reference_seconds()
            for ex in done:
                ex.ref_seconds = (ref + ref_after) / 2
            execs += done
            ref = ref_after
            last[i] = time.perf_counter() - t0
        k += 1


def import_pslap():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pslap
    import pslap.cli

    if Path(pslap.__file__).resolve().parent != SRC / "pslap":
        raise ImportError(f"pslap imported from {pslap.__file__}, not from {SRC}")
    return pslap, pslap.cli


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict,
                 setup_reps: int = SETUP_REPS) -> dict:
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    facts = machine_facts()
    setup_samples, refs = measure_setup(setup_reps)
    pslap, cli = import_pslap()

    wl = workloads.Workload(name, work, seed, sizes[name])
    warm = workloads.Workload(name, work / "warm", seed, workloads.TINY[name])
    for i, cmd in enumerate(warm.commands):  # lazy imports and allocator warm-up
        execute(cli, None, cmd, i, -1, False)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    execs = measure(cli, wl.commands, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setup = (statistics.median(setup_samples),
             statistics.median(scaled(t, r) for t, r in zip(setup_samples, refs)))

    outcome = wl.check(pslap, execs)
    raw = metrics.end_to_end(wl.commands, execs, outcome, setup[0], peak_rss_mb, scale=False)
    if trace:
        values = metrics.per_layer(execs, tracer, outcome)
        names = [(n, u) for n, u, _ in metrics.PER_LAYER]
    else:
        values = metrics.end_to_end(wl.commands, execs, outcome, setup[1], peak_rss_mb, scale=True)
        names = [(n, u) for n, u, _, _ in metrics.END_TO_END]
    line = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names},
    }
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "input": wl.describe, "machine": facts, "setup_samples_s": setup_samples,
        "setup_reference_s": refs, "unscaled_end_to_end": raw,
        "executions": [
            {"command": " ".join(wl.commands[ex.cmd].argv), "tag": ex.tag, "seconds": ex.seconds,
             "cpu_seconds": ex.cpu_seconds, "reference_s": ex.ref_seconds,
             "rc": ex.rc, "traced": ex.traced}
            for ex in execs
        ],
        "fail_share": outcome.failed / outcome.attempted if outcome.attempted else 0.0,
        "flagged_records": outcome.flagged,
        "flagged_share": outcome.flagged / outcome.spectrum_records if outcome.spectrum_records else 0.0,
        "csv_sha256": outcome.sha256,
        "problems": outcome.problems,
        "result": line,
    }
    if trace:
        report["absent"] = tracer.absent
        report["hook_errors"] = tracer.hook_errors
        with open(work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["run_id", "span_id", "parent_id", "name", "start", "end"],
                       "spans": tracer.spans}, fh)
    with open(work / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    report["report_path"] = str((work / "report.json").relative_to(ROOT))
    return report


def print_summary(rep: dict) -> None:
    m = rep["machine"]
    line = rep["result"]
    counts = {}
    for ex in rep["executions"]:
        verb = ex["command"].split()[0]
        counts[verb] = counts.get(verb, 0) + 1
    print(f"pslap benchmark  workload={rep['workload']} seed={rep['seed']} "
          f"seconds={rep['seconds']} trace={int(rep['trace'])}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']!r} threads={m['thread_env']}")
    print(f"input: {rep['input']}")
    print(f"unscaled wall_s {rep['unscaled_end_to_end']['wall_s']:.6g} s, "
          f"latency_p50_s {rep['unscaled_end_to_end']['latency_p50_s']:.6g} s "
          f"(end-to-end times below are at the reference speed)")
    print("executions: " + ", ".join(f"{v} x{n}" for v, n in counts.items()))
    for name, mv in line["metrics"].items():
        print(f"  {name:38s} {mv['value']:.6g} {mv['unit']}")
    print(f"  fail_share {rep['fail_share']:.6g} ({line['failed']}/{line['attempted']}), "
          f"flagged_share {rep['flagged_share']:.6g} ({rep['flagged_records']} records)")
    print(f"  csv sha256: {sorted(set(rep['csv_sha256'].values())) or '-'}")
    if rep["trace"]:
        lm = line["metrics"]
        print(f"  layer self-time sum {lm['trace.self_sum_s']['value']:.4f} s vs traced wall "
              f"{lm['trace.wall_s']['value']:.4f} s; tracing overhead {lm['trace.overhead_s']['value']:.4f} s")
        if rep["absent"] or rep["hook_errors"]:
            print(f"  absent: {rep['absent']}  hook errors: {rep['hook_errors']}")
    for p in rep["problems"][:5]:
        print(f"  FAILED: {p}")
    print(f"report: {rep['report_path']}")


def smoke() -> int:
    """Every workload at toy size in both modes, plus checks of the checks."""
    import smoke as smoke_checks

    problems = []
    for name in workloads.NAMES:
        for trace in (False, True):
            rep = run_workload(name, seed=3, seconds=0, trace=trace, sizes=workloads.TINY, setup_reps=1)
            print_summary(rep)
            problems += smoke_checks.result_problems(name, trace, rep["result"])
    pslap, _ = import_pslap()
    problems += smoke_checks.checker_problems(pslap, WORK / "smoke-checks")
    problems += smoke_checks.benchmark_json_problems(ROOT / "BENCHMARK.json")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy-size self-test of the benchmark")
    args = ap.parse_args(argv)
    if not (SRC / "pslap" / "__init__.py").is_file():
        print(f"perfbench: no pslap sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        rep = run_workload(name, args.seed, args.seconds, bool(args.trace), workloads.FULL)
        print_summary(rep)
        print(json.dumps(rep["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
