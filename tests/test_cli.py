import os
import pathlib

import numpy as np
import pytest

from conftest import chain48_pdb, read_spectra_csv
from pslap import cli, errors, lapack, spectra
from pslap.alpha import alpha_complex
from pslap.cli import main
from pslap.dataio import read_xyz
from pslap.errors import EigensolveFailure

DATA = pathlib.Path(__file__).parent / "data"
SIX = str(DATA / "six_points.xyz")


def run(*argv):
    return main(list(argv))


def test_spectra_critical_six_points(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = run(
        "spectra", "--input", SIX, "--critical", "--q", "0,1,2", "--p", "0",
        "--out", str(out),
    )
    assert code == 0
    recs = read_spectra_csv(out)
    at = lambda q: max(
        (r for r in recs if r.q == q and r.alpha <= 0.6), key=lambda r: r.alpha
    )
    assert (at(0).betti, at(1).betti, at(2).betti) == (1, 1, 0)
    assert np.isclose(at(0).lambda_min_nonzero, 1.0, atol=5e-5)
    assert np.isclose(at(2).lambda_min_nonzero, 3.0, atol=5e-5)


def test_spectra_persistent_betti(tmp_path):
    out = tmp_path / "s.csv"
    assert run(
        "spectra", "--input", SIX, "--q", "0", "--p", "0.4",
        "--alpha-min", "0.1", "--alpha-max", "0.3", "--step", "0.05",
        "--out", str(out),
    ) == 0
    recs = read_spectra_csv(out)
    at_02 = next(r for r in recs if np.isclose(r.alpha, 0.2))
    assert at_02.betti == 1


def test_spectra_missing_input(tmp_path, capsys):
    out = tmp_path / "missing-out.csv"
    code = run("spectra", "--input", str(tmp_path / "nope.xyz"), "--out", str(out))
    assert code == 1
    assert not out.exists()
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("name,content", [
    ("nan.xyz", b"0 0\n1 nan\n0 1\n"),
    ("bytes.xyz", b"0 0\n1 0\xff\n0 1\n"),
    ("nan.pdb", b"ATOM      1  CA  ALA A   1      11.639     nan  -5.147  1.00  0.00           C\n"),
], ids=["nan-xyz", "bytes-xyz", "nan-pdb"])
def test_bad_coordinates_are_input_errors(name, content, tmp_path, capsys):
    bad = tmp_path / name
    bad.write_bytes(content)
    out = tmp_path / "o.csv"
    assert run("spectra", "--input", str(bad), "--out", str(out)) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("pslap: input error:") and f"{bad}:" in err


@pytest.mark.parametrize("argv", [
    ["spectra", "--q", "0,x"],
    ["spectra", "--q", "-1"],
    ["spectra", "--p", "-0.5"],
    ["spectra", "--p", "nan"],
    ["validate", "--q", "0,x"],
    ["validate", "--p", "0,x"],
    ["validate", "--p", "nan"],
    ["validate", "--p", "0,-0.3"],
    ["spectra", "--step", "0"],
    ["spectra", "--alpha-max", "nan"],
    ["spectra", "--alpha-min", "-1"],
    ["accumulate", "--step", "inf"],
    ["anomaly", "--threshold", "nan"],
    ["spectra", "--p", "x"],
    ["spectra", "--step", "abc"],
    ["spectra", "--alpha-min", "2", "--alpha-max", "1"],
    ["accumulate", "--alpha-min", "2", "--alpha-max", "1"],
    ["spectra", "--q", ","],
    ["spectra", "--q", ""],
    ["validate", "--q", ","],
    ["validate", "--p", ","],
])
def test_bad_q_and_p_are_input_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where spectra's default output would land
    assert run(argv[0], "--input", SIX, *argv[1:]) == 1
    assert not list(tmp_path.iterdir())
    assert "pslap: input error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectra", "accumulate"])
@pytest.mark.parametrize("alpha_max,step,points", [
    ("1e300", "1e-10", "inf"),  # the point count overflows
    ("1e9", "1e-3", "999999998776"),  # 7.28 TiB of alphas
], ids=["overflowing", "too-large"])
def test_oversized_grid_is_an_input_error(
    command, alpha_max, step, points, tmp_path, monkeypatch, capsys
):
    # a grid of more than MAX_GRID_POINTS values is refused before the build,
    # in one stderr line naming its count; --critical builds no grid
    monkeypatch.chdir(tmp_path)
    grid = ["--input", SIX, "--alpha-max", alpha_max, "--step", step]
    assert run(command, *grid) == 1
    assert not list(tmp_path.iterdir())
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pslap: input error:"), lines
    assert f" {points} points" in lines[0]
    assert run(command, *grid, "--critical") == 0


def test_spectra_geometry_error(tmp_path, capsys):
    bad = tmp_path / "line.xyz"
    bad.write_text("0 0\n1 1\n2 2\n3 3\n")
    code = run("spectra", "--input", str(bad), "--out", str(tmp_path / "o.csv"))
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["spectra", "--critical", "--out", "o.csv"],
    ["validate"],
], ids=["spectra", "validate"])
def test_overflowing_input_is_an_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # two points skip the tessellation, not the finiteness check
    for name in ("overflow.xyz", "overflow_two.xyz"):
        assert run(*argv, "--input", str(DATA / name)) == 2, name
        assert not list(tmp_path.iterdir())
        assert "pslap: error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["overflow", "overflow_two"])
def test_overflow_error_is_the_only_stderr_line(name):
    # in a child process, so that numpy's RuntimeWarnings would reach stderr
    import os
    import subprocess
    import sys

    import pslap

    src = str(pathlib.Path(pslap.__file__).parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pslap.cli", "spectra", "--input", str(DATA / f"{name}.xyz"),
         "--critical", "--out", os.devnull],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pslap: error:"), proc.stderr


def test_spectra_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["spectra", "--input", SIX, "--critical", "--q", "0,1", "--seed", "0"]
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_spectra_golden_bytes(tmp_path):
    # a 20-point 3D cloud is large enough for a change in the rounding of the
    # projector or the assembly (such as a block's memory order) to reach the
    # last digits of the output; the smaller fixtures do not show it.  The
    # sweep solves on one BLAS thread, so the bytes do not depend on the
    # thread count the tests run at
    import json

    out = tmp_path / "s.csv"
    js = tmp_path / "s.json"
    assert run("spectra", "--input", str(DATA / "cloud20_3d.xyz"), "--critical", "--q", "0,1,2",
               "--p", "0.3", "--out", str(out), "--json", str(js)) == 0
    assert out.read_bytes() == (DATA / "cloud20_3d_q012_p0.3.csv").read_bytes()
    # metadata embeds the input path, so only the records are compared
    golden = json.loads((DATA / "cloud20_3d_q012_p0.3_records.json").read_text())
    assert json.loads(js.read_text())["records"] == golden


def test_spectra_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the first 48 residues of the stand-in chain, whose CSV differed in 348
    # of 1 485 rows between one and two OpenBLAS threads before the sweep
    # pinned its solves to one thread; in child processes, as OpenBLAS reads
    # the count when it loads
    import os
    import subprocess
    import sys

    import pslap

    pdb = chain48_pdb(tmp_path)
    src = str(pathlib.Path(pslap.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "pslap.cli", "spectra", "--input", str(pdb), "--critical",
             "--q", "0,1,2", "--p", "0.5", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 1486


def test_spectra_csv_does_not_depend_on_json(tmp_path):
    # the CSV fields come from the same bisections with or without --json,
    # which only adds every eigenvalue
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["spectra", "--input", str(DATA / "cloud20_3d.xyz"), "--critical", "--q", "0,1,2",
            "--p", "0.3"]
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b), "--json", str(tmp_path / "b.json")) == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_adds_no_solve(tmp_path, monkeypatch):
    # --json lists every eigenvalue from the Hodge parts the CSV fields come
    # from: it reduces no matrix and projects no boundary beyond the plain
    # command.  Each run reads the input and builds a complex of its own
    # parts of order spectra.POOL_MIN_ORDER and up are solved in the sweep's
    # worker threads, so the counts are taken under a lock
    import threading

    calls, lock = {}, threading.Lock()
    for module, name in ((lapack, "dsytrd"), (spectra, "persistent_boundary")):

        def counting(*args, real=getattr(module, name), name=name):
            with lock:
                calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    args = ["spectra", "--input", str(DATA / "cloud20_3d.xyz"), "--critical", "--q", "0,1,2",
            "--p", "0.3", "--out", str(tmp_path / "s.csv")]
    counts = []
    for extra in ([], ["--json", str(tmp_path / "s.json")]):
        calls.clear()
        assert run(*args, *extra) == 0
        counts.append(dict(calls))
    plain, with_json = counts
    assert plain == with_json and plain["dsytrd"] > 0 and plain["persistent_boundary"] > 0, counts


def test_eigensolve_failure_is_typed(tmp_path, monkeypatch):
    # LAPACK reporting no convergence (info > 0) is an EigensolveFailure, a
    # solver error (test_each_error_type_has_its_exit_code); a sweep flags the
    # record instead, so spectra writes the flag and validate counts it as a
    # disagreement.  The complex is a fresh one: a shared one may hold the
    # solved Hodge parts
    def no_convergence(*args, **bounds):
        raise EigensolveFailure("LAPACK dstebz failed (info=1)")

    monkeypatch.setattr(lapack, "dstebz", no_convergence)
    with pytest.raises(EigensolveFailure):
        spectra.spectrum_at(alpha_complex(read_xyz(SIX)), 1, 0.6)
    out = tmp_path / "s.csv"
    assert run("spectra", "--input", SIX, "--q", "1", "--alpha-min", "0.6", "--alpha-max",
               "0.6", "--out", str(out)) == 0
    assert [r.flags for r in read_spectra_csv(out)] == [("failed:EigensolveFailure",)]
    assert run("validate", "--input", SIX, "--q", "1") == 4


# every error type, by the exit code and stderr label its base gives it
_EXIT_CODES = {
    "InputError": (1, "input error"),
    "ParseError": (1, "input error"),
    "MixedDimensions": (1, "input error"),
    "NoCAAtoms": (1, "input error"),
    "GeometryError": (2, "geometry error"),
    "AllCollinear": (2, "geometry error"),
    "AllCoplanar": (2, "geometry error"),
    "DegenerateSimplex": (2, "geometry error"),
    "DuplicatePoints": (2, "geometry error"),
    "SolverError": (3, "solver error"),
    "LinearSolveFailure": (3, "solver error"),
    "EigensolveFailure": (3, "solver error"),
    "MatrixTooLarge": (3, "solver error"),
    "NegativeFiltration": (2, "error"),
    "SnapshotOrderViolation": (2, "error"),
}


def _error_types(base):
    for sub in base.__subclasses__():
        yield sub
        yield from _error_types(sub)


@pytest.mark.parametrize("exc_type", list(_error_types(errors.PslapError)),
                         ids=lambda t: t.__name__)
def test_each_error_type_has_its_exit_code(exc_type, monkeypatch, capsys):
    # a type missing from the table fails here, so a new one gets its exit
    # code on purpose
    assert exc_type.__name__ in _EXIT_CODES, f"{exc_type.__name__} has no listed exit code"
    code, label = _EXIT_CODES[exc_type.__name__]

    def fail(args):
        raise exc_type("what went wrong")

    monkeypatch.setattr(cli, "_build", fail)
    assert run("anomaly", "--input", SIX) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"pslap: {label}: what went wrong"]


def test_every_listed_error_type_exists():
    names = {t.__name__ for t in _error_types(errors.PslapError)}
    assert set(_EXIT_CODES) <= names


def test_unwritable_out_is_an_input_error(tmp_path, capsys):
    # a missing output directory is an OSError: exit 1, one stderr line
    out = tmp_path / "missing" / "s.csv"
    assert run("spectra", "--input", SIX, "--out", str(out)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pslap: input error:"), lines
    assert not out.parent.exists()


@pytest.mark.parametrize("command,flag", [
    ("spectra", "--out"), ("spectra", "--json"), ("spectra", "--svg"), ("accumulate", "--out"),
])
def test_output_into_a_missing_directory_fails_before_the_build(
    command, flag, tmp_path, monkeypatch, capsys
):
    # checked before the build: exit 1, one stderr line, and no output
    # written, not even the CSV, which is written before the SVG
    monkeypatch.chdir(tmp_path)
    built = []
    monkeypatch.setattr(cli, "_build", lambda args: built.append(args))
    missing = tmp_path / "missing" / "x"
    outputs = {"--out": "out.csv", flag: str(missing)}
    argv = [command, "--input", SIX, *(a for item in outputs.items() for a in item)]
    if command == "spectra":
        argv += ["--q", "0,1,2"]
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"pslap: input error: {flag} {missing}: no such directory"
    ]
    assert not built and list(tmp_path.iterdir()) == []


def test_failed_svg_leaves_no_output_behind(tmp_path, monkeypatch, capsys):
    # every output is written to a temporary file beside it and moved onto
    # its path only once all are written: an SVG that fails after the CSV
    # and JSON were written leaves neither, nor any temporary
    from pslap import dataio

    written = []

    def failing(records, path, title=""):
        written.extend(sorted(p.name for p in tmp_path.iterdir()))
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr(dataio, "write_curves_svg", failing)
    assert run(
        "spectra", "--input", SIX, "--critical", "--q", "0,1", "--out", str(tmp_path / "s.csv"),
        "--json", str(tmp_path / "s.json"), "--svg", str(tmp_path / "s.svg"),
    ) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pslap: input error:"), lines
    assert len(written) == 2 and all(name.endswith(".tmp") for name in written), written
    assert list(tmp_path.iterdir()) == []


def test_failed_write_names_the_output_path(tmp_path, capsys):
    # a directory where the SVG's temporary file goes makes its open fail
    # (whoever runs the test); the error names the SVG's own path
    svg = tmp_path / "p.svg"
    blocker = tmp_path / f"{svg}.{os.getpid()}-2.tmp"
    blocker.mkdir()
    assert run(
        "spectra", "--input", SIX, "--critical", "--q", "1", "--out", str(tmp_path / "p.csv"),
        "--json", str(tmp_path / "p.json"), "--svg", str(svg),
    ) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "p.svg" in lines[0] and ".tmp" not in lines[0], lines
    assert sorted(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("command", ["spectra", "accumulate"])
def test_outputs_replace_existing_files_whole(command, tmp_path):
    # a second run over the same paths replaces each file and leaves no
    # temporary beside it
    out = tmp_path / "out.csv"
    out.write_text("stale\n")
    argv = [command, "--input", SIX, "--critical", "--out", str(out)]
    assert run(*argv) == 0
    first = out.read_bytes()
    assert first.startswith(b"q,alpha" if command == "spectra" else b"vertex,label")
    assert run(*argv) == 0
    assert out.read_bytes() == first and list(tmp_path.iterdir()) == [out]


def test_spectra_json_and_svg(tmp_path):
    import json

    out = tmp_path / "s.csv"
    js = tmp_path / "s.json"
    svg = tmp_path / "s.svg"
    assert run(
        "spectra", "--input", SIX, "--critical", "--q", "0,1", "--out", str(out),
        "--json", str(js), "--svg", str(svg),
    ) == 0
    payload = json.loads(js.read_text())
    assert payload["metadata"]["input_sha256"]
    assert (tmp_path / "s_q0.svg").exists()
    assert (tmp_path / "s_q1.svg").exists()


def test_validate_six_points(capsys):
    assert run("validate", "--input", SIX, "--p", "0,0.2") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_validate_icosahedron(capsys):
    # near_tie's two shortest edges are 1.5e-12 apart in squared value: the
    # barcode oracle must split them at the same threshold the snapshots do
    for name in ("icosahedron", "near_tie"):
        assert run("validate", "--input", str(DATA / f"{name}.xyz"), "--p", "0") == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and all(row.endswith("PASS") for row in rows), (name, rows)


def test_validate_random_cloud(tmp_path, capsys):
    rng = np.random.default_rng(123)
    f = tmp_path / "r.xyz"
    lines = [f"{x:.9f} {y:.9f} {z:.9f}" for x, y, z in rng.uniform(0, 2, size=(30, 3))]
    f.write_text("\n".join(lines) + "\n")
    assert run("validate", "--input", str(f), "--p", "0,0.3") == 0
    # the triangle (0,0,0), (1,0,0), (2,1e-9,0) is singular to a float solve
    f.write_text("0 0 0\n1 0 0\n2 1e-9 0\n0.3 1.1 0.2\n0.9 0.4 1.3\n1.7 -0.8 0.6\n")
    assert run("validate", "--input", str(f), "--q", "0,1,2", "--p", "0,0.3") == 0


def test_anomaly_defect_chain(capsys):
    assert run("anomaly", "--input", str(DATA / "chain_defect.xyz")) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["5 6 distance 2.900000"]


def test_anomaly_clean_chain(capsys):
    assert run("anomaly", "--input", str(DATA / "chain_clean.xyz")) == 0
    assert capsys.readouterr().out.strip() == "no anomalies"


def test_accumulate_pair(tmp_path):
    out = tmp_path / "acc.csv"
    assert run(
        "accumulate", "--input", str(DATA / "pair.xyz"), "--critical",
        "--out", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "vertex,label,value"
    values = [float(l.split(",")[2]) for l in lines[1:]]
    assert values == [1.0, 1.0]


def test_accumulate_grid_flags(tmp_path):
    # grid flags behave as in cmd_spectra (shared parser)
    out = tmp_path / "acc.csv"
    assert run(
        "accumulate", "--input", SIX, "--alpha-min", "0.1", "--alpha-max", "1.0",
        "--step", "0.05", "--out", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 7  # header + six vertices
    vals = [float(l.split(",")[2]) for l in lines[1:]]
    assert max(vals) == 1.0


def test_pdb_input(tmp_path):
    out = tmp_path / "acc.csv"
    assert run(
        "accumulate", "--input", str(DATA / "mini.pdb"), "--format", "pdb",
        "--critical", "--out", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1].startswith("0,A1,")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run("spectra", "--help")
    assert exc.value.code == 0
    assert "--alpha-min" in capsys.readouterr().out


def test_parser_is_built_once_and_reused(capsys):
    # main builds its parser on the first call and keeps it: a usage error
    # after a successful call still exits 1 with one stderr line, and no
    # value of one call carries into the next
    from pslap import cli

    defect = str(DATA / "chain_defect.xyz")
    assert run("anomaly", "--input", defect) == 0
    parser = cli._parser()
    assert capsys.readouterr().out.strip() == "5 6 distance 2.900000"
    assert run("anomaly", "--input", defect, "--threshold", "x") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pslap: input error:"), lines
    assert run("anomaly", "--input", defect, "--threshold", "2.0") == 0
    assert capsys.readouterr().out.strip() == "no anomalies"
    assert run("anomaly", "--input", defect) == 0
    assert capsys.readouterr().out.strip() == "5 6 distance 2.900000"
    assert cli._parser() is parser
