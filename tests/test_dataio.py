import pathlib

import numpy as np
import pytest

from conftest import read_spectra_csv
from pslap.dataio import (
    read_pdb_ca,
    read_xyz,
    write_curves_svg,
    write_spectra_csv,
    write_spectra_json,
)
from pslap.errors import MixedDimensions, NoCAAtoms, ParseError
from pslap.spectra import SpectrumRecord

DATA = pathlib.Path(__file__).parent / "data"


def test_read_xyz_basic(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("0 0\n1 0\n0 1\n")
    ps = read_xyz(p)
    assert ps.coords.shape == (3, 2)
    p.write_bytes(b"\xef\xbb\xbf0 0\n1 0\n0 1\n")  # UTF-8 byte-order mark
    assert np.array_equal(read_xyz(p).coords, ps.coords)


def test_read_xyz_comments(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("# header\n0 0 0\n\n# mid comment\n1 2 3\n")
    ps = read_xyz(p)
    assert ps.coords.shape == (2, 3)
    assert np.array_equal(ps.coords[1], [1, 2, 3])


def test_read_xyz_mixed_dimensions(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("0 0\n1 2 3\n")
    with pytest.raises(MixedDimensions):
        read_xyz(p)


def test_read_xyz_parse_error_reports_line(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("0 0\nfoo bar\n")
    with pytest.raises(ParseError, match=":2"):
        read_xyz(p)
    p.write_text("0 0 0 0\n")
    with pytest.raises(ParseError, match=":1"):
        read_xyz(p)
    # non-finite coordinates and undecodable bytes are parse errors too
    for bad in ("nan 0", "0 inf", "-inf 1 2", "1e999 0"):
        p.write_text(f"0 0\n# ok\n{bad}\n")
        with pytest.raises(ParseError, match=":3"):
            read_xyz(p)
    p.write_bytes(b"0 0\n1 \xff\n")
    with pytest.raises(ParseError, match=":2"):
        read_xyz(p)
    p.write_bytes(b"# caf\xe9\n0 0\n")
    with pytest.raises(ParseError, match=":1"):
        read_xyz(p)


def test_read_pdb_ca_fixture():
    ps = read_pdb_ca(DATA / "mini.pdb")
    # model 1 only, ATOM records only, altLoc ' ' or 'A' only
    assert len(ps) == 5
    assert np.allclose(ps.coords[0], [11.639, 6.071, -5.147])
    assert np.allclose(ps.coords[1], [8.610, 6.586, -2.910])
    assert ps.labels == ("A1", "A2", "B3", "B4", "B5")


def test_read_pdb_ca_chain_filter():
    ps = read_pdb_ca(DATA / "mini.pdb", chain_filter="A")
    assert len(ps) == 2
    with pytest.raises(NoCAAtoms):
        read_pdb_ca(DATA / "mini.pdb", chain_filter="Z")


def test_read_pdb_no_ca(tmp_path):
    p = tmp_path / "e.pdb"
    p.write_text("HEADER    EMPTY\nEND\n")
    with pytest.raises(NoCAAtoms):
        read_pdb_ca(p)


def test_read_pdb_touching_columns(tmp_path):
    # fixed-width fields with no separating whitespace must still parse
    p = tmp_path / "t.pdb"
    line = (
        "ATOM      1  CA  ALA A   1    "
        "1234.5678901.2345678.901"
        "  1.00  0.00           C"
    )
    p.write_text(line + "\n")
    ps = read_pdb_ca(p)
    assert np.allclose(ps.coords[0], [1234.567, 8901.234, 5678.901])
    # a UTF-8 byte-order mark must not hide the record on line 1
    p.write_bytes(b"\xef\xbb\xbf" + line.encode() + b"\n")
    assert np.array_equal(read_pdb_ca(p).coords, ps.coords)


def test_read_pdb_non_finite_coordinate(tmp_path):
    p = tmp_path / "n.pdb"
    good = "ATOM      1  CA  ALA A   1      11.639   6.071  -5.147  1.00  0.00           C"
    bad = "ATOM      2  CA  GLY A   2         nan   6.586  -2.910  1.00  0.00           C"
    p.write_text(good + "\n" + bad + "\n")
    with pytest.raises(ParseError, match=":2"):
        read_pdb_ca(p)


def test_read_pdb_truncated_ca_record(tmp_path):
    # a CA record that ends before the altLoc column, or before the chain id
    p = tmp_path / "t.pdb"
    good = "ATOM      1  CA  ALA A   1      11.639   6.071  -5.147  1.00  0.00           C"
    for short in ("ATOM      2  CA", "ATOM      2  CA  GLY", "ATOM      2  CA  GLY "):
        for end in ("\n", ""):
            p.write_text(good + "\n" + short + end)
            with pytest.raises(ParseError, match=r"t\.pdb:2: truncated"):
                read_pdb_ca(p)


def _records():
    return [
        SpectrumRecord(0, 0.6, 0.0, (0.0, 1.0), 1, 1.0, 6),
        SpectrumRecord(2, 0.6, 0.0, (3.0,), 0, 3.0, 1),
        SpectrumRecord(1, 0.9, 0.0, (), 0, None, 0, flags=("gap_ambiguous",)),
    ]


def test_write_spectra_csv_content(tmp_path):
    out = tmp_path / "s.csv"
    write_spectra_csv(_records(), out)
    text = out.read_text()
    assert "0,0.6,0,6,1,1," in text
    assert "2,0.6,0,1,0,3," in text
    assert "gap_ambiguous" in text
    # absent lambda leaves the field empty
    assert "1,0.9,0,0,0,,gap_ambiguous" in text


def test_write_spectra_csv_empty(tmp_path):
    out = tmp_path / "s.csv"
    write_spectra_csv([], out)
    assert out.read_text() == "q,alpha,p,n_simplices,betti,lambda_min_nonzero,flags\n"


def test_csv_round_trip(tmp_path):
    out = tmp_path / "s.csv"
    recs = [
        SpectrumRecord(1, 0.123456789, 0.25, (0.0, 0.5), 1, 0.5000001234567, 2),
        SpectrumRecord(0, 1.5, 0.25, (0.0,), 1, None, 1),
    ]
    write_spectra_csv(recs, out)
    back = read_spectra_csv(out)
    assert [(r.q, r.betti, r.p, r.n_simplices) for r in back] == [
        (0, 1, 0.25, 1),
        (1, 1, 0.25, 2),
    ]
    # lambda preserved well beyond 6 significant digits (full precision output)
    assert np.isclose(back[1].lambda_min_nonzero, 0.5000001234567, rtol=1e-15)
    # write -> read -> write is byte-stable
    out2 = tmp_path / "s2.csv"
    write_spectra_csv(back, out2)
    assert out.read_text() == out2.read_text()


def test_json_envelope(tmp_path):
    import json

    out = tmp_path / "s.json"
    write_spectra_json(_records(), out, metadata={"input": "x.xyz"})
    payload = json.loads(out.read_text())
    assert payload["tool"] == "pslap"
    assert payload["metadata"]["input"] == "x.xyz"
    assert [r["q"] for r in payload["records"]] == [0, 1, 2]
    assert payload["records"][0]["eigenvalues"] == [0.0, 1.0]


def test_json_bytes_are_the_indented_dump(tmp_path):
    # the writer lays the payload out as json.dump(indent=1, sort_keys=True)
    # does, byte for byte: absent lambda, empty and nonempty eigenvalue and
    # flag lists, exact zeros, and non-ASCII metadata text
    import json

    records = _records() + [
        SpectrumRecord(1, 0.3, 0.5, (0.0, 0.0, 1e-300, 2.5), 2, 1e-300, 4),
        SpectrumRecord(2, 0.1, 0.5, (), 0, None, 0, ("failed:EigensolveFailure",)),
        SpectrumRecord(0, 2.0, 0.5, (0.0,), 1, None, 1, ("gap_ambiguous", "x, y")),
    ]
    metadata = {"input": "données/ψ 蛋白.pdb", "alphas": [0.1, 1.0 / 3.0], "p": 0.5,
                "seed": 0, "empty": [], "nested": {}}
    for meta in (metadata, None):
        out, expected = tmp_path / "s.json", tmp_path / "expected.json"
        write_spectra_json(records, out, metadata=meta)
        payload = {
            "tool": "pslap",
            "version": "0.1.0",
            "metadata": meta or {},
            "records": [
                {"q": r.q, "alpha": r.alpha, "p": r.p, "n_simplices": r.n_simplices,
                 "betti": r.betti, "lambda_min_nonzero": r.lambda_min_nonzero,
                 "eigenvalues": list(r.eigenvalues), "flags": list(r.flags)}
                for r in sorted(records, key=lambda r: (r.q, r.alpha))
            ],
        }
        with open(expected, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        assert out.read_bytes() == expected.read_bytes()


def test_svg_deterministic(tmp_path):
    recs = [
        SpectrumRecord(1, 0.4, 0.0, (), 1, 0.8, 3),
        SpectrumRecord(1, 0.6, 0.0, (), 1, 1.1, 3),
        SpectrumRecord(1, 0.8, 0.0, (), 0, 1.6, 3),
    ]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    write_curves_svg(recs, a)
    write_curves_svg(recs, b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2  # betti step + lambda line


def test_svg_step_drop_and_edge_cases(tmp_path, six_complex):
    from pslap.alpha import critical_alphas
    from pslap.spectra import sweep

    crit = critical_alphas(six_complex)
    recs = sweep(six_complex, [1], crit, p=0.0)
    out = tmp_path / "six.svg"
    write_curves_svg(recs, out, title="q=1")
    text = out.read_text()
    assert "<svg" in text and "</svg>" in text
    # golden snapshot: stable bytes across releases
    golden = DATA / "six_q1.svg"
    if golden.exists():
        assert out.read_bytes() == golden.read_bytes()

    # single record: no crash, still a valid document
    write_curves_svg([SpectrumRecord(1, 0.5, 0.0, (), 2, None, 4)], tmp_path / "one.svg")
    assert (tmp_path / "one.svg").read_text().count("<svg") == 1

    # all-zero betti: right axis still rendered
    write_curves_svg(
        [SpectrumRecord(0, 0.2, 0.0, (), 0, 0.4, 2), SpectrumRecord(0, 0.5, 0.0, (), 0, 0.9, 2)],
        tmp_path / "z.svg",
    )
    assert "lambda_min_nonzero" in (tmp_path / "z.svg").read_text()


def test_svg_rejects_mixed_dimensions(tmp_path):
    recs = [
        SpectrumRecord(0, 0.4, 0.0, (), 1, None, 1),
        SpectrumRecord(1, 0.4, 0.0, (), 1, None, 1),
    ]
    with pytest.raises(ValueError):
        write_curves_svg(recs, tmp_path / "m.svg")
