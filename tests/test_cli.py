"""End-to-end runs of the command line, in process where possible."""

import hashlib
import subprocess
import sys

import pytest

from flagmaps import isomorphic, medial_flag, parse_flg, serialize_flg, torus44
from flagmaps.cli import main
from flagmaps.formats import cube, octahedron, tetrahedron
from flagmaps.names import ALIAS_ENV_VAR

# sha256 of the stdout of `enumerate --k K --census --medial`, k = 1..8
CENSUS_DIGESTS = {
    1: "82601198b38b8ad6eeae0fcb3d78601d228dba798e033426566ee5d0ceed644f",
    2: "abf988c411f9861b83dd4f358ca645bdb9bcde8ddb7a0209ab3130998a3e0443",
    3: "086dec9b7019c1844c49212130192e36fa8313f0ef20473e88c4740ccbc0d6d5",
    4: "347ff725d92ff8c9df36d41ab6d2b6e615a99494f10487641be6ea919a92eb67",
    5: "5392a76040976f3f8a7ee0e9d061c7e6b2dc69547a113b654594beca96aa6bee",
    6: "e02276d79b263c218f116fcdb33633d6303b4c0c7adf864c9e480e1ae7ed0bff",
    7: "cc0ac13401a5116b04de883807b4e2ed54c83cfdd8ee4bb4ed0538fffb48a535",
    8: "d4eafdb6ed50a264b075b340c2c3a5cfc86cb106f170b38e7f295f4e2cdafc6e",
}


def write_map(tmp_path, g, name="input.flg"):
    path = tmp_path / name
    path.write_text(serialize_flg(g), encoding="ascii")
    return str(path)


def test_validate_accepts_a_map(tmp_path, capsys):
    path = write_map(tmp_path, cube())
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == "ok: flg document, size 48\n"


def test_validate_reports_broken_documents(tmp_path, capsys):
    path = tmp_path / "broken.flg"
    path.write_text("flg 1\nn 4\ns0 0 1 2 3\ns1 1 0 3 2\ns2 2 3 0 1\n")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text", [
    # a row that is not a permutation
    "flg 1\nn 4\ns0 1 0 3 2\ns1 1 0 3 3\ns2 2 3 0 1\n",
    # too few flags for a map
    "flg 1\nn 2\ns0 1 0\ns1 1 0\ns2 1 0\n",
], ids=["not-a-permutation", "two-flags"])
def test_analyze_reports_bad_flag_tables(tmp_path, capsys, text):
    path = tmp_path / "bad.flg"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    "stg 1\nn 2\nt0 0 1\nt1 1 1\nt2 0 1\n",
    "xstg 1\nn 2\nt0 1 0\nt1 0 1\nt2 1 0\nd 0 0\n",
], ids=["stg", "xstg"])
def test_validate_reports_bad_type_tables(tmp_path, capsys, text):
    path = tmp_path / "bad.doc"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert "repeats image" in capsys.readouterr().err


def test_validate_reports_non_ascii_bytes(tmp_path, capsys):
    path = tmp_path / "accent.flg"
    path.write_bytes("flg 1 # café\n".encode("utf-8"))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "non-ASCII byte 0xc3 at line 1, column 12" in err
    assert "Traceback" not in err


def test_validate_reports_missing_files(capsys):
    assert main(["validate", "/nonexistent/input.flg"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_analyze_medial_of_cube(tmp_path, capsys):
    path = write_map(tmp_path, medial_flag(cube()))
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    for line in ("flags: 96", "vertices: 12", "edges: 24", "faces: 14",
                 "euler: 2", "orientable: yes", "schlafli: none",
                 "automorphisms: 48", "orbits: 2", "alias: 2_01",
                 "self-dual: no", "medial: yes"):
        assert line in out, line


def test_analyze_twisted_torus(tmp_path, capsys):
    path = write_map(tmp_path, torus44(2, 1, -1, 2))
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    for line in ("flags: 40", "schlafli: {4,4}", "automorphisms: 20",
                 "self-dual: improper", "medial: no"):
        assert line in out, line


ANALYZE_FIELDS = ("flags", "vertices", "edges", "faces", "euler",
                  "orientable", "schlafli", "automorphisms", "orbits",
                  "type", "alias", "self-dual", "self-petrie", "medial")

# the whole analyze report, one value per field in ANALYZE_FIELDS order;
# proper, improper and not self-dual maps, medial and not
ANALYZE_REPORTS = {
    "tetrahedron": (tetrahedron, "24 4 6 4 2 yes {3,3} 24 1 "
                    "stg;1;0;0;0 1 proper no no"),
    "cube": (cube, "48 8 12 6 2 yes {4,3} 48 1 stg;1;0;0;0 1 no no no"),
    "octahedron": (octahedron, "48 6 12 8 2 yes {3,4} 48 1 "
                   "stg;1;0;0;0 1 no no yes"),
    "torus44(3,0,0,3)": (lambda: torus44(3, 0, 0, 3),
                         "72 9 18 9 0 yes {4,4} 72 1 "
                         "stg;1;0;0;0 1 proper no no"),
    "torus44(2,1,-1,2)": (lambda: torus44(2, 1, -1, 2),
                          "40 5 10 5 0 yes {4,4} 20 2 "
                          "stg;2;1,0;1,0;1,0 2 improper no no"),
    "medial of cube": (lambda: medial_flag(cube()),
                       "96 12 24 14 2 yes none 48 2 "
                       "stg;2;0,1;0,1;1,0 2_01 no no yes"),
}


@pytest.mark.parametrize("name", ANALYZE_REPORTS)
def test_analyze_report_is_frozen(tmp_path, capsys, monkeypatch, name):
    monkeypatch.delenv(ALIAS_ENV_VAR, raising=False)
    build, values = ANALYZE_REPORTS[name]
    path = write_map(tmp_path, build())
    assert main(["analyze", path]) == 0
    want = "".join(f"{field}: {value}\n" for field, value
                   in zip(ANALYZE_FIELDS, values.split(), strict=True))
    assert capsys.readouterr().out == want


def test_transform_dual_to_file_and_medial_to_stdout(tmp_path, capsys):
    path = write_map(tmp_path, cube())
    out_path = tmp_path / "dual.flg"
    assert main(["transform", "--op", "dual", path,
                 "-o", str(out_path)]) == 0
    dual = parse_flg(out_path.read_text())
    assert isomorphic(dual, octahedron()) is not None

    assert main(["transform", "--op", "medial", path]) == 0
    text = capsys.readouterr().out
    assert parse_flg(text).s == medial_flag(cube()).s


def test_transform_demedialize_writes_two_maps(tmp_path):
    path = write_map(tmp_path, medial_flag(cube()))
    base = str(tmp_path / "half")
    assert main(["transform", "--op", "demedialize", path,
                 "-o", base]) == 0
    first = parse_flg((tmp_path / "half.a").read_text())
    second = parse_flg((tmp_path / "half.b").read_text())
    assert isomorphic(first, octahedron()) is not None
    assert isomorphic(second, cube()) is not None


def test_transform_demedialize_requires_output(tmp_path, capsys):
    path = write_map(tmp_path, medial_flag(cube()))
    assert main(["transform", "--op", "demedialize", path]) == 2
    assert "needs -o" in capsys.readouterr().err


def test_transform_demedialize_failure_is_an_error(tmp_path, capsys):
    path = write_map(tmp_path, tetrahedron())
    assert main(["transform", "--op", "demedialize", path,
                 "-o", str(tmp_path / "half")]) == 1
    assert "error:" in capsys.readouterr().err


def test_typegraph_stdout_and_dot_output(tmp_path, capsys):
    path = write_map(tmp_path, torus44(2, 1, -1, 2))
    assert main(["typegraph", path]) == 0
    assert capsys.readouterr().out.startswith("stg 1\nn 2\n")

    dot_path = tmp_path / "type.dot"
    assert main(["typegraph", path, "-o", str(dot_path)]) == 0
    assert dot_path.read_text().startswith("graph {")


def test_enumerate_records(capsys):
    assert main(["enumerate", "--k", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert all("polarities=" in line for line in lines)
    assert any("name=2_02" in line for line in lines)


def test_enumerate_table(capsys):
    assert main(["enumerate", "--k", "2", "--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert "name" in lines[0] and "code" in lines[0]


def test_enumerate_census_and_medial_blocks(capsys):
    assert main(["enumerate", "--k", "2", "--census", "--medial"]) == 0
    out = capsys.readouterr().out
    assert "duality counting mode: raw" in out
    assert "medial-types k=2 from-extended=6 union=7 closed-form=holds" in out
    assert sum(1 for line in out.splitlines()
               if line.startswith("medial-code: ")) == 7


@pytest.mark.parametrize("k", sorted(CENSUS_DIGESTS))
def test_enumerate_census_output_is_frozen(capsys, k):
    assert main(["enumerate", "--k", str(k), "--census", "--medial"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_DIGESTS[k]


@pytest.mark.parametrize("content", [
    b"not json", b"[1,2]", "{\"x\": \"café\"}".encode("utf-8"), None,
], ids=["not-json", "not-an-object", "non-ascii", "directory"])
def test_enumerate_reports_bad_alias_files(tmp_path, capsys, monkeypatch,
                                           content):
    path = tmp_path / "aliases.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    monkeypatch.setenv(ALIAS_ENV_VAR, str(path))
    assert main(["enumerate", "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "alias file" in err
    assert "Traceback" not in err


def test_enumerate_dot_directory(tmp_path, capsys):
    out_dir = tmp_path / "dots"
    assert main(["enumerate", "--k", "2", "--format", "dot-dir",
                 "--out", str(out_dir)]) == 0
    assert "wrote 7 DOT files" in capsys.readouterr().out
    files = sorted(p.name for p in out_dir.iterdir())
    assert len(files) == 7
    assert "2_02.dot" in files

    assert main(["enumerate", "--k", "2", "--format", "dot-dir"]) == 2
    assert "--out" in capsys.readouterr().err


def test_enumerate_parallel_in_a_fresh_process():
    proc = subprocess.run(
        [sys.executable, "-m", "flagmaps.cli",
         "enumerate", "--k", "5", "--jobs", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 13


def test_selftest_at_small_depth(capsys):
    assert main(["selftest", "--max-k", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "12/12 criteria passed"
    assert sum(1 for line in lines if line.startswith("PASS")) == 12


USAGE_ERRORS = (
    [],
    ["transform", "--op", "frobnicate", "x.flg"],
    ["enumerate", "--k", "0"],
    ["enumerate", "--k", "-2"],
    ["enumerate", "--k", "two"],
    ["enumerate", "--k", "2", "--jobs", "0"],
    ["enumerate", "--k", "2", "--jobs", "-1"],
    ["selftest", "--max-k", "0"],
    ["selftest", "--max-k", "11"],
    ["selftest", "--jobs", "0"],
)


def test_usage_errors_exit_with_two(capsys):
    for argv in USAGE_ERRORS:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        assert "error:" in capsys.readouterr().err, argv
