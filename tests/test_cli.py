import contextlib
import io
import json

import pytest

from ghwkit.cli import benchmark, parse_code_file, run, serialize_code
from ghwkit.code import make_rm, make_rs
from ghwkit.errors import CodeFileFieldError, CodeFileSyntaxError
from ghwkit.gf import build_field

from support import HAMMING_7_4, PAIR_A_G1

HAM_TEXT = "field: p=2 s=1\n" + "\n".join(
    " ".join(str(x) for x in row) for row in HAMMING_7_4
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def ham_file(tmp_path):
    path = tmp_path / "ham.txt"
    path.write_text(HAM_TEXT + "\n")
    return str(path)


@pytest.fixture
def pair_files(tmp_path):
    f2 = build_field(2)
    rows = lambda m: "\n".join(" ".join(str(x) for x in r) for r in m)
    c1 = tmp_path / "c1.txt"
    c1.write_text("field: p=2 s=1\n" + rows(PAIR_A_G1) + "\n")
    c2 = tmp_path / "c2.txt"
    c2.write_text("field: p=2 s=1\n" + rows(PAIR_A_G1[:3]) + "\n")
    return str(c1), str(c2)


def test_parse_basics():
    C = parse_code_file(HAM_TEXT)
    assert (C.n, C.k, C.field.q) == (7, 4, 2)
    with_comments = "# a header comment\n\n" + HAM_TEXT + "  # trailing\n"
    assert parse_code_file(with_comments).G == C.G


def test_parse_extension_field_and_round_trip():
    for code in (make_rs(build_field(2, 2), 3), make_rs(build_field(5), 2), make_rm(build_field(3), 1, 2)):
        again = parse_code_file(serialize_code(code))
        assert again.G == code.G and again.field == code.field


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CodeFileSyntaxError) as exc:
        parse_code_file("not a header\n1 0\n")
    assert exc.value.line == 1
    with pytest.raises(CodeFileSyntaxError) as exc:
        parse_code_file("field: p=2 s=1\n1 0\n1 x\n")
    assert exc.value.line == 3
    with pytest.raises(CodeFileSyntaxError) as exc:
        parse_code_file("field: p=2 s=1\n1 0\n1 0 1\n")
    assert exc.value.line == 3
    with pytest.raises(CodeFileSyntaxError) as exc:
        parse_code_file("field: p=2 s=1\n1 7\n")
    assert exc.value.line == 2
    with pytest.raises(CodeFileFieldError):
        parse_code_file("field: p=4 s=1\n1 0\n")
    with pytest.raises(CodeFileSyntaxError):
        parse_code_file("field: p=2 s=1\n")
    from ghwkit.errors import RankDeficient

    with pytest.raises(RankDeficient):
        parse_code_file("field: p=2 s=1\n1 1\n1 1\n")


def test_ghw_subcommand(ham_file):
    rc, out, _ = invoke(["ghw", ham_file, "-r", "2"])
    assert rc == 0 and out.strip() == "5"
    rc, out, _ = invoke(["ghw", ham_file, "-r", "2", "--algorithm", "naive"])
    assert rc == 0 and out.strip() == "5"
    rc, out, _ = invoke(["ghw", ham_file, "-r", "2", "--low-mem"])
    assert rc == 0 and out.strip() == "5"


def test_json_schema(ham_file):
    rc, out, _ = invoke(["ghw", ham_file, "-r", "2", "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert set(obj) == {"op", "n", "k", "q", "r", "value", "elapsed_ms"}
    assert obj["op"] == "ghw" and obj["n"] == 7 and obj["k"] == 4 and obj["q"] == 2
    assert obj["r"] == 2 and obj["value"] == 5
    assert isinstance(obj["elapsed_ms"], (int, float))
    # json and text modes agree
    rc, out_text, _ = invoke(["ghw", ham_file, "-r", "2"])
    assert int(out_text.strip()) == obj["value"]


def test_mindist_alias(ham_file):
    rc, out, _ = invoke(["mindist", ham_file])
    assert rc == 0 and out.strip() == "3"
    rc, out, _ = invoke(["ghw", ham_file, "-r", "1"])
    assert out.strip() == "3"


def test_hierarchy_subcommand(tmp_path, ham_file):
    rs_file = tmp_path / "rs13_4.txt"
    rs_file.write_text(serialize_code(make_rs(build_field(13), 4)))
    rc, out, _ = invoke(["hierarchy", str(rs_file)])
    assert rc == 0 and out.strip() == "10 11 12 13"
    rc, out, _ = invoke(["hierarchy", ham_file, "--json"])
    assert json.loads(out)["value"] == [3, 5, 6, 7]
    rc, out, _ = invoke(["hierarchy", ham_file, "--algorithm", "naive"])
    assert out.strip() == "3 5 6 7"


def test_rghw_subcommands(pair_files):
    c1, c2 = pair_files
    rc, out, _ = invoke(["rghw", c1, c2, "-r", "2"])
    assert rc == 0 and out.strip() == "4"
    rc, out, _ = invoke(["rghw", c1, c2, "-r", "2", "--algorithm", "naive"])
    assert out.strip() == "4"
    rc, out, _ = invoke(["rhierarchy", c1, c2])
    assert out.strip() == "2 4"


def test_spectrum_subcommands(ham_file, pair_files):
    rc, out, _ = invoke(["spectrum", ham_file])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r=0: 0:1"
    assert lines[1] == "r=1: 3:7 4:7 7:1"
    rc, out, _ = invoke(["spectrum", ham_file, "--json"])
    obj = json.loads(out)
    assert obj["value"]["0"] == {"0": 1}
    c1, c2 = pair_files
    rc, out, _ = invoke(["rspectrum", c1, c2])
    assert rc == 0 and out.startswith("r=0: 0:1")
    rc, _, err = invoke(["spectrum", ham_file, "--work-limit", "2"])
    assert rc == 1 and "work limit" in err


def test_duality_subcommand():
    rc, out, _ = invoke(["duality", "-n", "7", "3", "5", "6", "7"])
    assert rc == 0 and out.strip() == "4 6 7"
    rc, out, _ = invoke(["duality", "-n", "7", "3", "5", "6", "7", "--json"])
    assert json.loads(out)["value"] == [4, 6, 7]
    rc, _, err = invoke(["duality", "-n", "7", "5", "3"])
    assert rc == 1


def test_verbose_round_lines(ham_file):
    rc, out, err = invoke(["ghw", ham_file, "-r", "1", "--verbose"])
    assert rc == 0
    lines = [l for l in err.splitlines() if l.startswith("w=")]
    assert lines, err
    import re

    for line in lines:
        assert re.match(
            r"^w=\d+ lower=\d+ upper=\d+ mats=\d+ subspaces=\d+ t=\d+(\.\d+)?ms$", line
        ), line


def test_benchmark(tmp_path, ham_file):
    rs_file = tmp_path / "rs5.txt"
    rs_file.write_text(serialize_code(make_rs(build_field(5), 3)))
    rows = benchmark([ham_file, str(rs_file)], r=1)
    assert len(rows) == 2
    for row in rows:
        assert row["value"] > 0 and row["bz_ms"] > 0 and row["naive_ms"] > 0
    csv_path = tmp_path / "bench.csv"
    rc, out, _ = invoke(["benchmark", ham_file, "-r", "1", "--csv", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "code,n,k,q,r,value,bz_ms,naive_ms,speedup"
    assert lines[1].startswith("ham,7,4,2,1,3,")
    assert "speedup" in out


def test_threads_flag(ham_file):
    rc, out, _ = invoke(["--threads", "2", "ghw", ham_file, "-r", "2"])
    assert rc == 0 and out.strip() == "5"
    rc, out, _ = invoke(["--threads", "1", "hierarchy", ham_file])
    assert out.strip() == "3 5 6 7"


def test_benchmark_speedup_at_moderate_scale(tmp_path):
    # at the scale where the bounded search pays off (k = 6, q = 5), the
    # benchmark must report speedup >= 1
    from ghwkit.code import make_rm

    path = tmp_path / "rm5.txt"
    path.write_text(serialize_code(make_rm(build_field(5), 2, 2)))
    rows = benchmark([str(path)], r=2)
    assert rows[0]["speedup"] >= 1.0, rows


def test_help_for_every_subcommand():
    for cmd in ("ghw", "mindist", "hierarchy", "rghw", "rhierarchy", "spectrum", "rspectrum", "duality", "benchmark"):
        rc, out, _ = invoke([cmd, "--help"])
        assert rc == 0 and out.startswith(f"usage: ghwkit {cmd}"), out
        usage = " ".join(out.split("\n\n")[0].split())
        if cmd in ("rghw", "rhierarchy", "rspectrum"):
            assert usage.endswith("code1 code2"), usage


def test_exit_codes(tmp_path, ham_file):
    rc, _, _ = invoke(["ghw", ham_file])  # missing -r
    assert rc == 2
    rc, _, _ = invoke(["nosuchcommand"])
    assert rc == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("field: p=4 s=1\n1 0\n")
    rc, _, err = invoke(["ghw", str(bad), "-r", "1"])
    assert rc == 1 and "error" in err
    rc, _, err = invoke(["ghw", str(tmp_path / "missing.txt"), "-r", "1"])
    assert rc == 1
    rc, _, err = invoke(["ghw", ham_file, "-r", "9"])
    assert rc == 1
