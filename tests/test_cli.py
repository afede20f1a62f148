import json
import os
import subprocess
import sys

import pytest

from torictate.cli import main, parse_input, parse_window, read_table
from torictate.errors import SchemaError

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_input_p112():
    with open(fixture("p112.tate")) as fh:
        doc = json.load(fh)
    stack, field, modules = parse_input(doc)
    assert stack.r == 1 and stack.nvars == 3
    assert sorted(modules) == ["C", "P"]


def test_parse_input_rejects_nonpositive_theta():
    doc = {"field": {"prime": 32003}, "cl_rank": 1,
           "variables": [{"degree": [1]}, {"degree": [0]}],
           "irrelevant": [[0], [1]], "theta": [1]}
    with pytest.raises(SchemaError):
        parse_input(doc)


def test_parse_input_validates_deg_I():
    doc = {"field": {"prime": 32003}, "cl_rank": 2,
           "variables": [{"degree": [1, 0]}, {"degree": [-3, 1]},
                          {"degree": [1, 0]}, {"degree": [0, 1]}],
           "irrelevant": [[0, 1], [0, 3], [1, 2], [2, 3]],
           "theta": [1, 4],
           "primitive_collections": [{"vars": [0, 2], "deg_I": [1, 1, 1, 0]}]}
    with pytest.raises(SchemaError):
        parse_input(doc)


def test_parse_input_hirzebruch_fixture():
    with open(fixture("hirz3.tate")) as fh:
        doc = json.load(fh)
    stack, field, modules = parse_input(doc)
    assert len(stack.primitive_collections) == 2


def test_window_parsing():
    w = parse_window("-8:8", 1)
    assert w.lo == (-8,) and w.hi == (8,)
    w2 = parse_window("-2:2,0:3", 2)
    assert w2.lo == (-2, 0) and w2.hi == (2, 3)
    with pytest.raises(SchemaError):
        parse_window("-8:8", 2)
    with pytest.raises(SchemaError):
        parse_window("oops", 1)


def test_cohomology_command_table(capsys):
    code, out, _ = run_cli(["cohomology", fixture("p112.tate"), "--window", "-8:8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    row0 = lines[1].split()
    assert row0[-9:] == ["1", "2", "4", "6", "9", "12", "16", "20", "25"]
    row2 = lines[3].split()
    assert row2[1:6] == ["9", "6", "4", "2", "1"]


def test_betti_command(capsys):
    code, out, _ = run_cli(["betti", fixture("p156-trunc.tate"), "--module", "M",
                            "--window", "-2:20"], capsys)
    assert code == 0
    assert out.strip().splitlines() == [
        "beta_0 at 2 = 1",
        "beta_1 at 3 = 1",
        "beta_1 at 7 = 1",
        "beta_2 at 8 = 1",
    ]


def test_json_round_trip(capsys):
    code, out, _ = run_cli(["cohomology", fixture("p112.tate"), "--window", "-6:6",
                            "--format", "json"], capsys)
    assert code == 0
    table = read_table(out)
    assert table[(0, (2,))] == 4
    code2, out2, _ = run_cli(["cohomology", fixture("p112.tate"), "--window", "-6:6",
                              "--format", "json"], capsys)
    assert out2 == out  # deterministic byte-for-byte


def test_deterministic_output(capsys):
    a = run_cli(["tate", fixture("p112.tate"), "--window", "-6:6"], capsys)
    b = run_cli(["tate", fixture("p112.tate"), "--window", "-6:6"], capsys)
    assert a == b


def test_verify_command(capsys):
    code, out, _ = run_cli(["verify", fixture("p112.tate"), "--window", "-6:6"], capsys)
    assert code == 0 and "agrees" in out


def test_diagonal_command(capsys):
    code, out, _ = run_cli(["diagonal", fixture("p12.tate"), "--verify",
                            "--window", "-6:6"], capsys)
    assert code == 0
    assert "True" in out


def test_exit_code_schema(capsys, tmp_path):
    bad = tmp_path / "bad.tate"
    bad.write_text("{not json")
    code, _, err = run_cli(["cohomology", str(bad)], capsys)
    assert code == 2
    doc = {"field": {"prime": 32003}, "cl_rank": 1,
           "variables": [{"degree": [1]}, {"degree": [0]}],
           "irrelevant": [[0], [1]], "theta": [1]}
    bad2 = tmp_path / "bad2.tate"
    bad2.write_text(json.dumps(doc))
    code2, _, err2 = run_cli(["cohomology", str(bad2)], capsys)
    assert code2 == 2 and "positive" in err2


@pytest.mark.parametrize("args", [
    ["cohomology", fixture("p1p1.tate"), "--prime", "4"],
    ["cohomology", fixture("p1p1.tate"), "--prime", "4294967291"],
    ["cohomology", fixture("p12.tate"), "--prime", "4294967291"],
])
def test_exit_code_schema_bad_prime(capsys, args):
    # only odd primes below 2^31 keep products of reduced entries in int64
    code, _, err = run_cli(args, capsys)
    assert code == 2 and "below 2^31" in err


def test_exit_code_schema_bad_document_prime(capsys, tmp_path):
    with open(fixture("p1p1.tate")) as fh:
        doc = json.load(fh)
    doc["field"]["prime"] = 4
    bad = tmp_path / "bad.tate"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(["cohomology", str(bad)], capsys)
    assert code == 2 and "prime" in err


def test_largest_prime_matches_default(capsys):
    code, out, _ = run_cli(["cohomology", fixture("p1p1.tate"), "--prime", "2147483647"], capsys)
    code0, out0, _ = run_cli(["cohomology", fixture("p1p1.tate")], capsys)
    assert code == code0 == 0 and out == out0


def test_exit_code_precondition(capsys):
    # diagonal on a general rank-2 stack that is not the Hirzebruch-1 model
    code, _, err = run_cli(["diagonal", fixture("hirz3.tate"), "--window", "-2:2,-2:2"], capsys)
    assert code == 3


def test_exit_code_window(capsys):
    # a window shorter than the subset-sum reach has no safe degrees
    code, _, err = run_cli(["verify", fixture("p112.tate"), "--window", "0:2"], capsys)
    assert code == 4 and "safe" in err


def test_exit_code_verification(capsys, monkeypatch):
    # force a disagreement between the paths to exercise exit code 5
    import torictate.cli as cli

    real = cli.oracle_table

    def doctored(module, stack, degrees, imax=None):
        table = dict(real(module, stack, degrees, imax=imax))
        a = tuple(sorted(degrees)[0])
        table[(0, a)] = table.get((0, a), 0) + 1
        return table

    monkeypatch.setattr(cli, "oracle_table", doctored)
    code, _, err = run_cli(["verify", fixture("p112.tate"), "--window", "-6:6"], capsys)
    assert code == 5 and "mismatch" in err


def test_module_command_via_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")] +
        env.get("PYTHONPATH", "").split(os.pathsep))
    out = subprocess.run(
        [sys.executable, "-m", "torictate", "cohomology", fixture("p1.tate"),
         "--window", "-4:4"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "1" in out.stdout
