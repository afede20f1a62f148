import contextlib
import io
import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from torictate import laurent, tate
from torictate.cli import main, parse_input, parse_window
from torictate.errors import SchemaError

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def pinned(name):
    with open(os.path.join(os.path.dirname(__file__), "pinned", name)) as fh:
        return fh.read()


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



def _p1p1_line_bundle(a):
    """h^j(P1 x P1, O(a)) for j = 0, 1, 2 by Kunneth, from h^0(O(k)) =
    max(0, k + 1) and h^1(O(k)) = max(0, -k - 1) on P1."""
    h = [lambda k: max(0, k + 1), lambda k: max(0, -k - 1)]
    return [sum(h[p](a[0]) * h[j - p](a[1]) for p in range(2) if 0 <= j - p <= 1)
            for j in range(3)]


def test_dense_curve_table_from_the_line_bundle_sequence(capsys):
    # the (1,1) curve C of p1p1-curves.tate is not monomial, so it runs on
    # the dense Cech path. By 0 -> O(a - (1,1)) -> O(a) -> O_C(a) -> 0,
    # h^0(O_C(a)) = 0 where h^0(O(a)) = h^1(O(a - (1,1))) = 0, and
    # h^1(O_C(a)) = 0 where h^1(O(a)) = h^2(O(a - (1,1))) = 0; the Euler
    # characteristics give the other
    want = {}
    for a in itertools.product(range(-1, 2), repeat=2):
        h, g = _p1p1_line_bundle(a), _p1p1_line_bundle((a[0] - 1, a[1] - 1))
        chi = h[0] - h[1] + h[2] - g[0] + g[1] - g[2]
        if h[0] == g[1] == 0:
            dims = (0, -chi)
        else:
            assert h[1] == g[2] == 0
            dims = (chi, 0)
        want.update({(i, a): v for i, v in enumerate(dims) if v})
    args = [fixture("p1p1-curves.tate"), "--module", "C1", "--window", "-1:1,-1:1"]
    code, out, _ = run_cli(["cohomology"] + args, capsys)
    assert code == 0
    table = {}
    for line in out.splitlines():
        i, a, v = line.split()
        table[int(i), tuple(int(x) for x in a.split(","))] = int(v)
    assert table == want
    # omega_E(-a; i)^n: n generators for h^i at a
    code, out, _ = run_cli(["tate"] + args, capsys)
    assert code == 0
    gens = {}
    for line in out.splitlines():
        twist, n = line[len("omega_E("):].split(")^")
        c, i = twist.split("; ")
        gens[int(i), tuple(-int(x) for x in c.split(","))] = int(n)
    assert gens == want
    code, out, _ = run_cli(["verify"] + args, capsys)
    assert code == 0 and out.startswith("verified")

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
    table = {(i, tuple(a)): v for i, a, v in json.loads(out)["entries"]}
    assert table[(0, (2,))] == 4
    code2, out2, _ = run_cli(["cohomology", fixture("p112.tate"), "--window", "-6:6",
                              "--format", "json"], capsys)
    assert out2 == out  # deterministic byte-for-byte


def test_deterministic_output(capsys):
    a = run_cli(["tate", fixture("p112.tate"), "--window", "-6:6"], capsys)
    b = run_cli(["tate", fixture("p112.tate"), "--window", "-6:6"], capsys)
    assert a == b


@pytest.mark.parametrize("module", ["S", "C", "P"])
def test_rational_document_prints_the_prime_field_answer(module, capsys):
    # p112-qq.tate is p112.tate over QQ; the Tate generators of these
    # modules do not depend on the characteristic
    runs = [run_cli(["tate", fixture(name), "--module", module, "--window", "-4:4"], capsys)
            for name in ("p112.tate", "p112-qq.tate")]
    assert runs[0][0] == 0 and runs[0][1] and runs[0] == runs[1]
    if module == "C":
        assert runs[1][1] == pinned("tate_p112qq_C.out")


def test_rank2_tate_generators_are_pinned(capsys, monkeypatch):
    # no bench command prints the Fourier-Mukai generator list; the tate
    # command prints it from the counted table, so no exponent is
    # enumerated, and its stdout is pinned to the recorded file
    def refuse(*args):
        raise AssertionError("an exponent was enumerated")

    for module in (laurent, tate):
        monkeypatch.setattr(module, "signed_exponents", refuse)
    code, out, _ = run_cli(["tate", fixture("hirz3.tate"), "--module", "H",
                            "--window", "-2:2,-1:1"], capsys)
    assert code == 0 and out == pinned("tate_hirz3_H.out")


@pytest.mark.parametrize("args", [["p112.tate", "--window", "2:2"],
                                  ["p112.tate", "--window", "2:4", "--truncate", "1"],
                                  ["p156-trunc.tate", "--window", "3:4", "--truncate", "2",
                                   "--prime", "7"]])
def test_tate_window_above_the_truncation(args, capsys):
    # the section rows are checked inside the window only
    code, out, err = run_cli(["tate", fixture(args[0])] + args[1:], capsys)
    assert code == 0 and out.startswith("omega_E(") and not err


def test_cohomology_json_stays_in_the_window(capsys):
    # H^0 at a = 0 and 1 lies below the window, as in the text table
    code, out, _ = run_cli(["cohomology", fixture("p112.tate"), "--window", "2:2",
                            "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["entries"] == [[0, [2], 4]]


# fixture -> (its modules, Cl rank)
FUZZ_FIXTURES = {"p1.tate": (["S"], 1), "p12.tate": (["S"], 1),
                 "p112.tate": (["S", "C", "P"], 1), "p112-qq.tate": (["S", "C"], 1),
                 "p156-trunc.tate": (["S", "M"], 1), "hirz1.tate": (["S"], 2),
                 "hirz3.tate": (["S", "H"], 2), "p1p1.tate": (["S"], 2),
                 "p1p1-curves.tate": (["C1", "C2"], 2)}


@st.composite
def command_lines(draw):
    # small windows (one or two degrees wide at Cl rank 2, where the curves
    # take the dense path) over every command, truncation, prime and format
    name = draw(st.sampled_from(sorted(FUZZ_FIXTURES)))
    modules, r = FUZZ_FIXTURES[name]
    ranges = st.tuples(st.integers(-3, 3), st.integers(0, 3 if r == 1 else 1))
    window = ",".join("%d:%d" % (lo, lo + w) for lo, w in [draw(ranges) for _ in range(r)])
    args = [draw(st.sampled_from(["cohomology", "tate", "betti", "diagonal", "regularity",
                                  "oracle", "verify"])),
            fixture(name), "--module", draw(st.sampled_from(modules)), "--window", window]
    for flag, values in (("--truncate", [-3, -2, -1, 0, 1, 2, 4]), ("--prime", [4, 7, 2147483647]),
                         ("--format", ["table", "json"])):
        value = draw(st.sampled_from([None] + values))
        if value is not None:
            args += [flag, str(value)]
    return args


@settings(max_examples=60, deadline=None, derandomize=True)
@given(command_lines())
# module P's H^1_B class at -2 lies above these truncations (exit 3), a
# path the 60 derandomized draws do not reach
@example(["cohomology", fixture("p112.tate"), "--module", "P", "--window", "-3:0", "--truncate", "-2"])
@example(["tate", fixture("p112.tate"), "--module", "P", "--window", "-3:0", "--truncate", "-3",
          "--prime", "7"])
def test_every_command_past_parsing_exits_with_a_documented_code(args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    assert code in (0, 2, 3, 4, 5), args


def test_verify_command(capsys):
    code, out, _ = run_cli(["verify", fixture("p112.tate"), "--window", "-6:6"], capsys)
    assert code == 0 and "agrees" in out


def test_diagonal_command(capsys):
    code, out, _ = run_cli(["diagonal", fixture("p12.tate"), "--verify",
                            "--window", "-6:6"], capsys)
    assert code == 0
    assert "True" in out


def test_unknown_option_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", fixture("p1.tate"), "--threads", "2"])
    assert exc.value.code == 2 and "--threads" in capsys.readouterr().err


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


def _set_prime(doc):
    doc["field"]["prime"] = "x"


def _set_degree(doc):
    doc["variables"][1]["degree"] = ["a"]


def _set_generators(doc):
    doc["modules"]["C"]["generators"] = 5


def _set_irrelevant(doc):
    doc["irrelevant"] = [[0, "z"]]


def _set_relations(doc):
    doc["modules"]["C"]["relations"] = [5]


def _set_cover(doc):
    doc["cover"] = 5


def _set_exponents(doc):
    doc["modules"]["C"]["relations"][0]["entries"][0][0][1] = [4, 0]


def _set_negative_exponent(doc):
    # x1^2 / x0 has the degree of x0 but is no polynomial
    doc["modules"]["C"]["relations"] = [{"degree": [1], "entries": [[[1, [-1, 2, 0]]]]}]


def _set_fractional_coefficient(doc):
    doc["modules"]["C"]["relations"][0]["entries"][0][0][0] = 0.5


def _set_fractional_exponent(doc):
    doc["modules"]["C"]["relations"][0]["entries"][0][0][1] = [4.2, 0, 0]


def _set_fractional_degree(doc):
    doc["variables"][2]["degree"] = [2.5]


def _set_fractional_theta(doc):
    doc["theta"] = [1.5]


def _set_fractional_prime(doc):
    doc["field"]["prime"] = 32003.9


def _set_fractional_irrelevant(doc):
    doc["irrelevant"][0] = [0.7]


def _set_boolean_cl_rank(doc):
    doc["cl_rank"] = True


# a value int() would truncate or accept (0.5 read as 0, True as 1) is no
# JSON integer
@pytest.mark.parametrize("mutate", [_set_prime, _set_degree, _set_generators, _set_irrelevant,
                                    _set_relations, _set_cover, _set_exponents,
                                    _set_negative_exponent, _set_fractional_coefficient,
                                    _set_fractional_exponent, _set_fractional_degree,
                                    _set_fractional_theta, _set_fractional_prime,
                                    _set_fractional_irrelevant, _set_boolean_cl_rank])
def test_exit_code_schema_malformed_document(capsys, tmp_path, mutate):
    # one bad value in an otherwise valid document: exit 2, no traceback
    with open(fixture("p112.tate")) as fh:
        doc = json.load(fh)
    mutate(doc)
    bad = tmp_path / "bad.tate"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(["cohomology", str(bad), "--window", "-2:2"], capsys)
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("module", ["P", "C"])
def test_regularity_with_a_cover_shorter_than_the_variables(capsys, tmp_path, module):
    # two cover sets on P(1,1,2): the vanishing checks run only as far as
    # the Cech complex has levels
    with open(fixture("p112.tate")) as fh:
        doc = json.load(fh)
    doc["cover"] = [[0, 1], [2]]
    short = tmp_path / "short.tate"
    short.write_text(json.dumps(doc))
    code, _, err = run_cli(["regularity", str(short), "--module", module], capsys)
    assert code in (0, 2, 3, 4, 5) and "Traceback" not in err


def test_largest_prime_matches_default(capsys):
    code, out, _ = run_cli(["cohomology", fixture("p1p1.tate"), "--prime", "2147483647"], capsys)
    code0, out0, _ = run_cli(["cohomology", fixture("p1p1.tate")], capsys)
    assert code == code0 == 0 and out == out0


def test_exit_code_precondition(capsys):
    # diagonal on a general rank-2 stack that is not the Hirzebruch-1 model
    code, _, err = run_cli(["diagonal", fixture("hirz3.tate"), "--window", "-2:2,-2:2"], capsys)
    assert code == 3


@pytest.mark.parametrize("irrelevant", [[[0, 2], [1, 3]], [[0, 1], [2, 3]]])
def test_exit_code_precondition_not_hirzebruch1(capsys, tmp_path, irrelevant):
    # the Hirzebruch-1 degrees with another irrelevant ideal are another
    # stack: the hard-coded resolution does not apply
    with open(fixture("hirz1.tate")) as fh:
        doc = json.load(fh)
    doc["irrelevant"] = irrelevant
    other = tmp_path / "other.tate"
    other.write_text(json.dumps(doc))
    code, out, _ = run_cli(["diagonal", str(other)], capsys)
    assert code == 3 and "Hirzebruch" not in out


@pytest.mark.parametrize("args", [["cohomology", "--window", "-9:-7"], ["verify", "--window", "-9:-7"],
                                  ["tate", "--window", "-9:0"]])
def test_truncation_below_a_section_class_exits_3(args, capsys):
    # module P has H^1_B at a = -2, above the truncation at -3: a resolution
    # generator of auxiliary twist 1 there means the section rows cannot be
    # read off M_{>= -3}, a precondition failure with one error line
    code, out, err = run_cli([args[0], fixture("p112.tate"), "--module", "P"] + args[1:]
                             + ["--truncate", "-3"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: H^1_B of the truncation at -3") and err.count("\n") == 1
    assert "raise the truncation" in err


def test_exit_code_window(capsys):
    # a window shorter than the subset-sum reach has no safe degrees
    code, _, err = run_cli(["verify", fixture("p112.tate"), "--window", "0:2"], capsys)
    assert code == 4 and "safe" in err


@pytest.mark.parametrize("args", [["betti", fixture("p112.tate")],
                                  ["oracle", fixture("p112.tate"), "--module", "C"]])
def test_lattice_point_cap_exits_4(args, capsys):
    # degree 2900 of P(1,1,2) has more monomials than toric.points keeps:
    # the refusal is a window too large to certify, one line on stderr
    code, out, err = run_cli(args + ["--window", "2900:2900"], capsys)
    assert code == 4 and out == ""
    assert err.startswith("error: lattice-point region") and err.count("\n") == 1



def test_matrix_over_the_size_budget_exits_4(capsys, monkeypatch):
    # a dense matrix over linalg.MAX_DENSE_CELLS is refused before it is
    # allocated, as a window too small to certify (exit 4) naming its shape:
    # here a 15 x 15 strand matrix that the Fourier-Mukai path's homotopy
    # retract fills in (the Cl = Z path's matrices are entry arrays)
    import torictate.linalg as linalg

    monkeypatch.setattr(linalg, "MAX_DENSE_CELLS", 100)
    code, out, err = run_cli(["cohomology", fixture("hirz3.tate")], capsys)
    assert code == 4 and out == ""
    assert err.startswith("error: a dense ") and "matrix is over the size budget of 100 cells" in err


def test_cone_makes_no_dense_block(capsys, monkeypatch):
    # the cone of the Cl = Z resolution is built and eliminated on entry
    # arrays: at a budget of 2^18 cells, which its largest block (705 x 645
    # on this window) would exceed as a dense matrix, the bench command still
    # prints its reference answer
    import torictate.linalg as linalg

    with open(os.path.join(os.path.dirname(__file__), "..", "bench", "reference.json")) as fh:
        want = json.load(fh)["cohomology_p112_w30"]
    monkeypatch.setattr(linalg, "MAX_DENSE_CELLS", 1 << 18)
    code, out, err = run_cli(["cohomology", fixture("p112.tate"), "--window", "-30:30"], capsys)
    assert (code, out) == (want["exit"], want["stdout"]), err


def test_budget_refusal_while_parsing_exits_4(capsys, monkeypatch):
    # at 4 cells a matrix made while the document is parsed (inside
    # ToricStack or a module's validation) is already refused; the refusal
    # keeps its own exit code, not the malformed-input one (2)
    import torictate.linalg as linalg

    monkeypatch.setattr(linalg, "MAX_DENSE_CELLS", 4)
    code, out, err = run_cli(["oracle", fixture("p1p1-curves.tate"), "--module", "C1"], capsys)
    assert code == 4 and out == ""
    assert "over the size budget of 4 cells" in err


def test_out_of_memory_exits_4(capsys, monkeypatch):
    # an allocation under the size budget that the host cannot back ends the
    # run with exit 4 and one line on stderr, not a traceback
    def exhausted(self, a):
        raise MemoryError

    monkeypatch.setattr(laurent.LocalizedModule, "piece", exhausted)
    code, out, err = run_cli(["oracle", fixture("p1p1-curves.tate"), "--module", "C1",
                              "--window", "0:0,0:0"], capsys)
    assert code == 4 and out == ""
    assert err == "error: out of memory (try a smaller --window)\n"


def run_measured(args):
    """Run the CLI on args in a grandchild interpreter, which writes its
    ru_maxrss as the last line of stderr. A small interpreter in between
    starts it: Linux carries the peak of the memory image that exec
    replaces into ru_maxrss, so a child started straight from the test
    process would report at least that process's own peak."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")] +
        env.get("PYTHONPATH", "").split(os.pathsep))
    script = ("import resource, sys\n"
              "from torictate.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "sys.stderr.write('%d\\n' % resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
              "sys.exit(code)\n")
    relay = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    return subprocess.run([sys.executable, "-c", relay, sys.executable, "-c", script] + args,
                          capture_output=True, text=True, env=env)


def test_dense_cohomology_of_the_22_curve_in_bounded_memory():
    # the (2,2) curve takes the dense Cech path at Cl rank 2; with its
    # reducers kept as sparse normal forms and its strands ranked on sparse
    # rows it peaks far below the 808 MB its dense echelon forms took, and
    # prints the recorded table
    proc = run_measured(["cohomology", fixture("p1p1-curves.tate"),
                         "--module", "C2", "--window", "-2:2,-2:2"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == pinned("cohomology_p1p1curves_C2.out")
    assert int(proc.stderr.split()[-1]) < 64 * 1024  # ru_maxrss is in KiB on Linux


def test_dense_verify_of_the_11_curve_in_bounded_memory():
    # the table and the oracle rank each degree's strand on a Cech complex
    # of its own, so no degree's pieces outlive it; kept for every degree
    # and every t they peaked at 284 MB
    proc = run_measured(["verify", fixture("p1p1-curves.tate"),
                         "--module", "C1", "--window", "-3:3,-3:3"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "verified: Fourier-Mukai path agrees with the Cech oracle at 25 safe degrees\n"
    assert int(proc.stderr.split()[-1]) < 100 * 1024  # ru_maxrss is in KiB on Linux


def test_hirz1_diagonal_in_bounded_memory():
    # the Hirzebruch-1 diagonal ranks its 625 bidegrees in runs of a fixed
    # number of entries; one union of all of them peaked at 155 MB
    with open(os.path.join(os.path.dirname(__file__), "..", "bench", "reference.json")) as fh:
        want = json.load(fh)["diagonal_hirz1"]
    proc = run_measured(["diagonal", fixture("hirz1.tate"), "--verify"])
    assert (proc.returncode, proc.stdout) == (want["exit"], want["stdout"]), proc.stderr
    assert int(proc.stderr.split()[-1]) < 64 * 1024  # ru_maxrss is in KiB on Linux


def test_monomial_oracle_counts_every_exponent(capsys, tmp_path):
    # S/(x0^4 x1^5) on P(1,2) has h^0 = 7 in every degree; the oracle must
    # reach the sections that the relation's exponents push far out
    with open(fixture("p12.tate")) as fh:
        doc = json.load(fh)
    doc["modules"] = {"M": {"relations": [{"degree": [14], "entries": [[[1, [4, 5]]]]}]}}
    path = tmp_path / "p12m.tate"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["oracle", str(path), "--module", "M", "--window", "-6:6"], capsys)
    assert code == 0 and out.splitlines()[1].split() == ["0"] + ["7"] * 13
    code, out, _ = run_cli(["verify", str(path), "--module", "M", "--window", "-6:6"], capsys)
    assert code == 0 and "agrees" in out


@pytest.mark.parametrize("module", ["S", "Q"])
def test_infinite_cech_cohomology_exits_4(capsys, tmp_path, module):
    # over the cover {x0} alone, M_{x0} is infinite dimensional in every
    # degree, for S and for Q = S/(x1) alike
    with open(fixture("p112.tate")) as fh:
        doc = json.load(fh)
    doc["cover"] = [[0]]
    doc["modules"]["Q"] = {"relations": [{"degree": [1], "entries": [[[1, [0, 1, 0]]]]}]}
    path = tmp_path / "cover.tate"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["oracle", str(path), "--module", module, "--window", "-2:2"], capsys)
    assert code == 4 and out == "" and err.startswith("error: ")


def _with_module(tmp_path, name, relation):
    with open(fixture(name)) as fh:
        doc = json.load(fh)
    doc["modules"] = {"Z": {"relations": [relation]}}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ["cohomology", "oracle", "verify"])
def test_relation_vanishing_in_the_field_is_no_relation_p112(capsys, tmp_path, command):
    # 32003 x0 is zero in GF(32003): Z is S, on every path
    path = _with_module(tmp_path, "p112.tate", {"degree": [1], "entries": [[[32003, [1, 0, 0]]]]})
    code, out, _ = run_cli([command, path, "--module", "Z", "--window", "-6:6"], capsys)
    code_s, out_s, _ = run_cli([command, fixture("p112.tate"), "--window", "-6:6"], capsys)
    assert code == code_s == 0 and out == out_s


def test_relation_vanishing_in_the_field_is_no_relation_p1p1(capsys, tmp_path):
    path = _with_module(tmp_path, "p1p1.tate", {"degree": [1, 0], "entries": [[[32003, [1, 0, 0, 0]]]]})
    for command in ("cohomology", "verify"):
        code, out, _ = run_cli([command, path, "--module", "Z", "--window", "-2:2,-2:2"], capsys)
        code_s, out_s, _ = run_cli([command, fixture("p1p1.tate"), "--window", "-2:2,-2:2"], capsys)
        assert code == code_s == 0 and out == out_s


def test_relation_vanishes_only_in_the_running_field(capsys, tmp_path):
    # 7 x0 is S/(x0) at the document's prime and S under --prime 7
    path = _with_module(tmp_path, "p112.tate", {"degree": [1], "entries": [[[7, [1, 0, 0]]]]})
    args = ["oracle", path, "--module", "Z", "--window", "0:6"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and out.splitlines()[1].split() == ["0", "1", "1", "2", "2", "3", "3", "4"]
    code, out, _ = run_cli(args + ["--prime", "7"], capsys)
    assert code == 0 and out.splitlines()[1].split() == ["0", "1", "2", "4", "6", "9", "12", "16"]


def test_exit_code_verification(capsys, monkeypatch):
    # force a disagreement between the paths to exercise exit code 5
    import torictate.cli as cli

    real = cli.oracle_table

    def doctored(module, stack, degrees):
        table = dict(real(module, stack, degrees))
        a = tuple(sorted(degrees)[0])
        table[(0, a)] = table.get((0, a), 0) + 1
        return table

    monkeypatch.setattr(cli, "oracle_table", doctored)
    code, _, err = run_cli(["verify", fixture("p112.tate"), "--window", "-6:6"], capsys)
    assert code == 5 and "mismatch" in err


def test_readme_examples_run(capsys, monkeypatch):
    # every command of README's command-line block exits 0, from the repo root
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "README.md")) as fh:
        commands = [line.split()[1:] for line in fh if line.startswith("torictate ")]
    assert commands
    monkeypatch.chdir(root)
    for args in commands:
        code, _, err = run_cli(args, capsys)
        assert code == 0, (args, err)


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
