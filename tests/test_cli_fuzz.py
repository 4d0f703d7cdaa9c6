"""Property tests for the ``ss``, ``spectrum``, ``m4``, ``gates``,
``construct``, ``tables``, ``analyze`` and ``splus`` command lines: every
argv, every generator file, every trace-table file and every descriptor file
gives a report or a documented refusal.

Hypothesis drives ``cli.main`` in process, derandomized with a bounded
example count and a small HYPERMONO_CAP, so every run checks the same inputs
and the file stays within a few seconds.  Each run either exits 0 with a
schema ``hypermono/1`` report on stdout (or in the ``--out`` file), or exits
2 (validation), 3 (cap) or 4 (oracle), and for ``m4``, ``brauerp --tables``
and ``--out`` also 1 (I/O), with one stderr line and nothing on stdout.  An
exception that escapes ``main`` fails the test with its traceback.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermono.algebra.cyc import zeta
from hypermono.cli import main

DATA = Path(__file__).parent / "data"
CAP = "2000"
# past the cap: a prime above 2 cap, two primes whose trial division passes
# it, and an exponent whose q^n has more bits than the cap
PAST_CAP = [4099, 10**9 + 7, 10**18 + 3, 10**4]


def with_past_cap(values):
    """values, or now and then one of PAST_CAP."""
    return st.one_of(values, st.sampled_from(PAST_CAP))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    family=st.sampled_from(["linear", "unitary", "symplectic", "extraspecial"]),
    n=with_past_cap(st.integers(-1, 4)),
    q=with_past_cap(st.integers(-1, 9)),
    exhaustive=st.booleans(),
)
@example(family="symplectic", n=2, q=7, exhaustive=True)  # a model table of 49^3 entries, above the cap
@example(family="unitary", n=4, q=4, exhaustive=True)  # 470 classes, walks above the cap
@example(family="linear", n=4, q=3, exhaustive=True)  # 78 classes, walks above the cap
def test_ss_reports_or_refuses(family, n, q, exhaustive):
    check_report_or_refusal(["ss", family, str(n), str(q)] + (["--exhaustive"] if exhaustive else []))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    family=st.sampled_from(["linear", "unitary"]),
    n=with_past_cap(st.integers(-1, 4)),
    q=with_past_cap(st.integers(-1, 9)),
    index=st.integers(-1, 10),
)
@example(family="linear", n=4, q=7, index=1)  # torus order 2400: its square passes the cap
@example(family="unitary", n=3, q=3, index=3)  # torus order 28, the largest index
def test_spectrum_reports_or_refuses(family, n, q, index):
    check_report_or_refusal(["spectrum", family, str(n), str(q), "--index", str(index)])


small = with_past_cap(st.integers(-1, 12)).map(str)


@st.composite
def gate_argvs(draw):
    """argv for the integer gates: landau, ppd, chain and bounds."""
    gate = draw(st.sampled_from(["landau", "ppd", "chain", "bounds"]))
    arity = {"landau": 1, "ppd": 2, "chain": 4, "bounds": 2}[gate]
    argv = ["gates", gate] + [draw(small) for _ in range(arity)]
    if gate == "bounds" and draw(st.booleans()):
        argv += ["--index", draw(small)]
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(argv=gate_argvs())
@example(argv=["gates", "landau", "0"])
@example(argv=["gates", "ppd", "1", "3"])
def test_gates_reports_or_refuses(argv):
    check_report_or_refusal(argv)


LIE_TAGS = ["Linear", "Unitary", "Symplectic", "OrthogonalPlus", "OrthogonalMinus"]
OTHER_TAGS = ["Alternating", "Sporadic", "ExtraspecialNormalizer", "Dihedral"]


@st.composite
def family_gate_argvs(draw):
    """argv for ``gates meo`` or ``gates charsheaf``: any tag, small n, q or p
    (prime powers first, then the invalid ones), and now and then a missing
    argument.  Lie tags are drawn twice as often, since only they and the
    sporadic names carry meo data."""
    tag = draw(st.sampled_from(LIE_TAGS * 2 + OTHER_TAGS))
    n = str(draw(with_past_cap(st.integers(-1, 5))))
    q = str(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 6, 1, 0, -1] + PAST_CAP)))
    if tag == "Sporadic":
        family = [tag, draw(st.sampled_from(["M", "J1", "Fi24'", "M11", "Co1", "PSL3(4)", "G2(3)", "Monster"]))]
    elif tag == "Alternating":
        family = [tag, n]
    elif tag == "ExtraspecialNormalizer":
        family = [tag, q, n] + ([draw(st.sampled_from(["+", "-"]))] if draw(st.booleans()) else [])
    else:
        family = [tag, n, q]
    if draw(st.integers(0, 7)) == 0:
        family.pop()
    if draw(st.booleans()):
        return ["gates", "meo"] + family
    return ["gates", "charsheaf", draw(small)] + family


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(argv=family_gate_argvs())
@example(argv=["gates", "meo", "Unitary", "1", "2"])  # the formula gives meo 1.5
@example(argv=["gates", "meo", "OrthogonalPlus", "1", "2"])  # ... and min_dim -1
@example(argv=["gates", "meo", "Linear", "3", "3"])  # a report
def test_family_gates_report_or_refuse(argv):
    report = check_report_or_refusal(argv)
    if report is not None and argv[1] == "meo":
        for key in ("meo", "min_dim"):
            value = report["result"][key]
            assert type(value) is int and value >= 1, (argv, report["result"])


@st.composite
def construct_argvs(draw):
    """argv for the sawin, alt2 and F_N descriptor factories."""
    kind = draw(st.sampled_from(["sawin", "alt2", "F_N"]))
    if kind == "sawin":
        argv = ["construct", "sawin", draw(small), draw(small), draw(small)]
        side = draw(st.sampled_from([None, "quotient-at-C", "quotient-at-A", "i", "ii"]))
        return argv + ([] if side is None else ["--side", side])
    if kind == "F_N":
        return ["construct", "special", "F_N", draw(small), "--N", draw(small)]
    argv = ["construct", "alt2", draw(small), draw(small)]
    return argv + ([] if draw(st.booleans()) else ["--k", draw(small)])


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(argv=construct_argvs())
@example(argv=["construct", "sawin", "-1", "1", "2"])  # A + B = 0: its p'-part has no end
@example(argv=["construct", "sawin", "0", "1", "2", "--side", "ii"])  # A = 0, the same on side (ii)
@example(argv=["construct", "alt2", "12", "3", "--k", "1"])  # the M11 exception of the k = 1 family
def test_construct_reports_or_refuses(argv):
    check_report_or_refusal(argv)


def root_entry(k, e):
    """zeta_e^k as a generator-file entry: "k/e", or a cyclotomic literal,
    or an integer when it is +-1."""
    if (2 * k) % e == 0:
        return 1 if k % e == 0 else -1
    if k % 2:
        return f"{k}/{e}"
    return {"conductor": e, "coeffs": list((zeta(e) ** k).num)}


@st.composite
def generator_files(draw):
    """A generator file's text: monomial matrices with root-of-unity entries,
    or with one entry that is no root of unity, or integer matrices, or a
    singular, ragged, non-square, misshapen or unparsable body."""
    kinds = ["monomial", "non_root", "integer", "singular", "ragged", "non_square", "shape", "json"]
    kind = draw(st.sampled_from(kinds))
    if kind == "json":
        return draw(st.sampled_from(["", "{", '{"matrices": [[[1]]]', "[1, 2", "{matrices: []}", "nan"]))
    if kind == "shape":
        bodies = [[], {}, {"matrices": []}, {"matrices": 5}, {"matrices": [[]]}, {"matrices": [[[True]]]},
                  {"matrices": [[[1.0]]]}, {"matrices": [[["1/0"]]]}, {"matrices": [[[{"conductor": 3}]]]}]
        return json.dumps(draw(st.sampled_from(bodies)))
    n = draw(st.integers(1, 3))
    e = draw(st.sampled_from([1, 2, 3, 4, 6]))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        if kind == "integer":
            mat = [draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)) for _ in range(n)]
        else:
            perm = draw(st.permutations(range(n)))
            mat = [[0] * n for _ in range(n)]
            for col, row in enumerate(perm):
                mat[row][col] = root_entry(draw(st.integers(0, e - 1)), e)
        mats.append(mat)
    mat = mats[draw(st.integers(0, len(mats) - 1))]
    row = draw(st.integers(0, n - 1))
    if kind == "non_root":
        col = next(c for c in range(n) if mat[row][c] != 0)
        non_roots = [2, -3, {"conductor": 1, "coeffs": [1], "den": 2}, {"conductor": 4, "coeffs": [1, 1]},
                     {"conductor": 3, "coeffs": [0, 1], "den": 2}]
        mat[row][col] = draw(st.sampled_from(non_roots))
    elif kind == "singular":
        mat[row] = [0] * n
    elif kind == "ragged":
        mat[row] = mat[row] + [0]
    elif kind == "non_square":
        mats = [[r + [0] for r in m] for m in mats]
    return json.dumps({"matrices": mats})


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(text=generator_files())
@example(text=json.dumps({"matrices": [[["1/7", 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
                                       [[0, 1, 0], [1, 0, 0], [0, 0, 1]]]}))  # monomial, order 2058 > cap
@example(text='{"matrices": [[[2]]]}')  # infinite cyclic: stops at the cap
@example(text='{"matrices": [[[1, 0], [0, 1]]')  # unparsable: exit 1
def test_m4_reports_or_refuses(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "generators.json")
        with open(path, "w") as fh:
            fh.write(text)
        check_report_or_refusal(["m4", path], refusals=(1, 2, 3, 4))


@st.composite
def trace_table_files(draw):
    """A ``gates brauerp --tables`` file's text: two well-formed tables over
    one list of class ids (1A's trace the degree, the flags shared, type1's
    D table1's degree, integer traces or literals inside the cap), and in
    most files one defect: a degree that is a bool, a float or a str, a
    class id that is an int, a p_class that is an int, a trace that is a
    float, a bool or a literal past the cap, a type1 of length 1 or 3, or a
    key left out of the file, a table or a class."""
    ids = draw(st.lists(st.sampled_from(["1A", "2A", "3A"]), min_size=1, max_size=3, unique=True))
    flags = {cid: draw(st.booleans()) for cid in ids}
    in_cap = st.one_of(st.integers(-2, 2), st.sampled_from([{"conductor": 3, "coeffs": [0, 1]},
                                                           {"conductor": 4, "coeffs": [1, 1], "den": 2}]))

    def table():
        degree = draw(st.integers(1, 4))
        classes = [{"id": cid, "p_class": flags[cid], "trace": degree if cid == "1A" else draw(in_cap)} for cid in ids]
        return {"degree": degree, "classes": classes}

    body = {"table1": table(), "table2": table()}
    body["type1"] = [body["table1"]["degree"], draw(st.integers(1, 4))]
    table = body[draw(st.sampled_from(["table1", "table2"]))]
    row = draw(st.sampled_from(table["classes"]))
    defect = draw(st.sampled_from([None, "degree", "id", "p_class", "trace", "type1", "missing"]))
    if defect == "degree":
        table["degree"] = draw(st.sampled_from([True, 2.0, "2"]))
    elif defect == "id":
        row["id"] = 3
    elif defect == "p_class":
        row["p_class"] = int(row["p_class"])
    elif defect == "trace":
        past_cap = {"conductor": draw(st.sampled_from(PAST_CAP)), "coeffs": [1]}
        row["trace"] = draw(st.sampled_from([1.0, 0.5, True, False, past_cap]))
    elif defect == "type1":
        body["type1"] = draw(st.sampled_from([body["type1"][:1], body["type1"] + [2]]))
    elif defect == "missing":
        parent = draw(st.sampled_from([body, table, row]))
        del parent[draw(st.sampled_from(sorted(parent)))]
    return json.dumps(body)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(text=trace_table_files())
@example(text=json.dumps({"table1": {"degree": 2, "classes": [{"id": "1A", "p_class": True, "trace": 2}]},
                          "table2": {"degree": 3, "classes": [{"id": "1A", "p_class": True, "trace": 3}]},
                          "type1": [2, 1]}))  # a report: type2 [3, 2]
@example(text=json.dumps({"table1": {"degree": 2, "classes": [{"id": "1A", "p_class": True, "trace": 2}]},
                          "table2": {"degree": 3, "classes": [{"id": "1A", "p_class": True,
                                                               "trace": {"conductor": 4099, "coeffs": [1]}}]},
                          "type1": [2, 1]}))  # a conductor past the cap: exit 3
def test_brauerp_tables_report_or_refuse(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tables.json")
        with open(path, "w") as fh:
            fh.write(text)
        check_report_or_refusal(["gates", "brauerp", "--tables", path], refusals=(1, 2, 3))


TABLES = json.dumps({"table1": {"degree": 2, "classes": [{"id": "1A", "p_class": True, "trace": 2}]},
                     "table2": {"degree": 3, "classes": [{"id": "1A", "p_class": True, "trace": 3}]},
                     "type1": [2, 1]})
CHIS = ["1/3", "2/5", "-1/4", "1/2", "0", "3", "1/0", "x", "1/100000001"]
# --out: none, a writable file, a path in no directory, or a directory
OUTS = st.sampled_from([None, "report.json", "no_such_dir/report.json", "."])


@st.composite
def brauerp_argvs(draw):
    """``gates brauerp`` with none, one or both of --m11 and --tables FILE
    (a trace-table file, a descriptor file or no file)."""
    argv = ["gates", "brauerp"] + (["--m11"] if draw(st.booleans()) else [])
    if draw(st.booleans()):
        argv += ["--tables", draw(st.sampled_from(["tables.json", "m11_row.json", "no_such_tables.json"]))]
    return argv


@st.composite
def g_d_argvs(draw):
    """``construct special G_D`` over a small p, a prime three times in
    four, with a drawn --D and --chi, each now and then left out, and now
    and then a stray --N."""
    p = draw(with_past_cap(st.sampled_from([2, 3, 5, 7, 11] * 3 + [4, 1, 0, -1])))
    argv = ["construct", "special", "G_D", str(p)]
    if draw(st.integers(0, 3)) < 3:
        argv += ["--D", str(draw(with_past_cap(st.sampled_from([7, 3, 5, 2, 1, 12, 0, -1]))))]
    if draw(st.integers(0, 3)) < 3:
        argv.append(f"--chi={draw(st.sampled_from(CHIS))}")  # argparse would read a lone -1/4 as an option
    if draw(st.integers(0, 3)) == 3:
        argv += ["--N", draw(small)]
    return argv


@st.composite
def tables_argvs(draw):
    """``tables 1|2|3`` with and without --check."""
    return ["tables", draw(st.sampled_from(["1", "2", "3"]))] + (["--check"] if draw(st.booleans()) else [])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(argv=brauerp_argvs(), out=OUTS)
@example(argv=["gates", "brauerp", "--m11", "--tables", "tables.json"], out=None)  # both: exit 2
@example(argv=["gates", "brauerp", "--tables", "tables.json"], out="report.json")  # a report: type2 [3, 2]
def test_brauerp_flags_report_or_refuse(argv, out):
    check_with_out(argv, out)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(argv=g_d_argvs(), out=OUTS)
@example(argv=["construct", "special", "G_D", "5", "--D", "7", "--chi=1/3"], out="report.json")  # a report
@example(argv=["construct", "special", "G_D", "5", "--D", "7", "--chi=1/3"], out=".")  # it cannot be written
def test_g_d_flags_report_or_refuse(argv, out):
    check_with_out(argv, out)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(argv=tables_argvs(), out=OUTS)
@example(argv=["tables", "3", "--check"], out="no_such_dir/report.json")  # a report that cannot be written
def test_tables_flags_report_or_refuse(argv, out):
    check_with_out(argv, out)


def check_with_out(argv, out):
    """Run argv, with ``--out`` in a fresh directory when out is drawn: each
    run writes its report (to stdout, or to --out when that opens) or
    refuses with one line, exit 1 among the refusals."""
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "tables.json"), "w") as fh:
            fh.write(TABLES)
        files = {"tables.json": os.path.join(tmp, "tables.json"), "m11_row.json": str(DATA / "m11_row.json"),
                 "no_such_tables.json": os.path.join(tmp, "no_such_tables.json")}
        argv = [files.get(a, a) for a in argv]
        if out is not None:
            argv = ["--out", os.path.normpath(os.path.join(tmp, out))] + argv
        report = check_report_or_refusal(argv, refusals=(1, 2, 3, 4))
        if out not in (None, "report.json"):
            assert report is None


# operands of the charset grammar, well-formed first, and its operators
OPERANDS = ["Char(6)", "Char*(5)", "xi(4)", "xi(3)^-1", "{1}", "{1/2, 1/3}", "1/4", "-1/3", "2"]
BAD_OPERANDS = ["Char(0)", "Char*(100000000)", "xi(0)", "{}", "{1/0}", "{a}", "1/0", "x", "("]
OPERATORS = ["|", "\\", "*"]


@st.composite
def descriptor_files(draw):
    """A descriptor file's text: "p" from a small mixed list, and sides of
    charset strings, most in the grammar's shape (an operand, then operator
    and operand pairs) and the rest any run of tokens, with now and then a
    malformed operand; now and then a body of the wrong shape."""
    if draw(st.integers(0, 7)) == 0:
        return json.dumps(draw(st.sampled_from([[], 5, {"p": 3, "upstairs": "Char(5)"}, {"p": 3, "upstairs": [5]}])))
    operand = st.sampled_from(OPERANDS * 4 + BAD_OPERANDS)

    def charset():
        if draw(st.integers(0, 3)):
            tokens = [draw(operand)]
            for _ in range(draw(st.integers(0, 2))):
                tokens += [draw(st.sampled_from(OPERATORS)), draw(operand)]
        else:
            tokens = draw(st.lists(st.sampled_from(OPERANDS + BAD_OPERANDS + OPERATORS), min_size=1, max_size=4))
        return " ".join(tokens)

    p = draw(st.sampled_from([2, 3, 5, 7, 11] * 4 + [4, 1, 0, -3, 3.5, "3", True, None]))
    body = {"p": p, "upstairs": [charset() for _ in range(draw(st.integers(1, 2)))]}
    if draw(st.booleans()):
        body["downstairs"] = [charset()]
    return json.dumps(body)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(text=descriptor_files(), command=st.sampled_from(["analyze", "splus"]))
@example(text=json.dumps({"p": 3, "upstairs": ["Char*(5)"], "downstairs": ["xi(4)"]}), command="analyze")  # a report
@example(text=json.dumps({"p": 3, "upstairs": ["Char(6)|"]}), command="splus")  # a dangling union
def test_descriptor_reports_or_refuses(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "descriptor.json")
        with open(path, "w") as fh:
            fh.write(text)
        check_report_or_refusal([command, path])


def check_report_or_refusal(argv, refusals=(2, 3, 4)):
    """The report of an exit-0 run, or None after a documented refusal.  An
    argv that starts with ``--out FILE`` reports into FILE, not stdout."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HYPERMONO_CAP", CAP)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    if code == 0:
        if argv[0] == "--out":
            assert out.getvalue() == ""
            with open(argv[1]) as fh:
                out = io.StringIO(fh.read())
            argv = argv[2:]
        report = json.loads(out.getvalue())
        command = "/".join(argv[:2]) if argv[0] in ("gates", "construct", "tables") else argv[0]
        assert report["schema"] == "hypermono/1" and report["command"] == command
        assert err.getvalue() == ""
        return report
    else:
        assert code in refusals, argv
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
