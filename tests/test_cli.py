import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hypermono import stonevn
from hypermono.cli import build_parser, main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
DATA = HERE / "data"

CASES = [
    ("analyze_m11", ["analyze", str(DATA / "m11_row.json")]),
    ("splus_m11_primitive", ["splus", str(DATA / "m11_row.json"), "--primitive=yes"]),
    ("splus_93", ["splus", str(DATA / "type_9_3_p2.json"), "--primitive=yes"]),
    ("ss_linear_3_3", ["ss", "linear", "3", "3"]),
    ("ss_unitary_3_3", ["ss", "unitary", "3", "3"]),
    ("ss_symplectic_2_5", ["ss", "symplectic", "2", "5"]),
    ("ss_extraspecial_5_2", ["ss", "extraspecial", "5", "2"]),
    ("ss_linear_3_2_exhaustive", ["ss", "linear", "3", "2", "--exhaustive"]),
    ("spectrum_linear_3_3", ["spectrum", "linear", "3", "3", "--index", "1"]),
    ("spectrum_unitary_3_3", ["spectrum", "unitary", "3", "3", "--index", "1"]),
    ("gates_landau_12", ["gates", "landau", "12"]),
    ("gates_ppd_2_6", ["gates", "ppd", "2", "6"]),
    ("gates_meo_ly", ["gates", "meo", "Sporadic", "Ly"]),
    ("gates_chain", ["gates", "chain", "10", "10", "11", "11"]),
    ("gates_charsheaf", ["gates", "charsheaf", "12", "Symplectic", "2", "5"]),
    ("gates_bounds", ["gates", "bounds", "10", "11", "--index", "2"]),
    ("gates_brauerp_m11", ["gates", "brauerp", "--m11"]),
    ("construct_sawin", ["construct", "sawin", "11", "1", "3"]),
    ("construct_alt2", ["construct", "alt2", "8", "2", "--k", "3"]),
    ("construct_special_fn", ["construct", "special", "F_N", "3", "--N", "5"]),
    ("construct_special_gd", ["construct", "special", "G_D", "5", "--D", "7", "--chi", "1/3"]),
    ("tables_1", ["tables", "1"]),
    ("tables_2_check", ["tables", "2", "--check"]),
    ("tables_3_check", ["tables", "3", "--check"]),
    ("m4_monomial", ["m4", str(DATA / "monomial_q3.json")]),
]


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def child_env(**extra):
    """The environment of a child interpreter: src on the path, the default
    cap, and the extra variables."""
    path = [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)
    env.pop("HYPERMONO_CAP", None)
    return env


def run_cli_process(argv, timeout=30):
    """``python -m hypermono`` with argv in a child process: (exit code,
    stdout, stderr)."""
    done = subprocess.run([sys.executable, "-m", "hypermono"] + argv, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv):
    code, out = run_cli(argv)
    assert code == 0, out
    golden_path = GOLDEN / f"{name}.json"
    assert golden_path.exists(), f"golden file missing: {golden_path}"
    assert out == golden_path.read_text(), f"output drift for {name}"


GOLDEN_RUNNER = """
import io, json, sys
from contextlib import redirect_stdout
from hypermono.cli import main
outs = []
for argv in json.loads(sys.stdin.read()):
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(argv)
    outs.append(buf.getvalue())
json.dump(outs, sys.stdout)
"""


def test_goldens_independent_of_hash_seed():
    """Under PYTHONHASHSEED 0 and 12345, a child interpreter runs the golden
    argv lists in process, and each stdout equals its golden byte for byte."""
    argvs = json.dumps([argv for _, argv in CASES])
    for seed in ("0", "12345"):
        child = subprocess.run([sys.executable, "-c", GOLDEN_RUNNER], input=argvs, env=child_env(PYTHONHASHSEED=seed),
                               capture_output=True, text=True, timeout=120, check=True)
        for (name, _), out in zip(CASES, json.loads(child.stdout), strict=True):
            assert out == (GOLDEN / f"{name}.json").read_text(), (name, seed)


def test_determinism_byte_identical():
    for _, argv in CASES[:6]:
        c1, o1 = run_cli(argv)
        c2, o2 = run_cli(argv)
        assert (c1, o1) == (c2, o2)


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(["--out", str(target), "gates", "landau", "7"])
    assert code == 0 and out == ""
    body = json.loads(target.read_text())
    assert body["result"]["landau"] == 12


class TestParserReuse:
    """main builds its parser once per process; no call's options reach the next."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_out_does_not_carry_over(self, tmp_path):
        target = tmp_path / "report.json"
        assert run_cli(["--out", str(target), "gates", "landau", "5"]) == (0, "")
        code, out = run_cli(["gates", "landau", "5"])
        assert code == 0 and json.loads(out) == json.loads(target.read_text())

    def test_option_default_is_restored(self):
        code, out = run_cli(["spectrum", "linear", "3", "3", "--index", "1"])
        assert code == 0 and json.loads(out)["input"]["index"] == 1
        code, out = run_cli(["spectrum", "linear", "3", "3"])
        assert code == 0 and json.loads(out)["input"]["index"] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["gates", "landau", "x"],
            ["spectrum", "cubic", "3", "3"],
            [],
            ["construct", "special", "G_D", "5", "--D", "7", "--chi", "-1/4"],
        ],
    )
    def test_argparse_error_still_exits_2(self, capsys, argv):
        """A refusal by the parser or a subparser is one stderr line, exit 2."""
        run_cli(["gates", "landau", "5"])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith("error: "), out.err


class TestExitCodes:
    def test_validation_error_is_2(self, capsys):
        code = main(["analyze", str(DATA / "overlap.json")])
        assert code == 2

    def test_io_error_is_1(self):
        code = main(["analyze", str(DATA / "no_such_file.json")])
        assert code == 1

    def test_unwritable_out_is_1(self, capsys, tmp_path):
        assert main(["--out", str(tmp_path / "no_such_dir" / "x.json"), "gates", "landau", "5"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith("error: cannot write ")

    def test_cap_exceeded_is_3(self, monkeypatch):
        monkeypatch.setenv("HYPERMONO_CAP", "10")
        code = main(["m4", str(DATA / "monomial_q3.json")])
        assert code == 3

    def test_memory_error_is_3(self, capsys, monkeypatch):
        """An oracle that runs out of memory inside every cap, as
        ss_sp_oracle(2, 11) can under a small address-space limit, gives one
        stderr line and exit 3, not a traceback and exit 1."""
        calls = []

        def exhausted(n, q):
            calls.append((n, q))
            raise MemoryError

        monkeypatch.setattr(stonevn, "ss_sp_oracle", exhausted)
        assert main(["ss", "symplectic", "2", "5", "--exhaustive"]) == 3
        assert calls == [(2, 5)]
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err
        assert len(out.err.splitlines()) == 1 and out.err.startswith("error: out of memory")

    def test_excluded_case_is_2(self):
        code = main(["ss", "unitary", "3", "2"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["ss", "linear", "3", "0"],
            ["ss", "linear", "3", "6"],
            ["ss", "extraspecial", "5", "6"],
            ["ss", "symplectic", "2", "4", "--exhaustive"],
            ["spectrum", "linear", "3", "6"],
            ["spectrum", "linear", "3", "4", "--index", "9"],
            ["gates", "landau", "-3"],
            ["gates", "ppd", "4", "2"],
            ["gates", "brauerp"],
            ["spectrum", "linear", "1", "3"],
            ["spectrum", "unitary", "1", "3"],
            ["gates", "chain", "-1", "0", "0", "0"],
            ["gates", "chain", "10", "10", "0", "11"],
            ["gates", "bounds", "-5", "-3"],
            ["gates", "bounds", "10", "-1"],
            ["gates", "bounds", "10", "11", "--index", "0"],
            ["gates", "meo", "Alternating", "-3"],
            ["gates", "meo", "Linear", "0", "3"],
            ["gates", "meo", "Linear", "3", "6"],
            ["gates", "meo", "Unitary", "1", "2"],  # meo 1.5
            ["gates", "meo", "OrthogonalPlus", "1", "2"],  # min_dim -1
            ["gates", "meo", "Linear", "1", "3"],  # min_dim 0 from here on
            ["gates", "meo", "Unitary", "1", "3"],
            ["gates", "meo", "Unitary", "2", "2"],
            ["gates", "meo", "Symplectic", "1", "4"],
            ["gates", "meo", "OrthogonalPlus", "2", "3"],
            ["gates", "meo", "OrthogonalMinus", "2", "5"],
            ["gates", "charsheaf", "-4", "Symplectic", "2", "5"],
            ["gates", "charsheaf", "12", "ExtraspecialNormalizer", "6", "2"],
            ["gates", "meo", "Alternating", "5"],  # no minimal degree data
            ["gates", "charsheaf", "5", "Alternating", "5"],  # outside the battery
            ["construct", "special", "F_N", "3"],
            ["construct", "special", "G_D", "3"],
            ["construct", "special", "G_D", "3", "--D", "2"],
            ["construct", "special", "G_D", "5", "--D", "7", "--chi", "x"],
            ["ss", "linear", "1", "2", "--exhaustive"],
            ["ss", "unitary", "1", "3", "--exhaustive"],
            ["construct", "special", "G_D", "3", "--D", "-1", "--chi", "1/2"],
            ["construct", "special", "F_N", "3", "--N", "-2"],
            ["construct", "sawin", "-1", "1", "2"],
            ["construct", "sawin", "0", "1", "2", "--side", "ii"],
            ["ss", "symplectic", "3", "5", "--exhaustive"],  # the block type T_2,1 has no torus built
            ["gates", "brauerp", "--m11", "--tables", "no_such_tables.json"],  # --tables was ignored
            ["gates", "brauerp", "--m11", "--tables", "m11_row.json"],
            ["tables", "1", "--check"],  # table 1 has no check
            ["ss", "extraspecial", "2", "2", "--exhaustive"],  # --exhaustive ran no check
            ["ss", "extraspecial", "2", "3"],  # p^n = 9 < 11, outside the classification
            ["construct", "special", "F_N", "3", "--N", "4", "--D", "7", "--chi", "1/3"],  # other family's flags
            ["construct", "special", "F_N", "3", "--N", "4", "--chi", "1/3"],
            ["construct", "special", "G_D", "5", "--D", "7", "--chi", "1/3", "--N", "4"],
        ],
        ids=lambda argv: "_".join(argv).replace("-", ""),
    )
    def test_bad_argument_is_2(self, capsys, argv):
        argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith("error: ")
        assert not out.err.startswith("error: '")  # the message itself, not a KeyError's repr
        for option, value in zip(argv, argv[1:]):
            if option in ("--N", "--D") and int(value) < 1:
                assert option in out.err  # the message names the option at fault


    @pytest.mark.parametrize("value", ["abc", "0", "-5", "2.5"])
    def test_bad_cap_variable_is_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("HYPERMONO_CAP", value)
        assert main(["ss", "linear", "3", "2", "--exhaustive"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and "HYPERMONO_CAP" in out.err

    def test_cap_variable_is_honoured(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERMONO_CAP", "10")
        assert main(["m4", str(DATA / "monomial_q3.json")]) == 3

    @pytest.mark.parametrize(
        "argv,cap,named",
        [
            (["ss", "linear", "4", "3", "--exhaustive"], "1000", "78 conjugacy classes"),
            (["ss", "linear", "6", "5", "--exhaustive"], None, "conjugacy classes"),
            (["ss", "unitary", "3", "3", "--exhaustive"], "1000", "56 conjugacy classes"),
            (["ss", "unitary", "2", "29", "--exhaustive"], None, "900 conjugacy classes"),
            (["spectrum", "linear", "5", "16"], None, "torus order 1048575"),
            (["spectrum", "linear", "2", "1024"], None, "torus order 1048575"),
        ],
        ids=[
            "linear_small_cap",
            "linear_default_cap",
            "unitary_small_cap",
            "unitary_default_cap",
            "spectrum_linear_5_16",
            "spectrum_linear_2_1024",
        ],
    )
    def test_oracle_cap_is_3_before_any_work(self, capsys, monkeypatch, argv, cap, named):
        if cap is None:
            monkeypatch.delenv("HYPERMONO_CAP", raising=False)
        else:
            monkeypatch.setenv("HYPERMONO_CAP", cap)
        assert main(argv) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and named in out.err


def test_python_m_runs_the_cli():
    """``python -m hypermono`` runs the CLI from a checkout, with src on the path."""
    code, out, _ = run_cli_process(["gates", "landau", "12"])
    assert code == 0
    golden = json.loads((GOLDEN / "gates_landau_12.json").read_text())
    report = json.loads(out)
    assert (report["command"], report["result"]) == (golden["command"], golden["result"])


def test_linear_oracle_past_the_closure():
    """GL_4(3) (order 24,261,120) is checked per conjugacy class, with no closure."""
    code, out = run_cli(["ss", "linear", "4", "3", "--exhaustive"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mode"] == "elements" and result["agree"] is True
    assert result["details"]["order"] == 24261120


def test_unitary_oracle_past_the_closure():
    """GU_4(3) (order 52,254,720), an excluded case, gets a full report per
    conjugacy class, with no closure."""
    code, out = run_cli(["ss", "unitary", "4", "3", "--exhaustive"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mode"] == "elements" and result["agree"] is None
    assert result["details"]["order"] == 52254720 and "excluded" in result["details"]


P = "1000000000000000003"  # a prime past (2 cap)^2, which trial division cannot certify


class TestEveryLoopIsCapped:
    """An input whose loop would run past the cap exits 3 with one stderr line
    in a child process: trial division, Landau's table, Char(N), q^n in the
    formula commands, and a report integer too long to print."""

    REFUSED = [
        ["ss", "linear", "3", P],
        ["ss", "symplectic", "2", P],
        ["ss", "extraspecial", "5", P],
        ["spectrum", "linear", "3", P],
        ["gates", "meo", "Linear", "3", P],
        ["gates", "ppd", P, "2"],
        ["construct", "sawin", "11", "1", P],
        ["analyze", "prime_past_cap.json"],
        ["gates", "ppd", "3", "401"],
        ["gates", "ppd", "2", "5000"],
        ["gates", "landau", "100000000"],
        ["gates", "meo", "Alternating", "100000000"],
        ["construct", "special", "F_N", "3", "--N", "100000001"],
        ["construct", "alt2", "100000001", "2"],
        ["ss", "linear", "1000000000", "3"],
        ["spectrum", "linear", "1000000000", "3"],
        ["ss", "symplectic", "1000000000", "3"],
        ["gates", "meo", "Linear", "1000000000", "3"],
        ["ss", "linear", "10000", "3"],  # q^n forms, but has more digits than json.dumps prints
        ["gates", "meo", "Linear", "10000", "3"],
        ["ss", "extraspecial", "1023", "2"],  # c(1023) = 74,555,322 orders of about 1023 bits
        ["ss", "symplectic", "2", "13", "--exhaustive"],  # a model table of 169^3 entries
        ["spectrum", "unitary", "1", "47", "--index", "2"],  # the tables of F_(47^2), 47^4 entries
        ["spectrum", "linear", "1", "1409", "--index", "1"],  # 1408 values, each 1408 x phi(1408) steps
    ]

    @pytest.mark.parametrize("argv", REFUSED, ids=lambda argv: "_".join(argv).replace("-", ""))
    def test_refused_with_one_line(self, argv):
        code, out, err = run_cli_process([str(DATA / a) if a.endswith(".json") else a for a in argv])
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err

    def test_answers_within_the_cap(self):
        """ppd(2, 200) = 401 needs trial divisors up to 2,787,601, under 2 cap;
        charsheaf never forms q^n."""
        code, out, _ = run_cli_process(["gates", "ppd", "2", "200"])
        assert code == 0 and json.loads(out)["result"] == {"ppd": 401}
        for name, argv in (("gates_landau_12", ["gates", "landau", "12"]), ("gates_ppd_2_6", ["gates", "ppd", "2", "6"])):
            assert run_cli_process(argv) == (0, (GOLDEN / f"{name}.json").read_text(), "")
        assert run_cli_process(["gates", "charsheaf", "12", "Linear", "1000000000", "3"])[0] == 0
        code, out = run_cli(["ss", "extraspecial", "100", "2"])  # 37 of the 190,569,292 partitions of 100
        assert code == 0 and len(json.loads(out)["result"]["central_orders"]) == 37

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "unitary", "1", "37", "--index", "2"],  # 38 x 19 x 18 = 12,996 reduction steps
            ["spectrum", "linear", "3", "11", "--index", "1"],  # 1330 x 10 x 4 = 53,200
            ["spectrum", "unitary", "3", "11", "--index", "1"],  # 1332 x 12 x 4 = 63,936
        ],
        ids=lambda argv: "_".join(argv).replace("-", ""),
    )
    def test_spectrum_answers_under_the_reduction_bound(self, argv):
        code, out = run_cli(argv)
        assert code == 0 and json.loads(out)["result"]["degree"] > 0


def test_symplectic_oracle_report():
    """``ss symplectic 2 5 --exhaustive`` reports the Sp_4(5) oracle itself."""
    from hypermono.stonevn import ss_sp_oracle

    code, out = run_cli(["ss", "symplectic", "2", "5", "--exhaustive"])
    assert code == 0
    assert json.loads(out)["result"] == json.loads(json.dumps(ss_sp_oracle(2, 5)))


@pytest.mark.parametrize(
    "argv",
    [["ss", "symplectic", "2", "7", "--exhaustive"], ["ss", "symplectic", "2", "9", "--exhaustive"]],
    ids=lambda argv: "_".join(argv).replace("-", ""),
)
def test_symplectic_oracle_answers_within_the_cap(argv):
    """Sp_4(7) and Sp_4(9): models of dimension 49 and 81, whose tables of
    N^3 entries are within the cap, agree with the enumeration."""
    code, out = run_cli(argv)
    assert code == 0 and json.loads(out)["result"]["agree"] is True


class TestM4Input:
    """`m4` reports the generators it parsed, not where they came from."""

    def test_report_independent_of_path_spelling(self, tmp_path, monkeypatch):
        src = DATA / "monomial_q3.json"
        copy = tmp_path / "gens.json"
        copy.write_text(src.read_text())
        _, absolute = run_cli(["m4", str(src)])
        _, in_tmp = run_cli(["m4", str(copy)])
        monkeypatch.chdir(HERE)
        code, relative = run_cli(["m4", str(Path("data") / "monomial_q3.json")])
        assert code == 0
        assert absolute == relative == in_tmp

    def test_echo_round_trips(self, tmp_path):
        # H = (1/sqrt 2)[[1, 1], [1, -1]] with sqrt 2 = z8 - z8^3, and diag(1, i)
        # spelled at a non-reduced conductor: together the order-192 Clifford group
        h = {"conductor": 8, "coeffs": [0, 2, 0, -2], "den": 4}
        mh = {"conductor": 8, "coeffs": [0, -1, 0, 1], "den": 2}
        src = tmp_path / "clifford.json"
        src.write_text(json.dumps({"matrices": [[[h, h], [h, mh]], [[1, 0], [0, "2/8"]], [["1/2", 0], [0, 1]]]}))
        code, first = run_cli(["m4", str(src)])
        assert code == 0
        echo = json.loads(first)["input"]["generators"]
        assert echo[0][0][0] == {"conductor": 8, "coeffs": [0, 1, 0, -1], "den": 2}
        assert echo[1] == [[1, 0], [0, "1/4"]] and echo[2] == [[-1, 0], [0, 1]]
        again = tmp_path / "echo.json"
        again.write_text(json.dumps({"matrices": echo}))
        code, second = run_cli(["m4", str(again)])
        assert code == 0
        assert second == first

    @pytest.mark.parametrize(
        "body,code",
        [
            ('{"matrices": [[[true, 0], [0, 1]]]}', 2),
            ('{"matrices": [[[0.5, 0], [0, 1]]]}', 2),
            ('{"matrices": [[[1.0, 0], [0, 1]]]}', 2),
            ('{"matrices": [[[{"conductor": 4, "coeffs": [0, 1.0]}, 0], [0, 1]]]}', 2),
            ('{"matrices": [[[{"conductor": 4, "coeffs": [0, 1], "den": false}, 0], [0, 1]]]}', 2),
            ('{"matrices": [[[{"conductor": 4, "coeffs": [1]}, 0], [0, 1]]]}', 2),
            ('{"matrices": [[["1/0", 0], [0, 1]]]}', 2),
            ('{"matrices": [[[1, 0], [0, 1]], [[1]]]}', 2),
            ('{"matrices": [[[1, 0], [0, 0]]]}', 2),
            ('{"matrices": []}', 2),
            ('{"gens": [[[1]]]}', 2),
            ('{"matrices": [', 1),
            ('{"matrices": [[[2]]]}', 3),
            ('{"matrices": [[[1, 1], [0, 1]]]}', 3),
        ],
        ids=["bool", "float", "integral_float", "float_coeff", "bool_den", "short_coeffs",
             "zero_order", "sizes", "singular", "empty", "no_matrices", "bad_json",
             "infinite_scalar", "infinite_unipotent"],
    )
    def test_bad_generator_file(self, tmp_path, body, code):
        """Each file is refused at the default cap in a child process; an
        infinite order is found by one power walk, not by a closure."""
        path = tmp_path / "gens.json"
        path.write_text(body)
        got, out, err = run_cli_process(["m4", str(path)])
        assert got == code
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestDescriptorInput:
    """A descriptor file for ``analyze`` or ``splus`` gives a report, or exit
    2 or 3 with one line: never a traceback, and never a truncated reading."""

    BAD = {
        "p_string": ({"p": "x", "upstairs": ["Char(5)"]}, 2),
        "p_float": ({"p": 3.5, "upstairs": ["Char(5)"]}, 2),
        "top_level_list": ([{"p": 3, "upstairs": ["Char(5)"]}], 2),
        "upstairs_int": ({"p": 3, "upstairs": [5]}, 2),
        "upstairs_string": ({"p": 3, "upstairs": "Char(5)"}, 2),
        "dangling_star": ({"p": 3, "upstairs": ["Char(5)*"]}, 2),
        "lone_star": ({"p": 3, "upstairs": ["*"]}, 2),
        "dangling_difference": ({"p": 3, "upstairs": ["Char(5)\\"]}, 2),
        "dangling_union": ({"p": 3, "upstairs": ["Char(5)|"]}, 2),
        "xi_zero": ({"p": 3, "upstairs": ["xi(0)"]}, 2),
        "zero_denominator": ({"p": 3, "upstairs": ["1/0"]}, 2),
        "zero_denominator_in_braces": ({"p": 3, "upstairs": ["{1/0}"]}, 2),
        "letter_in_braces": ({"p": 3, "upstairs": ["{a}"]}, 2),
        "char_above_cap": ({"p": 3, "upstairs": ["Char*(100000000)"]}, 3),
    }

    @pytest.mark.parametrize("command", ["analyze", "splus"])
    @pytest.mark.parametrize("name", list(BAD))
    def test_bad_descriptor_file(self, tmp_path, capsys, command, name):
        body, code = self.BAD[name]
        path = tmp_path / "descriptor.json"
        path.write_text(json.dumps(body))
        assert main([command, str(path)]) == code
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith("error: ")


def _trace_tables(trace=1, p_class=True, class_id="2A", type1=(2, 1)):
    """Degrees 2 and 3 with traces differing by 1 on the p-classes: type2 [3, 2]."""
    def cls(cid, tr, flag=True):
        return {"id": cid, "p_class": flag, "trace": tr}

    return {
        "table1": {"degree": 2, "classes": [cls("1A", 2), cls("2A", 0)]},
        "table2": {"degree": 3, "classes": [cls("1A", 3), cls(class_id, trace, p_class)]},
        "type1": list(type1),
    }


class TestBrauerpTables:
    """`gates brauerp --tables` reads integers exactly or refuses the file."""

    @pytest.mark.parametrize(
        "defect,code",
        [
            ({"trace": 1.9}, 2),
            ({"trace": 1.0}, 2),
            ({"trace": True}, 2),
            ({"trace": {"conductor": 4, "coeffs": [1, 0.5]}}, 2),
            ({"p_class": "yes"}, 2),
            ({"type1": (2.0, 1)}, 2),
            ({"class_id": "3A"}, 2),
            ("bad_json", 1),
        ],
        ids=["float", "integral_float", "bool", "float_coeff", "string_flag", "float_type", "classes", "bad_json"],
    )
    def test_bad_table_file(self, tmp_path, capsys, defect, code):
        path = tmp_path / "tables.json"
        path.write_text(json.dumps(_trace_tables()))
        exact, out = run_cli(["gates", "brauerp", "--tables", str(path)])
        assert exact == 0 and json.loads(out)["result"]["type2"] == [3, 2]
        path.write_text('{"table1": ' if defect == "bad_json" else json.dumps(_trace_tables(**defect)))
        assert main(["gates", "brauerp", "--tables", str(path)]) == code
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith("error: ")

    def test_report_echoes_the_tables(self, tmp_path):
        """Two files that differ in one trace give different inputs."""
        reports = []
        for trace in (1, -1):
            path = tmp_path / f"tables_{trace}.json"
            path.write_text(json.dumps(_trace_tables(trace=trace)))
            code, out = run_cli(["gates", "brauerp", "--tables", str(path)])
            assert code == 0
            reports.append(json.loads(out))
        echoed = [r["input"]["table2"]["classes"][1]["trace"] for r in reports]
        assert echoed == [1, -1]
        assert reports[0]["input"]["table1"] == _trace_tables()["table1"] | {"label": ""}


def _literal(m, k=0):
    """zeta_m^k as a {"conductor": m, ...} literal, m prime."""
    return {"conductor": m, "coeffs": [int(i == k) for i in range(m - 1)]}


class TestConductorCap:
    """A conductor N builds an N x phi(N) power table; one past the cap is
    refused at parse time (exit 3), in generator files and trace tables."""

    @pytest.mark.parametrize(
        "command,body,cap,named",
        [
            ("m4", {"matrices": [[["1/4001"]]]}, None, 4001),
            ("m4", {"matrices": [[[_literal(4001)]]]}, None, 4001),
            ("m4", {"matrices": [[["1/1000000000039"]]]}, None, 1000000000039),
            ("m4", {"matrices": [[["1/11"]]]}, "100", 11),
            ("m4", {"matrices": [[["1/23", 0], [0, "1/29"]]]}, "1000", 667),
            ("brauerp", _trace_tables(trace=_literal(4001)), None, 4001),
            (
                "brauerp",
                _trace_tables(trace=_literal(23, 1))
                | {"table1": {"degree": 2, "classes": [{"id": "1A", "p_class": True, "trace": 2},
                                                       {"id": "2A", "p_class": True, "trace": _literal(29, 1)}]}},
                "1000",
                667,
            ),
        ],
        ids=["m4_root", "m4_literal", "m4_huge_root", "m4_small_cap", "m4_lcm", "brauerp_literal", "brauerp_lcm"],
    )
    def test_refused_before_any_table(self, tmp_path, capsys, monkeypatch, command, body, cap, named):
        from hypermono.algebra import cyc

        if cap is None:
            monkeypatch.delenv("HYPERMONO_CAP", raising=False)
        else:
            monkeypatch.setenv("HYPERMONO_CAP", cap)
        built, real = [], cyc._ctx
        monkeypatch.setattr(cyc, "_ctx", lambda m: built.append(m) or real(m))
        path = tmp_path / "input.json"
        path.write_text(json.dumps(body))
        argv = ["m4", str(path)] if command == "m4" else ["gates", "brauerp", "--tables", str(path)]
        assert main(argv) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and f"conductor {named} " in out.err
        assert max(built, default=1) < named  # no power table at the refused conductor

    def test_small_conductors_still_pass(self, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"matrices": [[["1/5", 0], [0, _literal(7, 1)]]]}))
        code, out = run_cli(["m4", str(path)])
        assert code == 0 and json.loads(out)["result"]["group_order"] == 35
