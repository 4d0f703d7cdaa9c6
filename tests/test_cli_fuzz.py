"""Property tests for the ``ss`` and ``spectrum`` command lines: every argv
gives a report or a documented refusal.

Hypothesis drives ``cli.main`` in process, derandomized with a bounded
example count and a small HYPERMONO_CAP, so every run checks the same argvs
and the file stays within a few seconds.  Each run either exits 0 with a
schema ``hypermono/1`` report on stdout, or exits 2 (validation), 3 (cap)
or 4 (oracle) with one stderr line and nothing on stdout.  An exception
that escapes ``main`` fails the test with its traceback.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermono.cli import main

CAP = "2000"


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    family=st.sampled_from(["linear", "unitary", "symplectic", "extraspecial"]),
    n=st.integers(-1, 4),
    q=st.integers(-1, 9),
    exhaustive=st.booleans(),
)
@example(family="symplectic", n=2, q=7, exhaustive=True)  # model dimension above the desk cap
@example(family="unitary", n=4, q=4, exhaustive=True)  # 470 classes, walks above the cap
@example(family="linear", n=4, q=3, exhaustive=True)  # 78 classes, walks above the cap
def test_ss_reports_or_refuses(family, n, q, exhaustive):
    check_report_or_refusal(["ss", family, str(n), str(q)] + (["--exhaustive"] if exhaustive else []))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    family=st.sampled_from(["linear", "unitary"]),
    n=st.integers(-1, 4),
    q=st.integers(-1, 9),
    index=st.integers(-1, 10),
)
@example(family="linear", n=4, q=7, index=1)  # torus order 2400: its square passes the cap
@example(family="unitary", n=3, q=3, index=3)  # torus order 28, the largest index
def test_spectrum_reports_or_refuses(family, n, q, index):
    check_report_or_refusal(["spectrum", family, str(n), str(q), "--index", str(index)])


def check_report_or_refusal(argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HYPERMONO_CAP", CAP)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    if code == 0:
        report = json.loads(out.getvalue())
        assert report["schema"] == "hypermono/1" and report["command"] == argv[0]
        assert err.getvalue() == ""
    else:
        assert code in (2, 3, 4), argv
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
