"""The benchmark's workloads: job lists with known answers.

Each workload is a list of jobs.  A job clears the group constructors'
caches, makes one call into the package (the part that is timed), and
checks the answer against a value fixed in advance.  ``load`` imports what
a workload uses and builds its job list; it is also what a fresh
interpreter runs when the set-up time is measured.

Known answers come from the paper's acceptance criteria, from closed
formulas (group orders, class numbers), from the CLI golden files in
``tests/golden``, or, where marked "pinned", from this package at the
commit that defined the benchmark, cross-checked independently once
(see ``selftest.py``).
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"

class Job:
    """One request: ``call()`` is timed; ``check(result)`` returns an error or None."""

    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name = name
        self.call = call
        self.check = check


def _expect(pairs) -> str | None:
    """First mismatch among (label, got, want) triples, as a message."""
    for label, got, want in pairs:
        if got != want:
            return f"{label}: got {got!r}, want {want!r}"
    return None


def _cold(weilgl):
    """Clear the lru_cache'd group constructors, as a fresh process has them."""
    caches = (weilgl.general_linear_group, weilgl.unitary_group, weilgl.symplectic_group)

    def cold():
        for c in caches:
            c.cache_clear()

    return cold


def _cold_job(cold, name, call, check):
    def run():
        cold()
        return call()

    return Job(name, run, check)


# ---------------------------------------------------------------------------
# weil_oracle: criterion 3 without GU_3(3)
# ---------------------------------------------------------------------------


def _weil_oracle():
    from hypermono import weilgl

    cold = _cold(weilgl)

    def oracle_check(fam, n, q, order, degrees, singer, pinned_ss=None):
        def check(rep):
            d = rep.details
            common = [("order", d["order"], order), ("Weil degrees", d["degrees"], degrees)]
            if singer is None:  # outside the classification: flagged, raw data pinned
                return _expect(
                    common
                    + [("agree", rep.agree, None), ("excluded", "excluded" in d, True), ("ss_by_dim", d["ss_by_dim"], pinned_ss)]
                )
            top = str(max(degrees))
            return _expect(
                common
                + [
                    ("agree", rep.agree, True),
                    ("realized", d["per_dim"][top]["realized"], [singer]),
                    ("allowed", d["per_dim"][top]["allowed"], [singer]),
                    (
                        "simple Singer elements",
                        d["ss_by_dim"][top][str(singer)],
                        degrees.count(max(degrees)) * d["p_prime_counts_by_obar"][str(singer)],
                    ),
                ]
            )

        return _cold_job(
            cold,
            f"ss_exhaustive_{fam}_{n}_{q}",
            lambda: weilgl.ss_exhaustive_check(fam, n, q),
            check,
        )

    # degrees: (q^n - q)/(q - 1) once and (q^n - 1)/(q - 1) q - 2 times for
    # GL_n(q), 2^n - 2 for q = 2; (q^n + q)/(q + 1) once and (q^n - 1)/(q + 1)
    # q times for GU_n(q), n even
    return [
        oracle_check("Linear", 3, 3, 11232, [12, 13], 13),
        oracle_check("Linear", 3, 2, 168, [6], 7),
        oracle_check("Unitary", 2, 3, 96, [3, 2, 2, 2], None, {"2": {"2": 96, "4": 72}, "3": {"4": 24}}),
    ]


# ---------------------------------------------------------------------------
# closure_classes: F_q closure, conjugacy classes, odd-class intertwiners
# ---------------------------------------------------------------------------


def _closure_classes():
    from hypermono import stonevn, weilgl

    cold = _cold(weilgl)

    def classes_job(label, build, order, n_classes):
        def call():
            G = build()
            return G.order, [len(c) for c in G.conjugacy_classes()]

        def check(res):
            got_order, sizes = res
            return _expect(
                [("order", got_order, order), ("classes", len(sizes), n_classes), ("class sizes sum", sum(sizes), order)]
            )

        return _cold_job(cold, label, call, check)

    def mod1_job(label, p, build, reps_only, n_odd):
        """Outer intertwiner + Sp mod-1 check on odd-order elements of Sp_2(p)."""

        def call():
            model = stonevn.HeisenbergModel(p, 1)
            G = build()
            elems = G.class_representatives() if reps_only else G.elements
            return [
                stonevn.sp_mod1_check(model, stonevn.outer_intertwiner_odd(model, g))
                for g in elems
                if g.order() % 2 == 1
            ]

        def check(oks):
            return _expect([("odd elements checked", len(oks), n_odd), ("all mod-1", all(oks), True)])

        return _cold_job(cold, label, call, check)

    # class numbers: GL_3(q) has q^3 - q; Sp_4(2) is S_6 (11); GU_3(2) has
    # 24, pinned (counted once as commuting pairs / |G|)
    return [
        classes_job("gu_3_2", lambda: weilgl.unitary_group(3, 2), 648, 24),
        classes_job("sp_4_2", lambda: weilgl.symplectic_group(2, 2), 720, 11),
        classes_job("gl_3_3", lambda: weilgl.general_linear_group(3, 3), 11232, 24),
        # criterion 5's SL_2(3) loop: every element of odd order (1 + 8)
        mod1_job("mod1_sp_2_3", 3, lambda: weilgl.symplectic_group(1, 3), False, 9),
        # odd-order classes of SL_2(5) and SL_2(7): orders 1, 3, p, p
        mod1_job("mod1_sp_2_5", 5, lambda: weilgl.symplectic_group(1, 5), True, 4),
        mod1_job("mod1_sp_2_7", 7, lambda: weilgl.symplectic_group(1, 7), True, 4),
    ]


# ---------------------------------------------------------------------------
# cyc_moments: closure and m4 over cyclotomic matrices, Cyc-model oracles
# ---------------------------------------------------------------------------


def monomial_group(q, gen, repkit, zeta):
    """Criterion 6's monomial group: diag(zeta_q, 1, ...), the q-cycle, x -> gen*x."""
    CycMatrix = repkit.CycMatrix
    diag = CycMatrix.from_rows(
        [[(zeta(q) if (i == j == 0) else (1 if i == j else 0)) for j in range(q)] for i in range(q)]
    )
    T = CycMatrix.from_rows([[1 if i == (j + 1) % q else 0 for j in range(q)] for i in range(q)])
    S = CycMatrix.from_rows([[1 if i == (gen * j) % q else 0 for j in range(q)] for i in range(q)])
    return repkit.closure([diag, T, S])


def _cyc_moments():
    from hypermono import repkit, stonevn, weilgl
    from hypermono.algebra.cyc import zeta
    from hypermono.algebra.fq import FqMatrix, field

    cold = _cold(weilgl)

    def m4_job(label, build, order, m4):
        def call():
            G = build()
            return G.order, repkit.m4(G)

        return _cold_job(cold, label, call, lambda r: _expect([("order", r[0], order), ("m4", r[1], m4)]))

    def heisenberg_108():
        m = stonevn.HeisenbergModel(3, 1)
        g4 = FqMatrix.from_rows(field(3), [[0, 2], [1, 0]])
        M0 = stonevn.outer_intertwiner_odd(m, g4).finite_order_form()
        return repkit.closure([m.rho_matrix((1,), (0,)), m.rho_matrix((0,), (1,)), M0])

    def extr_check(r):
        return _expect(
            [
                ("minus matches", r["minus"]["matches"], True),
                ("minus simple", r["minus"]["simple"], True),
                ("plus matches", r["plus"]["matches"], True),
                ("plus simple", r["plus"]["simple"], False),
            ]
        )

    def sp_check(r):
        tminus = [t for t in r["types"] if t["torus"] == "T-"]
        return _expect(
            [
                ("agree", r["agree"], True),
                ("dims", r["dims"], [13, 12]),
                ("T- central order", [t["central_order"] for t in tminus], [13]),
                ("T- simple", [(t["simple_even"], t["simple_odd"]) for t in tminus], [(True, True)]),
            ]
        )

    # orders: q^q * q * ord(gen mod q); m4 = 3 for 162 and 108 is criterion
    # 6; m4 = 5 for 2048 is pinned
    return [
        m4_job("monomial_162", lambda: monomial_group(3, 2, repkit, zeta), 162, 3),
        m4_job("heisenberg_108", heisenberg_108, 108, 3),
        m4_job("monomial_2048", lambda: monomial_group(4, 3, repkit, zeta), 2048, 5),
        _cold_job(cold, "ss_extr_oracle_2", lambda: stonevn.ss_extr_oracle(2), extr_check),
        _cold_job(cold, "ss_sp_oracle_2_5", lambda: stonevn.ss_sp_oracle(2, 5), sp_check),
    ]


# ---------------------------------------------------------------------------
# cli_mix: the CLI golden command lines, in process
# ---------------------------------------------------------------------------

DATA = TESTS / "data"

CLI_CASES = [
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


def _cli_mix():
    # the modules the commands import lazily are part of what the CLI uses
    from hypermono import cli, constructions, stonevn, weilgl  # noqa: F401

    cold = _cold(weilgl)

    def job(name, argv):
        golden = json.loads((TESTS / "golden" / f"{name}.json").read_text())
        want = (golden["command"], golden["result"])

        def call():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def check(res):
            code, out = res
            if code != 0:
                return f"exit code {code}"
            report = json.loads(out)
            return _expect([("command/result", (report["command"], report["result"]), want)])

        return _cold_job(cold, name, call, check)

    return [job(name, argv) for name, argv in CLI_CASES]


_JOB_LISTS = {
    "weil_oracle": _weil_oracle,
    "closure_classes": _closure_classes,
    "cyc_moments": _cyc_moments,
    "cli_mix": _cli_mix,
}
WORKLOADS = tuple(_JOB_LISTS)


def load(workload: str) -> list[Job]:
    """Import what the workload uses and build its job list (canonical order)."""
    return _JOB_LISTS[workload]()
