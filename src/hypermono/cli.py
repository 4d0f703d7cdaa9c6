"""Command-line surface: deterministic JSON reports over the module layer.

Exit codes: 0 success, 1 I/O error, 2 validation error, 3 cap exceeded (or,
as a best effort, out of memory), 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from math import gcd, lcm

from . import __version__
from .algebra.cyc import Cyc, cyc_from_literal, json_int
from .algebra.numth import euler_phi, is_prime, is_prime_power
from .algebra.unity import UnityClass
from .chargeom import (
    DescriptorError,
    HypDescriptor,
    belyi_wild_obstruction,
    determinant_char,
    i0_simple,
    i0_spectrum,
    kummer_induced,
    wild_image_order,
)
from .gates import (
    GroupFamily,
    TraceTable,
    bound1_consequence,
    bound2_check,
    brauerp_transfer,
    char_sheaf_decision,
    landau,
    m11_trace_tables,
    meo_bound,
    min_dim,
    order_chain,
    p_center_constraints,
    ppd,
)
from .repkit import CapExceeded, CycMatrix, _cap, closure, m4
from .splus import splus_verdict, tensor_induction_feasibility, indecomposability_ok

SCHEMA = "hypermono/1"

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_ORACLE = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _report(command: str, inputs, result) -> dict:
    return {"schema": SCHEMA, "version": __version__, "command": command, "input": inputs, "result": result}


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        print(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {out_path}: {exc}")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_IO, f"bad JSON in {path}: {exc}")


def _domain_call(fn, *args):
    """fn(*args), where a ValueError means an argument lies outside fn's
    domain: a validation error.  Wrap only calls that parse no JSON, since a
    JSONDecodeError is also a ValueError and belongs to exit 1."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise CliError(EXIT_VALIDATION, str(exc))


def _check_at_least(lo: int, **values: int) -> None:
    for name, v in values.items():
        if v < lo:
            raise CliError(EXIT_VALIDATION, f"{name} must be >= {lo}, got {v}")


def _check_n_q(n: int, q: int, prime: bool = False, q_name: str = "q") -> None:
    """n >= 1 and q a prime power (a prime when q is a characteristic)."""
    _check_at_least(1, n=n)
    if not (is_prime(q) if prime else is_prime_power(q)):
        raise CliError(EXIT_VALIDATION, f"{q_name} must be a prime{'' if prime else ' power'}, got {q}")


def _check_power(q: int, n: int) -> None:
    """Refuse (exit 3) a q^n of more than cap bits, before it is formed."""
    cap = _cap(None)
    if n * q.bit_length() > cap:
        raise CliError(EXIT_CAP, f"q^n = {q}^{n} has about {n * q.bit_length()} bits, above the cap {cap}")


def _check_weil_degree(spec) -> None:
    if spec.degree < 1:
        raise CliError(EXIT_VALIDATION, f"no Weil module: {spec!r} has degree {spec.degree}")


def _load_descriptor(path: str) -> HypDescriptor:
    return HypDescriptor.from_json(_load_json(path))


def _spectrum_json(s) -> dict:
    return {str(u): m for u, m in s.mult.items()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> dict:
    h = _load_descriptor(args.descriptor)
    kummer = kummer_induced(h)
    result = {
        "p": h.p,
        "type": list(h.type),
        "W": h.W,
        "upstairs": [str(u) for u in h.upstairs],
        "downstairs": [str(u) for u in h.downstairs],
        "kummer_induced_degree": kummer,
        "determinant": str(determinant_char(h)),
        "wild_image_order": wild_image_order(h),
        "i0_spectrum": _spectrum_json(i0_spectrum(h)),
        "i0_simple": i0_simple(h),
        "p_center_constraints": p_center_constraints(h),
    }
    if h.m > 0:
        ob = belyi_wild_obstruction(h)
        result["belyi_obstruction"] = {
            "possible": ob.possible,
            "witnesses": [list(w) for w in ob.witnesses],
        }
    return _report("analyze", {"descriptor": h.to_json()}, result)


def cmd_splus(args) -> dict:
    h = _load_descriptor(args.descriptor)
    primitive = {"yes": True, "no": False, "unknown": None}[args.primitive]
    v = splus_verdict(h, primitive)
    result = {
        "verdict": v.to_json(),
        "tensor_induction_candidates": [
            {"n": n, "annotation": note} for n, note in tensor_induction_feasibility(h)
        ],
        "indecomposable": list(indecomposability_ok(h)),
    }
    return _report("splus", {"descriptor": h.to_json(), "primitive": args.primitive}, result)


def cmd_ss(args) -> dict:
    from .stonevn import ss_extr_enumerate, ss_sp_enumerate, ss_sp_oracle
    from .weilgl import ExcludedCase, WeilCharSpec, ss_enumerate, ss_exhaustive_check

    fam = args.family.capitalize()
    _check_n_q(args.n, args.q, prime=fam == "Extraspecial")
    _check_power(args.q, args.n)
    inputs = {"family": fam, "n": args.n, "q": args.q, "exhaustive": args.exhaustive}
    try:
        if fam in ("Linear", "Unitary"):
            if args.exhaustive:
                # the index-0 module is the only one that can have degree 0 (at n = 1)
                _check_weil_degree(WeilCharSpec(fam, args.n, args.q, 0))
                rep = ss_exhaustive_check(fam, args.n, args.q)
                if rep.agree is False:
                    raise CliError(EXIT_ORACLE, f"oracle mismatch: {rep.counterexamples}")
                return _report("ss", inputs, rep.to_json())
            types = ss_enumerate(fam, args.n, args.q)
            return _report("ss", inputs, {"types": [t.to_json() for t in types]})
        if fam == "Symplectic":
            types = _domain_call(ss_sp_enumerate, args.n, args.q)  # checks q odd, n >= 2 for the oracle too
            if args.exhaustive:
                return _report("ss", inputs, ss_sp_oracle(args.n, args.q))
            return _report("ss", inputs, {"types": [t.to_json() for t in types]})
        if fam == "Extraspecial":
            if args.exhaustive:
                raise CliError(EXIT_VALIDATION, "ss extraspecial has no exhaustive check; drop --exhaustive")
            return _report("ss", inputs, {"central_orders": _domain_call(ss_extr_enumerate, args.q, args.n)})
    except ExcludedCase as exc:
        raise CliError(EXIT_VALIDATION, str(exc))
    raise CliError(EXIT_VALIDATION, f"unknown family {args.family}")


def cmd_spectrum(args) -> dict:
    from .weilgl import (
        LINEAR,
        WeilCharSpec,
        gl_singer,
        gu_torus_element,
        weil_spectrum,
    )

    fam = args.family.capitalize()
    _check_n_q(args.n, args.q)
    _check_power(args.q, args.n)
    spec = _domain_call(WeilCharSpec, fam, args.n, args.q, args.index)
    _check_weil_degree(spec)
    n, q = args.n, args.q
    torus_order = q**n - 1 if fam == LINEAR else q**n - (-1) ** n
    # K^2 bounds the at most q^(n+1) monics the torus search visits, K m phi(m)
    # the K Weil values' reductions of a root sum of length m to phi(m)
    # coordinates; the inversion is K root sums of length lcm(K, conductors)
    cap = _cap(None)
    if torus_order * torus_order > cap:
        raise CapExceeded(f"torus order {torus_order}: its square {torus_order * torus_order} exceeds cap {cap}")
    order = q - 1 if fam == LINEAR else q + 1
    m = order // gcd(args.index, order)
    reductions = torus_order * m * euler_phi(m)
    if reductions > cap:
        raise CapExceeded(f"torus order {torus_order} at index {args.index}: {reductions} reductions exceed cap {cap}")
    g = gl_singer(n, q) if fam == LINEAR else gu_torus_element(n, q, torus_order)
    s = weil_spectrum(spec, g)
    return _report(
        "spectrum",
        {"family": fam, "n": args.n, "q": args.q, "index": args.index, "torus": "Singer"},
        {
            "torus_element_order": torus_order,
            "degree": spec.degree,
            "spectrum": _spectrum_json(s),
            "simple": s.is_simple(),
        },
    )


def cmd_gates(args) -> dict:
    sub = args.gate
    if sub == "landau":
        return _report("gates/landau", {"n": args.n}, {"landau": _domain_call(landau, args.n)})
    if sub == "ppd":
        _check_power(args.p, args.k)
        return _report("gates/ppd", {"p": args.p, "k": args.k}, {"ppd": _domain_call(ppd, args.p, args.k)})
    if sub == "meo":
        fam = _parse_family(args.args)
        if fam.q is not None:
            _check_power(fam.q, fam.n)
        meo, meo_kind = _domain_call(meo_bound, fam)
        dim, dim_kind = _domain_call(min_dim, fam)
        return _report(
            "gates/meo",
            {"family": repr(fam)},
            {"meo": meo, "meo_kind": meo_kind, "min_dim": dim, "min_dim_kind": dim_kind},
        )
    if sub == "chain":
        _check_at_least(1, d_S=args.ds, dim=args.dim, obar=args.obar, meo=args.meo)
        ok = order_chain(args.ds, args.dim, args.obar, args.meo)
        return _report(
            "gates/chain",
            {"d_S": args.ds, "dim": args.dim, "obar": args.obar, "meo": args.meo},
            {"holds": ok},
        )
    if sub == "charsheaf":
        _check_at_least(1, dim=args.dim)
        fam = _parse_family(args.args)
        dec = _domain_call(char_sheaf_decision, fam, args.dim)
        return _report(
            "gates/charsheaf",
            {"family": repr(fam), "dim": args.dim},
            {"must_equal": dec.must_equal, "exception": dec.exception_member},
        )
    if sub == "bounds":
        _check_at_least(1, d=args.d, index=args.index)
        _check_at_least(0, W=args.w)
        return _report(
            "gates/bounds",
            {"d": args.d, "W": args.w, "index": args.index},
            {
                "bound1": bound1_consequence(args.d, args.w),
                "bound2_holds": bound2_check(args.w, args.d, args.index),
            },
        )
    if sub == "brauerp":
        if args.m11 and args.tables is not None:
            raise CliError(EXIT_VALIDATION, "brauerp takes --m11 or --tables FILE, not both")
        if args.m11:
            tabs = m11_trace_tables()
            t1, t2 = tabs["deg11"], tabs["deg10_rational"]
            type1 = (11, 3)
            echo = {"table1": t1.label, "table2": t2.label}  # the built-in tables, by name
        elif args.tables is None:
            raise CliError(EXIT_VALIDATION, "brauerp needs --tables FILE or --m11")
        else:
            t1, t2, type1 = _load_trace_tables(args.tables)
            echo = {"table1": t1.to_json(), "table2": t2.to_json()}
        out = _domain_call(brauerp_transfer, t1, t2, type1)
        return _report(
            "gates/brauerp",
            {**echo, "type1": list(type1)},
            {"type2": None if out is None else list(out)},
        )
    raise CliError(EXIT_VALIDATION, f"unknown gate {sub}")


def _load_trace_tables(path: str) -> tuple[TraceTable, TraceTable, tuple[int, int]]:
    obj = _load_json(path)
    if not isinstance(obj, dict) or not all(k in obj for k in ("table1", "table2", "type1")):
        raise CliError(EXIT_VALIDATION, f"{path}: expected \"table1\", \"table2\", \"type1\"")
    type1 = obj["type1"]
    if not isinstance(type1, list) or len(type1) != 2:
        raise CliError(EXIT_VALIDATION, f"type1 must be [D, m], got {json.dumps(type1)}")
    t1, t2 = (_domain_call(TraceTable.from_json, obj[k], _parse_entry) for k in ("table1", "table2"))
    _check_conductor(lcm(*(tr.m for t in (t1, t2) for _, _, tr in t.classes)))  # where the traces are compared
    return t1, t2, tuple(_domain_call(json_int, x, "type1 entry") for x in type1)


def _parse_family(tokens: list[str]) -> GroupFamily:
    """A family label with n >= 1 and, for Lie type, q a prime power (p a
    prime for the extraspecial normalizers)."""
    if not tokens:
        raise CliError(EXIT_VALIDATION, "family spec required")
    tag = tokens[0]
    try:
        if tag == "Sporadic":
            return GroupFamily("Sporadic", name=tokens[1])
        if tag == "Alternating":
            fam = GroupFamily("Alternating", n=int(tokens[1]))
            _check_at_least(1, n=fam.n)
        elif tag == "ExtraspecialNormalizer":
            fam = GroupFamily("ExtraspecialNormalizer", p=int(tokens[1]), n=int(tokens[2]), eps=tokens[3] if len(tokens) > 3 else None)
            _check_n_q(fam.n, fam.p, prime=True, q_name="p")
        else:
            fam = GroupFamily(tag, n=int(tokens[1]), q=int(tokens[2]))
            _check_n_q(fam.n, fam.q)
        return fam
    except (IndexError, ValueError) as exc:
        raise CliError(EXIT_VALIDATION, f"bad family spec {tokens}: {exc}")


def cmd_construct(args) -> dict:
    from .constructions import alt2_family, sawin, special_family

    if args.kind == "sawin":
        h = sawin(args.A, args.B, args.p, args.side)
        extra = {}
    elif args.kind == "alt2":
        h, grp, ct = alt2_family(args.n, args.k, args.p)
        extra = {"expected_group": grp, "i0_cycle_type": ct}
    elif args.kind == "special":
        params = {"N": args.N} if args.name == "F_N" else {"D": args.D, "chi": args.chi}
        foreign = [f"--{k}" for k in ("N", "D", "chi") if k not in params and getattr(args, k) is not None]
        if foreign:
            raise CliError(EXIT_VALIDATION, f"{args.name} does not take {' or '.join(foreign)}")
        missing = [f"--{k}" for k, v in params.items() if v is None]
        if missing:
            raise CliError(EXIT_VALIDATION, f"{args.name} needs {' and '.join(missing)}")
        _check_at_least(1, **{f"--{k}": v for k, v in params.items() if k != "chi"})
        h = _domain_call(special_family, args.name, params, args.p)  # a bad --chi or --D is a ValueError
        extra = {}
    else:
        raise CliError(EXIT_VALIDATION, f"unknown construction {args.kind}")
    result = {"descriptor": h.to_json(), "type": list(h.type), "W": h.W, **extra}
    return _report(f"construct/{args.kind}", vars_without(args, {"func", "out"}), result)


def cmd_tables(args) -> dict:
    from .constructions import table3_consistency, table3_entries, table12_data

    if args.table == "3":
        entries = [e.to_json() for e in table3_entries()]
        result = {"entries": entries}
        if args.check:
            rep = table3_consistency()
            result["consistency"] = rep
            if not rep["all_passed"]:
                raise CliError(EXIT_ORACLE, "table consistency battery failed")
        return _report("tables/3", {"check": args.check}, result)
    if args.table == "1" and args.check:
        raise CliError(EXIT_VALIDATION, "table 1 has no check; --check applies to tables 2 and 3")
    data = table12_data()
    if args.table == "1":
        result = {"table1": data["table1"], "meo_mindim": data["table1_meo_mindim"]}
    else:
        result = {"table2": data["table2"]}
        if args.check:
            from .gates import table2_gate_check

            rows = table2_gate_check()
            result["gate"] = [{"S": s, "meo": m, "min_dim": d, "passes": ok} for s, m, d, ok in rows]
            if not all(ok for *_, ok in rows):
                raise CliError(EXIT_ORACLE, "meo < minimal degree fails on a row")
    return _report(f"tables/{args.table}", {"check": args.check}, result)


def _check_conductor(m) -> None:
    """Refuse (exit 3) a conductor N whose N x phi(N) power table exceeds the
    cap, before the table is built; phi is not needed once N itself does."""
    cap = _cap(None)
    if isinstance(m, int) and m > 1 and (m > cap or m * euler_phi(m) > cap):
        raise CliError(EXIT_CAP, f"conductor {m} needs an N x phi(N) power table larger than the cap {cap}")


def _parse_entry(e) -> Cyc:
    """A generator-file entry or trace: an integer, a root of unity "a/N", or
    a {"conductor": m, "coeffs": [...], "den": d} literal (phi(m)
    coefficients), its conductor checked against the cap first."""
    if isinstance(e, str):
        try:
            u = UnityClass.parse(e)
        except ValueError:
            raise CliError(EXIT_VALIDATION, f"bad root of unity {json.dumps(e)}")
        _check_conductor(u.den)
        return Cyc.root(u)
    if isinstance(e, dict):
        _check_conductor(e.get("conductor"))
        return _domain_call(cyc_from_literal, e)
    return Cyc.from_int(_domain_call(json_int, e, "matrix entry"))


def _entry_json(c: Cyc):
    """Canonical input-grammar form of an entry, at its minimal conductor."""
    c = c.minimize()
    if c.is_integer():
        return c.integer()
    u = c.as_root_of_unity()
    if u is not None:
        return str(u)
    return {"conductor": c.m, "coeffs": list(c.num), "den": c.den}


def _load_generators(path: str) -> list[CycMatrix]:
    obj = _load_json(path)
    mats = obj.get("matrices") if isinstance(obj, dict) else None
    n = len(mats[0]) if isinstance(mats, list) and mats and isinstance(mats[0], list) else 0
    if n == 0 or not all(
        isinstance(mat, list) and len(mat) == n and all(isinstance(r, list) and len(r) == n for r in mat)
        for mat in mats
    ):
        raise CliError(EXIT_VALIDATION, f"{path}: expected \"matrices\", square matrices of one size")
    parsed = [[[_parse_entry(x) for x in row] for row in mat] for mat in mats]
    _check_conductor(lcm(*(x.m for mat in parsed for row in mat for x in row)))  # where the products live
    return [CycMatrix.from_rows(mat) for mat in parsed]


def cmd_m4(args) -> dict:
    gens = _load_generators(args.generators)
    for g in gens:  # CapExceeded past CYC_ORDER_CAP powers: an infinite order, which closure never ends
        if g.rank() == g.n:  # closure refuses a singular generator
            g.order()
    G = _domain_call(closure, gens)  # a singular generator is a ValueError
    echo = []
    for g in gens:
        flat = [_entry_json(x) for x in g.entries()]
        echo.append([flat[i * g.n : (i + 1) * g.n] for i in range(g.n)])
    return _report(
        "m4",
        {"generators": echo},
        {"group_order": G.order, "m4": m4(G)},
    )


def vars_without(args, skip):
    return {k: v for k, v in vars(args).items() if k not in skip and not callable(v)}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and through add_subparsers each of its subparsers,
    whose refusal is one stderr line ``error: ...`` and exit 2."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"error: {message}\n")


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hypermono", description=__doc__)
    p.add_argument("--out", help="write the JSON report to this file")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="full local-data report for a descriptor file")
    sp.add_argument("descriptor")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("splus", help="structural-condition verdict for a descriptor file")
    sp.add_argument("descriptor")
    sp.add_argument("--primitive", choices=["yes", "no", "unknown"], default="unknown")
    sp.set_defaults(func=cmd_splus)

    sp = sub.add_parser("ss", help="simple-spectrum torus types / oracles")
    sp.add_argument("family", choices=["linear", "unitary", "symplectic", "extraspecial"])
    sp.add_argument("n", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--exhaustive", action="store_true")
    sp.set_defaults(func=cmd_ss)

    sp = sub.add_parser("spectrum", help="exact Weil-module spectrum of a torus generator")
    sp.add_argument("family", choices=["linear", "unitary"])
    sp.add_argument("n", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--index", type=int, default=0)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("gates", help="arithmetic gate battery")
    gsub = sp.add_subparsers(dest="gate", required=True)
    g = gsub.add_parser("landau")
    g.add_argument("n", type=int)
    g = gsub.add_parser("ppd")
    g.add_argument("p", type=int)
    g.add_argument("k", type=int)
    g = gsub.add_parser("meo")
    g.add_argument("args", nargs="+")
    g = gsub.add_parser("chain")
    g.add_argument("ds", type=int)
    g.add_argument("dim", type=int)
    g.add_argument("obar", type=int)
    g.add_argument("meo", type=int)
    g = gsub.add_parser("charsheaf")
    g.add_argument("dim", type=int)
    g.add_argument("args", nargs="+")
    g = gsub.add_parser("bounds")
    g.add_argument("d", type=int)
    g.add_argument("w", type=int)
    g.add_argument("--index", type=int, default=1)
    g = gsub.add_parser("brauerp")
    g.add_argument("--tables", help="JSON file with table1, table2, type1")
    g.add_argument("--m11", action="store_true", help="use the embedded M11 tables")
    sp.set_defaults(func=cmd_gates)

    sp = sub.add_parser("construct", help="descriptor factories")
    csub = sp.add_subparsers(dest="kind", required=True)
    c = csub.add_parser("sawin")
    c.add_argument("A", type=int)
    c.add_argument("B", type=int)
    c.add_argument("p", type=int)
    c.add_argument("--side", choices=["quotient-at-C", "quotient-at-A", "i", "ii"], default="i")
    c = csub.add_parser("alt2")
    c.add_argument("n", type=int)
    c.add_argument("p", type=int)
    c.add_argument("--k", type=int, default=None)
    c = csub.add_parser("special")
    c.add_argument("name", choices=["F_N", "G_D"])
    c.add_argument("p", type=int)
    c.add_argument("--N", type=int)
    c.add_argument("--D", type=int)
    c.add_argument("--chi")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("tables", help="embedded catalogs")
    sp.add_argument("table", choices=["1", "2", "3"])
    sp.add_argument("--check", action="store_true")
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("m4", help="fourth moment of a matrix group from a generators file")
    sp.add_argument("generators")
    sp.set_defaults(func=cmd_m4)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _domain_call(_cap, None)  # HYPERMONO_CAP, when set, is a positive integer
        report = args.func(args)
        try:
            text = json.dumps(report, indent=2, sort_keys=True)
        except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
            raise CliError(EXIT_CAP, f"the report cannot be printed: {exc}")
        _emit(text, args.out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DescriptorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        pass  # the traceback holds the work's frames, and their memory, until this handler ends
    else:
        return EXIT_OK
    # best effort: the work's memory is free again, but printing may still fail
    print("error: out of memory: the input is inside the cap but too large for this process", file=sys.stderr)
    return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
