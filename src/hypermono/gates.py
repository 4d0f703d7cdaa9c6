"""Arithmetic gate battery.

Landau's function, primitive prime divisors, the embedded maximal-element-
order / minimal-degree tables, the order-chain gate, characteristic
determination, dimension bounds, central constraints and the trace-transfer
comparator between pairs of representations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from .algebra.cyc import Cyc, cyc_from_literal, json_int
from .algebra.numth import CapExceeded, _cap, factor, is_prime, least_prime_divisor, partitions, primes_upto
from .chargeom import HypDescriptor


# ---------------------------------------------------------------------------
# Landau / ppd
# ---------------------------------------------------------------------------


def landau(n: int) -> int:
    """Largest lcm of a partition of n (largest element order in S_n), by a
    table of n steps for each of at most n prime powers: CapExceeded, before
    the cache, when n^2 passes the cap in force, so the answer does not
    depend on the cap that first built it."""
    if n < 0:
        raise ValueError("need n >= 0")
    cap = _cap(None)
    if n * n > cap:
        raise CapExceeded(f"Landau's function of n = {n} needs n^2 table steps, above cap {cap}")
    return _landau(n)


@lru_cache(maxsize=None)
def _landau(n: int) -> int:
    best = [1] * (n + 1)
    for p in primes_upto(n):
        for j in range(n, 0, -1):
            pk = p
            while pk <= j:
                cand = best[j - pk] * pk
                if cand > best[j]:
                    best[j] = cand
                pk *= p
    return best[n]


def landau_bruteforce(n: int) -> int:
    """Independent oracle: max lcm over all partitions of n (small n only),
    the reference landau is held to in test_criterion_7_gate_regression."""
    from math import lcm

    if n == 0:
        return 1
    return max(lcm(*part) for part in partitions(n))


def ppd(p: int, k: int) -> int | None:
    """Least prime dividing p^k - 1 but no p^j - 1 for j < k; None if absent.

    The absent cases are exactly the classical exceptional ones.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("need k >= 1")
    n = p**k - 1
    if n == 1:
        return None
    for ell in sorted(factor(n)):
        if all((p**j - 1) % ell != 0 for j in range(1, k)):
            return ell
    return None


# ---------------------------------------------------------------------------
# group families and the meo / minimal-degree data
# ---------------------------------------------------------------------------


class GroupFamily:
    """Candidate monodromy group family label."""

    __slots__ = ("tag", "n", "q", "name", "p", "eps")

    def __init__(self, tag: str, n: int | None = None, q: int | None = None, name: str | None = None, p: int | None = None, eps: str | None = None):
        tags = {
            "Linear",
            "Unitary",
            "Symplectic",
            "OrthogonalPlus",
            "OrthogonalMinus",
            "Alternating",
            "Sporadic",
            "ExtraspecialNormalizer",
        }
        if tag not in tags:
            raise ValueError(f"unknown family tag {tag}")
        self.tag = tag
        self.n = n
        self.q = q
        self.name = name
        self.p = p
        self.eps = eps

    @property
    def characteristic(self) -> int:
        """Defining characteristic r (0 for Alternating/Sporadic)."""
        if self.tag in ("Alternating", "Sporadic"):
            return 0
        if self.tag == "ExtraspecialNormalizer":
            return self.p
        return least_prime_divisor(self.q)

    def __repr__(self):
        if self.tag == "Sporadic":
            return f"Sporadic({self.name})"
        if self.tag == "Alternating":
            return f"Alternating({self.n})"
        if self.tag == "ExtraspecialNormalizer":
            return f"ExtraspecialNormalizer(p={self.p}, n={self.n}, eps={self.eps})"
        return f"{self.tag}({self.n},{self.q})"


class GateDataError(ValueError):
    """A gate asked of a family its tables or formulas do not cover."""


# Maximal element order of Aut(S) and minimal faithful projective degree for
# the sporadic groups whose minimal degree beats the element-order budget.
TABLE2 = {
    "J1": (19, 56),
    "J4": (66, 1333),
    "He": (42, 51),
    "Ly": (62, 2480),
    "ON": (56, 342),
    "HN": (60, 133),
    "Fi22": (42, 78),
    "Fi23": (60, 782),
    "Fi24'": (84, 783),
    "Th": (39, 248),
    "BM": (70, 4371),
    "M": (119, 196883),
}

# Non-generic simple groups that do admit simple-spectrum elements, with
# (meo(Aut(S)), minimal faithful projective degree).
TABLE1_MEO_MINDIM = {
    "A7": (12, 4),
    "M11": (11, 10),
    "M12": (12, 10),
    "M22": (14, 10),
    "M23": (23, 22),
    "M24": (23, 23),
    "J2": (24, 6),
    "J3": (34, 18),
    "HS": (30, 22),
    "McL": (30, 22),
    "Ru": (29, 28),
    "Suz": (40, 12),
    "Co1": (60, 24),
    "Co2": (30, 23),
    "Co3": (30, 23),
    "PSL3(4)": (21, 6),
    "PSU4(3)": (28, 6),
    "Sp6(2)": (15, 7),
    "O8+(2)": (30, 8),
    "2B2(8)": (15, 14),
    "G2(3)": (18, 14),
    "G2(4)": (24, 12),
}

EXACT = "exact"
BOUND = "bound"


def _positive(value, what: str, fam: GroupFamily) -> int:
    """value when it is a positive integer; a formula applied outside its
    range (n = 1 Unitary, n = 2 orthogonal, ...) gives none."""
    if not isinstance(value, int) or value < 1:
        raise GateDataError(f"no {what} data for {fam}: the formula gives {value!r}")
    return value


def meo_bound(fam: GroupFamily) -> tuple[int, str]:
    """(value, 'exact'|'bound') for the maximal element order of Aut(S)."""
    t = fam.tag
    if t == "Sporadic":
        for table in (TABLE2, TABLE1_MEO_MINDIM):
            if fam.name in table:
                return table[fam.name][0], EXACT
        raise GateDataError(f"no meo data for sporadic {fam.name}")
    if t == "Alternating":
        return landau(fam.n), EXACT
    n, q = fam.n, fam.q
    if t == "Linear":
        value, kind = (q**n - 1) // (q - 1), EXACT
    elif t == "Unitary":
        if n < 2:  # the bound's q^(n-2) is not an integer
            raise GateDataError(f"no meo data for {fam}: the bound needs n >= 2")
        value, kind = q ** (n - 1) + q ** min(2, n - 2), BOUND
    elif t in ("Symplectic", "OrthogonalPlus", "OrthogonalMinus"):
        # quoted bound q^(n+1)/(q-1), rounded down to an integer bound
        value, kind = q ** (n + 1) // (q - 1), BOUND
    else:
        raise GateDataError(f"no meo data for {fam}")
    return _positive(value, "meo", fam), kind


def min_dim(fam: GroupFamily) -> tuple[int, str]:
    """(value, 'exact'|'bound') for the minimal faithful projective degree."""
    t = fam.tag
    if t == "Sporadic":
        for table in (TABLE2, TABLE1_MEO_MINDIM):
            if fam.name in table:
                return table[fam.name][1], EXACT
        raise GateDataError(f"no minimal degree data for sporadic {fam.name}")
    n, q = fam.n, fam.q
    if t == "Linear":
        value, kind = (q**n - q) // (q - 1), BOUND
    elif t == "Unitary":
        value, kind = (q**n - q) // (q + 1), BOUND
    elif t == "Symplectic" and q % 2 == 1:
        value, kind = (q**n - 1) // 2, EXACT
    elif t == "Symplectic":
        value, kind = (q**n - 1) * (q**n - q) // (2 * (q + 1)), EXACT
    elif t in ("OrthogonalPlus", "OrthogonalMinus"):
        value, kind = (q**n + 1) * (q ** (n - 1) - q) // (q * q - 1), BOUND
    else:
        raise GateDataError(f"no minimal degree data for {fam}")
    return _positive(value, "minimal degree", fam), kind


def order_chain(d_s: int, dim_v: int, obar: int, meo: int) -> bool:
    """The chain d(S) <= dim(V) <= central order of g <= meo(G/Z)."""
    return d_s <= dim_v <= obar <= meo


def table2_gate_check() -> list[tuple[str, int, int, bool]]:
    """Verify meo < minimal degree on every embedded exclusion-table row."""
    return [(name, meo, dim, meo < dim) for name, (meo, dim) in sorted(TABLE2.items())]


# ---------------------------------------------------------------------------
# characteristic determination
# ---------------------------------------------------------------------------

# Lie-type groups that may occur with sheaf characteristic different from the
# defining one (all in dimension <= 22).
CHAR_SHEAF_EXCEPTIONS = (
    [("Linear", 2, q) for q in (5, 7, 8, 9, 11, 25)]
    + [("Linear", 3, 2), ("Linear", 4, 2), ("Linear", 3, 3), ("Linear", 3, 4)]
    + [("Unitary", 4, 2), ("Unitary", 5, 2), ("Unitary", 6, 2)]
    + [("Unitary", 3, 3), ("Unitary", 4, 3), ("Unitary", 3, 4), ("Unitary", 3, 5)]
    + [("Symplectic", 3, 2)]
    + [("Symplectic", 2, 3), ("Symplectic", 3, 3), ("Symplectic", 2, 5)]
    + [("OrthogonalPlus", 4, 2)]
    + [("2B2", None, 8), ("G2", None, 3), ("G2", None, 4)]
)

EXTRASPECIAL_EXCEPTION_DIMS = {2, 3, 4, 5, 8, 9}
LIE_EXCEPTION_MAX_DIM = 22


class CharSheafDecision:
    __slots__ = ("must_equal", "exception_member")

    def __init__(self, must_equal=None, exception_member=None):
        self.must_equal = must_equal
        self.exception_member = exception_member

    def __repr__(self):
        if self.must_equal is not None:
            return f"MustEqual({self.must_equal})"
        return f"SmallException({self.exception_member})"


def _lie_exception_key(fam: GroupFamily):
    if fam.tag == "Sporadic" and fam.name in ("2B2(8)", "G2(3)", "G2(4)"):
        base = fam.name.split("(")
        return (base[0], None, int(base[1][:-1]))
    if fam.tag in ("Linear", "Unitary", "Symplectic", "OrthogonalPlus", "OrthogonalMinus"):
        # symplectic families are tabulated by half-rank n (Sp_2n)
        return (fam.tag, fam.n, fam.q)
    return None


def char_sheaf_decision(fam: GroupFamily, dim: int) -> CharSheafDecision:
    """Either the sheaf characteristic must equal the defining one, or the
    family is on the explicit small-dimension exception list."""
    if fam.tag == "ExtraspecialNormalizer":
        if dim in EXTRASPECIAL_EXCEPTION_DIMS:
            return CharSheafDecision(exception_member=f"extraspecial dim {dim}")
        return CharSheafDecision(must_equal=fam.p)
    key = _lie_exception_key(fam)
    if key is None:
        raise GateDataError(f"{fam} is outside the characteristic-determination battery")
    if dim <= LIE_EXCEPTION_MAX_DIM and key in CHAR_SHEAF_EXCEPTIONS:
        return CharSheafDecision(exception_member=repr(fam))
    if key[0] in ("2B2", "G2"):
        raise GateDataError(f"{fam} only enters the battery through the exception list")
    return CharSheafDecision(must_equal=fam.characteristic)


# ---------------------------------------------------------------------------
# dimension bounds and central constraints
# ---------------------------------------------------------------------------


def bound1_consequence(d: int, w: int) -> str | None:
    """d-dimensional representations of the inertia image with d < W are tame."""
    if d < w:
        return f"dimension {d} < W={w}: representation is tame, image a finite cyclic p'-group"
    return None


def bound2_check(w: int, d: int, index: int) -> bool:
    """W <= d * [G/Z : R] (<= d * |Out(S)|)."""
    return w <= d * index


def p_center_constraints(h: HypDescriptor) -> list[str]:
    """Machine-readable constraints on any finite monodromy candidate."""
    p, d, m, w = h.p, h.D, h.m, h.W
    out = []
    if m > 0:
        out.append("Q meet Z(G) = 1")
    elif d % p != 0:
        out.append("Q meet Z(G) = 1")
    else:
        out.append("Q meet Z(G) = 1 or C_p")
    if d > 1:
        out.append("p divides |G/Z(G)|")
    if w >= 2:
        out.append("det(G) is a p'-group")
        if d % p != 0:
            out.append("Z(G) is a p'-group")
    if p == 2:
        out.append("traces are 2-rational; 2-part of |Z(G)| is at most 2")
    return out


# ---------------------------------------------------------------------------
# trace tables and the Brauer-type transfer
# ---------------------------------------------------------------------------


class TraceTable:
    """Degree plus per-class traces, with p-power-order classes flagged."""

    __slots__ = ("label", "degree", "classes")

    def __init__(self, label: str, degree: int, classes):
        # classes: list of (class_id, p_class: bool, trace: Cyc)
        self.label = label
        self.degree = degree
        self.classes = [(cid, bool(flag), tr if isinstance(tr, Cyc) else Cyc.from_fraction(Fraction(tr))) for cid, flag, tr in classes]
        ident = next((tr for cid, flag, tr in self.classes if cid == "1A"), None)
        if ident is not None and ident != Cyc.from_int(degree):
            raise ValueError("degree does not match the identity-class trace")

    def p_classes(self) -> list[tuple[str, Cyc]]:
        return [(cid, tr) for cid, flag, tr in self.classes if flag]

    def to_json(self) -> dict:
        def trj(tr: Cyc):
            if tr.is_rational() and tr.den == 1:
                return tr.num[0]
            return {"conductor": tr.m, "coeffs": list(tr.num), "den": tr.den}

        return {
            "label": self.label,
            "degree": self.degree,
            "classes": [
                {"id": cid, "p_class": flag, "trace": trj(tr)} for cid, flag, tr in self.classes
            ],
        }

    @classmethod
    def from_json(cls, obj: dict, literal=cyc_from_literal) -> "TraceTable":
        """Inverse of ``to_json``, reading each non-integer trace with
        ``literal``.  A malformed table raises ValueError: a missing field, a
        non-boolean flag, or a float or boolean where an integer belongs
        (never truncated)."""
        try:
            rows = [(c["id"], c["p_class"], c["trace"]) for c in obj["classes"]]
            degree = json_int(obj["degree"], "degree")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"trace table needs a degree and classes with id, p_class, trace: {exc!r}")
        classes = []
        for cid, flag, tr in rows:
            if not isinstance(cid, str) or not isinstance(flag, bool):
                raise ValueError(f"a class needs a string id and a boolean p_class, got {json.dumps([cid, flag])}")
            trc = literal(tr) if isinstance(tr, dict) else Cyc.from_int(json_int(tr, f"trace of {cid}"))
            classes.append((cid, flag, trc))
        return cls(obj.get("label", ""), degree, classes)


def brauerp_transfer(t1: TraceTable, t2: TraceTable, type1: tuple[int, int]) -> tuple[int, int] | None:
    """If trace2 = a + trace1 on every flagged p-class, shift the type by (a, a).

    Both representations then realize hypergeometric local data together,
    with (D2, m2) = (D1 + a, m1 + a).  Returns None when no constant works.
    """
    p1 = dict(t1.p_classes())
    p2 = dict(t2.p_classes())
    if set(p1) != set(p2):
        raise ValueError("trace tables do not share p-class indexing")
    if t1.degree != type1[0]:
        raise ValueError("type1 is inconsistent with table degrees")
    if not p1:
        raise ValueError("no flagged p-classes")
    a = None
    for cid in p1:
        diff = p2[cid] - p1[cid]
        if not diff.is_rational() or diff.rational().denominator != 1:
            return None
        val = int(diff.rational())
        if a is None:
            a = val
        elif a != val:
            return None
    d1, m1 = type1
    return (d1 + a, m1 + a)


# ---------------------------------------------------------------------------
# embedded M11 character data (degree-11 vs the two degree-10 characters)
# ---------------------------------------------------------------------------


def _i_sqrt2() -> Cyc:
    return Cyc.from_root_sum(8, [0, 1, 0, 1])  # zeta_8 + zeta_8^3 = i*sqrt(2)


def m11_trace_tables() -> dict[str, TraceTable]:
    """Traces of the degree-11 and degree-10 irreducible characters of M11.

    Classes in ATLAS order 1A 2A 3A 4A 5A 6A 8A 8B 11A 11B; the flagged
    classes are the 3-power ones (1A, 3A) since the relevant sheaf lives in
    characteristic 3.
    """
    isq2 = _i_sqrt2()

    def C(v):
        return Cyc.from_int(v)

    ids = ["1A", "2A", "3A", "4A", "5A", "6A", "8A", "8B", "11A", "11B"]
    flags = [True, False, True, False, False, False, False, False, False, False]
    chi11 = [11, 3, 2, 1, 1, 0, -1, -1, 0, 0]
    chi10_rat = [10, 2, 1, 0, 0, -1, 0, 0, -1, -1]
    chi10_cplx = [C(10), C(-2), C(1), C(0), C(0), C(1), isq2, -isq2, C(-1), C(-1)]
    t11 = TraceTable("M11-deg11", 11, list(zip(ids, flags, map(C, chi11))))
    t10a = TraceTable("M11-deg10-rational", 10, list(zip(ids, flags, map(C, chi10_rat))))
    t10b = TraceTable("M11-deg10-complex", 10, list(zip(ids, flags, chi10_cplx)))
    return {"deg11": t11, "deg10_rational": t10a, "deg10_complex": t10b}
