"""Decision engine for the finiteness-friendly structural condition (S+).

Each theorem-level sufficient criterion is encoded as a clause over the
exact shape data (D, m, W, p) of a descriptor; a verdict is Guaranteed only
when every hypothesis of the cited clause is machine-checked true, and
otherwise lists each failed clause.  NotCovered is *not* a claim that the
condition fails, only that no encoded criterion applies.
"""

from __future__ import annotations

from .algebra.numth import is_prime_power, least_prime_divisor, perfect_power
from .chargeom import HypDescriptor, belyi_wild_obstruction, kummer_induced

GUARANTEED = "Guaranteed"
NOT_COVERED = "NotCovered"

AUTO_KUMMER = "AutoKummerCheck"
SUFFICIENT = "SufficientCondition"
USER_ASSERTED = "UserAsserted"
UNKNOWN = "Unknown"


class SPlusVerdict:
    __slots__ = ("status", "theorem", "clause", "inequalities", "reasons", "primitivity_source")

    def __init__(self, status, theorem=None, clause=None, inequalities=(), reasons=(), primitivity_source=UNKNOWN):
        self.status = status
        self.theorem = theorem
        self.clause = clause
        self.inequalities = list(inequalities)
        self.reasons = list(reasons)
        self.primitivity_source = primitivity_source

    @property
    def guaranteed(self) -> bool:
        return self.status == GUARANTEED

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "theorem": self.theorem,
            "clause": self.clause,
            "inequalities": self.inequalities,
            "reasons": self.reasons,
            "primitivity_source": self.primitivity_source,
        }

    def __repr__(self):
        if self.guaranteed:
            return f"SPlusVerdict(Guaranteed via {self.theorem}/{self.clause})"
        return f"SPlusVerdict({self.status}: {'; '.join(self.reasons)})"


def resolve_primitivity(h: HypDescriptor, primitive: bool | None) -> tuple[bool | None, str]:
    """Tri-state primitivity with provenance.

    Kloosterman primitivity is decidable (Kummer-induction check).  For
    m > 0 the sufficient conditions are: type (D,1) with D not a p-power;
    D a p-power with m >= 2; wild dimension a p-power with the Kummer and
    Belyi obstructions both ruled out.  Otherwise the user assertion, if
    any, is taken at face value.
    """
    if h.m == 0:
        d = kummer_induced(h)
        return (d is None), AUTO_KUMMER
    d = kummer_induced(h)
    if d is not None:
        return False, AUTO_KUMMER
    pp = is_prime_power(h.D)
    if h.m == 1 and (pp is None or pp[0] != h.p):
        return True, SUFFICIENT
    if pp is not None and pp[0] == h.p and h.m >= 2:
        return True, SUFFICIENT
    wp = is_prime_power(h.W)
    if wp is not None and wp[0] == h.p and belyi_wild_obstruction(h).impossible:
        # Kummer already excluded above; wild part of p-power dimension
        # rules out Belyi induction outright.
        return True, SUFFICIENT
    if primitive is None:
        return None, UNKNOWN
    return primitive, USER_ASSERTED


def splus_verdict(h: HypDescriptor, primitive: bool | None = None) -> SPlusVerdict:
    """First satisfied criterion in precedence order, else every failure.

    Precedence: the Kloosterman criterion (m = 0) first.  With m > 0 the
    p-power-wild criterion (which needs no primitivity input) is tried
    before the primitivity-hypothesized criteria, except that an explicit
    ``primitive=True`` assertion moves those criteria to the front: the
    caller vouched for their one non-arithmetic hypothesis, so the most
    shape-specific of them wins the citation.
    """
    D, m, W, p = h.D, h.m, h.W, h.p
    prim, prim_src = resolve_primitivity(h, primitive)
    reasons: list[str] = []

    if prim is False:
        return SPlusVerdict(
            NOT_COVERED,
            reasons=["imprimitive (Kummer induced)" if prim_src == AUTO_KUMMER else "asserted imprimitive"],
            primitivity_source=prim_src,
        )

    # --- Kloosterman criterion (m = 0) --------------------------------
    if m == 0:
        conds = [
            (f"D={D} >= 2", D >= 2),
            (f"D={D} != 4", D != 4),
            (f"not (p=2 and D=8): p={p}, D={D}", not (p == 2 and D == 8)),
            ("primitive", prim is True),
        ]
        if all(v for _, v in conds):
            return SPlusVerdict(GUARANTEED, "kloosterman", "main", [c for c, _ in conds], primitivity_source=prim_src)
        reasons += [f"kloosterman: {c} fails" for c, v in conds if not v]
        return SPlusVerdict(NOT_COVERED, reasons=reasons, primitivity_source=prim_src)

    def try_qwild():
        wp = is_prime_power(W)
        if wp is not None and wp[0] == p:
            pw = perfect_power(D)
            label = (
                f"D={D} not a perfect power"
                if pw is None
                else f"W={W} >= n_max={pw[1]} (D={D}={pw[0]}^{pw[1]})"
            )
            if pw is None or W >= pw[1]:
                return SPlusVerdict(
                    GUARANTEED,
                    "q-wild",
                    "main",
                    [f"W={W}={p}^{wp[1]} is a power of p", label],
                    primitivity_source=SUFFICIENT,
                )
            reasons.append(f"q-wild: {label} fails")
        else:
            reasons.append(f"q-wild: W={W} is not a power of p={p}")
        return None

    def try_primitivity_criteria():
        if prim is not True:
            reasons.append("primitivity unknown (required by all remaining criteria)")
            return None
        # refined criterion for p coprime to D
        if D % p != 0:
            if D >= 4:
                p0 = least_prime_divisor(D)
                clauses = [
                    ("i", f"D={D} = p0={p0} (prime) > 4", D == p0 and D > 4),
                    ("ii", f"D={D} = p0^2={p0**2} > 4 and W={W} > 2*p0={2 * p0}", D == p0 * p0 and D > 4 and W > 2 * p0),
                    (
                        "iii",
                        f"D={D} > 4 not in {{p0={p0}, p0^2={p0**2}, 8}} and W={W} > D/p0={D}/{p0}",
                        D > 4 and D not in (p0, p0 * p0, 8) and W * p0 > D,
                    ),
                    ("iv", f"D={D} = 4 and W={W} = 3", D == 4 and W == 3),
                    ("v", f"D={D} = 8 and W={W} > 6", D == 8 and W > 6),
                ]
                for cid, label, ok in clauses:
                    if ok:
                        return SPlusVerdict(GUARANTEED, "coprime-refined", cid, [label], primitivity_source=prim_src)
                reasons.extend(f"coprime-refined({cid}): {label} fails" for cid, label, ok in clauses)
            else:
                reasons.append(f"coprime-refined: D={D} < 4")
            # plain p-coprime criterion (implied by the refined one; kept for reporting)
            conds = [
                (f"D={D} >= 4", D >= 4),
                (f"W={W} > D/2={D}/2", 2 * W > D),
                (f"not (p odd, D=8, W <= 6): p={p}, D={D}, W={W}", not (p % 2 == 1 and D == 8 and W <= 6)),
                (f"not (p != 3, D=9, W <= 6): p={p}, D={D}, W={W}", not (p != 3 and D == 9 and W <= 6)),
            ]
            if all(v for _, v in conds):
                return SPlusVerdict(GUARANTEED, "coprime", "main", [c for c, _ in conds], primitivity_source=prim_src)
            reasons.extend(f"coprime: {c} fails" for c, v in conds if not v)
        else:
            reasons.append(f"coprime criteria: p={p} divides D={D}")

        # criterion for p dividing D
        if D % p == 0:
            conds = [
                (f"D={D} > 4", D > 4),
                (f"3*W={3 * W} > 2*(D-1)={2 * (D - 1)}", 3 * W > 2 * (D - 1)),
                (f"not (p=2 and D=8): p={p}, D={D}", not (p == 2 and D == 8)),
                (f"not (p=3 and (D,m)=(9,1)): p={p}, type=({D},{m})", not (p == 3 and (D, m) == (9, 1))),
            ]
            if all(v for _, v in conds):
                return SPlusVerdict(GUARANTEED, "p-divides-D", "main", [c for c, _ in conds], primitivity_source=prim_src)
            reasons.extend(f"p-divides-D: {c} fails" for c, v in conds if not v)
        else:
            reasons.append(f"p-divides-D criterion: p={p} does not divide D={D}")
        return None

    stages = (
        (try_primitivity_criteria, try_qwild) if primitive is True else (try_qwild, try_primitivity_criteria)
    )
    for stage in stages:
        verdict = stage()
        if verdict is not None:
            return verdict
    return SPlusVerdict(NOT_COVERED, reasons=reasons, primitivity_source=prim_src)


# ---------------------------------------------------------------------------
# tensor induction / indecomposability obstructions
# ---------------------------------------------------------------------------


def tensor_induction_feasibility(h: HypDescriptor):
    """n >= 2 not excluded by the encoded obstructions, with annotations.

    Returns a list of (n, annotation) for surviving candidates.
    """
    D, m, W, p = h.D, h.m, h.W, h.p
    pw = perfect_power(D)
    if pw is None:
        return []
    base, nmax = pw  # base is no perfect power, so D is an n-th power exactly when n | nmax
    survivors = []
    for n in range(2, nmax + 1):
        if nmax % n:
            continue
        d0 = base ** (nmax // n)
        p0 = least_prime_divisor(D)
        # parity: an n-tensor-induced sheaf has n prime to p once the
        # tame-to-S_n argument applies
        tame_applies = (
            (m == 0 and D >= 4)
            or (m > 0 and D != 4 and W * p0 * p0 > D)
            or ((D, m) == (4, 1) and p != 2)
            or ((D, m) == (4, 2) and p == 2)
        )
        if tame_applies and n % p == 0:
            continue
        wp = is_prime_power(W)
        if m > 0 and wp is not None and wp[0] == p and W >= n:
            continue  # wild part P-irreducible of p-power dimension survives pullback
        if D % p != 0:
            if n * d0 < W or (m == 0 and n * d0 < D):
                continue
            if (D, m) == (4, 1) and p != 2 and n == 2:
                continue  # shape argument at infinity
            survivors.append((n, f"Swan bound n*d0={n * d0} >= W={W} does not force tameness"))
        else:
            if m == 0:
                if not (p == 2 and D == 8 and n == 3):
                    continue
                survivors.append((n, "p=2, D=8, n=3 escape of the p-divides-D Kloosterman argument"))
            else:
                if n == 2:
                    if p != 2 and D > 4 and 3 * W > 2 * (D - 1) and not (p == 3 and (D, m) == (9, 1)):
                        continue
                    if p == 2 and tame_applies:
                        continue  # n must be odd in characteristic 2
                    survivors.append((2, f"3*W={3 * W} <= 2*(D-1)={2 * (D - 1)} (or exempt shape)"))
                else:
                    if n * (d0 * d0 - 1) < W:
                        continue
                    if n * (d0 * d0 - 1) < 2 * W and d0 * d0 != 4:
                        continue  # Swan <= 1 impossible: End of rank != 4 indecomposable
                    survivors.append((n, f"n*(d0^2-1)={n * (d0 * d0 - 1)} >= W={W}"))
    return survivors


def indecomposability_ok(h: HypDescriptor) -> tuple[bool, str]:
    """Tensor indecomposability; False only in the known rank-4 exceptions."""
    if h.m == 0:
        return True, "Kloosterman sheaves are always tensor indecomposable"
    if h.D != 4:
        return True, "D != 4"
    if h.p != 2:
        if (h.D, h.m) != (4, 2):
            return True, "D=4, p odd, type != (4,2)"
        return False, "excluded case: type (4,2), p odd (tensor-decomposable examples exist)"
    if (h.D, h.m) != (4, 1):
        return True, "D=4, p=2, type != (4,1)"
    return False, "excluded case: type (4,1), p=2"
