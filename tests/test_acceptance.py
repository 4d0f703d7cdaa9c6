"""Acceptance battery: one test per criterion, each printing a PASS line.

All comparisons are exact; the wall-clock limits are the stated budgets.
Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from math import gcd

import pytest

from hypermono.algebra.cyc import Cyc
from hypermono.algebra.fq import FqMatrix, field
from hypermono.algebra.unity import unity
from hypermono.chargeom import HypDescriptor
from hypermono.repkit import closure, m4


def report(num, elapsed, detail=""):
    print(f"ACCEPTANCE {num} [PASS] ({elapsed:.2f}s) {detail}")


def test_criterion_1_table3_battery():
    """All catalog rows parse, validate, and match the wild-image p-parts."""
    from hypermono.constructions import table3_consistency, table3_entries

    t0 = time.time()
    entries = table3_entries()
    rep = table3_consistency()
    assert rep["all_passed"], rep
    assert len(rep["rows"]) == len(entries) == 19
    expected = {
        ("M11", 3): 3**2,
        ("M22", 2): 2**3,
        ("M23", 2): 2**4,
        ("M24", 2): 2**6,
        ("J2", 5): 5**2,
        ("J3", 2): 2**4,
        ("Ru", 5): 5**2,
        ("PSU4(3)", 3): 3**4,
        ("Sp6(2)", 7): 7,
        ("O8+(2)", 7): 7,
        ("PSL3(4)", 3): 3**2,
        ("G2(3)", 13): 13,
        ("2B2(8)", 13): 13,
    }
    seen = set()
    for row in rep["rows"]:
        key = (row["group"], row["p"])
        if key in expected:
            assert row["wild_image_order"] == expected[key], key
            assert row["p_part_matches"], key
            seen.add(key)
    assert seen == set(expected)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, elapsed, f"{len(entries)} rows, 13 wild-image p-parts checked")


def test_criterion_2_alternating_oracle():
    """Simple-spectrum cycle types on the deleted permutation module."""
    from hypermono.weilgl import simple_cycle_types

    t0 = time.time()
    for n in range(5, 15):
        got = {tuple(ct) for ct in simple_cycle_types(n)}
        want = {(n,)} | {
            tuple(sorted((k, n - k), reverse=True)) for k in range(1, n) if gcd(k, n) == 1
        }
        assert got == want, n
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, elapsed, "n = 5..14 exact")


GROUPS_3 = [("Linear", 3, 3), ("Linear", 3, 2), ("Unitary", 2, 3), ("Unitary", 3, 3)]


def test_criterion_3_linear_unitary_oracle():
    """Exhaustive simple-spectrum scans against the classified torus types."""
    from hypermono.weilgl import ss_exhaustive_check, weil_degrees

    t0 = time.time()
    singer_order = {
        ("Linear", 3, 3): 13,
        ("Linear", 3, 2): 7,
        ("Unitary", 3, 3): 7,
    }
    for fam, n, q in GROUPS_3:
        rep = ss_exhaustive_check(fam, n, q)
        if (fam, n, q) == ("Unitary", 2, 3):
            # outside the classification (n = 2): the oracle reports the raw
            # data and flags the exclusion
            assert rep.agree is None and "excluded" in rep.details
            continue
        assert rep.agree is True, rep.counterexamples
        top = max(weil_degrees(fam, n, q))
        per_dim = rep.details["per_dim"][str(top)]
        want = singer_order[(fam, n, q)]
        assert per_dim["realized"] == [want] == per_dim["allowed"]
        # the iff both ways: every p'-element of the torus order is simple on
        # every top-degree module
        n_top = sum(1 for d in rep.details["degrees"] if d == top)
        total = rep.details["p_prime_counts_by_obar"][str(want)]
        assert rep.details["ss_by_dim"][str(top)][str(want)] == n_top * total
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(3, elapsed, "GL3(3), GL3(2), GU2(3), GU3(3) exhaustive")


def test_criterion_4_weil_identities():
    """Summation identities, trace-difference constancy, and ratio bounds."""
    from hypermono.weilgl import (
        gl_kernel_profile,
        group_scalars,
        gu_kernel_profile,
        tau_value,
        the_group,
        zeta_value,
    )

    t0 = time.time()
    for fam, n, q in GROUPS_3:
        G = the_group(fam, n, q)
        scalars = group_scalars(G)
        ratio_applies = fam == "Linear" or (fam == "Unitary" and n >= 3)
        idxs = range(1 if q == 2 else q - 1) if fam == "Linear" else range(q + 1)
        degrees = {}
        for i in idxs:
            val = (
                tau_value(n, q, i, G.identity)
                if fam == "Linear"
                else zeta_value(n, q, i, G.identity)
            )
            degrees[i] = int(val.rational())
        identity_diffs = {
            (i, j): degrees[i] - degrees[j] for i in idxs for j in idxs
        }
        for g in G.elements:
            if fam == "Linear":
                prof = gl_kernel_profile(g, q)
                vals = {i: tau_value(n, q, i, g, prof) for i in idxs}
                total = Cyc.from_int(0)
                for v in vals.values():
                    total = total + v
                assert total.rational() + 2 == q ** prof[0]
            else:
                prof = gu_kernel_profile(g, q)
                vals = {i: zeta_value(n, q, i, g, prof) for i in idxs}
                total = Cyc.from_int(0)
                for v in vals.values():
                    total = total + v
                assert total.rational() == (-1) ** n * (-q) ** prof[0]
                # trace-difference constancy for elements of order prime to q+1
                if g.order() % 2 == 1:  # q = 3: coprime to q+1 = 4 means odd
                    for i in idxs:
                        for j in idxs:
                            diff = vals[i] - vals[j]
                            assert diff.rational() == identity_diffs[(i, j)]
            if ratio_applies and g not in scalars:
                for i in idxs:
                    # |phi(g)| / phi(1) <= 3/5, exactly
                    assert vals[i].abs2().rational() * 25 <= 9 * degrees[i] ** 2, (fam, i)
    elapsed = time.time() - t0
    report(4, elapsed, "summation identities, constancy, ratio bounds")


def test_criterion_5_stone_von_neumann():
    """Extraspecial torus spectra, symplectic halves, half-trace identity."""
    from hypermono.stonevn import (
        HeisenbergModel,
        outer_intertwiner_odd,
        sp_mod1_check,
        ss_extr_oracle,
        ss_sp_oracle,
    )
    from hypermono.weilgl import symplectic_group

    t0 = time.time()
    extr = ss_extr_oracle(2)
    assert extr["minus"]["matches"] and extr["minus"]["simple"]
    assert extr["plus"]["matches"] and not extr["plus"]["simple"]

    sp45 = ss_sp_oracle(2, 5)
    assert sp45["agree"]
    tminus = next(t for t in sp45["types"] if t["torus"] == "T-")
    assert tminus["central_order"] == 13
    assert tminus["simple_even"] and tminus["simple_odd"]
    assert sp45["dims"] == [13, 12]

    m3 = HeisenbergModel(3, 1)
    for g in symplectic_group(1, 3).elements:
        if g.order() % 2 == 1:
            assert sp_mod1_check(m3, outer_intertwiner_odd(m3, g))

    m9 = HeisenbergModel(3, 2)
    odd_classes = 0
    for g in symplectic_group(2, 3).class_representatives():
        if g.order() % 2 == 1:
            assert sp_mod1_check(m9, outer_intertwiner_odd(m9, g))
            odd_classes += 1
    assert odd_classes >= 8
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(5, elapsed, f"C5/C3 spectra, Sp4(5) halves, {odd_classes} Sp4(3) classes")


def monomial_group(q, gen):
    from hypermono.algebra.cyc import zeta
    from hypermono.repkit import CycMatrix

    z = zeta(q)
    diag = CycMatrix.from_rows(
        [[(z if (i == j == 0) else (1 if i == j else 0)) for j in range(q)] for i in range(q)]
    )
    T = CycMatrix.from_rows(
        [[1 if i == (j + 1) % q else 0 for j in range(q)] for i in range(q)]
    )
    S = CycMatrix.from_rows(
        [[1 if i == (gen * j) % q else 0 for j in range(q)] for i in range(q)]
    )
    return closure([diag, T, S])


def test_criterion_6_fourth_moments():
    """Both small constructions at q = 3 plus the monomial one at q = 5."""
    from hypermono.stonevn import HeisenbergModel, outer_intertwiner_odd

    t0 = time.time()
    J3 = monomial_group(3, 2)
    assert J3.order == 162 and m4(J3) == 3

    m = HeisenbergModel(3, 1)
    g4 = FqMatrix.from_rows(field(3), [[0, 2], [1, 0]])
    M0 = outer_intertwiner_odd(m, g4).finite_order_form()
    J4 = closure([m.rho_matrix((1,), (0,)), m.rho_matrix((0,), (1,)), M0])
    assert J4.order == 108 and m4(J4) == 3

    J5 = monomial_group(5, 2)
    assert J5.order == 62500 and m4(J5) == 3
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(6, elapsed, "orders 162, 108, 62500 all have fourth moment 3")


def test_criterion_7_gate_regression():
    """Landau values, ppd exceptions, characteristic lists, exclusion table."""
    from hypermono.gates import (
        GroupFamily,
        char_sheaf_decision,
        landau,
        landau_bruteforce,
        ppd,
        table2_gate_check,
    )

    t0 = time.time()
    a000793 = [1, 1, 2, 3, 4, 6, 6, 12, 15, 20, 30, 30, 60, 60, 84, 105, 140, 210, 210, 420, 420]
    assert [landau(n) for n in range(21)] == a000793
    assert landau(7) == 12 and landau(12) == 60
    assert all(landau(n) == landau_bruteforce(n) for n in range(21))

    assert ppd(2, 6) is None
    for p in (3, 7, 31, 127):
        assert ppd(p, 2) is None  # p + 1 a power of 2
    for p, k in [(3, 4), (2, 4), (5, 3), (2, 10)]:
        assert ppd(p, k) is not None

    exc = [
        (GroupFamily("Linear", 2, 7), 8),
        (GroupFamily("Linear", 4, 2), 14),
        (GroupFamily("Unitary", 6, 2), 22),
        (GroupFamily("Symplectic", 2, 5), 13),
        (GroupFamily("Symplectic", 3, 3), 14),
        (GroupFamily("OrthogonalPlus", 4, 2), 8),
        (GroupFamily("Sporadic", name="2B2(8)"), 14),
        (GroupFamily("Sporadic", name="G2(3)"), 14),
    ]
    for fam, dim in exc:
        assert char_sheaf_decision(fam, dim).exception_member is not None, fam
    must = [
        (GroupFamily("Linear", 4, 5), 156),
        (GroupFamily("Unitary", 4, 3), 23),  # dimension above the cutoff
        (GroupFamily("Symplectic", 4, 3), 40),
        (GroupFamily("ExtraspecialNormalizer", p=2, n=4, eps="-"), 16),
    ]
    for fam, dim in must:
        dec = char_sheaf_decision(fam, dim)
        assert dec.must_equal == fam.characteristic, fam
    for f_extr_dim in (2, 3, 4, 5, 8, 9):
        fam = GroupFamily("ExtraspecialNormalizer", p=3, n=2, eps=None)
        assert char_sheaf_decision(fam, f_extr_dim).exception_member is not None

    rows = table2_gate_check()
    assert len(rows) == 12 and all(ok for *_, ok in rows)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(7, elapsed, "landau, ppd, characteristic lists, exclusion table")


def test_criterion_8_brauer_transfer_and_verdicts():
    """Trace transfer shifts and the full worked-verdict battery."""
    from hypermono.gates import brauerp_transfer, m11_trace_tables
    from hypermono.splus import splus_verdict

    t0 = time.time()
    tabs = m11_trace_tables()
    assert brauerp_transfer(tabs["deg11"], tabs["deg10_rational"], (11, 3)) == (10, 2)
    assert brauerp_transfer(tabs["deg11"], tabs["deg10_complex"], (11, 3)) == (10, 2)
    assert brauerp_transfer(tabs["deg10_rational"], tabs["deg10_complex"], (10, 2)) == (10, 2)

    def generic(p, d, m):
        big = 101
        return HypDescriptor(
            p,
            [unity(k, big) for k in range(1, d + 1)],
            [unity(k, big) for k in range(d + 1, d + m + 1)],
        )

    battery = [
        (generic(3, 7, 0), None, "Guaranteed", "kloosterman", None),
        (generic(2, 9, 3), True, "NotCovered", None, None),
        (generic(2, 9, 1), True, "Guaranteed", "coprime-refined", "ii"),
        (generic(2, 31, 15), None, "Guaranteed", "q-wild", None),
        (generic(5, 10, 3), True, "Guaranteed", "p-divides-D", None),
        (generic(5, 8, 2), True, "NotCovered", None, None),
        (generic(3, 4, 2), True, "NotCovered", None, None),
    ]
    for h, prim, status, theorem, clause in battery:
        v = splus_verdict(h, prim)
        assert v.status == status, (h.type, v)
        if theorem is not None:
            assert v.theorem == theorem
        if clause is not None:
            assert v.clause == clause
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(8, elapsed, "transfer shifts and 7 worked verdicts")


def test_criterion_9_sawin_alt2_suite():
    """Catalog reproduction plus the n-cycle family grid."""
    from hypermono.chargeom import DescriptorError, i0_simple
    from hypermono.constructions import alt2_family, sawin, table3_entries

    t0 = time.time()
    entries = table3_entries()
    assert sawin(11, 1, 3, "i") == entries[2].descriptor
    assert sawin(23, 1, 2, "i") == entries[5].descriptor
    for n in range(5, 31):
        for p in (2, 3, 5, 7, 11, 13):
            if p > n - 3:
                continue
            if n % p == 0:
                with pytest.raises(DescriptorError):
                    alt2_family(n, None, p)
            else:
                h, _, _ = alt2_family(n, None, p)
                assert h.W == p - 1 and i0_simple(h)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(9, elapsed, "catalog rows bit-exact; grid n <= 30, p <= 13")
