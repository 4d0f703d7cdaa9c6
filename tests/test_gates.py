import json

import pytest

from hypermono.algebra.cyc import Cyc
from hypermono.algebra.numth import CapExceeded
from hypermono.algebra.unity import unity
from hypermono.chargeom import HypDescriptor, parse_charset
from hypermono.gates import (
    CHAR_SHEAF_EXCEPTIONS,
    GateDataError,
    GroupFamily,
    TraceTable,
    bound1_consequence,
    bound2_check,
    brauerp_transfer,
    char_sheaf_decision,
    landau,
    landau_bruteforce,
    m11_trace_tables,
    meo_bound,
    min_dim,
    order_chain,
    p_center_constraints,
    ppd,
    table2_gate_check,
)

# A000793 for n = 0..20, frozen from the partition brute force
A000793 = [1, 1, 2, 3, 4, 6, 6, 12, 15, 20, 30, 30, 60, 60, 84, 105, 140, 210, 210, 420, 420]


class TestLandau:
    def test_reference_values(self):
        assert [landau(n) for n in range(21)] == A000793
        assert landau(7) == 12 and landau(12) == 60 and landau(1) == 1

    def test_against_partition_oracle(self):
        for n in range(27):
            assert landau(n) == landau_bruteforce(n)

    def test_refused_under_the_cap_in_force(self, monkeypatch):
        """landau(n) is refused once n^2 passes the cap in force, even when
        it was built under a larger one."""
        assert landau(30) == landau_bruteforce(30)  # 900 table steps, at the default cap
        monkeypatch.setenv("HYPERMONO_CAP", "899")
        with pytest.raises(CapExceeded):
            landau(30)
        assert landau(29) == landau_bruteforce(29)


class TestPpd:
    def test_examples(self):
        assert ppd(3, 4) == 5
        assert ppd(2, 6) is None
        assert ppd(7, 2) is None

    def test_mersenne_and_263(self):
        # absent exactly at k=1 p=2; k=2 with p+1 a 2-power; (p,k)=(2,6)
        for p in (3, 7, 31):
            assert ppd(p, 2) is None
        for p in (5, 11, 13):
            assert ppd(p, 2) is not None
        assert ppd(2, 1) is None and ppd(3, 1) == 2

    def test_congruence_property(self):
        for p in (2, 3, 5, 7):
            for k in range(1, 12):
                if p**k > 10**9:
                    continue
                ell = ppd(p, k)
                if ell is not None:
                    assert ell % k == 1 or k == 1

    def test_exception_characterization(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 31):
            for k in range(2, 13):
                if p**k > 10**9:
                    continue
                expected_absent = (p, k) == (2, 6) or (k == 2 and (p + 1) & p == 0)
                assert (ppd(p, k) is None) == expected_absent, (p, k)


class TestMeoTables:
    def test_linear_exact(self):
        assert meo_bound(GroupFamily("Linear", 4, 2)) == (15, "exact")

    def test_sporadic_rows(self):
        assert meo_bound(GroupFamily("Sporadic", name="Ly")) == (62, "exact")
        assert min_dim(GroupFamily("Sporadic", name="Ly")) == (2480, "exact")
        assert meo_bound(GroupFamily("Sporadic", name="M")) == (119, "exact")

    def test_symplectic_even_min_dim(self):
        # (q^n-1)(q^n-q)/(2(q+1)) at Sp_6(2): (8-1)(8-2)/6 = 7, matching the
        # non-generic table's Sp6(2) row
        val, kind = min_dim(GroupFamily("Symplectic", 3, 2))
        assert val == 7 and kind == "exact"
        assert min_dim(GroupFamily("Symplectic", 3, 4))[0] == 63 * 60 // 10

    def test_alternating_meo_is_landau(self):
        assert meo_bound(GroupFamily("Alternating", 9))[0] == landau(9)

    def test_unknown_family_raises(self):
        with pytest.raises(GateDataError):
            meo_bound(GroupFamily("Sporadic", name="Nope"))
        with pytest.raises(GateDataError):
            min_dim(GroupFamily("Alternating", 9))

    def test_unitary_rank_one_is_refused_before_the_bound(self):
        """q^(n-2) is no integer at n = 1, so no float is ever formed."""
        with pytest.raises(GateDataError, match="n >= 2"):
            meo_bound(GroupFamily("Unitary", 1, 2))
        assert issubclass(GateDataError, ValueError)

    def test_table2_gate(self):
        rows = table2_gate_check()
        assert len(rows) == 12
        assert all(ok for *_, ok in rows)


class TestOrderChain:
    def test_rows(self):
        assert order_chain(10, 10, 11, 11)
        assert order_chain(23, 23, 23, 30)
        assert not order_chain(56, 19, 19, 19)


class TestCharSheaf:
    def test_must_equal(self):
        dec = char_sheaf_decision(GroupFamily("Linear", 4, 5), 156)
        assert dec.must_equal == 5

    def test_exception_member(self):
        dec = char_sheaf_decision(GroupFamily("Symplectic", 2, 5), 12)
        assert dec.exception_member is not None

    def test_exception_needs_small_dimension(self):
        dec = char_sheaf_decision(GroupFamily("Symplectic", 2, 5), 30)
        assert dec.must_equal == 5

    def test_extraspecial(self):
        f = GroupFamily("ExtraspecialNormalizer", p=2, n=4, eps="-")
        assert char_sheaf_decision(f, 16).must_equal == 2
        assert char_sheaf_decision(f, 8).exception_member is not None

    def test_full_exception_list(self):
        expected = {
            ("Linear", 2, 5), ("Linear", 2, 7), ("Linear", 2, 8), ("Linear", 2, 9),
            ("Linear", 2, 11), ("Linear", 2, 25), ("Linear", 3, 2), ("Linear", 4, 2),
            ("Linear", 3, 3), ("Linear", 3, 4),
            ("Unitary", 4, 2), ("Unitary", 5, 2), ("Unitary", 6, 2),
            ("Unitary", 3, 3), ("Unitary", 4, 3), ("Unitary", 3, 4), ("Unitary", 3, 5),
            ("Symplectic", 3, 2), ("Symplectic", 2, 3), ("Symplectic", 3, 3),
            ("Symplectic", 2, 5), ("OrthogonalPlus", 4, 2),
            ("2B2", None, 8), ("G2", None, 3), ("G2", None, 4),
        }
        assert set(CHAR_SHEAF_EXCEPTIONS) == expected


class TestBounds:
    def test_bound1(self):
        assert bound1_consequence(10, 11) is not None
        assert bound1_consequence(11, 10) is None

    def test_bound2(self):
        assert bound2_check(8, 8, 1)
        assert not bound2_check(21, 10, 2)


class TestPCenter:
    def test_hyp_with_tame_part(self):
        h = HypDescriptor(3, parse_charset("Char*(11)"), parse_charset("Char(2)"))
        cons = p_center_constraints(h)
        assert "Q meet Z(G) = 1" in cons
        assert "det(G) is a p'-group" in cons

    def test_kloosterman_p_divides_d(self):
        h = HypDescriptor(3, [unity(k, 8) for k in range(1, 7)] + [unity(1, 16), unity(3, 16)], [])
        assert h.D == 8 and h.D % 2 == 0
        h2 = HypDescriptor(2, [unity(k, 9) for k in range(1, 9)], [])  # D = 8, p = 2
        cons = p_center_constraints(h2)
        assert "Q meet Z(G) = 1 or C_p" in cons
        assert any("2-part" in c for c in cons)


def gl2_tau_trace_tables(q):
    """Trace tables of two Weil constituents of GL_2(q) on its p-classes
    (identity and a transvection), computed from the character formula."""
    from hypermono.algebra.fq import FqMatrix, field
    from hypermono.algebra.numth import is_prime_power
    from hypermono.weilgl import gl_kernel_profile, tau_value

    p, f = is_prime_power(q)
    F = field(p, f)
    ident = FqMatrix.identity(F, 2)
    trans = FqMatrix.from_rows(F, [[1, 1], [0, 1]])
    tables = {}
    for i in (0, 1):
        classes = [
            ("1A", True, tau_value(2, q, i, ident, gl_kernel_profile(ident, q))),
            ("pA", True, tau_value(2, q, i, trans, gl_kernel_profile(trans, q))),
        ]
        deg = int(classes[0][2].rational())
        tables[i] = TraceTable(f"GL2({q})-weil-{i}", deg, classes)
    return tables


class TestBrauerTransfer:
    def test_m11_shift(self):
        tabs = m11_trace_tables()
        assert brauerp_transfer(tabs["deg11"], tabs["deg10_rational"], (11, 3)) == (10, 2)
        assert brauerp_transfer(tabs["deg11"], tabs["deg10_complex"], (11, 3)) == (10, 2)

    def test_a_zero(self):
        tabs = m11_trace_tables()
        assert brauerp_transfer(tabs["deg10_rational"], tabs["deg10_complex"], (10, 2)) == (10, 2)

    def test_gl2_weil_constituents(self):
        tabs = gl2_tau_trace_tables(4)
        assert tabs[0].degree == 4 and tabs[1].degree == 5
        assert brauerp_transfer(tabs[0], tabs[1], (4, 1)) == (5, 2)

    def test_symmetry_and_composition(self):
        tabs = m11_trace_tables()
        d2, m2 = brauerp_transfer(tabs["deg11"], tabs["deg10_rational"], (11, 3))
        back = brauerp_transfer(tabs["deg10_rational"], tabs["deg11"], (d2, m2))
        assert back == (11, 3)
        via = brauerp_transfer(tabs["deg10_rational"], tabs["deg10_complex"], (d2, m2))
        assert via == (10, 2)

    def test_non_constant_returns_none(self):
        t1 = TraceTable("a", 3, [("1A", True, Cyc.from_int(3)), ("pA", True, Cyc.from_int(0))])
        t2 = TraceTable("b", 3, [("1A", True, Cyc.from_int(3)), ("pA", True, Cyc.from_int(1))])
        assert brauerp_transfer(t1, t2, (3, 1)) is None

    def test_json_round_trip(self):
        tabs = m11_trace_tables()
        j = json.loads(json.dumps(tabs["deg10_complex"].to_json()))
        t = TraceTable.from_json(j)
        assert brauerp_transfer(tabs["deg11"], t, (11, 3)) == (10, 2)
