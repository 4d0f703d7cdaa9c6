from hypermono.algebra.unity import unity
from hypermono.chargeom import HypDescriptor, parse_charset
from hypermono.splus import (
    GUARANTEED,
    NOT_COVERED,
    indecomposability_ok,
    resolve_primitivity,
    splus_verdict,
    tensor_induction_feasibility,
)


def generic(p, d, m):
    big = 101 if p != 101 else 103
    ups = [unity(k, big) for k in range(1, d + 1)]
    downs = [unity(k, big) for k in range(d + 1, d + m + 1)]
    return HypDescriptor(p, ups, downs)


class TestWorkedVerdicts:
    """The worked clause decisions, frozen."""

    def test_kloosterman_d7(self):
        v = splus_verdict(generic(3, 7, 0))
        assert v.guaranteed and v.theorem == "kloosterman"

    def test_9_3_p2_not_covered(self):
        v = splus_verdict(generic(2, 9, 3), True)
        assert v.status == NOT_COVERED
        assert any("W=6 > 2*p0=6" in r for r in v.reasons)

    def test_9_1_p2_guaranteed_clause_ii(self):
        v = splus_verdict(generic(2, 9, 1), True)
        assert v.guaranteed and (v.theorem, v.clause) == ("coprime-refined", "ii")
        assert v.inequalities == ["D=9 = p0^2=9 > 4 and W=8 > 2*p0=6"]

    def test_31_15_p2_qwild(self):
        v = splus_verdict(generic(2, 31, 15))
        assert v.guaranteed and v.theorem == "q-wild"

    def test_10_3_p5_p_divides(self):
        v = splus_verdict(generic(5, 10, 3), True)
        assert v.guaranteed and v.theorem == "p-divides-D"

    def test_8_2_p5_not_covered(self):
        v = splus_verdict(generic(5, 8, 2), True)
        assert v.status == NOT_COVERED

    def test_4_2_odd_p_not_covered(self):
        v = splus_verdict(generic(3, 4, 2), True)
        assert v.status == NOT_COVERED
        assert not indecomposability_ok(generic(3, 4, 2))[0]

    def test_kummer_induced_rejected(self):
        v = splus_verdict(HypDescriptor(3, parse_charset("Char(7)")))
        assert v.status == NOT_COVERED
        assert "Kummer induced" in v.reasons[0]

    def test_kl_d4_excluded(self):
        v = splus_verdict(generic(3, 4, 0))
        assert v.status == NOT_COVERED

    def test_kl_p2_d8_excluded(self):
        v = splus_verdict(generic(2, 8, 0))
        assert v.status == NOT_COVERED


class TestPrimitivity:
    def test_kloosterman_auto(self):
        prim, src = resolve_primitivity(generic(3, 7, 0), None)
        assert prim is True and src == "AutoKummerCheck"

    def test_d_1_non_p_power(self):
        prim, src = resolve_primitivity(generic(2, 9, 1), None)
        assert prim is True and src == "SufficientCondition"

    def test_p_power_with_m_ge_2(self):
        prim, src = resolve_primitivity(generic(3, 9, 2), None)
        assert prim is True and src == "SufficientCondition"

    def test_unknown_passthrough(self):
        prim, src = resolve_primitivity(generic(5, 12, 4), None)
        assert prim is None and src == "Unknown"
        prim, src = resolve_primitivity(generic(5, 12, 4), True)
        assert prim is True and src == "UserAsserted"


class TestTensorInduction:
    def test_9_w6_odd_p_survives(self):
        assert [n for n, _ in tensor_induction_feasibility(generic(5, 9, 3))] == [2]

    def test_9_w7_excluded(self):
        assert [n for n, _ in tensor_induction_feasibility(generic(5, 9, 2))] == []

    def test_parity_excludes_at_p2(self):
        # in characteristic 2 an induction degree must be odd
        assert [n for n, _ in tensor_induction_feasibility(generic(2, 9, 3))] == []

    def test_not_a_power(self):
        assert [n for n, _ in tensor_induction_feasibility(generic(5, 12, 3))] == []

    def test_8_2_p5_three_fold(self):
        cands = tensor_induction_feasibility(generic(5, 8, 2))
        assert [n for n, _ in cands] == [3]

    def test_d64_examines_each_divisor_of_the_exponent(self):
        """64 = 2^6 is a square, a cube and a sixth power (d0 = 8, 4, 2), and
        no 4th or 5th power; the Swan bound n*d0 >= W then sorts them."""

        def wide(p, m):
            big = 211
            return HypDescriptor(p, [unity(k, big) for k in range(1, 65)], [unity(k, big) for k in range(65, 65 + m)])

        assert tensor_induction_feasibility(wide(5, 52)) == [
            (2, "Swan bound n*d0=16 >= W=12 does not force tameness"),
            (3, "Swan bound n*d0=12 >= W=12 does not force tameness"),
            (6, "Swan bound n*d0=12 >= W=12 does not force tameness"),
        ]
        assert [n for n, _ in tensor_induction_feasibility(wide(5, 50))] == [2]  # W = 14 > 12
        assert tensor_induction_feasibility(wide(2, 44)) == [(3, "n*(d0^2-1)=45 >= W=20")]

    def test_annotations_present(self):
        for n, note in tensor_induction_feasibility(generic(5, 9, 3)):
            assert isinstance(note, str) and note


class TestIndecomposability:
    def test_kloosterman_always(self):
        ok, why = indecomposability_ok(generic(3, 4, 0))
        assert ok

    def test_rank4_exceptions(self):
        assert not indecomposability_ok(generic(3, 4, 2))[0]
        assert not indecomposability_ok(generic(2, 4, 1))[0]
        assert indecomposability_ok(generic(3, 4, 1))[0]
        assert indecomposability_ok(generic(2, 4, 2))[0]
        assert indecomposability_ok(generic(7, 9, 4))[0]


class TestInvariants:
    def test_monotonicity_in_w(self):
        """Once a clause whose only W-dependence is a strict lower bound
        fires, every larger W (still with m > 0) stays guaranteed.

        Clauses carrying W-dependent side conditions do not qualify: the
        equality clause W = 3 at D = 4, and the p-divides-D criterion at
        (p, D) = (3, 9) whose type-(9,1) carve-out depends on m = D - W.
        """
        for p in (2, 3, 5, 7):
            for d in range(5, 24):
                fired = None
                for w in range(1, d):
                    h = generic(p, d, d - w)
                    v = splus_verdict(h, True)
                    lower_bound_clause = (
                        v.guaranteed
                        and v.theorem in ("coprime-refined", "coprime", "p-divides-D")
                        and v.clause != "iv"
                        and not (v.theorem == "p-divides-D" and (p, d) == (3, 9))
                    )
                    if fired is not None and w > fired:
                        assert v.guaranteed, (p, d, w, v.reasons)
                    if lower_bound_clause and fired is None:
                        fired = w

    def test_9_1_p3_stays_excluded(self):
        """The type-(9,1) p=3 shape is the genuine boundary of monotonicity."""
        assert splus_verdict(generic(3, 9, 3), True).guaranteed
        assert splus_verdict(generic(3, 9, 2), True).guaranteed
        assert splus_verdict(generic(3, 9, 1), True).status == NOT_COVERED

    def test_guaranteed_never_conflicts_with_obstructions(self):
        for p in (2, 3, 5, 7):
            for d in range(2, 28):
                for m in range(0, d):
                    h = generic(p, d, m)
                    v = splus_verdict(h, True)
                    if v.guaranteed:
                        assert [n for n, _ in tensor_induction_feasibility(h)] == [], (p, d, m)
                        assert indecomposability_ok(h)[0], (p, d, m)

    def test_verdict_replays(self):
        """Guaranteed inequalities are echoed with exact integers."""
        v = splus_verdict(generic(2, 9, 1), True)
        assert all(any(ch.isdigit() for ch in s) for s in v.inequalities)
        j = v.to_json()
        assert j["status"] == GUARANTEED and j["clause"] == "ii"
