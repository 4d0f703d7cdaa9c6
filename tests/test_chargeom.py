import json

import pytest

from hypermono.algebra.unity import unity
from hypermono.chargeom import (
    DescriptorError,
    HypDescriptor,
    belyi_wild_obstruction,
    determinant_char,
    i0_simple,
    i0_spectrum,
    kummer_induced,
    parse_charset,
    wild_image_order,
)


class TestParser:
    def test_table_forms(self):
        assert parse_charset("Char(4)\\{1}") == [unity(1, 4), unity(1, 2), unity(3, 4)]
        assert len(parse_charset("Char*(11)")) == 10
        assert parse_charset("xi(8)|xi(8)^3") == [unity(1, 8), unity(3, 8)]
        assert len(parse_charset("Char(15)\\Char*(15)")) == 7
        assert len(parse_charset("xi(3)*Char*(19)")) == 18
        assert parse_charset("Char(28)\\Char(14)") == [
            unity(k, 28) for k in range(28) if k % 2 == 1
        ]

    def test_multiset_semantics(self):
        two = parse_charset("xi(3)|xi(3)")
        assert two == [unity(1, 3), unity(1, 3)]

    def test_difference_of_absent_raises(self):
        with pytest.raises(Exception):
            parse_charset("Char(4)\\{1/3}")


class TestDescriptor:
    def test_m11_style(self):
        h = HypDescriptor(3, parse_charset("Char*(11)"), parse_charset("Char(2)"))
        assert h.type == (10, 2) and h.W == 8

    def test_m24_style(self):
        h = HypDescriptor(2, parse_charset("Char(23)"), parse_charset("Char*(3)"))
        assert h.type == (23, 2) and h.W == 21

    def test_wild_order_error(self):
        with pytest.raises(DescriptorError, match="divisible by p=5"):
            HypDescriptor(5, parse_charset("Char(5)"))

    def test_overlap_error(self):
        with pytest.raises(DescriptorError, match="share characters"):
            HypDescriptor(3, parse_charset("Char(4)"), [unity(1, 4)])

    def test_type_error(self):
        with pytest.raises(DescriptorError, match="has D <= m"):
            HypDescriptor(3, [unity(1, 4)], [unity(1, 2), unity(0, 1)])

    def test_json_round_trip(self):
        h = HypDescriptor(3, parse_charset("Char*(11)"), parse_charset("xi(8)|xi(8)^3"))
        j = json.loads(json.dumps(h.to_json()))
        assert HypDescriptor.from_json(j) == h


class TestKummer:
    def test_kloosterman_shift(self):
        assert kummer_induced(HypDescriptor(3, [unity(0, 1), unity(1, 2)])) == 2

    def test_full_character_group_is_induced(self):
        assert kummer_induced(HypDescriptor(3, parse_charset("Char(7)"))) == 7

    def test_char_star_11_not_induced(self):
        assert kummer_induced(HypDescriptor(3, parse_charset("Char*(11)"))) is None

    def test_special_family_kloosterman_not_induced(self):
        # all nontrivial characters of order dividing N: visibly primitive
        for n in (5, 7, 9):
            h = HypDescriptor(2 if n != 9 else 2, parse_charset(f"Char({n})\\{{1}}"))
            assert kummer_induced(h) is None

    def test_degree_divides_and_coprime(self):
        h = HypDescriptor(5, parse_charset("Char(6)"), parse_charset("xi(12)*Char(3)"))
        d = kummer_induced(h)
        assert d == 3
        assert h.D % d == 0 and h.m % d == 0 and d % h.p != 0


def generic_descriptor(p, d, m):
    """Distinct characters with large prime order, disjoint by construction."""
    big = 101 if p != 101 else 103
    ups = [unity(k, big) for k in range(1, d + 1)]
    downs = [unity(k, big) for k in range(d + 1, d + m + 1)]
    return HypDescriptor(p, ups, downs)


class TestBelyi:
    def test_impossible_cases(self):
        assert belyi_wild_obstruction(generic_descriptor(2, 17, 1)).impossible  # W = 16
        assert belyi_wild_obstruction(generic_descriptor(3, 7, 1)).impossible  # W = 6

    def test_candidate(self):
        ob = belyi_wild_obstruction(generic_descriptor(2, 9, 2))  # W = 7
        assert ob.possible and ob.witnesses[0] == (7, 1)

    def test_power_of_p_wild_always_impossible(self):
        for a in (1, 2, 3, 4):
            w = 2**a
            h = generic_descriptor(2, w + 2, 2)
            assert h.W == w
            assert belyi_wild_obstruction(h).impossible


class TestLocalData:
    def test_determinant(self):
        assert determinant_char(HypDescriptor(3, parse_charset("Char(11)"))) == unity(0, 1)
        assert determinant_char(HypDescriptor(3, parse_charset("Char*(11)"))) == unity(0, 1)
        assert determinant_char(HypDescriptor(3, [unity(1, 4), unity(1, 2), unity(3, 4)])) == unity(1, 2)

    def test_full_group_determinant_neutral(self):
        base = [unity(1, 7), unity(2, 7)]
        with_full = base + parse_charset("Char(5)")
        assert determinant_char(HypDescriptor(3, with_full)) == determinant_char(HypDescriptor(3, base))

    def test_wild_image_order(self):
        h = HypDescriptor(3, parse_charset("Char*(11)"), parse_charset("Char(2)"))
        assert wild_image_order(h) == 9
        h = HypDescriptor(2, parse_charset("Char*(23)"), parse_charset("Char(15)\\Char*(15)"))
        assert wild_image_order(h) == 16
        h = HypDescriptor(2, parse_charset("Char(23)"), parse_charset("Char*(3)"))
        assert wild_image_order(h) == 64

    def test_wild_image_none_when_p_divides_w(self):
        h = HypDescriptor(3, parse_charset("Char(22)"), parse_charset("Char*(5)"))  # W = 18
        assert wild_image_order(h) is None

    def test_wild_image_minimality(self):
        for h in [
            HypDescriptor(3, parse_charset("Char*(11)"), parse_charset("Char(2)")),
            HypDescriptor(2, parse_charset("Char(23)"), parse_charset("Char*(3)")),
        ]:
            w = wild_image_order(h)
            k = 1
            while (h.p**k - 1) % h.W != 0:
                k += 1
            assert w == h.p**k

    def test_i0(self):
        h = HypDescriptor(3, parse_charset("Char*(11)"))
        assert i0_simple(h) and i0_spectrum(h).dimension == 10
        h2 = HypDescriptor(2, [unity(1, 3), unity(1, 3), unity(0, 1)])
        assert not i0_simple(h2)
        assert i0_spectrum(h2).mult[unity(1, 3)] == 2
