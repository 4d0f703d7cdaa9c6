"""Property tests for the exact linear algebra, the field tables, and the
powers and orders of group elements.

Hypothesis runs derandomized with bounded example counts, so every run checks
the same cases and the file stays within a few seconds.
"""

import itertools
import operator
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypermono.algebra.cyc import Cyc
from hypermono.algebra.fq import FqMatrix, _defining_poly, _poly_mul_mod, field, irreducibles, nullspace
from hypermono.algebra.numth import divisors, euler_phi, factor, is_prime_power
from hypermono.algebra.unity import UnityClass
from hypermono.repkit import CycMatrix, MonomialMatrix

PROPS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
)

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


@st.composite
def fq_matrices(draw, qs=tuple(FIELDS), max_n=4):
    F = field(*FIELDS[draw(st.sampled_from(qs))])
    n = draw(st.integers(1, max_n))
    return FqMatrix(F, n, draw(st.lists(st.integers(0, F.q - 1), min_size=n * n, max_size=n * n)))


@st.composite
def fq_systems(draw):
    """(F, rows, ncols) with ncols <= 4, small enough to count solutions."""
    F = field(*FIELDS[draw(st.sampled_from((2, 3, 4, 5)))])
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, 4))
    row = st.lists(st.integers(0, F.q - 1), min_size=ncols, max_size=ncols)
    return F, draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


@st.composite
def cycs(draw, conductors=(3, 4, 5, 7, 8, 9, 12, 15)):
    m = draw(st.sampled_from(conductors))
    num = draw(st.lists(st.integers(-5, 5), min_size=euler_phi(m), max_size=euler_phi(m)))
    return Cyc(m, tuple(num), draw(st.integers(1, 6)))


def remainder(num, den, p):
    """num mod the monic den over F_p, by integer trial division mod p
    (low-to-high coefficient lists)."""
    num = list(num)
    while len(num) >= len(den):
        lead = num[-1]
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - lead * c) % p
        num.pop()
    return num


def apply_rows(F, rows, v):
    """rows v over F, by the field tables."""
    out = []
    for row in rows:
        acc = 0
        for a, x in zip(row, v):
            acc = F.add[acc * F.q + F.mul[a * F.q + x]]
        out.append(acc)
    return out


class TestFqLinearAlgebra:
    @PROPS
    @given(fq_matrices())
    def test_inverse_or_singular(self, g):
        ident = FqMatrix.identity(g.F, g.n)
        try:
            h = g.inverse()
        except ZeroDivisionError:
            assert g.rank() < g.n
        else:
            assert g * h == h * g == ident

    @PROPS
    @given(fq_systems())
    def test_nullspace_spans_every_solution(self, system):
        F, rows, ncols = system
        basis = nullspace(F, rows, ncols)
        zero = [0] * len(rows)
        for v in basis:
            assert len(v) == ncols and apply_rows(F, rows, v) == zero
        solutions = sum(
            apply_rows(F, rows, v) == zero for v in itertools.product(range(F.q), repeat=ncols)
        )
        assert solutions == F.q ** len(basis)

    @PROPS
    @given(st.sampled_from((2, 4, 8, 9, 25, 27, 49, 64, 81, 128, 243, 729)), st.data())
    def test_tables_are_polynomial_arithmetic(self, q, data):
        """add and mul agree with digit-wise sums and products mod the
        defining polynomial; gen is the least element of order q - 1, exp[k]
        is k products of gen through mul, and dlog inverts it."""
        F = field(*is_prime_power(q))
        a, b = data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1))
        da, db = F._digits(a), F._digits(b)
        assert F.add[a * q + b] == F._encode([x + y for x, y in zip(da, db)])
        assert F.mul[a * q + b] == F._encode(_poly_mul_mod(da, db, list(F.poly), F.p))
        assert all(F.element_order(c) < q - 1 for c in range(1, F.gen)) and F.element_order(F.gen) == q - 1
        k, x = data.draw(st.integers(0, q - 2)), 1
        for _ in range(k):
            x = F.mul[x * q + F.gen]
        assert F.exp[k] == x and F.dlog[x] == k

    def test_every_prime_power_up_to_64_gives_a_field(self):
        for q in range(2, 65):
            pf = is_prime_power(q)
            if pf is None:
                continue
            F = field(*pf)
            assert all(F.mul[a * q + F.inv[a]] == 1 for a in range(1, q)), q
            assert F.element_order(F.gen) == q - 1, q

    def test_power_maps_are_repeated_products(self):
        """For every prime power q <= 64, frob is x -> x^p and
        subfield_power_map(e) is x -> x^(p^e) for 0 <= e <= f, each power
        taken as p^e - 1 products through mul."""
        for q in range(2, 65):
            pf = is_prime_power(q)
            if pf is None:
                continue
            F = field(*pf)
            for e in range(F.f + 1):
                want = list(range(q))
                for _ in range(F.p**e - 1):
                    want = [F.mul[y * q + x] for x, y in enumerate(want)]
                assert F.subfield_power_map(e) == want, (q, e)
                if e == 1:
                    assert F.frob == want, q

    def test_f729_is_built_on_an_irreducible_sextic(self):
        """No root and no monic factor of degree 2 or 3 over F_3, checked
        with integer arithmetic mod 3 alone."""
        poly = _defining_poly(3, 6)
        assert len(poly) == 7 and poly[-1] == 1
        for d in (1, 2, 3):
            for low in itertools.product(range(3), repeat=d):
                assert any(remainder(poly, list(low) + [1], 3)), low


def mobius(n: int) -> int:
    exps = factor(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


class TestIrreducibleSieve:
    CASES = [(q, d) for q in (2, 3, 4, 5, 7, 8, 9, 16) for d in range(1, (4 if q <= 5 else 3) + 1)]

    @pytest.mark.parametrize("q,d", CASES)
    def test_gauss_count_and_order(self, q, d):
        """The sieve lists (1/d) sum_(e | d) mu(e) q^(d/e) monic irreducibles,
        less x in degree 1 (Lidl-Niederreiter, Finite Fields, Thm 3.25), in
        itertools.product order, which is sorted order."""
        polys = list(irreducibles(field(*is_prime_power(q)), d))
        gauss = sum(mobius(e) * q ** (d // e) for e in divisors(d)) // d
        assert len(polys) + (d == 1) == gauss
        assert polys == sorted(polys) and all(len(f) == d + 1 and f[-1] == 1 and f[0] for f in polys)

    def test_defining_polys_up_to_1024(self):
        """field(p, f).poly is the least monic of degree f under reversed
        coefficients with no monic factor of degree <= f/2, found by integer
        trial division mod p."""
        for q in range(4, 1025):
            pf = is_prime_power(q)
            if pf is None or pf[1] == 1:
                continue
            p, f = pf
            factors = [list(low) + [1] for e in range(1, f // 2 + 1) for low in itertools.product(range(p), repeat=e)]
            for code in range(p**f):  # a_(f-1) is the leading digit of code
                poly = [code // p**i % p for i in range(f)] + [1]
                if all(any(remainder(poly, g, p)) for g in factors):
                    break
            assert field(p, f).poly == tuple(poly), q


class TestCycLinearAlgebra:
    @PROPS
    @given(cycs(conductors=(3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 18, 25, 27)))
    def test_inverse(self, x):
        assume(not x.is_zero())
        assert x * x.inverse() == 1

    @PROPS
    @given(st.sampled_from((1, 2, 4, 6, 8, 9, 10, 12, 18, 20, 25, 27, 30, 36, 45)), st.data())
    def test_minimize_meets_the_definition(self, m, data):
        """x drawn in a subfield Q(z_d) and lifted to m minimizes to conductor
        m' | d, lifts back to x, and no prime p | m' leaves it fixed by all of
        Gal(Q(z_m')/Q(z_(m'/p))), the t = 1 mod m'/p coprime to m'."""
        d = data.draw(st.sampled_from(divisors(m)))
        x = data.draw(cycs(conductors=(d,))).lift(m)
        y = x.minimize()
        assert d % y.m == 0 and y.lift(m) == x
        for p in factor(y.m):
            sub = y.m // p
            fixers = [t for t in range(1, y.m) if t % sub == 1 % sub and gcd(t, y.m) == 1]
            assert any(y.galois(t) != y for t in fixers), (x, y, p)

    @PROPS
    @given(cycs(conductors=(1, 3, 4, 5, 6)), st.integers(2, 6))
    def test_lift_keeps_value_and_hash(self, x, k):
        y = x.lift(k * x.m)
        assert y == x
        assert hash(y) == hash(x)


@st.composite
def root_sums(draw):
    """(m, weights, den): m <= 60, up to m integer weights, a nonzero den."""
    m = draw(st.integers(1, 60))
    weights = draw(st.lists(st.integers(-9, 9), max_size=m))
    return m, weights, draw(st.integers(-12, 12).filter(bool))


class TestRootSums:
    @PROPS
    @given(root_sums())
    def test_from_root_sum_is_the_termwise_sum(self, case):
        """One pass over the power table gives the sum of weights[k] * zeta_m^k
        over den that Cyc.root terms give one at a time: the same value and
        hash, and at conductor m the same normalized coefficients."""
        m, weights, den = case
        want = Cyc.from_int(0)
        for k, w in enumerate(weights):
            want = want + Cyc.root(UnityClass(k, m)) * w
        want = want * Fraction(1, den)
        got = Cyc.from_root_sum(m, weights, den)
        assert got == want and hash(got) == hash(want)
        if not want.is_zero():
            assert (got.m, got.num, got.den) == (m, want.lift(m).num, want.den)


@st.composite
def monomials(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    e = draw(st.integers(1, 6))
    exps = draw(st.lists(st.integers(0, e - 1), min_size=n, max_size=n))
    return MonomialMatrix(draw(st.permutations(range(n))), exps, e)


@st.composite
def cyc_matrices(draw):
    """U M U^-1 for a monomial M of size >= 2 and U = I + a E_12: finite
    order, and not monomial once a != 0."""
    m = draw(monomials().filter(lambda m: m.n > 1)).to_cyc()
    a, n = draw(st.integers(-2, 2)), m.n

    def unitriangular(b):  # I + b E_12
        return CycMatrix(n, [int(i == j) + b * ((i, j) == (0, 1)) for i in range(n) for j in range(n)])

    return unitriangular(a) * m * unitriangular(-a)


class TestPowers:
    """Every ``**`` is one square-and-multiply and every ``.order()`` one
    capped walk: x ** e is the e-fold product, a negative power of an
    FqMatrix or Cyc is that power of the inverse, and the order is the least
    e >= 1 with x ** e == x ** 0."""

    @staticmethod
    def check(x, one, top):
        """x ** e against the e-fold product for 0 <= e <= top; the powers."""
        powers = [x**e for e in range(top + 1)]
        assert powers == [reduce(operator.mul, [x] * e, one) for e in range(top + 1)]
        return powers

    def check_order(self, x, one):
        order = x.order()
        powers = self.check(x, one, order + 1)
        assert powers[order] == powers[0] and all(y != powers[0] for y in powers[1:order])

    @PROPS
    @given(fq_matrices(qs=(2, 4, 5, 9), max_n=3), st.integers(1, 4))
    def test_fq_matrix(self, g, e):
        assume(g.rank() == g.n)
        self.check_order(g, FqMatrix.identity(g.F, g.n))
        assert g**-e == g.inverse() ** e

    @PROPS
    @given(cyc_matrices())
    def test_cyc_matrix(self, g):
        self.check_order(g, CycMatrix.identity(g.n))
        with pytest.raises(ValueError):
            g**-1

    @PROPS
    @given(monomials())
    def test_monomial_matrix(self, g):
        self.check_order(g, MonomialMatrix.identity(g.n))
        with pytest.raises(ValueError):
            g**-1

    @PROPS
    @given(cycs(), st.integers(1, 4))
    def test_cyc(self, x, e):
        assume(not x.is_zero())
        self.check(x, Cyc.from_int(1), 6)
        assert x**-e == x.inverse() ** e
