"""Property tests for the exact linear algebra and the field tables.

Hypothesis runs derandomized with bounded example counts, so every run checks
the same cases and the file stays within a few seconds.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypermono.algebra.cyc import Cyc
from hypermono.algebra.fq import FqMatrix, _defining_poly, _poly_mul_mod, field, nullspace
from hypermono.algebra.numth import euler_phi, is_prime_power

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
        defining polynomial; gen is the least element of order q - 1 and
        dlog inverts its powers."""
        F = field(*is_prime_power(q))
        a, b = data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1))
        da, db = F._digits(a), F._digits(b)
        assert F.add[a * q + b] == F._encode([x + y for x, y in zip(da, db)])
        assert F.mul[a * q + b] == F._encode(_poly_mul_mod(da, db, list(F.poly), F.p))
        assert all(F.element_order(c) < q - 1 for c in range(1, F.gen)) and F.element_order(F.gen) == q - 1
        k = data.draw(st.integers(0, q - 2))
        assert F.dlog[F.pow(F.gen, k)] == k

    def test_every_prime_power_up_to_64_gives_a_field(self):
        for q in range(2, 65):
            pf = is_prime_power(q)
            if pf is None:
                continue
            F = field(*pf)
            assert all(F.mul[a * q + F.inv[a]] == 1 for a in range(1, q)), q
            assert F.element_order(F.gen) == q - 1, q

    def test_f729_is_built_on_an_irreducible_sextic(self):
        """No root and no monic factor of degree 2 or 3 over F_3, checked
        with integer arithmetic mod 3 alone."""
        poly = _defining_poly(3, 6)
        assert len(poly) == 7 and poly[-1] == 1

        def remainder(num, den):
            num = list(num)
            while len(num) >= len(den):
                lead = num[-1]
                shift = len(num) - len(den)
                for i, c in enumerate(den):
                    num[shift + i] = (num[shift + i] - lead * c) % 3
                num.pop()
            return num

        for d in (1, 2, 3):
            for low in itertools.product(range(3), repeat=d):
                assert any(remainder(poly, list(low) + [1])), low


class TestCycLinearAlgebra:
    @PROPS
    @given(cycs())
    def test_inverse(self, x):
        assume(not x.is_zero())
        assert x * x.inverse() == 1

    @PROPS
    @given(cycs(conductors=(1, 3, 4, 5, 6)), st.integers(2, 6))
    def test_lift_keeps_value_and_hash(self, x, k):
        y = x.lift(k * x.m)
        assert y == x
        assert hash(y) == hash(x)
