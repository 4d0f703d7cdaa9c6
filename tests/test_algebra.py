import itertools
import signal
from math import gcd, lcm

import pytest

from hypermono.algebra.cyc import Cyc, cyclotomic_poly, zeta
from hypermono.algebra.fq import FqMatrix, companion_matrix, field, irreducibles, kernel_dim
from hypermono.algebra.numth import (
    CapExceeded,
    divisors,
    euler_phi,
    factor,
    is_prime,
    least_prime_divisor,
    mult_order,
    p_part,
    p_prime_part,
    perfect_power,
)
from hypermono.algebra.unity import UnityClass, unity
from hypermono.weilgl import general_linear_group


class TestUnity:
    def test_reduction_examples(self):
        assert str(unity(3, 12)) == "1/4"
        assert str(unity(12, 12)) == "0/1"
        assert str(unity(7, 11)) == "7/11"

    def test_group_laws(self):
        elems = [unity(a, n) for n in range(1, 13) for a in range(n)]
        zero = unity(0, 1)
        for u in elems[:40]:
            assert u + zero == u
            assert u + (-u) == zero
        for u, v, w in itertools.islice(itertools.product(elems[:12], repeat=3), 300):
            assert (u + v) + w == u + (v + w)
            assert u + v == v + u

    def test_denominator_divides_lcm(self):
        for u in [unity(a, n) for n in (4, 6, 9) for a in range(n)]:
            for v in [unity(a, n) for n in (8, 10) for a in range(n)]:
                assert lcm(u.den, v.den) % (u + v).den == 0

    def test_order(self):
        assert unity(5, 15).order == 3
        assert unity(0, 7).order == 1

    def test_parse_round_trip(self):
        for n in range(1, 20):
            for a in range(n):
                u = unity(a, n)
                assert UnityClass.parse(str(u)) == u


class TestCyc:
    def test_cyclotomic_polys(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    def test_trivial_examples(self):
        z4 = zeta(4)
        assert (z4 * z4).rational() == -1
        assert (Cyc.from_int(1) + zeta(3)).abs2().rational() == 1
        assert zeta(5).conj() == zeta(5) ** 4

    def test_root_embedding_requires_divisor(self):
        with pytest.raises(ValueError):
            Cyc.root(unity(1, 3), 4)

    def test_conductor_lift_equality_and_hash(self):
        a = zeta(3)
        b = zeta(12) ** 4
        assert a == b and hash(a) == hash(b)
        assert zeta(8) != zeta(8) ** 3

    def test_abs2_properties(self):
        for m in (3, 4, 5, 8, 12):
            for k in range(m):
                x = zeta(m) ** k
                assert x.abs2().rational() == 1
        for m in (5, 8):
            x = Cyc.from_int(2) + zeta(m) - zeta(m) ** 3
            assert x.abs2() == x.conj().abs2()

    def test_field_inverse(self):
        for x in [Cyc.from_int(3), zeta(5) + 1, zeta(8) - zeta(8) ** 2 + 2]:
            assert (x * x.inverse()).rational() == 1

    def test_galois_is_ring_map(self):
        x = zeta(7) + 2 * zeta(7) ** 3
        y = zeta(7) ** 2 - 1
        for t in (2, 3, 5):
            assert (x * y).galois(t) == x.galois(t) * y.galois(t)
            assert (x + y).galois(t) == x.galois(t) + y.galois(t)

    def test_minimize(self):
        x = zeta(12) ** 4  # = zeta_3
        assert x.minimize().m == 3
        assert Cyc.from_int(5).minimize().m == 1

    def test_as_root_of_unity(self):
        assert (zeta(8) ** 3).as_root_of_unity() == unity(3, 8)
        assert (-zeta(3)).as_root_of_unity() == unity(5, 6)
        assert (zeta(5) + 1).as_root_of_unity() is None


class TestNumth:
    def test_mult_order_examples(self):
        assert mult_order(3, 8) == 2
        assert mult_order(2, 15) == 4
        assert mult_order(2, 21) == 6

    def test_mult_order_restatement_exhaustive(self):
        for w in range(1, 1001):
            for p in (2, 3, 5, 7):
                if gcd(p, w) != 1:
                    continue
                k = mult_order(p, w)
                assert (p**k - 1) % w == 0
                assert all((p**j - 1) % w != 0 for j in range(1, k))

    def test_perfect_power(self):
        assert perfect_power(9) == (3, 2)
        assert perfect_power(8) == (2, 3)
        assert perfect_power(64) == (2, 6)
        assert perfect_power(12) is None

    def test_p_part(self):
        assert [p_part(72, 2), p_part(72, 3), p_part(72, 5)] == [8, 9, 1]
        assert [p_prime_part(72, 2), p_prime_part(72, 3), p_prime_part(1, 7)] == [9, 8, 1]

    @pytest.mark.parametrize("fn", [p_part, p_prime_part])
    @pytest.mark.parametrize("n,p", [(0, 3), (-3, 3), (6, 1), (6, 0), (6, -2)])
    def test_p_part_refuses_n_below_1_or_p_below_2(self, fn, n, p):
        """At n = 0 or p = 1, n % p == 0 at every step of the division loop,
        so a second's alarm turns a loop that never ends into a failure."""

        def hang(signum, frame):
            raise TimeoutError(f"{fn.__name__}({n}, {p}) did not return")

        old = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(ValueError):
                fn(n, p)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def test_factor_and_phi(self):
        for n in range(1, 400):
            fac = factor(n)
            prod = 1
            for p, e in fac.items():
                assert is_prime(p)
                prod *= p**e
            assert prod == n
        assert euler_phi(20) == 8
        assert divisors(28) == [1, 2, 4, 7, 14, 28]

    def test_trial_division_stops_at_the_cap(self, monkeypatch):
        """Under a cap of 10 the odd trial divisors are 3, 5, ..., 21, however
        many calls factor makes: every n below 23^2 factors fully, so does n
        with a cofactor below 23^2 once its primes up to 21 are out, and 23^2
        is refused."""
        monkeypatch.setenv("HYPERMONO_CAP", "10")
        for n in range(2, 23 * 23):
            assert least_prime_divisor(n) == min(factor(n))
            assert is_prime(n) == (factor(n) == {n: 1})
        assert factor(3 * 19 * 509) == {3: 1, 19: 1, 509: 1}
        for call, n in ((is_prime, 23 * 23), (least_prime_divisor, 23 * 23), (factor, 3 * 19 * 23 * 509)):
            with pytest.raises(CapExceeded, match="passes cap 10 odd divisors"):
                call(n)


class TestFq:
    def test_defining_poly_deterministic(self):
        assert field(3, 2).poly == (1, 0, 1)  # x^2 + 1, least over F_3
        assert field(2, 2).poly == (1, 1, 1)
        assert field(5, 1).poly == (0, 1)

    def test_field_axioms_small(self):
        for (p, f) in [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1)]:
            F = field(p, f)
            q = F.q
            for a in range(q):
                for b in range(q):
                    assert F.add[a * q + b] == F.add[b * q + a]
                    assert F.mul[a * q + b] == F.mul[b * q + a]
            for a in range(1, q):
                assert F.mul[a * q + F.inv[a]] == 1
            assert F.element_order(F.gen) == q - 1

    def test_one_field_object_however_spelled(self):
        """field(3) is field(3, 1), so a matrix built over either is an element
        of the groups, which are built over field(3, 1)."""
        assert field(3) is field(3, 1) is field(3, f=1)
        assert FqMatrix.from_rows(field(3), [[0, 2], [1, 0]]) in general_linear_group(2, 3)

    def test_field_tables_are_capped(self, monkeypatch):
        """The q^2-entry tables are refused under the cap in force, even for a
        field already built under a larger one."""
        assert field(37).q == 37  # 1369 entries, built at the default cap
        monkeypatch.setenv("HYPERMONO_CAP", "1000")
        with pytest.raises(CapExceeded):
            field(37)
        monkeypatch.setenv("HYPERMONO_CAP", "50")
        assert field(3).q == 3

    def test_kernel_dim_examples(self):
        F2 = field(2)
        assert kernel_dim(FqMatrix.identity(F2, 3), 1) == 3
        F3 = field(3)
        t = FqMatrix.from_rows(F3, [[1, 1], [0, 1]])
        assert kernel_dim(t, 1) == 1
        assert kernel_dim(t, 2) == 0  # lambda not an eigenvalue

    def test_rank_nullity_exhaustive_gl2_f3(self):
        F3 = field(3)
        for data in itertools.product(range(3), repeat=4):
            a = FqMatrix(F3, 2, data)
            for lam in range(3):
                assert kernel_dim(a, lam) + a.sub_scalar(lam).rank() == 2

    def test_inverse_and_order(self):
        F3 = field(3)
        g = FqMatrix.from_rows(F3, [[1, 1], [0, 1]])
        assert g * g.inverse() == FqMatrix.identity(F3, 2)
        assert g.order() == 3

    def test_order_of_a_singular_matrix_passes_the_cap(self, monkeypatch):
        """A singular matrix never reaches the identity: its powers stop at the cap."""
        monkeypatch.setenv("HYPERMONO_CAP", "50")
        with pytest.raises(CapExceeded, match="pass cap 50"):
            FqMatrix.from_rows(field(3), [[1, 0], [0, 0]]).order()
        assert FqMatrix.from_rows(field(3), [[1, 1], [0, 1]]).order() == 3

    def test_companion_singer(self):
        F2 = field(2)
        poly = (1, 1, 0, 1)
        assert poly in irreducibles(F2, 3)
        assert companion_matrix(F2, poly).order() == 7

    def test_char_poly(self):
        F3 = field(3)
        g = FqMatrix.from_rows(F3, [[0, 2], [1, 2]])
        coeffs = g.char_poly()
        # x^2 - trace x + det = x^2 + x + 1 over F_3 (trace 2, det 1)
        assert coeffs == (1, 1, 1)

