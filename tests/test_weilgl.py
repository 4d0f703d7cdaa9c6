import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypermono.algebra.cyc import Cyc
from hypermono.algebra.fq import FqMatrix, companion_matrix, field, irreducibles
from hypermono.algebra.unity import unity
from hypermono import repkit
from hypermono.repkit import CycMatrix, spectrum as mat_spectrum
from hypermono import weilgl
from hypermono.weilgl import (
    ExcludedCase,
    WeilCharSpec,
    deleted_perm_spectrum,
    general_linear_group,
    gl_classes,
    gl_kernel_profile,
    gl_singer,
    gu_block_torus,
    gu_kernel_profile,
    gu_torus_element,
    group_scalars,
    hermitian_gram,
    is_symplectic,
    is_unitary,
    simple_cycle_types,
    sp_torus_element,
    ss_enumerate,
    ss_exhaustive_check,
    symplectic_gram,
    symplectic_group,
    tau_value,
    the_group,
    unitary_group,
    weil_spectrum,
    weil_value,
    zeta_value,
)


class TestCharacterValues:
    def test_tau_identity_values(self):
        F2 = field(2)
        assert tau_value(3, 2, 0, FqMatrix.identity(F2, 3)).rational() == 6
        F3 = field(3)
        assert tau_value(3, 3, 1, FqMatrix.identity(F3, 3)).rational() == 13
        assert tau_value(3, 3, 0, FqMatrix.identity(F3, 3)).rational() == 12

    def test_tau_transvection_gl2_3(self):
        F3 = field(3)
        t = FqMatrix.from_rows(F3, [[1, 1], [0, 1]])
        assert tau_value(2, 3, 1, t).rational() == 1

    def test_tau_degrees_are_weil_degrees(self):
        from hypermono.algebra.numth import is_prime_power

        for (n, q) in [(2, 3), (3, 2), (3, 3), (2, 4)]:
            F = field(*is_prime_power(q))
            ident = FqMatrix.identity(F, n)
            for i in range(1 if q == 2 else q - 1):
                spec = WeilCharSpec("Linear", n, q, i)
                assert tau_value(n, q, i, ident).rational() == spec.degree

    def test_zeta_identity_degrees(self):
        F9 = field(3, 2)
        ident = FqMatrix.identity(F9, 3)
        vals = sorted(int(zeta_value(3, 3, i, ident).rational()) for i in range(4))
        assert vals == [6, 7, 7, 7]
        F4 = field(2, 2)
        assert zeta_value(4, 2, 0, FqMatrix.identity(F4, 4)).rational() == 6

    def test_zeta_central_scaling(self):
        G = unitary_group(2, 3)
        F9 = field(3, 2)
        xi = F9.exp[2]  # order 4
        z = FqMatrix.scalar(F9, 2, xi)
        assert z in G
        for i in range(4):
            v = zeta_value(2, 3, i, z)
            assert v.abs2().rational() == WeilCharSpec("Unitary", 2, 3, i).degree ** 2

    def test_irreducibility_norms(self):
        """The twist-graded Weil constituents are honest irreducibles: their
        characters have norm exactly 1 (this pins the i = 0 normalization)."""
        for (fam, n, q) in [("Linear", 2, 3), ("Linear", 3, 2), ("Unitary", 2, 3)]:
            G = the_group(fam, n, q)
            prof = gl_kernel_profile if fam == "Linear" else gu_kernel_profile
            valf = tau_value if fam == "Linear" else zeta_value
            hi = (1 if q == 2 else q - 1) if fam == "Linear" else q + 1
            for i in range(hi):
                acc = Cyc.from_int(0)
                for g in G.elements:
                    v = valf(n, q, i, g, prof(g, q))
                    acc = acc + v.abs2()
                assert acc.rational() / G.order == 1, (fam, i)


class TestGroups:
    def test_orders(self):
        assert general_linear_group(3, 2).order == 168
        assert general_linear_group(2, 3).order == 48
        assert unitary_group(2, 3).order == 96
        assert symplectic_group(1, 3).order == 24

    def test_membership_forms(self):
        for g in unitary_group(2, 3).elements:  # every element
            assert is_unitary(g, 1)
        for g in symplectic_group(1, 3).elements:
            assert is_symplectic(g)

    @pytest.mark.parametrize(
        "build, args",
        [
            (general_linear_group, (0, 3)),
            (unitary_group, (0, 2)),
            (symplectic_group, (0, 3)),
            (weilgl.ss_exhaustive_check, ("Linear", 0, 3)),
            (weilgl.ss_exhaustive_check, ("Unitary", -1, 2)),
        ],
    )
    def test_n_below_1_is_refused(self, build, args):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            build(*args)

    @pytest.mark.parametrize(
        "build, args",
        [
            (weilgl.the_group, ("linear", 2, 3)),
            (weilgl.ss_exhaustive_check, ("Foo", 6, 5)),
            (weilgl.ss_exhaustive_check, ("Foo", 2, 27)),
            (weilgl.ss_exhaustive_check, ("unitary", 2, 3)),
        ],
    )
    def test_unknown_family_is_refused_before_any_work(self, monkeypatch, build, args):
        """A family other than Linear or Unitary was read as Unitary: GU_2(3)
        for "linear", CapExceeded naming GU_6(5), class types listed."""

        def refuse(*args):
            raise AssertionError("work before the family check")

        for name in ("_prime_power", "_class_count", "_class_types", "general_linear_group", "unitary_group"):
            monkeypatch.setattr(weilgl, name, refuse)
        with pytest.raises(ValueError, match="^family must be Linear or Unitary, got "):
            build(*args)

    def test_unitary_order_checked_before_closure(self, monkeypatch):
        """GU_3(3) has order 24,192: under a cap of 1000 it is refused from the
        order formula, and closure is never called (past the group cache)."""

        def no_closure(*args, **kwargs):
            raise AssertionError("closure called past the cap")

        monkeypatch.setattr(weilgl, "closure", no_closure)
        monkeypatch.setenv("HYPERMONO_CAP", "1000")
        with pytest.raises(repkit.CapExceeded, match="GU_3\\(3\\) has order 24192, above cap 1000"):
            unitary_group.__wrapped__(3, 3)


class TestFixedGenerators:
    """Each constructor closes over a short fixed list of structured elements,
    of which Dimino keeps two or three, and gets the whole group."""

    GL = [(2, 3), (2, 4), (2, 5), (2, 7), (2, 9), (3, 2), (3, 3)]
    GU = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]
    SP = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 9), (2, 2), (2, 3)]  # Sp_2n(q) as (n, q)
    PAIRS = {("Linear", 3, 3), ("Unitary", 3, 2), ("Unitary", 3, 3)}
    PAIRS |= {("Symplectic", 2, 2), ("Symplectic", 2, 3), ("Symplectic", 1, 3), ("Symplectic", 1, 5), ("Symplectic", 1, 7)}
    CASES = [("Linear", n, q) for n, q in GL] + [("Unitary", n, q) for n, q in GU] + [("Symplectic", n, q) for n, q in SP]

    @staticmethod
    def sp_class_count(n, q):
        # SL_2(q) has q + 4 classes for q odd and q + 1 for q even; S_6 has 11
        return {(2, 2): 11, (2, 3): 34}.get((n, q), q + 4 if q % 2 else q + 1)

    IDS = [f"GL_{n}_{q}" for n, q in GL] + [f"GU_{n}_{q}" for n, q in GU] + [f"Sp_{2 * n}_{q}" for n, q in SP]

    @pytest.mark.parametrize("family,n,q", CASES, ids=IDS)
    def test_group(self, family, n, q):
        if family == "Linear":
            G, order, classes = general_linear_group(n, q), weilgl._gl_order(n, q), weilgl._class_count("Linear", n, q)
        elif family == "Unitary":
            G, order, classes = unitary_group(n, q), weilgl._gu_order(n, q), weilgl._class_count("Unitary", n, q)
            assert all(is_unitary(g, weilgl.is_prime_power(q)[1]) for g in G.generators)
        else:
            G, order, classes = symplectic_group(n, q), weilgl._sp_order(n, q), self.sp_class_count(n, q)
            assert all(is_symplectic(g) for g in G.generators)
        assert G.order == order
        kept = len(G.generators)
        assert (kept == 2) if (family, n, q) in self.PAIRS else (kept <= 3)
        assert len(G.conjugacy_classes()) == classes


class TestTotalWeilIdentities:
    def test_linear_sum_rule(self):
        """sum_i tau^i(g) + 2 = q^dim ker(g-1) on whole small groups."""
        for (n, q) in [(2, 3), (3, 2)]:
            G = general_linear_group(n, q)
            for g in G.elements:
                prof = gl_kernel_profile(g, q)
                total = Cyc.from_int(0)
                for i in range(1 if q == 2 else q - 1):
                    total = total + tau_value(n, q, i, g, prof)
                assert total.rational() + 2 == q ** prof[0]

    def test_unitary_sum_rule(self):
        """sum_i zeta^i(g) = (-1)^n (-q)^dim ker(g-1)."""
        for (n, q) in [(2, 3)]:
            G = unitary_group(n, q)
            for g in G.elements:
                prof = gu_kernel_profile(g, q)
                total = Cyc.from_int(0)
                for i in range(q + 2):
                    if i <= q:
                        total = total + zeta_value(n, q, i, g, prof)
                assert total.rational() == (-1) ** n * (-q) ** prof[0]


def _termwise_value(family, n, q, i, profile):
    """The reference for tau_value and zeta_value: the same character
    value summed one Cyc.root term at a time."""
    Q, base = (q - 1, q) if family == "Linear" else (q + 1, -q)
    acc = Cyc.from_int(0)
    for k, d in enumerate(profile):
        acc = acc + Cyc.root(unity(i * k, Q)) * (base**d)
    if family == "Linear":
        acc = acc * Fraction(1, Q)
        return acc - Cyc.from_int(2) if i == 0 else acc
    return acc * Fraction((-1) ** n, Q)


@st.composite
def weil_cases(draw):
    """(family, n, q, i, profile) with q <= 27 and a kernel profile of any
    shape: one dimension 0..n per scalar."""
    family = draw(st.sampled_from(("Linear", "Unitary")))
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)))
    n = draw(st.integers(1, 5))
    Q = q - 1 if family == "Linear" else q + 1
    i = draw(st.integers(-Q, 2 * Q))
    return family, n, q, i, tuple(draw(st.lists(st.integers(0, n), min_size=Q, max_size=Q)))


class TestRootSumValues:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(weil_cases())
    def test_values_equal_the_termwise_sum(self, case):
        """One integer weight vector reduced once gives the termwise value,
        hash and normalized coefficients."""
        family, n, q, i, profile = case
        value = tau_value if family == "Linear" else zeta_value
        got, want = value(n, q, i, None, profile), _termwise_value(family, n, q, i, profile)
        assert got == want and hash(got) == hash(want)
        assert (got.m, got.num, got.den) == (want.m, want.num, want.den)


class TestTori:
    def test_gl_singer(self):
        assert gl_singer(3, 2).order() == 7
        assert gl_singer(3, 3).order() == 26

    def test_gu_singer(self):
        g = gu_torus_element(3, 3, 28)
        assert g.order() == 28 and is_unitary(g, 1)
        assert g in unitary_group(3, 3)

    def test_gu_block_torus(self):
        h = gu_block_torus(3, [(2, 8), (1, 4)])
        assert h.order() == 8 and is_unitary(h, 1)

    def test_gu44_t31_central_order(self):
        t = gu_block_torus(4, [(3, 65), (1, 5)])
        assert is_unitary(t, 2)
        # central order: least k with t^k scalar
        F16 = field(2, 4)
        k, x = 1, t
        scalars = {FqMatrix.scalar(F16, 4, F16.exp[j * 3]) for j in range(5)}
        while x not in scalars:
            x = x * t
            k += 1
        assert k == 65

    def test_sp_tori(self):
        tm = sp_torus_element(2, 5, -1)
        assert tm.order() == 26 and is_symplectic(tm)
        tp = sp_torus_element(2, 5, +1)
        assert tp.order() == 24 and is_symplectic(tp)

    def test_singer_spectrum_simple(self):
        s = weil_spectrum(WeilCharSpec("Linear", 3, 3, 1), gl_singer(3, 3))
        assert s.dimension == 13 and s.is_simple()
        g = gu_torus_element(3, 3, 28)
        s = weil_spectrum(WeilCharSpec("Unitary", 3, 3, 1), g)
        assert s.dimension == 7 and s.is_simple()

    def test_non_generator_power_not_simple(self):
        g = gl_singer(3, 3)  # order 26
        h = g ** 2  # order 13 still generates; use a deeper power
        s = weil_spectrum(WeilCharSpec("Linear", 3, 3, 1), g ** 13)  # order 2
        assert not s.is_simple()

    def test_spectrum_walk_stops_at_the_cap(self, monkeypatch):
        """The power walk of an order-26 Singer cycle passes a cap of 25 and
        raises; at a cap of 26 it reaches the identity."""
        spec, g = WeilCharSpec("Linear", 3, 3, 1), gl_singer(3, 3)
        monkeypatch.setenv("HYPERMONO_CAP", "25")
        with pytest.raises(repkit.CapExceeded):
            weil_spectrum(spec, g)
        monkeypatch.setenv("HYPERMONO_CAP", "26")
        assert weil_spectrum(spec, g).dimension == 13

    # the tori that the matrix order search (a binary-powering order test on
    # each companion) picked, and for the last three the polynomial search over
    # every irreducible, as flat row-major entries
    PINNED = [
        (gl_singer, (3, 3), (0, 0, 2, 1, 0, 0, 0, 1, 1)),
        (sp_torus_element, (2, 3, 1), (0, 1, 0, 0, 1, 2, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0)),
        (sp_torus_element, (2, 3, -1), (0, 0, 0, 1, 1, 0, 0, 2, 0, 2, 1, 2, 0, 0, 1, 0)),
        (gu_torus_element, (3, 2, 9), (0, 0, 1, 0, 2, 1, 1, 2, 2)),
        (gu_torus_element, (3, 3, 28), (0, 0, 1, 0, 3, 5, 1, 5, 2)),
        (gu_torus_element, (3, 5, 126), (0, 0, 1, 0, 7, 17, 1, 20, 14)),
        (gu_torus_element, (3, 4, 65), (0, 0, 1, 0, 8, 13, 1, 7, 11)),
        (gu_torus_element, (3, 7, 344), (0, 0, 1, 0, 16, 15, 1, 15, 8)),
        (sp_torus_element, (2, 5, -1), (0, 0, 0, 1, 1, 0, 0, 2, 0, 4, 3, 0, 0, 0, 1, 0)),
    ]

    def test_companion_orders_on_polynomials(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a matrix order test in the companion search")

        monkeypatch.setattr(FqMatrix, "order", refuse)
        for build, args, data in self.PINNED:
            assert tuple(build(*args).data) == data, (build.__name__, args)

    def test_form_tori_test_self_dual_polynomials_only(self, monkeypatch):
        """Only a self-dual f carries a nondegenerate form, so the GU and Sp
        searches walk x modulo those alone: 150 walks for GU_3(7)'s order
        344, one per self-dual monic cubic over F_49 up to the first that
        serves, where testing every cubic first took 12,342 powers."""
        tested = []
        x_walk = weilgl._x_walk

        def recording(F, f):
            tested.append(f)
            return x_walk(F, f)

        monkeypatch.setattr(weilgl, "_x_walk", recording)
        gu_torus_element(3, 7, 344)
        F, conj = field(7, 2), field(7, 2).subfield_power_map(1)
        assert len(tested) == 150 and all(weilgl._dual(F, f, conj) == f for f in tested)
        tested.clear()
        sp_torus_element(2, 5, -1)
        assert tested and all(weilgl._dual(field(5), f) == f for f in tested)

    @pytest.mark.parametrize(
        "build, args",
        [
            (gl_singer, (3, 6)),
            (gu_torus_element, (2, 6, 35)),
            (gu_torus_element, (3, 6, 217)),
            (gu_block_torus, (6, [(1, 7)])),
            (weilgl._gu1_element, (6, 7)),
            (sp_torus_element, (2, 6, -1)),
        ],
    )
    def test_q_must_be_a_prime_power(self, build, args):
        with pytest.raises(ValueError, match="^6 is not a prime power$"):
            build(*args)

    @pytest.mark.parametrize("p, e, top", [(2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 3), (7, 1, 2), (2, 3, 2), (3, 2, 2)])
    def test_x_walk_is_the_companion_order(self, p, e, top):
        """For each irreducible f of degree <= top, _x_walk(F, f) gives the
        order of f's companion matrix C, and its residues are exactly the r
        below that order with C^r scalar, with their scalars."""
        F = field(p, e)
        for d in range(1, top + 1):
            for f in irreducibles(F, d):
                order, consts = weilgl._x_walk(F, f)
                C = companion_matrix(F, f)
                assert C.order() == order, f
                scalars, power = {}, FqMatrix.identity(F, d)
                for r in range(order):
                    if power == FqMatrix.scalar(F, d, power.data[0]):
                        scalars[r] = power.data[0]
                    power = power * C
                assert consts == scalars, f

    def test_t21_dims(self):
        h = gu_block_torus(3, [(2, 8), (1, 4)])
        assert weil_spectrum(WeilCharSpec("Unitary", 3, 3, 0), h).is_simple()
        assert not weil_spectrum(WeilCharSpec("Unitary", 3, 3, 1), h).is_simple()


PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=40)

PRIME_POWERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


def _invertible(draw, F, n):
    P = FqMatrix(F, n, draw(st.lists(st.integers(0, F.q - 1), min_size=n * n, max_size=n * n)))
    assume(P.rank() == n)
    return P


@st.composite
def hermitian_forms(draw):
    """(G, f): G = P^T J conj(P) over F_(q^2), q = p^f in {2, 3, 4}, n <= 4."""
    p, f = PRIME_POWERS[draw(st.sampled_from((2, 3, 4)))]
    F2, n = field(p, 2 * f), draw(st.integers(1, 4))
    P = _invertible(draw, F2, n)
    return P.transpose() * hermitian_gram(F2, n) * P.map_entries(F2.subfield_power_map(f)), f


@st.composite
def alternating_forms(draw):
    """G = P^T Omega P over F_q, q in {2, 3, 4, 5}, of dimension 2 or 4."""
    F, n = field(*PRIME_POWERS[draw(st.sampled_from((2, 3, 4, 5)))]), draw(st.sampled_from((1, 2)))
    P = _invertible(draw, F, 2 * n)
    return P.transpose() * symplectic_gram(F, n) * P


class TestStandardize:
    @PROPS
    @given(hermitian_forms())
    def test_hermitian_to_antidiagonal(self, form):
        G, f = form
        conj = G.F.subfield_power_map(f)
        S = weilgl._standardize(G, conj)
        assert S.rank() == G.n
        assert S.transpose() * G * S.map_entries(conj) == hermitian_gram(G.F, G.n)

    @PROPS
    @given(alternating_forms())
    def test_alternating_to_symplectic(self, G):
        S = weilgl._standardize(G)
        assert S.rank() == G.n
        assert S.transpose() * G * S == symplectic_gram(G.F, G.n // 2)

    def test_hermitian_dimension_6_over_f16(self):
        """A Witt basis over F_16 in dimension 6: no listing of the 16^6 vectors."""
        F16, n, rng = field(2, 4), 6, random.Random(6)
        P = FqMatrix(F16, n, [rng.randrange(16) for _ in range(n * n)])
        while P.rank() < n:
            P = FqMatrix(F16, n, [rng.randrange(16) for _ in range(n * n)])
        conj = F16.subfield_power_map(2)
        G = P.transpose() * hermitian_gram(F16, n) * P.map_entries(conj)
        S = weilgl._standardize(G, conj)
        assert S.rank() == n and S.transpose() * G * S.map_entries(conj) == hermitian_gram(F16, n)


class TestGaloisEquivariance:
    def test_conjugate_index_inverts_spectrum(self):
        """zeta^3 is the complex conjugate of zeta^1 at q = 3, so its
        spectrum is the eigenvalue-inverse of the zeta^1 spectrum."""
        for g in [gu_torus_element(3, 3, 28), gu_block_torus(3, [(2, 8), (1, 4)])]:
            s1 = weil_spectrum(WeilCharSpec("Unitary", 3, 3, 1), g)
            s3 = weil_spectrum(WeilCharSpec("Unitary", 3, 3, 3), g)
            inverted = {-u: m for u, m in s1.mult.items()}
            assert dict(s3.mult) == dict(sorted(inverted.items()))

    def test_spectrum_conjugation_invariant(self):
        G = unitary_group(2, 3)
        spec = WeilCharSpec("Unitary", 2, 3, 1)
        g = next(x for x in G.elements if x.order() == 8)
        for h in G.elements[3:6]:
            conj = h * g * h.inverse()
            assert weil_spectrum(spec, conj) == weil_spectrum(spec, g)


class TestEnumerate:
    def test_linear(self):
        types = ss_enumerate("Linear", 3, 5)
        assert len(types) == 1 and types[0].central_order == 31

    def test_unitary_odd(self):
        types = ss_enumerate("Unitary", 3, 3)
        orders = sorted(t.central_order for t in types)
        assert orders == [7, 8]

    def test_unitary_even(self):
        types = ss_enumerate("Unitary", 4, 4)
        by_label = {t.label: t.central_order for t in types}
        assert by_label["Singer"] == 51 and by_label["T_3,1"] == 65

    @pytest.mark.parametrize("family, n, q", [("Linear", 3, 6), ("Unitary", 3, 10), ("Linear", 2, 6), ("Linear", 3, -3)])
    def test_q_must_be_a_prime_power(self, family, n, q):
        """Checked before the family's n and exclusion rules: GL_3(6) gave a
        Singer class of order 43."""
        with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
            ss_enumerate(family, n, q)

    def test_excluded(self):
        with pytest.raises(ExcludedCase):
            ss_enumerate("Unitary", 3, 2)
        with pytest.raises(ExcludedCase):
            ss_enumerate("Linear", 3, 4)
        with pytest.raises(ExcludedCase):
            ss_enumerate("Unitary", 2, 3)


class TestDeletedPerm:
    def test_examples(self):
        assert deleted_perm_spectrum([8]).is_simple()
        assert deleted_perm_spectrum([5, 3]).is_simple()
        s = deleted_perm_spectrum([4, 4])
        assert s.mult[unity(1, 4)] == 2 and not s.is_simple()

    def test_dimension(self):
        for ct in [(8,), (5, 3), (4, 4), (3, 2, 1)]:
            assert deleted_perm_spectrum(ct).dimension == sum(ct) - 1

    def test_against_matrix_route(self):
        """Combinatorial route vs exact Fourier spectrum of the permutation
        matrix minus the trivial summand (independent dual route)."""
        for ct in [(5,), (3, 2), (4, 1), (2, 2, 1)]:
            n = sum(ct)
            images = []
            base = 0
            for c in ct:
                images.extend([base + ((j + 1) % c) for j in range(c)])
                base += c
            P = CycMatrix.from_rows(
                [[1 if images[j] == i else 0 for j in range(n)] for i in range(n)]
            )
            full = mat_spectrum(P)
            reduced = dict(full.mult)
            reduced[unity(0, 1)] -= 1
            from hypermono.repkit import Spectrum

            assert Spectrum(reduced) == deleted_perm_spectrum(ct)

    def test_simple_types_5_to_10(self):
        for n in range(5, 11):
            got = {tuple(t) for t in simple_cycle_types(n)}
            want = {(n,)} | {
                tuple(sorted((k, n - k), reverse=True)) for k in range(1, n) if gcd(k, n) == 1
            }
            assert got == want


def reference_oracle(family, n, q):
    """The oracle element by element: for every g, walk <g> and sum
    weil_value(...).abs2() over it for each Weil character (values memoised
    per element), then assemble the report as ss_exhaustive_check does."""
    group = the_group(family, n, q)
    hi = (1 if q == 2 else q - 1) if family == "Linear" else q + 1
    specs = [WeilCharSpec(family, n, q, i) for i in range(hi)]
    degrees = [int(weil_value(s, group.identity).rational()) for s in specs]
    scalars, p, one = group_scalars(group), group.identity.F.p, group.identity
    abs2 = {}
    simple = {True: [{} for _ in specs], False: [{} for _ in specs]}  # keyed by "g is a p'-element"
    pprime = {}
    for g in group.elements:
        chain, x = [one], g
        while x != one:
            chain.append(x)
            x = x * g
        order = len(chain)
        cent = next(k for k in range(1, order + 1) if chain[k % order] in scalars)
        p_prime = order % p != 0
        if p_prime:
            pprime[cent] = pprime.get(cent, 0) + 1
        for y in chain:
            if y not in abs2:
                abs2[y] = [weil_value(s, y).abs2() for s in specs]
        for i in range(len(specs)):
            total = sum((abs2[y][i] for y in chain), Cyc.from_int(0)).rational()
            assert total.denominator == 1
            if total == order * degrees[i]:
                simple[p_prime][i][cent] = simple[p_prime][i].get(cent, 0) + 1

    def by_dim(per_module):
        out = {d: {} for d in degrees}
        for d, counts in zip(degrees, per_module):
            for c, k in counts.items():
                out[d][c] = out[d].get(c, 0) + k
        return out

    def as_json(table, keep_empty):
        return {str(d): {str(c): k for c, k in sorted(v.items())} for d, v in sorted(table.items()) if v or keep_empty}

    ss, ss_p = by_dim(simple[True]), by_dim(simple[False])
    details = {
        "order": group.order,
        "degrees": degrees,
        "ss_by_dim": as_json(ss, True),
        "ss_by_dim_non_p_prime": as_json(ss_p, False),
        "p_prime_counts_by_obar": {str(c): k for c, k in sorted(pprime.items())},
        "modules_per_dim": {str(d): degrees.count(d) for d in set(degrees)},
    }
    report = {"family": family, "n": n, "q": q, "mode": "elements"}
    try:
        expected = ss_enumerate(family, n, q)
    except ExcludedCase as exc:
        return {**report, "agree": None, "details": {**details, "excluded": str(exc)}, "counterexamples": []}
    allowed = {d: set() for d in degrees}
    for cls in expected:
        for d in cls.dims:
            allowed.setdefault(d, set()).add(cls.central_order)
    agree, counterexamples = True, []
    for d, counts in ss.items():
        extra = set(counts) - allowed.get(d, set())
        if extra:
            agree = False
            counterexamples.append({"dim": d, "unexpected_central_orders": sorted(extra)})
        details.setdefault("per_dim", {})[str(d)] = {"realized": sorted(counts), "allowed": sorted(allowed.get(d, set()))}
    for cls in expected:
        if not any(cls.central_order in ss.get(d, {}) for d in cls.dims):
            agree = False
            counterexamples.append({"type": cls.label, "missing": True})
    return {**report, "agree": agree, "details": details, "counterexamples": counterexamples}


class TestExhaustiveOracle:
    @pytest.mark.parametrize(
        "family,n,q",
        [
            ("Linear", 3, 2),
            ("Unitary", 2, 3),
            ("Unitary", 3, 2),
            ("Linear", 2, 5),  # excluded, details still compared
            ("Linear", 4, 2),
            ("Linear", 3, 3),
            ("Unitary", 2, 4),  # excluded, details still compared
        ],
        ids=["gl_3_2", "gu_2_3", "gu_3_2", "gl_2_5", "gl_4_2", "gl_3_3", "gu_2_4"],
    )
    def test_matches_per_element_reference(self, family, n, q):
        assert ss_exhaustive_check(family, n, q).to_json() == reference_oracle(family, n, q)

    def test_weil_values_once_per_profile(self, monkeypatch):
        """Weil values are evaluated once per kernel profile and module, not
        once per element and module."""
        calls = 0

        def counting(fn):
            def wrapper(*args, **kwargs):
                nonlocal calls
                calls += 1
                return fn(*args, **kwargs)

            return wrapper

        group = the_group("Unitary", 3, 2)
        profiles = {gu_kernel_profile(g, 2) for g in group.elements}
        monkeypatch.setattr(weilgl, "tau_value", counting(weilgl.tau_value))
        monkeypatch.setattr(weilgl, "zeta_value", counting(weilgl.zeta_value))
        rep = ss_exhaustive_check("Unitary", 3, 2)
        n_modules = len(rep.details["degrees"])
        assert n_modules == 3 and len(profiles) * n_modules < group.order
        assert calls <= len(profiles) * n_modules

    @pytest.mark.parametrize(
        "family,order", [("Linear", 11232), ("Unitary", 24192)], ids=["gl_3_3", "gu_3_3"]
    )
    def test_oracle_needs_no_matrix(self, monkeypatch, family, order):
        """The oracle runs over class types: it builds no group, takes no
        closure or kernel dimension and calls no FqMatrix method."""

        def refuse(*args, **kwargs):
            raise AssertionError("matrix work in the oracle")

        for name in ("general_linear_group", "unitary_group", "closure", "kernel_dim"):
            monkeypatch.setattr(weilgl, name, refuse)
        monkeypatch.setattr(repkit, "closure", refuse)
        for name, value in list(vars(FqMatrix).items()):
            if callable(value) or isinstance(value, (classmethod, staticmethod)):
                monkeypatch.setattr(FqMatrix, name, refuse)
        rep = ss_exhaustive_check(family, 3, 3)
        assert rep.mode == "elements" and rep.agree is True and rep.details["order"] == order

    @pytest.mark.parametrize("n,q", [(4, 3), (3, 5), (5, 2)], ids=["gl_4_3", "gl_3_5", "gl_5_2"])
    def test_full_verdict_past_the_closure(self, n, q):
        """Full verdicts for groups of order 24,261,120, 1,488,000 and
        9,999,360 (78, 120 and 27 classes), beyond the default closure cap or
        the element-scan cap.  One run each on a 2-vCPU host took 0.10 s,
        0.29 s and 0.015 s."""
        rep = ss_exhaustive_check("Linear", n, q)
        assert rep.mode == "elements" and rep.agree is True, rep.counterexamples
        singer = (q**n - 1) // (q - 1)
        top = max(rep.details["degrees"])
        per_dim = rep.details["per_dim"][str(top)]
        assert per_dim["realized"] == [singer] == per_dim["allowed"]
        n_top = rep.details["degrees"].count(top)
        pprime = rep.details["p_prime_counts_by_obar"][str(singer)]
        assert rep.details["ss_by_dim"][str(top)][str(singer)] == n_top * pprime

    @pytest.mark.parametrize(
        "n,q,realized",
        [(3, 5, {"20": [21, 24], "21": [21]}), (4, 4, {"51": [51, 65], "52": [65]})],
        ids=["gu_3_5", "gu_4_4"],
    )
    def test_unitary_full_verdict(self, n, q, realized):
        """Full verdicts for GU_3(5) and GU_4(4), of order 2,268,000 and
        5,091,840,000 (192 and 470 classes), in the classification and out of
        reach of an element scan: every allowed central order is realized,
        the Singer and T_(n-1),1 / T_3,1 orders."""
        rep = ss_exhaustive_check("Unitary", n, q)
        assert rep.mode == "elements" and rep.agree is True, rep.counterexamples
        assert rep.details["order"] == weilgl._gu_order(n, q)
        per_dim = rep.details["per_dim"]
        assert {d: v["realized"] for d, v in per_dim.items()} == realized
        assert all(v["realized"] == v["allowed"] for v in per_dim.values())


class TestClassData:
    """GL_n(q) classes from the primary rational canonical form."""

    CASES = [(3, 2), (2, 5), (3, 3), (4, 2), (2, 4), (4, 3), (5, 2), (3, 5)]

    @pytest.mark.parametrize("n,q", CASES)
    def test_class_equation(self, n, q):
        order = weilgl._gl_order(n, q)
        classes = gl_classes(n, q)
        assert all(order % c == 0 for _, c in classes)
        assert sum(order // c for _, c in classes) == order
        assert len(classes) == weilgl._class_count("Linear", n, q)

    def test_class_counts(self):
        counts = {(3, 3): 24, (4, 3): 78, (5, 2): 27, (3, 5): 120}
        counts.update({(2, q): q * q - 1 for q in (2, 3, 4, 5, 7, 8, 9)})
        for (n, q), k in counts.items():
            assert weilgl._class_count("Linear", n, q) == k, (n, q)
        for (n, q) in [(3, 3), (5, 2), (2, 9)]:
            assert len(gl_classes(n, q)) == counts[(n, q)]

    @pytest.mark.parametrize("n,q", [(3, 2), (2, 5), (3, 3)])
    def test_class_sizes_match_the_closure(self, n, q):
        order = weilgl._gl_order(n, q)
        got = Counter(order // c for _, c in gl_classes(n, q))
        want = Counter(len(cls) for cls in general_linear_group(n, q).conjugacy_classes())
        assert got == want

    @pytest.mark.parametrize("n,q", [(3, 2), (2, 5), (3, 3), (4, 2), (2, 4)])
    def test_characteristic_polynomials(self, n, q):
        """Each representative's char_poly is prod_f f^|lam_f|: a polynomial
        chi = prod_f f^(e_f) with chi(0) != 0 is the char_poly of exactly
        prod_f p(e_f) representatives, p the partition count, and of none
        when chi(0) = 0."""
        from hypermono.gates import partitions

        F = field(*weilgl.is_prime_power(q))
        got = Counter(g.char_poly() for g, _ in gl_classes(n, q))
        assert len(got) == (q - 1) * q ** (n - 1)  # every monic chi of degree n with chi(0) != 0
        for chi, count in got.items():
            want = 1
            for e in _factor_exponents(F, chi):
                want *= len(list(partitions(e)))
            assert count == want, chi


class TestUnitaryClassData:
    """GU_n(q) classes as class types over F_(q^2) (Wall, Ennola)."""

    COUNTS = {(2, 2): 9, (2, 3): 16, (3, 2): 24, (3, 3): 56, (4, 2): 60}
    COUNTS.update({(3, 4): 110, (5, 2): 141, (3, 5): 192, (4, 3): 188, (4, 4): 470})

    @pytest.mark.parametrize("n,q", list(COUNTS))
    def test_class_equation(self, n, q):
        order = weilgl._gu_order(n, q)
        _, classes = weilgl._class_types("Unitary", n, q)
        assert len(classes) == weilgl._class_count("Unitary", n, q) == self.COUNTS[(n, q)]
        assert all(order % c == 0 for _, c in classes)
        assert sum(order // c for _, c in classes) == order

    @pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (3, 3)])
    def test_class_sizes_match_the_closure(self, n, q):
        order = weilgl._gu_order(n, q)
        got = Counter(order // c for _, c in weilgl._class_types("Unitary", n, q)[1])
        want = Counter(len(cls) for cls in unitary_group(n, q).conjugacy_classes())
        assert got == want


def _factor_exponents(F, poly):
    """The exponents e_f of the monic irreducible factors f of a monic poly
    over F_q with nonzero constant term, by trial division by the monic
    irreducibles other than x of increasing degree."""
    poly, exps = list(poly), []
    for d in range(1, len(poly)):
        for f in irreducibles(F, d):
            e = 0
            while len(poly) > d:
                quotient, rem = _divmod(F, poly, f)
                if any(rem):
                    break
                poly, e = quotient, e + 1
            if e:
                exps.append(e)
    assert poly == [1]
    return exps


def _divmod(F, a, b):
    """(quotient, remainder) of a by the monic b, low-to-high coeffs."""
    a, db = list(a), len(b) - 1
    quotient = [0] * (len(a) - db)
    for shift in range(len(a) - 1 - db, -1, -1):
        lead = a[shift + db]
        quotient[shift] = lead
        for i, c in enumerate(b):
            a[shift + i] = F.sub(a[shift + i], F.mul[lead * F.q + c])
    return quotient, a[:db]
