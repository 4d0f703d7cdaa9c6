import itertools
import json
import random
from fractions import Fraction
from math import gcd, prod

import pytest

from hypermono.algebra.cyc import Cyc, zeta
from hypermono.algebra.fq import FqMatrix, field
from hypermono.algebra.unity import unity
from hypermono.gates import partitions
from hypermono import repkit, stonevn
from hypermono.repkit import CapExceeded, CycMatrix, MonomialMatrix, Spectrum, closure, m4
from hypermono.stonevn import (
    Extraspecial2Model,
    HeisenbergModel,
    ModelError,
    ProjectiveMatrix,
    minus_torus_element,
    outer_intertwiner_2,
    outer_intertwiner_odd,
    sp_halves,
    sp_mod1_check,
    ss_extr_enumerate,
    ss_extr_oracle,
    ss_sp_enumerate,
    ss_sp_oracle,
)
from hypermono.weilgl import (
    ExcludedCase,
    _symplectic_transvection,
    is_symplectic,
    sp_torus_element,
    symplectic_gram,
    symplectic_group,
)


def model_group(model):
    """The closure of the model's generators: the Heisenberg or extraspecial
    group in its monomial form."""
    table = model.monomials()
    return closure([table[label] for label in model.generators()])


class TestModels:
    def test_heisenberg_3_1(self):
        m = HeisenbergModel(3, 1)
        assert m.dim == 3 and model_group(m).order == 27
        assert m.irreducible_certificate()

    def test_heisenberg_5_2(self):
        m = HeisenbergModel(5, 2)
        assert m.dim == 25 and model_group(m).order == 5**5

    def test_cap(self, monkeypatch):
        """A model of dimension N is refused when N^3, its table of N^2
        monomials of N columns, passes the cap (N = 169 and 256 here), and
        before the field's q^2 tables are built."""
        with pytest.raises(CapExceeded):
            HeisenbergModel(13, 2)
        with pytest.raises(CapExceeded):
            Extraspecial2Model(8, "+")

        def no_field(*args):
            raise AssertionError("the field is built before the size check")

        monkeypatch.setattr(stonevn, "field", no_field)
        with pytest.raises(CapExceeded):
            HeisenbergModel(1000003, 2)

    @pytest.mark.parametrize(
        "build, n",
        [(HeisenbergModel, 0), (HeisenbergModel, -1), (Extraspecial2Model, 0), (Extraspecial2Model, -1)],
    )
    def test_n_below_1_is_refused(self, build, n):
        args = (3, n) if build is HeisenbergModel else (n, "+")
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            build(*args)

    def test_generators_at_prime_q_are_the_unit_vectors(self):
        assert HeisenbergModel(3, 2).generators() == [
            ((1, 0), (0, 0)), ((0, 0), (1, 0)), ((0, 1), (0, 0)), ((0, 0), (0, 1))
        ]

    def test_generators_over_f9_generate(self):
        """Over F_9 the labels are the F_3-basis 1, x of each half: their
        monomials close to the whole Heisenberg group, 9^2 * 3 elements (the
        unit vectors alone reach only the 27 F_3-points)."""
        model = HeisenbergModel(3, 1, 2)
        table = model.monomials()
        assert model.generators() == [((1,), (0,)), ((0,), (1,)), ((3,), (0,)), ((0,), (3,))]
        assert closure([table[label] for label in model.generators()]).order == 243

    def test_verify_over_f9_checks_every_generator(self):
        """rho(x, 0), x of trace 0, commutes with rho over F_3 but not over
        F_9: as an intertwiner of the identity it is refused."""
        model = HeisenbergModel(3, 1, 2)
        table = model.monomials()
        M = table[((3,), (0,))].to_cyc()
        assert M.is_scalar() is None
        pm = ProjectiveMatrix(M, model, [(table[label], table[label]) for label in model.generators()])
        with pytest.raises(ModelError, match="intertwining relation fails"):
            pm.verify()

    def test_extraspecial_types(self):
        plus = Extraspecial2Model(2, "+")
        minus = Extraspecial2Model(2, "-")
        assert model_group(plus).order == 32 == model_group(minus).order
        # type is read off the quadratic form: number of nonsingular vectors
        assert sum(plus.Q.values()) == 6   # hyperbolic: 6 of 16
        assert sum(minus.Q.values()) == 10  # elliptic: 10 of 16

    def test_eps_multiplicativity(self):
        # composing a plus plane with a minus plane gives the minus form
        mixed = Extraspecial2Model(2, "-")  # built as D8 tensor Q8
        one_plus = Extraspecial2Model(1, "+")
        one_minus = Extraspecial2Model(1, "-")
        assert sum(one_plus.Q.values()) == 1   # (1,1) only
        assert sum(one_minus.Q.values()) == 3  # all nonzero vectors
        # plus(1) x minus(1): Q(u + v) = Q1(u) + Q2(v): count = 1*1 + 1*3 + 3 = ...
        count = sum(
            (one_plus.Q[u] + one_minus.Q[v]) % 2
            for u in one_plus.Q
            for v in one_minus.Q
        )
        assert count == sum(mixed.Q.values())


class TestIntertwiners:
    def test_identity_gives_scalar(self):
        m = HeisenbergModel(3, 1)
        pm = outer_intertwiner_odd(m, FqMatrix.identity(field(3), 2))
        assert pm.mat.is_scalar() is not None

    def test_structure_violation_rejected(self):
        m = HeisenbergModel(3, 1)
        bad = FqMatrix.from_rows(field(3), [[1, 1], [0, 2]])  # det 2, not symplectic
        assert not m.preserves_structure(bad)
        with pytest.raises(ModelError):
            outer_intertwiner_odd(m, bad)

    def test_structure_is_sl2_on_f3(self):
        """The form the Heisenberg model keeps on F_3^2 is kept by exactly the
        24 matrices of determinant 1."""
        m = HeisenbergModel(3, 1)
        datas = itertools.product(range(3), repeat=4)
        kept = [d for d in datas if m.preserves_structure(FqMatrix(field(3), 2, d))]
        assert len(kept) == 24 and all((a * d - b * c) % 3 == 1 for a, b, c, d in kept)

    @pytest.mark.parametrize(
        "intertwiner,model,p,f,size",
        [
            (outer_intertwiner_odd, lambda: HeisenbergModel(3, 1), 5, 1, 2),
            (outer_intertwiner_odd, lambda: HeisenbergModel(3, 1), 3, 2, 2),
            (outer_intertwiner_2, lambda: Extraspecial2Model(2, "-"), 3, 1, 4),
            (outer_intertwiner_2, lambda: Extraspecial2Model(2, "-"), 2, 1, 2),
            (outer_intertwiner_2, lambda: Extraspecial2Model(2, "-"), 2, 1, 6),
        ],
        ids=["odd_F5", "odd_F9", "extraspecial_F3", "extraspecial_2x2", "extraspecial_6x6"],
    )
    def test_wrong_field_or_size_rejected(self, intertwiner, model, p, f, size):
        """An identity over another field, or of another size than 2n, is
        refused before any table is read."""
        with pytest.raises(ModelError, match="matrix over"):
            intertwiner(model(), FqMatrix.identity(field(p, f), size))

    def test_projective_representation_property(self):
        """M(g) M(h) equals M(gh) up to a scalar."""
        m = HeisenbergModel(3, 1)
        Sp = symplectic_group(1, 3)
        import itertools

        # the first element of each order 1, 2, 3, 4, 6, in every ordered pair
        sample = list({g.order(): g for g in reversed(Sp.elements)}.values())
        assert sorted(g.order() for g in sample) == [1, 2, 3, 4, 6]
        pairs = list(itertools.product(sample, sample))
        for g, h in pairs:
            Mg = outer_intertwiner_odd(m, g).mat
            Mh = outer_intertwiner_odd(m, h).mat
            Mgh = outer_intertwiner_odd(m, g * h).mat
            prod = Mg * Mh
            # prod = lambda * Mgh: check proportionality exactly
            ratio = None
            ok = True
            for x, y in zip(prod.entries(), Mgh.entries()):
                if y.is_zero() != x.is_zero():
                    ok = False
                    break
                if not y.is_zero():
                    r = x / y
                    if ratio is None:
                        ratio = r
                    elif r != ratio:
                        ok = False
                        break
            assert ok, "intertwiner composition is not projectively multiplicative"

    def test_uniqueness_guard_is_exercised(self):
        m = HeisenbergModel(3, 1)
        g = next(g for g in symplectic_group(1, 3).elements if g.order() == 4)  # the first of order 4
        pm = outer_intertwiner_odd(m, g)
        assert pm.verify()

    def test_spectrum_rescale_invariance(self):
        m = HeisenbergModel(3, 1)
        F3 = field(3)
        g4 = FqMatrix.from_rows(F3, [[0, 2], [1, 0]])
        pm = outer_intertwiner_odd(m, g4)
        s1 = pm.projective_spectrum()
        s2 = ProjectiveMatrix(pm.mat.scale(zeta(12)), pm.model, pm.pairs).projective_spectrum()
        assert s1 == s2

    def test_canonicalization_idempotent(self):
        m = HeisenbergModel(3, 1)
        g4 = FqMatrix.from_rows(field(3), [[0, 2], [1, 0]])
        s = outer_intertwiner_odd(m, g4).projective_spectrum()
        assert s.canonical_rotation() == s


class TestHalves:
    def test_identity_halves_are_degrees(self):
        for (p, n) in [(3, 1), (5, 1), (3, 2)]:
            m = HeisenbergModel(p, n)
            pm = outer_intertwiner_odd(m, FqMatrix.identity(field(p), 2 * n))
            e, o = sp_halves(m, pm)
            q = p
            assert e.rational() == (q**n + 1) // 2
            assert o.rational() == (q**n - 1) // 2

    def test_sp2_3_exhaustive(self):
        m = HeisenbergModel(3, 1)
        Sp = symplectic_group(1, 3)
        checked = 0
        for g in Sp.elements:
            if g.order() % 2 == 1:
                pm = outer_intertwiner_odd(m, g)
                assert sp_mod1_check(m, pm)
                e, o = sp_halves(m, pm)
                assert (e - o).abs2().rational() == 1
                checked += 1
        assert checked == 9  # identity plus the eight 3-elements

    def test_even_order_excluded_from_claim(self):
        # the identity abs2(e - o) = c2 is specific to odd projective order:
        # the central involution (whose intertwiner is the parity operator
        # itself) violates it, which is why the claim carries the precondition
        m = HeisenbergModel(3, 1)
        F3 = field(3)
        minus_one = FqMatrix.scalar(F3, 2, F3.neg[1])
        pm = outer_intertwiner_odd(m, minus_one)
        assert not sp_mod1_check(m, pm)


class TestExtraspecialSpectra:
    def test_c5_minus(self):
        minus = Extraspecial2Model(2, "-")
        g5 = minus_torus_element(minus)
        pm = outer_intertwiner_2(minus, g5).odd_projective_rep()
        want = Spectrum.from_multiset([unity(k, 5) for k in range(1, 5)]).canonical_rotation()
        assert pm.projective_spectrum() == want
        assert pm.is_simple()

    def test_c3_plus_block(self):
        plus = Extraspecial2Model(2, "+")
        g = FqMatrix.from_rows(field(2), [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]])
        pm = outer_intertwiner_2(plus, g).odd_projective_rep()
        want = Spectrum.from_multiset(
            [unity(0, 1), unity(0, 1), unity(1, 3), unity(2, 3)]
        ).canonical_rotation()
        assert pm.projective_spectrum() == want
        assert not pm.is_simple()

    def test_oracle(self):
        rep = ss_extr_oracle(2)
        assert rep["agree"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_minus_torus_element_keeps_q(self, n):
        minus = Extraspecial2Model(n, "-")
        g = minus_torus_element(minus)
        assert minus.preserves_structure(g)
        assert g.order() == 2**n + 1

    def test_minus_torus_element_is_in_the_brute_force_list(self):
        minus = Extraspecial2Model(2, "-")
        listed = structure_preserving_elements(minus, 5)
        assert len(listed) == 24
        assert minus_torus_element(minus) in listed

    def test_plus_model_has_no_minus_torus(self):
        """5 does not divide |O+_4(2)| = 72; the construction finds Q(u) = 1."""
        plus = Extraspecial2Model(2, "+")
        assert structure_preserving_elements(plus, 5) == []
        for n in (1, 2, 3):
            with pytest.raises(ModelError):
                minus_torus_element(Extraspecial2Model(n, "+"))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_oracle_agrees(self, n):
        assert ss_extr_oracle(n)["agree"]

    def test_oracle_needs_only_its_model_under_the_cap(self, monkeypatch):
        """At n = 3 the model table has 8^3 = 512 entries, inside a cap of 1000;
        no search through O-_6(2) (51,840 elements) stands in the way."""
        monkeypatch.setenv("HYPERMONO_CAP", "1000")
        assert ss_extr_oracle(3)["agree"]


class TestEnumerators:
    def test_ss_extr_odd(self):
        assert ss_extr_enumerate(3, 3) == [28]
        assert ss_extr_enumerate(5, 2) == [26]

    def test_ss_extr_p2(self):
        assert ss_extr_enumerate(2, 4) == [17]
        assert sorted(ss_extr_enumerate(2, 5)) == [33, 45, 51]
        assert ss_extr_enumerate(2, 2, override=True) == [5]

    def test_hypothesis_guard(self):
        with pytest.raises(ValueError):
            ss_extr_enumerate(3, 1)

    @pytest.mark.parametrize("p, n", [(6, 2), (1, 4), (9, 1), (-3, 3)])
    def test_ss_extr_p_must_be_prime(self, p, n):
        """Checked before the p^n >= 11 guard: (6, 2) gave [37]."""
        for override in (False, True):
            with pytest.raises(ValueError, match=f"^{p} is not prime$"):
                ss_extr_enumerate(p, n, override=override)

    def test_ss_extr_p2_is_the_partition_filter(self):
        """Through n = 40 the listing gives what filtering every partition
        of n gives: a product of 2^a + 1 over distinct parts a whose factors
        are pairwise coprime, in partitions(n) order."""
        for n in range(1, 41):
            want = []
            for parts in partitions(n):
                factors = [2**a + 1 for a in parts]
                if len(set(parts)) == len(parts) and all(gcd(x, y) == 1 for x, y in itertools.combinations(factors, 2)):
                    want.append(prod(factors))
            assert ss_extr_enumerate(2, n, override=True) == want, n

    def test_ss_extr_p2_is_capped(self, monkeypatch):
        """c(100) = 37 orders of about 100 bits fit the default cap, while
        c(1023) = 74,555,322 are refused before any is listed."""
        assert len(ss_extr_enumerate(2, 100)) == 37
        with pytest.raises(CapExceeded):
            ss_extr_enumerate(2, 1023)
        monkeypatch.setenv("HYPERMONO_CAP", str(37 * 100 - 1))
        with pytest.raises(CapExceeded):
            ss_extr_enumerate(2, 100)

    def test_ss_sp(self):
        types = ss_sp_enumerate(2, 5)
        assert sorted(t.central_order for t in types) == [12, 13]
        types = ss_sp_enumerate(3, 5)
        orders = sorted(t.central_order for t in types)
        assert orders == [62, 63, 78]
        with pytest.raises(ExcludedCase):
            ss_sp_enumerate(2, 3)
        with pytest.raises(ExcludedCase):
            ss_sp_enumerate(3, 3)

    @pytest.mark.parametrize("n, q", [(2, 15), (2, -3), (1, 6), (3, 1)])
    def test_ss_sp_q_must_be_a_prime_power(self, n, q):
        """Checked before the parity and n rules: (2, 15) and (2, -3) gave
        T+ and T- classes."""
        with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
            ss_sp_enumerate(n, q)

    def test_beta_coprimality_claim(self):
        """The two block orders of an admissible (a, b) pair are coprime
        after halving (re-checked arithmetically, not structurally)."""
        from math import gcd

        for q in (3, 5, 7):
            for n in range(2, 8):
                if (n, q) in ((2, 3), (3, 3)):
                    continue
                for cls in ss_sp_enumerate(n, q):
                    if cls.a is not None:
                        x = (q**cls.a + 1) // 2
                        y = (q**cls.b + 1) // 2
                        assert gcd(x, y) == 1, (q, cls.a, cls.b)


class TestSpOracle:
    def test_sp45_battery(self):
        rep = ss_sp_oracle(2, 5)
        assert rep["agree"]
        by_label = {t["torus"]: t for t in rep["types"]}
        assert by_label["T-"]["simple_even"] and by_label["T-"]["simple_odd"]
        assert not by_label["T+"]["simple_even"] and by_label["T+"]["simple_odd"]
        assert not any(rep["negative_controls_simple"].values())

    def test_cap(self, monkeypatch):
        """Sp_6(5) lists the block type T_2,1, whose torus the oracle does not
        build: refused by name before the model is built."""

        def no_model(*args):
            raise AssertionError("the model is built before the refusal")

        monkeypatch.setattr(stonevn, "HeisenbergModel", no_model)
        with pytest.raises(ExcludedCase, match="^no block torus is built: T_2,1$"):
            ss_sp_oracle(3, 5)

    def test_q_must_be_a_prime_power(self):
        with pytest.raises(ValueError, match="^6 is not a prime power$"):
            ss_sp_oracle(1, 6)


def dense_powers(M):
    """M^0, ..., M^(K-1) and c with M^K = c * identity, K minimal: one full
    product per power."""
    powers, x = [CycMatrix.identity(M.n)], M
    while x.is_scalar() is None:
        powers.append(x)
        x = x * M
    return powers, x.is_scalar()


def reference_verdict(pm, powers, parity=None, sign=0):
    """The autocorrelation test for one sign over the dense powers, with
    full products x * parity for the half traces."""
    M, K = pm.mat, len(powers)
    c2_inv = pm.unitarity_scalar().inverse()
    half = Fraction(1, 2)
    acc, weight = Cyc.from_int(0), Cyc.from_int(1)
    for x in powers:
        tr = x.trace()
        if parity is not None:
            tr = (tr + sign * (x * parity).trace()) * half
        acc = acc + tr.abs2() * weight
        weight = weight * c2_inv
    d = M.n if parity is None else int(((Cyc.from_int(M.n) + sign * parity.trace()) * half).rational())
    total = acc.rational() / K
    assert total.denominator == 1
    return int(total) == d


def reference_is_simple(pm, parity=None, sign=0):
    """The autocorrelation test for one sign, walked on its own."""
    M = pm.mat
    if parity is not None and M * parity != parity * M:
        raise ModelError("matrix does not preserve the parity halves")
    return reference_verdict(pm, dense_powers(M)[0], parity, sign)


def reference_walk(pm):
    """(K, c, traces, verdicts) as ProjectiveMatrix._walk keeps them, from
    the dense powers: every trace read off its dense power."""
    M = pm.mat
    P = pm.model.parity_matrix()
    powers, c = dense_powers(M)
    verdicts = {0: reference_verdict(pm, powers)}
    if P is not None and M * P == P * M:
        verdicts.update({sign: reference_verdict(pm, powers, P, sign) for sign in (1, -1)})
    return len(powers), c, [x.trace() for x in powers], verdicts


def sp4_5_intertwiners(model):
    """T+, T-, identity, a transvection and -1 in the Sp_4(5) model."""
    F = field(5)
    return {
        "T+": outer_intertwiner_odd(model, sp_torus_element(2, 5, 1)),
        "T-": outer_intertwiner_odd(model, sp_torus_element(2, 5, -1)),
        "identity": outer_intertwiner_odd(model, FqMatrix.identity(F, 4)),
        "transvection": outer_intertwiner_odd(
            model, _symplectic_transvection(F, symplectic_gram(F, 2), (1, 0, 0, 0))
        ),
        "central": outer_intertwiner_odd(model, FqMatrix.scalar(F, 4, F.neg[1])),
    }


class TestSharedWalk:
    """is_simple reads one shared power walk; a per-sign walk is the reference."""

    def test_sp4_5_matches_reference(self):
        model = HeisenbergModel(5, 2)
        P = model.parity_matrix()
        for label, pm in sp4_5_intertwiners(model).items():
            for parity, sign in ((P, 1), (P, -1), (None, 0)):
                got = pm.is_simple(sign)
                assert got == reference_is_simple(pm, parity, sign), (label, sign)

    def test_sp2_3_odd_elements_match_reference(self):
        model = HeisenbergModel(3, 1)
        P = model.parity_matrix()
        checked = 0
        for g in symplectic_group(1, 3).elements:
            if g.order() % 2 == 1:
                pm = outer_intertwiner_odd(model, g)
                for parity, sign in ((None, 0), (P, -1), (P, 1)):
                    assert pm.is_simple(sign) == reference_is_simple(pm, parity, sign)
                checked += 1
        assert checked == 9

    def test_extraspecial_matches_reference(self):
        minus = Extraspecial2Model(2, "-")
        pm = outer_intertwiner_2(minus, minus_torus_element(minus)).odd_projective_rep()
        assert pm.is_simple() == reference_is_simple(pm) is True

    def test_one_walk_per_intertwiner(self, monkeypatch):
        """T- of Sp_4(5): projective order and both halves cost the 12 products
        up to M^13 = a * Q (g^13 = -1), not one walk per call: the rest of the
        walk to K = 26 reads the monomial tail."""
        model = HeisenbergModel(5, 2)
        pm = outer_intertwiner_odd(model, sp_torus_element(2, 5, -1))
        products = 0
        mul = CycMatrix.__mul__

        def counting_mul(a, b):
            nonlocal products
            products += 1
            return mul(a, b)

        monkeypatch.setattr(CycMatrix, "__mul__", counting_mul)
        K, _ = pm.projective_order()
        even, odd = pm.is_simple(+1), pm.is_simple(-1)
        assert (K, even, odd) == (26, True, True)
        assert products == 12

    def test_one_walk_in_any_call_order(self, monkeypatch):
        """The order, every verdict, the finite-order form and the spectrum
        come from one walk, whichever is asked first.  T+ of Sp_2(7) is split,
        so M is a scalar times a monomial matrix and the walk makes no dense
        product."""
        model = HeisenbergModel(7, 1)
        g = sp_torus_element(1, 7, 1)
        walks = 0
        walk = ProjectiveMatrix._walk

        def counting_walk(self):
            nonlocal walks
            walks += 1
            return walk(self)

        monkeypatch.setattr(ProjectiveMatrix, "_walk", counting_walk)
        want = Spectrum.from_multiset(
            [unity(0, 1), unity(0, 1), unity(1, 6), unity(1, 3), unity(1, 2), unity(2, 3), unity(5, 6)]
        )
        counter = count_products(monkeypatch)
        for calls in itertools.permutations(range(4)):
            pm = outer_intertwiner_odd(model, g)
            walks = counter["products"] = 0
            steps = [
                pm.projective_order,
                lambda: [pm.is_simple(sign) for sign in (0, 1, -1)],
                pm.finite_order_form,
                pm.projective_spectrum,
            ]
            results = {k: steps[k]() for k in calls}
            assert results[0][0] == 6 and results[1] == [False, False, True] and results[3] == want, calls
            assert walks == 1 and counter["products"] == 0, calls

    def test_sp_oracle_products(self, monkeypatch):
        """Dense products per Sp_4(5) intertwiner walk, and per ss_sp_oracle(2, 5)
        call: only T- (up to M^13) and the transvection (K = 5, no monomial
        power before) multiply."""
        want = {"T+": 0, "T-": 12, "identity": 0, "transvection": 4, "central": 0}
        counter = count_products(monkeypatch)
        for label, pm in sp4_5_intertwiners(HeisenbergModel(5, 2)).items():
            counter["products"] = 0
            pm.is_simple()
            assert counter["products"] == want[label], label
        counter["products"] = 0
        ss_sp_oracle(2, 5)
        assert counter["products"] == 16

    @pytest.mark.parametrize("eps, K", [(1, 24), (-1, 26)])
    def test_cap_counts_the_tail(self, monkeypatch, eps, K):
        """T+ of Sp_4(5) walks wholly in the tail (k0 = 1), T- enters it at
        k0 = 13: each passes with the cap at K and raises CapExceeded below."""
        model = HeisenbergModel(5, 2)
        g = sp_torus_element(2, 5, eps)
        monkeypatch.setattr("hypermono.stonevn.CYC_ORDER_CAP", K - 1)
        with pytest.raises(CapExceeded):
            outer_intertwiner_odd(model, g).projective_order()
        monkeypatch.setattr("hypermono.stonevn.CYC_ORDER_CAP", K)
        assert outer_intertwiner_odd(model, g).projective_order()[0] == K

    def test_projective_spectrum_makes_no_product(self, monkeypatch):
        """The minus model at order 5: the spectrum inverts the walk's traces."""
        minus = Extraspecial2Model(2, "-")
        pm = outer_intertwiner_2(minus, minus_torus_element(minus)).odd_projective_rep()
        pm.projective_order()
        counter = count_products(monkeypatch)
        want = Spectrum.from_multiset([unity(k, 5) for k in range(1, 5)]).canonical_rotation()
        assert pm.projective_spectrum() == want
        assert counter["products"] == 0

    def test_one_certificate_and_table_per_model(self, monkeypatch):
        model = HeisenbergModel(5, 2)
        bodies = 0
        tables = 0
        body = HeisenbergModel._character_norm_sum
        build = HeisenbergModel._monomial_table

        def counting_body(self):
            nonlocal bodies
            bodies += 1
            return body(self)

        def counting_build(self):
            nonlocal tables
            tables += 1
            return build(self)

        monkeypatch.setattr(HeisenbergModel, "_character_norm_sum", counting_body)
        monkeypatch.setattr(HeisenbergModel, "_monomial_table", counting_build)
        for eps in (1, -1, 1):
            assert outer_intertwiner_odd(model, sp_torus_element(2, 5, eps)).verify()
        assert bodies == 1
        assert tables == 1


def extraspecial_candidates(eps):
    """The intertwiner of ss_extr_oracle's element on Extraspecial2Model(2, eps)
    and every coset candidate M rho(e) that odd_projective_rep searches."""
    model = Extraspecial2Model(2, eps)
    g = minus_torus_element(model) if eps == "-" else sp_torus_element(2, 2, 1)
    pm = outer_intertwiner_2(model, g)
    return [pm] + [ProjectiveMatrix(pm.mat * mono, model) for mono in model.monomials().values()]


class TestWalkEquivalence:
    """The walk with its monomial tail keeps the (K, c), the traces and the
    verdicts of the dense reference walk."""

    @staticmethod
    def check(pm):
        K, c, traces, verdicts = reference_walk(pm)
        assert pm.projective_order() == (K, c)
        assert pm._traces == traces
        assert pm._verdicts == verdicts

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_every_element_of_sp2(self, q):
        model = HeisenbergModel(q, 1)
        for g in symplectic_group(1, q).elements:
            self.check(outer_intertwiner_odd(model, g))

    @pytest.mark.parametrize("n, q", [(2, 3), (1, 11)])
    def test_class_representatives(self, n, q):
        model = HeisenbergModel(q, n)
        for g in symplectic_group(n, q).class_representatives():
            self.check(outer_intertwiner_odd(model, g))

    def test_sp4_5_intertwiners(self):
        for pm in sp4_5_intertwiners(HeisenbergModel(5, 2)).values():
            self.check(pm)

    @pytest.mark.parametrize("eps", ["+", "-"])
    def test_extraspecial_candidates(self, eps):
        for pm in extraspecial_candidates(eps):
            self.check(pm)


class TestPinnedOutputs:
    """The oracles' reports and the heisenberg_108 generator, pinned."""

    SP_2_5 = (
        '{"agree": true, "dims": [13, 12], "n": 2, "negative_controls_simple": {"central_involution": false, '
        '"identity": false, "transvection": false}, "q": 5, "types": [{"as_expected": true, "central_order": 12, '
        '"simple_even": false, "simple_odd": true, "torus": "T+", "warning": "the minus-half torus order '
        '(q^n-1)/2 cannot arise from local data unless (n,q) is on the small exception list"}, '
        '{"as_expected": true, "central_order": 13, "simple_even": true, "simple_odd": true, "torus": "T-", '
        '"warning": null}]}'
    )
    EXTR_2 = (
        '{"agree": true, "enumerate": [5], "minus": {"matches": true, "simple": true, "spectrum": '
        '{"0/1": 1, "1/5": 1, "2/5": 1, "3/5": 1}, "torus_order": 5}, "plus": {"matches": true, '
        '"simple": false, "spectrum": {"0/1": 2, "1/3": 1, "2/3": 1}, "torus_order": 3}}'
    )

    EXTR_1 = (
        '{"agree": true, "enumerate": [3], "minus": {"matches": true, "simple": true, "spectrum": '
        '{"0/1": 1, "1/3": 1}, "torus_order": 3}, "plus": {"matches": true, "simple": false, "spectrum": '
        '{"0/1": 2}, "torus_order": 1}}'
    )
    EXTR_3 = (
        '{"agree": true, "enumerate": [9, 15], "minus": {"matches": true, "simple": true, "spectrum": '
        '{"0/1": 1, "1/3": 1, "1/9": 1, "2/3": 1, "2/9": 1, "4/9": 1, "5/9": 1, "7/9": 1}, "torus_order": 9}, '
        '"plus": {"matches": true, "simple": false, "spectrum": {"0/1": 2, "1/7": 1, "2/7": 1, "3/7": 1, '
        '"4/7": 1, "5/7": 1, "6/7": 1}, "torus_order": 7}}'
    )

    def test_oracle_reports(self):
        assert json.dumps(ss_sp_oracle(2, 5), sort_keys=True) == self.SP_2_5
        assert json.dumps(ss_extr_oracle(1), sort_keys=True) == self.EXTR_1
        assert json.dumps(ss_extr_oracle(2), sort_keys=True) == self.EXTR_2
        assert json.dumps(ss_extr_oracle(3), sort_keys=True) == self.EXTR_3

    EXTR_4 = (
        '{"agree": true, "enumerate": [17], "minus": {"matches": true, "simple": true, '
        '"spectrum": {"0/1": 1, "1/17": 1, "10/17": 1, "11/17": 1, "12/17": 1, "13/17": 1, "14/17": 1, '
        '"15/17": 1, "2/17": 1, "3/17": 1, "4/17": 1, "5/17": 1, "6/17": 1, "7/17": 1, "8/17": 1, '
        '"9/17": 1}, "torus_order": 17}, "plus": {"matches": true, "simple": false, "spectrum": {"0/1": 2, '
        '"1/15": 1, "1/3": 1, "1/5": 1, "11/15": 1, "13/15": 1, "14/15": 1, "2/15": 1, "2/3": 1, "2/5": 1, '
        '"3/5": 1, "4/15": 1, "4/5": 1, "7/15": 1, "8/15": 1}, "torus_order": 15}}'
    )

    EXTR_5 = (
        '{"agree": true, "enumerate": [33, 51, 45], "minus": {"matches": true, "simple": true, '
        '"spectrum": {"0/1": 1, "1/11": 1, "1/3": 1, "1/33": 1, "10/11": 1, "10/33": 1, "13/33": 1, '
        '"14/33": 1, "16/33": 1, "17/33": 1, "19/33": 1, "2/11": 1, "2/3": 1, "2/33": 1, "20/33": 1, '
        '"23/33": 1, "25/33": 1, "26/33": 1, "28/33": 1, "29/33": 1, "3/11": 1, "31/33": 1, "4/11": 1, '
        '"4/33": 1, "5/11": 1, "5/33": 1, "6/11": 1, "7/11": 1, "7/33": 1, "8/11": 1, "8/33": 1, "9/11": 1}, '
        '"torus_order": 33}, "plus": {"matches": true, "simple": false, "spectrum": {"0/1": 2, "1/31": 1, '
        '"10/31": 1, "11/31": 1, "12/31": 1, "13/31": 1, "14/31": 1, "15/31": 1, "16/31": 1, "17/31": 1, '
        '"18/31": 1, "19/31": 1, "2/31": 1, "20/31": 1, "21/31": 1, "22/31": 1, "23/31": 1, "24/31": 1, '
        '"25/31": 1, "26/31": 1, "27/31": 1, "28/31": 1, "29/31": 1, "3/31": 1, "30/31": 1, "4/31": 1, '
        '"5/31": 1, "6/31": 1, "7/31": 1, "8/31": 1, "9/31": 1}, "torus_order": 31}}'
    )

    def test_extraspecial_reports_at_n_4_and_5(self):
        assert json.dumps(ss_extr_oracle(4), sort_keys=True) == self.EXTR_4
        assert json.dumps(ss_extr_oracle(5), sort_keys=True) == self.EXTR_5

    def test_finite_order_form_hash(self):
        """The generator M0 of the 108-element group (order 4, g^2 = -1)."""
        g4 = FqMatrix.from_rows(field(3), [[0, 2], [1, 0]])
        M0 = outer_intertwiner_odd(HeisenbergModel(3, 1), g4).finite_order_form()
        assert hash(M0) == 4476011971548836841


class TestParityCheck:
    """Whether M commutes with the parity is read off the permutation."""

    def test_parity_check_makes_no_product(self, monkeypatch):
        """T- of Sp_4(5): projective order and both halves cost the walk's
        own products alone, at most K - 1."""
        model = HeisenbergModel(5, 2)
        pm = outer_intertwiner_odd(model, sp_torus_element(2, 5, -1))
        products = 0
        mul = CycMatrix.__mul__

        def counting_mul(a, b):
            nonlocal products
            products += 1
            return mul(a, b)

        monkeypatch.setattr(CycMatrix, "__mul__", counting_mul)
        K, _ = pm.projective_order()
        assert (pm.is_simple(+1), pm.is_simple(-1)) == (True, True)
        assert K == 26 and products <= K - 1


    def test_coset_candidate_halves_are_refused(self):
        """M rho(e) moves the parity (P rho(e) P = rho(-e)): its halves are
        refused, while the whole space is still answered."""
        model = HeisenbergModel(5, 1)
        pm = outer_intertwiner_odd(model, sp_torus_element(1, 5, -1))
        assert pm.is_simple(1) and pm.is_simple(-1)
        for label in (((1,), (0,)), ((0,), (1,))):
            cand = ProjectiveMatrix(pm.mat * model.monomials()[label], model)
            for sign in (1, -1):
                with pytest.raises(ModelError, match="does not preserve the parity halves"):
                    cand.is_simple(sign)
            assert cand.is_simple() in (True, False)

    def test_extraspecial_models_have_no_halves(self):
        minus = Extraspecial2Model(2, "-")
        pm = outer_intertwiner_2(minus, minus_torus_element(minus))
        with pytest.raises(ModelError, match="does not preserve the parity halves"):
            pm.is_simple(1)

    @pytest.mark.parametrize("sign", [2, -2, 0.5])
    def test_bad_sign_is_a_value_error(self, sign):
        pm = outer_intertwiner_odd(HeisenbergModel(3, 1), FqMatrix.identity(field(3), 2))
        with pytest.raises(ValueError):
            pm.is_simple(sign)


def pauli_word(v, gens, dim):
    """The product of gens[k] over the k with v[k] = 1, ascending."""
    out = MonomialMatrix.identity(dim, 4)
    for bit, gen in zip(v, gens):
        if bit:
            out = out * gen
    return out


def pauli_reference(n, eps):
    """The sections s(v) as words in the signed Pauli generators, X then Z on
    tensor slots 0..n-1 (slot k the bit 2^(n-1-k)), a factor i on both of
    the last slot's generators for the minus type; and Q from s(v)^2 = (-1)^Q."""
    N = 2**n
    gens = []
    for kind in "XZ":
        for slot in range(n):
            bit, twist = 1 << (n - 1 - slot), int(eps == "-" and slot == n - 1)
            if kind == "X":
                gens.append(MonomialMatrix([x ^ bit for x in range(N)], [twist] * N, 4))
            else:
                gens.append(MonomialMatrix(range(N), [2 * bool(x & bit) + twist for x in range(N)], 4))
    table, Q = {}, {}
    for v in itertools.product(range(2), repeat=2 * n):
        table[v] = s = pauli_word(v, gens, N)
        square = s * s
        assert square.perm == tuple(range(N)) and len(set(square.exps)) == 1 and square.exps[0] in (0, 2)
        Q[v] = square.exps[0] // 2
    return table, Q


def full_scan_preserves(model, g):
    """The symplectic form kept, and Q kept on all 4^n vectors."""
    return (
        g.F.q == 2 and g.n == 2 * model.n and is_symplectic(g)
        and all(model.Q[tuple(g.apply(v))] == Q for v, Q in model.Q.items())
    )


def structure_preserving_elements(model, order):
    """The F_2 matrices of the given order preserving the model's quadratic
    structure, built column by column: each column keeps Q on its basis
    vector and the polarization of Q against every earlier column."""
    dim, F2 = 2 * model.n, field(2)
    basis, Q = model.generators(), model.Q

    def form(u, v):  # the polarization of Q
        return Q[tuple(a ^ b for a, b in zip(u, v))] ^ Q[u] ^ Q[v]

    vecs = list(itertools.product(range(2), repeat=dim))
    partial = [()]
    for c in range(dim):
        partial = [
            cols + (v,)
            for cols in partial
            for v in vecs
            if Q[v] == Q[basis[c]] and all(form(u, v) == form(basis[i], basis[c]) for i, u in enumerate(cols))
        ]
    out = [FqMatrix(F2, dim, tuple(cols[c][r] for r in range(dim) for c in range(dim))) for cols in partial]
    return [g for g in out if model.preserves_structure(g) and g.order() == order]


class TestOddProjectiveRep:
    """When the intertwiner of an odd-order element has even projective
    order, odd_projective_rep searches the coset M rho(e)."""

    @pytest.mark.parametrize("eps, elements, searched", [("+", 8, 4), ("-", 20, 10)])
    def test_coset_search(self, eps, elements, searched):
        model = Extraspecial2Model(2, eps)
        table = model.monomials().values()
        order3 = structure_preserving_elements(model, 3)
        assert len(order3) == elements
        seen = 0
        for g in order3:
            pm = outer_intertwiner_2(model, g)
            if pm.projective_order()[0] % 2 == 1:
                assert pm.odd_projective_rep() is pm
                continue
            seen += 1
            rep = pm.odd_projective_rep()
            assert rep is not pm and rep.projective_order()[0] % 2 == 1
            spec = rep.projective_spectrum()
            odd = [c for c in (ProjectiveMatrix(pm.mat * mono, model) for mono in table)
                   if c.projective_order()[0] % 2 == 1]
            assert odd and all(c.projective_spectrum() == spec for c in odd)
        assert seen == searched


class TestExtensionToFiniteGroup:
    def test_p_c4_closure_m4(self):
        """The 3-dim extraspecial representation extends to an order-4 outer
        element; the resulting 108-element group has fourth moment 3."""
        m = HeisenbergModel(3, 1)
        g4 = FqMatrix.from_rows(field(3), [[0, 2], [1, 0]])
        M0 = outer_intertwiner_odd(m, g4).finite_order_form()
        assert M0.order() == 4
        X = m.rho_matrix((1,), (0,))
        Z = m.rho_matrix((0,), (1,))
        J = closure([X, Z, M0])
        assert J.order == 108
        assert m4(J) == 3
        # M0 is dense, so the mixed list stays on CycMatrix; X and Z alone
        # close as MonomialMatrix
        assert all(isinstance(g, CycMatrix) for g in J.elements)
        E = closure([X, Z])
        assert E.order == 27 and all(isinstance(g, MonomialMatrix) for g in E.elements)


def count_products(monkeypatch):
    """A counter of CycMatrix products made from now on."""
    counter = {"products": 0}
    mul = CycMatrix.__mul__

    def counting_mul(a, b):
        counter["products"] += 1
        return mul(a, b)

    monkeypatch.setattr(CycMatrix, "__mul__", counting_mul)
    return counter


class TestMonomialModels:
    """Both models are monomial tables: averaging, verify and the certificate
    read the table and make no dense product."""

    def test_odd_intertwiner_makes_no_product(self, monkeypatch):
        model = HeisenbergModel(5, 2)
        g = sp_torus_element(2, 5, -1)
        counter = count_products(monkeypatch)
        outer_intertwiner_odd(model, g)
        assert counter["products"] == 0

    def test_extraspecial_intertwiner_makes_no_product(self, monkeypatch):
        minus = Extraspecial2Model(2, "-")
        g = minus_torus_element(minus)
        counter = count_products(monkeypatch)
        outer_intertwiner_2(minus, g)
        assert counter["products"] == 0

    def test_finite_order_form_reuses_the_walk(self, monkeypatch):
        pm = outer_intertwiner_odd(HeisenbergModel(5, 2), sp_torus_element(2, 5, -1))
        K, _ = pm.projective_order()
        counter = count_products(monkeypatch)
        M0 = pm.finite_order_form()
        assert counter["products"] == 0
        assert M0.is_scalar() is None and (M0**K).is_scalar().as_root_of_unity() is not None

    def test_one_extraspecial_certificate_per_model(self, monkeypatch):
        minus = Extraspecial2Model(2, "-")
        order3 = structure_preserving_elements(minus, 3)[0]
        elements = [minus_torus_element(minus), order3, FqMatrix.identity(field(2), 4)]
        bodies = 0
        body = Extraspecial2Model._character_norm_sum

        def counting_body(self):
            nonlocal bodies
            bodies += 1
            return body(self)

        monkeypatch.setattr(Extraspecial2Model, "_character_norm_sum", counting_body)
        for g in elements:
            assert outer_intertwiner_2(minus, g).verify()
        assert bodies == 1

    @pytest.mark.parametrize("eps", ["+", "-"])
    def test_sections_match_the_pauli_products(self, eps):
        """s(v)^2 = (-1)^Q(v), and the closure is the sections times +-1."""
        model = Extraspecial2Model(2, eps)
        sections = {mono.to_cyc() for mono in model.monomials().values()}
        negated = {s.scale(Cyc.from_int(-1)) for s in sections}
        assert sections | negated == set(model_group(model).elements)
        for v, mono in model.monomials().items():
            s = mono.to_cyc()
            assert s * s == CycMatrix.scalar(4, Cyc.from_int((-1) ** model.Q[v]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("eps", ["+", "-"])
    def test_formula_table_matches_the_pauli_words(self, n, eps):
        """The table and Q, written down from s(v) = i^t(v) X^a Z^b, equal
        the products of the signed Pauli generators and their squares, label
        by label and in the same order."""
        model = Extraspecial2Model(n, eps)
        table, Q = pauli_reference(n, eps)
        assert list(model.monomials()) == list(table) and list(model.Q.items()) == list(Q.items())
        for v, mono in model.monomials().items():
            assert (mono.perm, mono.exps, mono.e) == (table[v].perm, table[v].exps, table[v].e)

    def test_models_build_without_closure(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a closure in the model build")

        monkeypatch.setattr(repkit, "closure", refuse)
        assert not hasattr(stonevn, "closure") and not hasattr(Extraspecial2Model, "word")
        for n in range(1, 7):
            for eps in "+-":
                assert len(Extraspecial2Model(n, eps).monomials()) == 4**n

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_extraspecial_images_take_one_product_per_label(self, monkeypatch, n):
        """sigma(s(v)) = sigma(s(v')) s(g e_k), v' the earlier label with v's
        last set bit k cleared: at most 4^n monomial products, for the
        intertwiner that the Pauli words of the generator images give."""
        minus, plus = Extraspecial2Model(n, "-"), Extraspecial2Model(n, "+")
        cases = []
        for model, g in ((minus, minus_torus_element(minus)), (plus, sp_torus_element(n, 2, 1))):
            table = model.monomials()
            imgs = [table[tuple(g.apply(e))] for e in model.generators()]
            ref = stonevn._average(model, lambda v, imgs=imgs, dim=model.dim: pauli_word(v, imgs, dim))
            cases.append((model, g, ref.mat))
        products = 0
        mul = MonomialMatrix.__mul__

        def counting_mul(self, other):
            nonlocal products
            products += 1
            return mul(self, other)

        monkeypatch.setattr(MonomialMatrix, "__mul__", counting_mul)
        for model, g, ref in cases:
            products = 0
            M = outer_intertwiner_2(model, g).mat
            assert products <= 4**n
            assert (M.m, M.den, M.coeffs) == (ref.m, ref.den, ref.coeffs)

    @pytest.mark.parametrize("eps", ["+", "-"])
    def test_basis_form_check_equals_the_full_scan(self, eps):
        """Q kept on the basis labels is Q kept on every vector, for the
        order-3 elements that keep the structure, for every element of
        Sp_4(2) and for random F_2 matrices and symplectic products."""
        rng = random.Random(1)
        F2 = field(2)
        for n in (1, 2, 3):
            model = Extraspecial2Model(n, eps)
            G = symplectic_gram(F2, n)
            candidates = [FqMatrix(F2, 2 * n, tuple(rng.randrange(2) for _ in range(4 * n * n))) for _ in range(200)]
            for _ in range(200):
                g = FqMatrix.identity(F2, 2 * n)
                for _ in range(rng.randrange(1, 8)):
                    u = tuple(rng.randrange(2) for _ in range(2 * n))
                    if any(u):
                        g = g * _symplectic_transvection(F2, G, u)
                candidates.append(g)
            if n == 2:
                candidates += structure_preserving_elements(model, 3) + list(symplectic_group(2, 2).elements)
            verdicts = [model.preserves_structure(g) for g in candidates]
            assert verdicts == [full_scan_preserves(model, g) for g in candidates]
            assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("args", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 1, 2)])
    def test_table_matches_rho_monomial(self, args):
        """The shift and phase tables give rho_monomial(a, b) on every label;
        over F_9 this rests on the additivity of the trace to F_3."""
        model = HeisenbergModel(*args)
        table = model.monomials()
        assert len(table) == model.dim**2
        for (a, b), mono in table.items():
            ref = model.rho_monomial(a, b)
            assert (mono.perm, mono.exps, mono.e) == (ref.perm, ref.exps, ref.e)

    def test_verify_rejects_a_non_intertwiner(self):
        odd = outer_intertwiner_odd(HeisenbergModel(3, 1), FqMatrix.from_rows(field(3), [[0, 2], [1, 0]]))
        minus = Extraspecial2Model(2, "-")
        two = outer_intertwiner_2(minus, minus_torus_element(minus))
        for pm in (odd, two):
            wrong = ProjectiveMatrix(CycMatrix.identity(pm.mat.n), pm.model, pm.pairs)
            with pytest.raises(ModelError):
                wrong.verify()
            with pytest.raises(ModelError):
                ProjectiveMatrix(pm.mat, pm.model).verify()  # nothing to check is no pass
