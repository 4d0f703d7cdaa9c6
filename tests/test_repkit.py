import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermono import weilgl
from hypermono.algebra.cyc import Cyc, zeta
from hypermono.algebra.fq import FqMatrix, field
from hypermono.algebra.unity import unity
from hypermono.repkit import (
    CapExceeded,
    CycMatrix,
    Spectrum,
    alt2_character,
    closure,
    inner_product,
    m4,
    simple_spectrum,
    spectrum,
    sym2_character,
)


def perm_matrix(images):
    n = len(images)
    return CycMatrix.from_rows([[1 if images[j] == i else 0 for j in range(n)] for i in range(n)])


def monomial_group(q):
    """The translation/scaling monomial group with the full diagonal p-part."""
    z = zeta(q)
    diag = CycMatrix.from_rows(
        [[(z if (i == j == 0) else (1 if i == j else 0)) for j in range(q)] for i in range(q)]
    )
    T = perm_matrix([(v + 1) % q for v in range(q)])
    gen = 2 if q == 3 else 2  # a generator of (Z/q)* for prime q in {3, 5}
    S = perm_matrix([(gen * v) % q for v in range(q)])
    return closure([diag, T, S])


class TestClosure:
    def test_three_cycle(self):
        G = closure([perm_matrix([1, 2, 0])])
        assert G.order == 3

    def test_sl2_3(self):
        F3 = field(3)
        a = FqMatrix.from_rows(F3, [[0, 2], [1, 0]])
        b = FqMatrix.from_rows(F3, [[1, 1], [0, 1]])
        G = closure([a, b])
        assert G.order == 24
        sizes = sorted(len(c) for c in G.conjugacy_classes())
        assert sizes == [1, 1, 4, 4, 4, 4, 6]

    def test_monomial_model_order(self):
        G = monomial_group(3)
        assert G.order == 162  # 27 * 6

    def test_cap(self):
        F3 = field(3)
        a = FqMatrix.from_rows(F3, [[0, 2], [1, 0]])
        b = FqMatrix.from_rows(F3, [[1, 1], [0, 1]])
        with pytest.raises(CapExceeded):
            closure([a, b], cap=10)

    def test_cap_message_names_cap_and_size(self):
        F3 = field(3)
        a = FqMatrix.from_rows(F3, [[0, 2], [1, 0]])
        b = FqMatrix.from_rows(F3, [[1, 1], [0, 1]])
        with pytest.raises(CapExceeded) as exc:
            closure([a, b], cap=10)
        msg = str(exc.value)
        assert msg.startswith("closure exceeded cap 10: ")
        reached = int(re.search(r"(\d+) elements reached", msg).group(1))
        assert 1 <= reached <= 10 and "of 2 generators kept" in msg

    def test_singular_generator_rejected(self):
        F3 = field(3)
        with pytest.raises(ValueError):
            closure([FqMatrix.from_rows(F3, [[1, 0], [0, 0]])])
        w = zeta(3)
        with pytest.raises(ValueError):  # determinant w * w - 1 * w^2 = 0
            closure([CycMatrix.from_rows([[w, 1], [w * w, w]])], cap=100)

    def test_trace_product(self):
        w = zeta(3)
        a = CycMatrix.from_rows([[w, 1, 0], [2, w * w, 1], [0, w, 3]])
        b = CycMatrix.from_rows([[0, w, 1], [0, 0, 0], [5, 1, w]])
        for x, y in ((a, b), (b, a), (a, perm_matrix([2, 0, 1])), (a, a)):
            assert x.trace_product(y) == (x * y).trace()


PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=25)


def bfs_closure(gens, identity):
    """Reference: breadth-first closure under right multiplication."""
    seen, frontier = {identity}, [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


@st.composite
def fq_generator_lists(draw):
    """1-4 invertible matrices, each drawn as P * L * U (every one arises)."""
    F = field(draw(st.sampled_from((2, 3))))
    n = draw(st.sampled_from((3, 2, 1)))
    cells = [(i, j) for i in range(n) for j in range(n)]
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        perm = draw(st.permutations(range(n)))
        low = draw(st.lists(st.integers(0, F.q - 1), min_size=n * n, max_size=n * n))
        up = draw(st.lists(st.integers(0, F.q - 1), min_size=n * n, max_size=n * n))
        diag = draw(st.lists(st.integers(1, F.q - 1), min_size=n, max_size=n))
        P = FqMatrix(F, n, [int(perm[j] == i) for i, j in cells])
        L = FqMatrix(F, n, [low[i * n + j] if i > j else int(i == j) for i, j in cells])
        U = FqMatrix(F, n, [up[i * n + j] if i < j else (diag[i] if i == j else 0) for i, j in cells])
        gens.append(P * L * U)
    return gens, FqMatrix.identity(F, n)


@st.composite
def monomial_generator_lists(draw):
    e = draw(st.sampled_from((3, 4)))
    n = draw(st.sampled_from((3, 2, 1)))
    zero, roots = Cyc.from_int(0), [zeta(e) ** k for k in range(e)]
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        perm = draw(st.permutations(range(n)))
        exps = draw(st.lists(st.integers(0, e - 1), min_size=n, max_size=n))
        gens.append(CycMatrix(n, [roots[exps[j]] if perm[j] == i else zero for i in range(n) for j in range(n)]))
    return gens, CycMatrix.identity(n)


def check_closure(gens, identity):
    G = closure(gens)
    assert set(G.elements) == bfs_closure(gens, identity)
    assert len(G.elements) == len(set(G.elements)) == G.order
    assert G.elements[0] == identity
    rest = iter(gens)
    assert all(any(k == g for g in rest) for k in G.generators)  # a subsequence
    for i, k in enumerate(G.generators):
        assert k not in bfs_closure(G.generators[:i], identity)
    assert closure(gens, cap=G.order).order == G.order
    if G.order > 1:  # the identity alone is never checked against the cap
        with pytest.raises(CapExceeded):
            closure(gens, cap=G.order - 1)


def count_fq_products(monkeypatch):
    calls = [0]
    mul = FqMatrix.__mul__

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(FqMatrix, "__mul__", counted)
    return calls


class TestDimino:
    """Coset enumeration: the same group as breadth-first closure, each
    element formed once, and only irredundant generators kept."""

    @PROPS
    @given(fq_generator_lists())
    def test_fq_matches_bfs(self, case):
        check_closure(*case)

    @PROPS
    @given(monomial_generator_lists())
    def test_monomial_matches_bfs(self, case):
        check_closure(*case)

    def test_gl33_forms_each_element_about_once(self, monkeypatch):
        calls = count_fq_products(monkeypatch)
        G = weilgl.general_linear_group.__wrapped__(3, 3)  # uncached: the closure runs here
        assert G.order == 11232
        assert calls[0] <= 2 * G.order  # breadth-first closure made 7 * |G|

    def test_gu32_classes_search_kept_generators(self, monkeypatch):
        G = weilgl.unitary_group.__wrapped__(3, 2)
        assert len(G.generators) <= 6  # of 32 input generators
        orders = sum(G.element_order(g) for g in G.generators)
        calls = count_fq_products(monkeypatch)
        assert len(G.conjugacy_classes()) == 24
        # two products per element per generator, plus each generator's inverse
        assert calls[0] <= 2 * len(G.generators) * G.order + 2 * orders


class TestSpectrum:
    def test_identity(self):
        s = spectrum(CycMatrix.identity(4))
        assert s.mult == {unity(0, 1): 4}

    def test_diag(self):
        s = spectrum(CycMatrix.from_rows([[1, 0], [0, -1]]))
        assert s.mult == {unity(0, 1): 1, unity(1, 2): 1}

    def test_three_cycle_fourier(self):
        s = spectrum(perm_matrix([1, 2, 0]))
        assert s.mult == {unity(0, 1): 1, unity(1, 3): 1, unity(2, 3): 1}
        assert simple_spectrum(s)

    def test_simple_spectrum_predicate(self):
        assert simple_spectrum(Spectrum({unity(0, 1): 1, unity(1, 2): 1}))
        assert not simple_spectrum(Spectrum({unity(0, 1): 2}))

    def test_power_pushforward(self):
        g = perm_matrix([1, 2, 3, 0])
        s = spectrum(g)
        for k in (2, 3, 5):
            assert s.power_pushforward(k) == spectrum(g**k, order=4)

    def test_multiplicities_sum_to_dim(self):
        for g in monomial_group(3).elements[:40]:
            assert spectrum(g).dimension == 3

    def test_canonical_rotation_idempotent(self):
        s = Spectrum({unity(1, 5): 1, unity(2, 5): 1, unity(3, 5): 1, unity(4, 5): 1})
        c = s.canonical_rotation()
        assert c == c.canonical_rotation()
        assert c.mult == {unity(0, 1): 1, unity(1, 5): 1, unity(2, 5): 1, unity(3, 5): 1}

    def test_non_integral_multiplicity_raises(self):
        # trace data of a non-semisimple (wrong-order) input
        with pytest.raises(ValueError):
            Spectrum.from_power_traces(2, [Cyc.from_int(2), Cyc.from_int(1)])


class TestM4:
    def test_trivial_group(self):
        G = closure([CycMatrix.identity(1)])
        assert m4(G) == 1

    def test_monomial_q3(self):
        G = monomial_group(3)
        assert m4(G) == 3
        # fourth moment 3 comes with an irreducible alternating square and a
        # two-piece symmetric square
        assert inner_product(G, alt2_character(), alt2_character()) == 1
        assert inner_product(G, sym2_character(), sym2_character()) == 2

    def test_m4_conjugation_invariance(self):
        G = monomial_group(3)
        h = G.elements[7]
        hinv = h ** (G.element_order(h) - 1)
        assert m4(G, rep=lambda g: h * g * hinv) == 3
