import re
from fractions import Fraction
from hashlib import sha256
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermono import weilgl
from hypermono.algebra import _fqcore_py, fq
from hypermono.algebra.cyc import Cyc, zeta
from hypermono.algebra.fq import FqMatrix, field
from hypermono.algebra.unity import UnityClass, unity
from hypermono.repkit import (
    CapExceeded,
    CycMatrix,
    MatGroup,
    MonomialMatrix,
    Spectrum,
    _powers,
    closure,
    m4,
    spectrum,
)


def perm_matrix(images):
    n = len(images)
    return CycMatrix.from_rows([[1 if images[j] == i else 0 for j in range(n)] for i in range(n)])


def monomial_generators(q, gen=2):
    """diag(zeta_q, 1, ...), the q-cycle and x -> gen * x, as CycMatrix."""
    z = zeta(q)
    diag = CycMatrix.from_rows(
        [[(z if (i == j == 0) else (1 if i == j else 0)) for j in range(q)] for i in range(q)]
    )
    T = perm_matrix([(v + 1) % q for v in range(q)])
    S = perm_matrix([(gen * v) % q for v in range(q)])
    return [diag, T, S]


def monomial_group(q):
    """The translation/scaling monomial group with the full diagonal p-part
    (2 generates (Z/q)* for q in {3, 5})."""
    return closure(monomial_generators(q))


FIB = [[0, 1], [1, 1]]


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

    def test_cap(self, monkeypatch):
        F3 = field(3)
        a = FqMatrix.from_rows(F3, [[0, 2], [1, 0]])
        b = FqMatrix.from_rows(F3, [[1, 1], [0, 1]])
        monkeypatch.setenv("HYPERMONO_CAP", "10")
        with pytest.raises(CapExceeded):
            closure([a, b])

    def test_cap_message_names_cap_and_size(self, monkeypatch):
        F3 = field(3)
        a = FqMatrix.from_rows(F3, [[0, 2], [1, 0]])
        b = FqMatrix.from_rows(F3, [[1, 1], [0, 1]])
        monkeypatch.setenv("HYPERMONO_CAP", "10")
        with pytest.raises(CapExceeded) as exc:
            closure([a, b])
        msg = str(exc.value)
        assert msg.startswith("closure exceeded cap 10: ")
        reached = int(re.search(r"(\d+) elements reached", msg).group(1))
        assert 1 <= reached <= 10 and "of 2 generators kept" in msg

    @pytest.mark.parametrize("value", ["0", "-5", "abc"])
    def test_cap_variable_must_be_positive(self, monkeypatch, value):
        F3 = field(3)
        monkeypatch.setenv("HYPERMONO_CAP", value)
        with pytest.raises(ValueError, match=f"^HYPERMONO_CAP must be a positive integer, got '{value}'$"):
            closure([FqMatrix.from_rows(F3, [[0, 2], [1, 0]])])

    def test_singular_generator_rejected(self, monkeypatch):
        F3 = field(3)
        with pytest.raises(ValueError):
            closure([FqMatrix.from_rows(F3, [[1, 0], [0, 0]])])
        w = zeta(3)
        monkeypatch.setenv("HYPERMONO_CAP", "100")
        with pytest.raises(ValueError):  # determinant w * w - 1 * w^2 = 0
            closure([CycMatrix.from_rows([[w, 1], [w * w, w]])])

    @pytest.mark.parametrize(
        "gens, message",
        [
            ([FqMatrix.from_rows(field(7), FIB), FqMatrix.from_rows(field(5), FIB)], "mix fields F_7 and F_5"),
            ([FqMatrix.from_rows(field(3), FIB), FqMatrix.from_rows(field(3, 2), FIB)], "mix fields F_3 and F_9"),
            ([FqMatrix.from_rows(field(7), FIB), FqMatrix.identity(field(7), 3)], "mix sizes 2 and 3"),
            ([FqMatrix.from_rows(field(7), FIB), perm_matrix([1, 0])], "mix FqMatrix and CycMatrix"),
            ([perm_matrix([1, 0]), perm_matrix([1, 2, 0])], "mix sizes 2 and 3"),
        ],
        ids=["F7_F5", "F3_F9", "2x2_3x3", "fq_cyc", "monomial_2x2_3x3"],
    )
    def test_mismatched_generators_rejected(self, gens, message):
        with pytest.raises(ValueError, match=f"^generators {message}$"):
            closure(gens)

    def test_trace_product(self):
        """A monomial P reads tr(P x) = tr(x P) off its n entries."""
        w = zeta(3)
        a = CycMatrix.from_rows([[w, 1, 0], [2, w * w, 1], [0, w, 3]])
        b = CycMatrix.from_rows([[0, w, 1], [0, 0, 0], [5, 1, w]])
        monomials = (
            MonomialMatrix([2, 0, 1], [0, 0, 0], 1),
            MonomialMatrix([1, 0, 2], [1, 2, 0], 3),
            MonomialMatrix([0, 1, 2], [1, 0, 3], 4),
        )
        for p in monomials:
            for x in (a, b, p.to_cyc()):
                assert p.trace_product(x) == (p.to_cyc() * x).trace() == (x * p.to_cyc()).trace()


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


def dimino_reference(gens):
    """Reference: Dimino's coset enumeration with one full product per
    element, each coset H*t formed as elements[i] * t.  Returns the
    elements, the position index and the kept generators."""
    identity = gens[0] ** 0
    elements, index, kept = [identity], {identity: 0}, []
    for g in gens:
        if g in index:
            continue
        kept.append(g)
        size, reps = len(elements), [identity]
        for r in reps:
            for s in kept:
                t = r * s
                if t not in index:
                    for x in [elements[i] * t for i in range(size)]:
                        index[x] = len(elements)
                        elements.append(x)
                    reps.append(t)
    return elements, index, kept


def check_against_reference(gens):
    """closure lists the reference's elements, in its order, at its
    positions, and keeps its generators."""
    G = closure(gens)
    elements, index, kept = dimino_reference(gens)
    assert G.elements == elements
    assert {x: G.position(x) for x in elements} == index and len(G.index) == len(index)
    assert G.generators == kept


def builder_generators(monkeypatch, build, *args):
    """The generator list a weilgl group builder hands to closure."""
    seen = []
    monkeypatch.setattr(weilgl, "closure", lambda gens: seen.append(list(gens)) or closure(gens))
    build.__wrapped__(*args)
    return seen[0]


def affine_generators(F):
    """x -> wx, x -> x + 1 and x -> wx + 1 on F_q as 2 x 2 matrices (the
    third lies in the group of the first two): q(q - 1) elements."""
    return [FqMatrix.from_rows(F, rows) for rows in ([[F.gen, 0], [0, 1]], [[1, 0], [1, 1]], [[F.gen, 0], [1, 1]])]


@st.composite
def fq_matrices(draw, F, n):
    return FqMatrix(F, n, draw(st.lists(st.integers(0, F.q - 1), min_size=n * n, max_size=n * n)))


@st.composite
def fq_generator_lists(draw):
    """1-4 invertible matrices, each drawn as P * L * U (every one arises)."""
    F = field(draw(st.sampled_from((2, 3))))
    n = draw(st.sampled_from((3, 2, 1)))
    gens = [draw_invertible(draw, F, n) for _ in range(draw(st.integers(1, 4)))]
    return gens, FqMatrix.identity(F, n)


def draw_invertible(draw, F, n):
    """An invertible matrix drawn as P * L * U (every one arises)."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    perm = draw(st.permutations(range(n)))
    low = draw(st.lists(st.integers(0, F.q - 1), min_size=n * n, max_size=n * n))
    up = draw(st.lists(st.integers(0, F.q - 1), min_size=n * n, max_size=n * n))
    diag = draw(st.lists(st.integers(1, F.q - 1), min_size=n, max_size=n))
    P = FqMatrix(F, n, [int(perm[j] == i) for i, j in cells])
    L = FqMatrix(F, n, [low[i * n + j] if i > j else int(i == j) for i, j in cells])
    U = FqMatrix(F, n, [up[i * n + j] if i < j else (diag[i] if i == j else 0) for i, j in cells])
    return P * L * U


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
    # the last kept generator's cosets: block j of h = |H| positions is H times its first element
    h = closure(G.generators[:-1]).order if len(G.generators) > 1 else 1
    for start in range(0, G.order, h):
        assert G.elements[start : start + h] == [x * G.elements[start] for x in G.elements[:h]]
    with pytest.MonkeyPatch.context() as mp:  # a function-scoped fixture would span every example
        mp.setenv("HYPERMONO_CAP", str(G.order))
        assert closure(gens).order == G.order
        if G.order > 1:  # the identity alone is never checked against the cap
            mp.setenv("HYPERMONO_CAP", str(G.order - 1))
            with pytest.raises(CapExceeded):
                closure(gens)


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

    @PROPS
    @given(fq_generator_lists())
    def test_fq_matches_the_reference(self, case):
        check_against_reference(case[0])

    @pytest.mark.parametrize("p, f", [(2, 2), (3, 2), (131, 1), (257, 1)], ids=["F4", "F9", "F131", "F257"])
    def test_fields_match_the_reference(self, monkeypatch, p, f):
        F = field(p, f)
        check_against_reference(affine_generators(F))
        if F.q < 10:
            check_against_reference(builder_generators(monkeypatch, weilgl.general_linear_group, 2, F.q))

    @pytest.mark.parametrize(
        "build, args",
        [
            (weilgl.general_linear_group, (3, 3)),
            (weilgl.unitary_group, (3, 2)),
            (weilgl.symplectic_group, (2, 2)),
            (weilgl.symplectic_group, (1, 5)),
        ],
        ids=["gl_3_3", "gu_3_2", "sp_4_2", "sp_2_5"],
    )
    def test_groups_match_the_reference(self, monkeypatch, build, args):
        check_against_reference(builder_generators(monkeypatch, build, *args))

    @PROPS
    @given(st.data())
    def test_right_multiplier(self, data):
        """y.data -> (y * s).data, the same map on first meeting a row and on
        looking it up."""
        F = field(*data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (131, 1)])))
        n = data.draw(st.sampled_from((1, 2, 3)))
        s = data.draw(fq_matrices(F, n))
        ys = data.draw(st.lists(fq_matrices(F, n), min_size=1, max_size=8))
        times = s.right_multiplier()
        for y in ys + ys:
            assert times(y.data) == (y * s).data

    def test_membership_reads_the_field(self):
        """An FqMatrix group is keyed by data, and a matrix over another field
        with the same data, or a matrix of another kind, is not in it."""
        G = closure(affine_generators(field(3)))
        one_9 = FqMatrix.identity(field(3, 2), 2)
        assert one_9.data == G.identity.data and G.position(G.identity) == 0
        assert G.identity in G and one_9 not in G and CycMatrix.identity(2) not in G
        with pytest.raises(KeyError):
            G.position(one_9)

    def test_gl33_forms_each_element_about_once(self, monkeypatch):
        rows = [0]
        mat_vec = _fqcore_py.mat_vec

        def counted(*args):
            rows[0] += 1
            return mat_vec(*args)

        monkeypatch.setattr(_fqcore_py, "mat_vec", counted)
        products = count_fq_products(monkeypatch)
        G = weilgl.general_linear_group.__wrapped__(3, 3)  # uncached: the closure runs here
        assert G.order == 11232 and len(G.generators) == 2
        # each element is read off memoised row images: one row product per
        # distinct row per kept generator, q^n = 27 at most, and no full product
        # (the coset products elements[i] * t made 12,097)
        assert rows[0] <= 27 * len(G.generators)
        assert products[0] == 0

    def test_gu32_classes_search_kept_generators(self, monkeypatch):
        G = weilgl.unitary_group.__wrapped__(3, 2)
        assert len(G.generators) <= 6  # of the 5 listed generators
        orders = sum(g.order() for g in G.generators)
        calls = count_fq_products(monkeypatch)
        assert len(G.conjugacy_classes()) == 24
        # two products per element per generator, plus each generator's inverse
        assert calls[0] <= 2 * len(G.generators) * G.order + 2 * orders

    def test_gl33_classes_search_two_generators(self, monkeypatch):
        G = weilgl.general_linear_group.__wrapped__(3, 3)
        orders = sum(g.order() for g in G.generators)
        calls = count_fq_products(monkeypatch)
        assert len(G.conjugacy_classes()) == 24
        # two kept generators: two products per element for each, plus their
        # inverses (five kept elementary generators made 112,343)
        assert calls[0] <= 4 * G.order + 2 * orders

    @pytest.mark.parametrize(
        "build",
        [lambda: weilgl.general_linear_group(3, 3), lambda: weilgl.symplectic_group(2, 3)],
        ids=["gl_3_3", "sp_4_3"],
    )
    def test_classes_search_products_do_not_grow_with_the_order(self, monkeypatch, build):
        G = fresh_copy(build())
        one = G.identity
        # per kept generator: its inverse's power walk and the table of its
        # conjugation map, two products per basis digit
        bound = sum(2 * one.n**2 * one.F.f + g.order() for g in G.generators)
        calls = count_fq_products(monkeypatch)
        G.conjugacy_classes()
        assert calls[0] <= bound < G.order


def fresh_copy(G):
    """The same elements and positions without the memoised classes."""
    return MatGroup(G.generators, G.elements, G.identity, G.index)


def bfs_classes(G):
    """Reference: the breadth-first class search over matrices that the
    tabulated permutations replaced, two products per element per kept
    generator, classes in order of their first element, sorted by position."""
    pairs = [(g, g ** (g.order() - 1)) for g in G.generators]
    seen, classes = set(), []
    for x in G.elements:
        if x in seen:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for g, ginv in pairs:
                z = g * y * ginv
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        seen |= orbit
        classes.append(sorted(orbit, key=G.position))
    return classes


def check_conjugation_tables(G):
    """Each kept generator's permutation equals the product permutation, and
    the classes equal the matrix search's, in order and members."""
    for g in G.generators:
        ginv = g ** (g.order() - 1)
        assert G._conjugation_permutation(g) == G._product_permutation(g, ginv)
    assert fresh_copy(G).conjugacy_classes() == bfs_classes(G)


# the groups the criteria read, and two affine groups
CRITERION_GROUPS = {
    "gl_3_3": lambda: weilgl.general_linear_group(3, 3),
    "gu_3_2": lambda: weilgl.unitary_group(3, 2),
    "sp_4_2": lambda: weilgl.symplectic_group(2, 2),
    "sp_4_3": lambda: weilgl.symplectic_group(2, 3),
    "gl_2_9": lambda: weilgl.general_linear_group(2, 9),
    "gu_2_3": lambda: weilgl.unitary_group(2, 3),
    "sp_2_5": lambda: weilgl.symplectic_group(1, 5),
    "sp_2_7": lambda: weilgl.symplectic_group(1, 7),
    "aff_13": lambda: closure(affine_generators(field(13))),
    "aff_17": lambda: closure(affine_generators(field(17))),
}


def group_pin(G):
    """(SHA-256 of the element data in position order, the kept generators'
    data, the class sizes in class order, SHA-256 of the class members'
    positions, 4 bytes each, in class order)."""
    classes = G.conjugacy_classes()
    return (
        sha256(b"".join(bytes(x.data) for x in G.elements)).hexdigest(),
        [tuple(g.data) for g in G.generators],
        [len(c) for c in classes],
        sha256(b"".join(G.position(x).to_bytes(4, "little") for c in classes for x in c)).hexdigest(),
    )


# group_pin of each of CRITERION_GROUPS, read off the closure and class search
# that keyed the elements by FqMatrix objects, not by their data
PINNED_GROUPS = {
    "gl_3_3": (
        "1f65d46f07cade7a57ce5dab49d232d0366650b6e2d2850511b334702be93ed1",
        [(2, 0, 1, 2, 0, 0, 0, 2, 0), (2, 0, 0, 0, 1, 0, 0, 0, 1)],
        [1, 432, 432, 432, 432, 117, 432, 702, 432, 624, 702, 702, 432, 432, 702, 702, 104, 936, 702, 624, 117, 936,
         104, 1],
        "ffda0d94b26d75b0331b254f6b03ad0ad0cf61e4f18b3cde096de54717609202",
    ),
    "gu_3_2": (
        "be7dc40ead15860b2fd533788215e5c796447787776c05f60751526c88bb73a3",
        [(0, 0, 1, 0, 2, 1, 1, 2, 2), (2, 0, 2, 0, 1, 0, 0, 0, 2)],
        [1, 72, 72, 1, 1, 36, 54, 36, 54, 36, 54, 12, 12, 12, 9, 36, 9, 36, 9, 36, 12, 12, 12, 24],
        "98ebc8c415daa6873da42760b5dba84d169d9a9673a565b79edfbeb731b45979",
    ),
    "sp_4_2": (
        "1f80cb449bf80e7d395c1faf9b3d1c2a7864944f995a5c069d445fc9910d45e1",
        [(0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0), (1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)],
        [1, 120, 40, 15, 15, 144, 90, 90, 40, 45, 120],
        "e3e6d4883f8b3c154e9909dd7eabcf364e15e9ca47d614c00e29ab0313025353",
    ),
    "sp_4_3": (
        "09d9859fb62b28889188bf305546295ac4ece0c3abe69cb1028fcb712d0bd81c",
        [(0, 0, 1, 0, 0, 0, 1, 1, 2, 1, 0, 0, 0, 2, 0, 0), (1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)],
        [1, 1440, 480, 90, 1440, 40, 5184, 2880, 1440, 5184, 40, 2880, 1440, 4320, 2160, 2160, 360, 240, 6480, 540,
         360, 2160, 2160, 2880, 540, 360, 2880, 240, 360, 480, 540, 40, 40, 1],
        "6a90d4e2de9ac7dd95d18266aa5a4f05a524ff1473ea486d07d2c21d645d0300",
    ),
    "gl_2_9": (
        "70d8bef984d360aab4bb5a2e5614a95a88bc5de1deda7a4fda4ab54653952ac5",
        [(2, 1, 2, 0), (4, 0, 0, 1)],
        [1, 80, 90, 72, 90, 90, 72, 72, 72, 80, 90, 72, 90, 90, 72, 90, 90, 90, 90, 72, 72, 80, 90, 90, 72, 72, 72,
         90, 72, 90, 72, 72, 80, 72, 72, 90, 72, 72, 90, 80, 90, 72, 80, 90, 90, 72, 72, 72, 90, 72, 90, 72, 72, 72,
         90, 80, 90, 72, 90, 72, 72, 72, 90, 72, 90, 72, 72, 72, 90, 80, 1, 1, 72, 90, 1, 72, 1, 1, 1, 1],
        "4e055cd310e4d3254d2b75ade7d8c8961947053f2c1aaa90bb1c9fd0a8043ba2",
    ),
    "gu_2_3": (
        "99bfdb831f8b3e10aa6fb7127b0e8872d6d85e0775720c689010c91ea5d1fc28",
        [(4, 0, 0, 8), (4, 5, 0, 8), (0, 4, 8, 0)],
        [1, 12, 1, 12, 1, 1, 8, 8, 8, 8, 6, 6, 6, 6, 6, 6],
        "52bd0751dcc638fedee333be508d247db261faf0d462ea541925919c9549c40d",
    ),
    "sp_2_5": (
        "614d6fb1c1a67bfa313942b5da64ad21d20a94f28f40c165909c8135ec7c2cac",
        [(0, 1, 4, 0), (1, 1, 0, 1)],
        [1, 30, 1, 12, 20, 12, 20, 12, 12],
        "f29330a7a616d85a89a6ed644d44d7f47d9b903d1cb308c43599ac6c853cd497",
    ),
    "sp_2_7": (
        "7bb8ea0d68eee14ed8819f94b3ca9fb03f49dcd6a46a2e67e6dc5f01beb4cb59",
        [(0, 1, 6, 0), (1, 1, 0, 1)],
        [1, 42, 1, 24, 56, 24, 56, 24, 24, 42, 42],
        "a05bcf6b23ab0dd8d5a04324bf96815e4536de6a511a613edc06814bbf2a57e3",
    ),
    "aff_13": (
        "332331a11450218b2efc230d0e2f3e1b612bc15a6ca17671614ada32d8ae9048",
        [(2, 0, 0, 1), (1, 0, 1, 1)],
        [1, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 12],
        "80a4022d5e890b0aa789f019aeafc4e27b8406d31e330f77dd46c6a99815c8ca",
    ),
    "aff_17": (
        "bb6e571425ea9dd2203c1c767ab740642daf14dffabd409e613692164a5ed30a",
        [(3, 0, 0, 1), (1, 0, 1, 1)],
        [1, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 16],
        "ac76d87a1a8cd815d820012593fea72bf008692ccb64919dd87450e065771ec8",
    ),
}


@st.composite
def fq_two_generator_groups(draw, F):
    """The group of two random invertible matrices over F, of degree 1 to 3
    over F_2 and 1 or 2 otherwise."""
    n = draw(st.sampled_from((3, 2, 1) if F.q == 2 else (2, 1)))
    return closure([draw_invertible(draw, F, n) for _ in range(2)])


class TestConjugationTables:
    """Classes as orbits of tabulated conjugation permutations: each table-
    built permutation equals the product permutation, and the classes equal
    the matrix search's on the groups the criteria read."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: weilgl.general_linear_group(3, 3),
            lambda: weilgl.unitary_group(3, 2),
            lambda: weilgl.symplectic_group(2, 2),
            lambda: weilgl.symplectic_group(1, 3),
            lambda: weilgl.general_linear_group(2, 9),
            lambda: weilgl.unitary_group(2, 3),
            lambda: closure(affine_generators(field(13))),
            lambda: closure(affine_generators(field(17))),
        ],
        ids=["gl_3_3", "gu_3_2", "sp_4_2", "sl_2_3", "gl_2_9", "gu_2_3", "aff_13", "aff_17"],
    )
    def test_matches_the_product_search(self, build):
        check_conjugation_tables(build())

    @pytest.mark.parametrize("build", CRITERION_GROUPS.values(), ids=CRITERION_GROUPS)
    def test_criterion_groups_are_tabulated(self, build):
        """Every kept generator of these groups has a table, so none falls
        back to two products per element."""
        for g in build().generators:
            assert g.conjugation(g**-1) is not None

    @pytest.mark.parametrize("name", CRITERION_GROUPS)
    def test_criterion_groups_are_pinned(self, name):
        """The element data in position order, the kept generators and the
        classes of these groups are the pinned ones."""
        assert group_pin(CRITERION_GROUPS[name]()) == PINNED_GROUPS[name]

    def test_tuple_data_groups_use_products(self):
        """Over q > 256 an FqMatrix keeps tuple data and conjugation has no
        table, even for p <= 128: GU_1(17) over F_289 and GL_1(257) close on
        tuple keys, and their classes, by products, are their elements."""
        for G, order in ((weilgl.unitary_group(1, 17), 18), (weilgl.general_linear_group(1, 257), 256)):
            assert G.order == order and all(type(x.data) is tuple for x in G.elements)
            assert all(g.conjugation(g**-1) is None for g in G.generators)
            check_conjugation_tables(G)
            assert fresh_copy(G).conjugacy_classes() == [[x] for x in G.elements]

    @pytest.mark.parametrize(
        "p, f",
        [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)],
        ids=["F2", "F3", "F4", "F5", "F7", "F8", "F9"],
    )
    def test_random_two_generator_groups(self, p, f):
        @settings(PROPS, max_examples=10)
        @given(fq_two_generator_groups(field(p, f)))
        def check(G):
            check_conjugation_tables(G)

        check()

    @pytest.mark.parametrize("p, f", [(67, 1), (127, 1), (2, 4), (5, 2), (3, 3), (3, 4)])
    def test_affine_groups(self, p, f):
        """Up to q(q - 1) = 16,002 elements, p up to 127 and f up to 4."""
        check_conjugation_tables(closure(affine_generators(field(p, f))))

    def test_maps_stop_past_p_128(self):
        """Two reduced digits stay at most 2 * 126 <= 255 over F_127; over
        F_131 and F_257 they could pass a byte."""
        rows = [[0, 1], [-1, 3]]
        for p, tabulated in ((127, True), (131, False), (257, False)):
            g = FqMatrix.from_rows(field(p), rows)
            assert (g.conjugation(g**-1) is not None) == tabulated, p

    def test_trivial_group(self):
        one = FqMatrix.identity(field(3), 2)
        G = closure([one])
        assert G.generators == [] and G.conjugacy_classes() == [[one]]

    def test_cyclic_group(self):
        F = field(5)
        g = FqMatrix.from_rows(F, [[0, 1], [3, 1]])  # a Singer cycle
        G = closure([g])
        assert G.order == 24 and G.conjugacy_classes() == [[x] for x in G.elements]
        check_conjugation_tables(G)

    def test_monomial_elements_use_products(self):
        check_conjugation_tables(monomial_group(3))

    def test_digit_keys(self):
        """The digit planes of one key's data planes spell its digits out."""
        F3, F9 = field(3), field(3, 2)
        a = FqMatrix.from_rows(F3, [[0, 2], [1, 0]])
        assert b"".join(fq._digit_planes(F3, [bytes([x]) for x in a.data])) == a.data
        b = FqMatrix.from_rows(F9, [[5, 0], [1, 8]])  # 5 = 2 + 1*3, 8 = 2 + 2*3
        assert b"".join(fq._digit_planes(F9, [bytes([x]) for x in b.data])) == bytes([2, 1, 0, 0, 1, 0, 2, 2])

    def test_digit_sums_past_a_byte_use_products(self):
        F257, F131 = field(257), field(131)
        g = FqMatrix.scalar(F257, 1, 3)
        h = FqMatrix.from_rows(F131, [[0, 1], [130, 0]])
        for x in (g, h):  # p > 128: two reduced digits could pass a byte
            assert x.conjugation(x**-1) is None
        check_conjugation_tables(closure([g]))
        check_conjugation_tables(closure([h, FqMatrix.from_rows(F131, [[1, 0], [0, 130]])]))


def dense_m4(elements):
    """Reference M4: |tr g|^4 summed element by element."""
    acc = Cyc.from_int(0)
    for g in elements:
        a2 = g.trace().abs2()
        acc = acc + a2 * a2
    return acc.rational() / len(elements)


class TestMonomialTwin:
    """MonomialMatrix against the CycMatrix it stands for: it equals and
    hashes like that matrix, and closure and m4 match a dense reference."""

    @PROPS
    @given(monomial_generator_lists())
    def test_products_traces_and_images(self, case):
        gens, identity = case
        monos = [MonomialMatrix.from_cyc(g) for g in gens]
        assert MonomialMatrix.identity(identity.n) == identity
        for a, ma in zip(gens, monos):
            assert ma.to_cyc() == a and ma == a and a == ma and hash(ma) == hash(a)
            assert ma.trace() == a.trace() and ma.rank() == a.rank()
            assert ma ** 3 == a ** 3 and ma.order() == a.order()
            for b, mb in zip(gens, monos):
                prod = ma * mb
                assert isinstance(prod, MonomialMatrix) and prod.to_cyc() == a * b
                assert hash(prod) == hash(a * b) and prod.trace() == (a * b).trace()
                assert (ma * b) == (a * mb) == a * b

    def test_exponent_moduli_are_lifted(self):
        i2 = MonomialMatrix([1, 0], [1, 3], 4)  # zeta_4 = i and zeta_4^3 = -i
        same = MonomialMatrix([1, 0], [3, 9], 12)
        assert i2 == same and hash(i2) == hash(same) and i2.to_cyc() == same.to_cyc()
        assert (i2 * MonomialMatrix([0, 1], [1, 0], 3)).e == 12

    @pytest.mark.parametrize("e", [0, -1, -3])
    def test_exponent_modulus_below_1_is_refused(self, e):
        with pytest.raises(ValueError, match=f"^the exponent modulus must be >= 1, got {e}$"):
            MonomialMatrix([1, 0], [1, 2], e)

    def test_non_monomial_and_non_root_entries_are_refused(self):
        w = zeta(3)
        for rows in ([[1, 1], [0, 1]], [[2, 0], [0, 1]], [[0, 0], [1, 0]], [[w + 2, 0], [0, 1]]):
            assert MonomialMatrix.from_cyc(CycMatrix.from_rows(rows)) is None
        minus_w2 = MonomialMatrix.from_cyc(CycMatrix.from_rows([[0, w + 1], [-1, 0]]))  # w + 1 = -w^2
        assert minus_w2 == MonomialMatrix([1, 0], [3, 1], 6)

    @pytest.mark.parametrize("q, gen, order, value", [(3, 2, 162, 3), (4, 3, 2048, 5)])
    def test_closure_and_m4_match_dense(self, q, gen, order, value):
        gens = monomial_generators(q, gen)
        G = closure(gens)
        assert all(isinstance(g, MonomialMatrix) for g in G.elements)
        dense = bfs_closure(gens, CycMatrix.identity(q))
        assert G.order == len(dense) == order
        assert {g.to_cyc() for g in G.elements} == dense == set(G.elements)
        assert m4(G) == dense_m4(dense) == value


CONDUCTORS = (1, 3, 4, 5, 12)  # their lcm, 60, holds every entry below


@st.composite
def cyc_entries(draw):
    """A Cyc at a conductor from CONDUCTORS, over a small denominator, or 0."""
    m = draw(st.sampled_from(CONDUCTORS))
    if draw(st.integers(0, 3)) == 0:
        return Cyc.from_int(0)
    phi = len(zeta(m).num)
    num = draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi))
    return Cyc(m, tuple(num), draw(st.sampled_from((1, 2, 3, 6))))


@st.composite
def flat_kernel_cases(draw):
    """n, the entries of a and b (row-major), and a scalar.  A drawn row of
    each may be zero; with cancel, a's first two columns are equal and b's
    first column is (1, -1, 0, ...), so column 0 of a * b cancels to zero."""
    n = draw(st.sampled_from((1, 2, 3)))
    a, b = ([draw(cyc_entries()) for _ in range(n * n)] for _ in range(2))
    for x in (a, b):
        row = draw(st.integers(-1, n - 1))  # -1 keeps every row
        if row >= 0:
            x[row * n : (row + 1) * n] = [Cyc.from_int(0)] * n
    if n >= 2 and draw(st.booleans()):
        for i in range(n):
            a[i * n + 1] = a[i * n]
            b[i * n] = Cyc.from_int((1, -1)[i] if i < 2 else 0)
    return n, a, b, draw(cyc_entries())


def entry_product(n, a, b):
    """The product of two row-major entry lists, one Cyc sum per entry."""
    zero = Cyc.from_int(0)
    return [sum((a[i * n + k] * b[k * n + j] for k in range(n)), zero) for i in range(n) for j in range(n)]


def entry_is_scalar(n, x):
    """The scalar s when the entries x are s times the identity, else None."""
    diag = x[:: n + 1]
    off = [v for i, v in enumerate(x) if i % (n + 1)]
    return diag[0] if all(v == diag[0] for v in diag) and all(v.is_zero() for v in off) else None


def check_layout(x):
    """One conductor, one denominator coprime to every coefficient, None for
    each zero entry and phi(m) coefficients for every other."""
    phi = len(zeta(x.m).num)
    assert len(x.coeffs) == x.n * x.n and x.den >= 1
    assert all(v is None or (len(v) == phi and any(v)) for v in x.coeffs)
    assert gcd(x.den, *(c for v in x.coeffs if v is not None for c in v)) == 1


class TestFlatKernel:
    """CycMatrix keeps one conductor, one denominator and a coefficient tuple
    per entry; each operation matches entry-by-entry Cyc arithmetic."""

    @PROPS
    @given(flat_kernel_cases())
    def test_matches_entrywise_reference(self, case):
        n, a_entries, b_entries, s = case
        a, b = CycMatrix(n, a_entries), CycMatrix(n, b_entries)
        ref = entry_product(n, a_entries, b_entries)
        prod = a * b
        for x in (a, b, prod):
            check_layout(x)
        assert a.entries() == a_entries and prod.entries() == ref
        assert prod == CycMatrix(n, ref) and hash(prod) == hash(tuple(map(hash, ref)))
        assert prod.trace() == sum(ref[:: n + 1], Cyc.from_int(0))
        assert a.scale(s).entries() == [s * x for x in a_entries]
        scalar = CycMatrix.scalar(n, s)
        for x in (a, prod, scalar, scalar.lift(60), a.scale(s)):
            entries = x.entries()
            want = entry_is_scalar(n, entries)
            got = x.is_scalar()
            assert (got is None) == (want is None) and (want is None or got == want)
            wide = x.lift(60)
            assert wide == x and x == wide and hash(wide) == hash(x) == hash(tuple(map(hash, entries)))
        assert (prod == a) == (ref == a_entries)

    @PROPS
    @given(flat_kernel_cases(), st.data())
    def test_monomial_twins(self, case, data):
        n, a_entries, _, _ = case
        e = data.draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
        perm = data.draw(st.permutations(range(n)))
        exps = data.draw(st.lists(st.integers(0, e - 1), min_size=n, max_size=n))
        mono = MonomialMatrix(perm, exps, e)
        dense, a = mono.to_cyc(), CycMatrix(n, a_entries)
        for wide in (dense, dense.lift(60), CycMatrix(n, [x.lift(60) for x in dense.entries()])):
            assert mono == wide and wide == mono and hash(mono) == hash(wide)
        d = dense.entries()
        assert (mono * a).entries() == entry_product(n, d, a_entries)
        assert (a * mono).entries() == entry_product(n, a_entries, d)
        assert mono.trace_product(a) == (mono * a).trace() == (dense * a).trace()


def power_pushforward(s: Spectrum, k: int) -> Spectrum:
    """Reference for test_power_pushforward: the spectrum of g^k read off
    that of g, each eigenvalue u sent to u * k."""
    out: dict[UnityClass, int] = {}
    for u, m in s.mult.items():
        out[u * k] = out.get(u * k, 0) + m
    return Spectrum(out)


def dense_from_power_traces(order, traces):
    """Reference for the inversion: the dense K^2 loop of Cyc products,
    sum_j traces[j] * zeta_K^(-jk) for each k, with the same checks."""
    n = order
    traces = [t if isinstance(t, Cyc) else Cyc.from_fraction(Fraction(t)) for t in traces]
    m = lcm(n, *[t.m for t in traces])
    zs = [Cyc.root(UnityClass(k, n), m) for k in range(n)]
    out = {}
    for k in range(n):
        acc = Cyc.from_int(0)
        for j in range(n):
            acc = acc + traces[j] * zs[(-j * k) % n]
        if not acc.is_rational():
            raise ValueError("non-integral multiplicity (irrational)")
        q = acc.rational() / n
        if q.denominator != 1:
            raise ValueError(f"non-integral multiplicity {q} at index {k}")
        if q < 0:
            raise ValueError(f"negative multiplicity {q} at index {k}")
        if q:
            out[UnityClass(k, n)] = int(q)
    return Spectrum(out)


def inversion_outcome(invert, order, traces):
    try:
        return invert(order, traces).mult
    except ValueError as exc:
        return str(exc)


@st.composite
def trace_vectors(draw):
    """(K, traces) for K <= 40: the power traces of a virtual spectrum
    (multiplicities -1..3 on a few K-th roots), optionally rescaled by s^j
    for a root of unity s, as projective_spectrum does, multiplied by a
    rational, or with one trace moved off by a root of unity.  Negative,
    rescaled, rational and moved vectors are often refused."""
    order = draw(st.integers(1, 40))
    mult = draw(st.dictionaries(st.integers(0, order - 1), st.integers(-1, 3), min_size=1, max_size=6))
    traces = []
    for j in range(order):
        weights = [0] * order
        for e, c in mult.items():
            weights[e * j % order] += c
        traces.append(Cyc.from_root_sum(order, weights))
    if draw(st.booleans()):
        s = Cyc.root(unity(draw(st.integers(0, 11)), draw(st.sampled_from([1, 2, 3, 4, 6, 12]))))
        traces = [t * s**j for j, t in enumerate(traces)]
    if draw(st.booleans()):
        c = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        traces = [t * c for t in traces]
    if draw(st.booleans()):
        j = draw(st.integers(0, order - 1))
        traces[j] = traces[j] + Cyc.root(unity(draw(st.integers(0, 4)), 5))
    if draw(st.booleans()):  # plain rationals are accepted as traces
        traces = [t.rational() if t.is_rational() else t for t in traces]
    return order, traces


class TestFourierInversion:
    @given(trace_vectors())
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_loop(self, case):
        order, traces = case
        assert inversion_outcome(Spectrum.from_power_traces, order, traces) == inversion_outcome(
            dense_from_power_traces, order, traces
        )

    @pytest.mark.parametrize(
        "traces,message",
        [
            ([2, Fraction(1, 2)], "non-integral multiplicity 5/4 at index 0"),
            ([2, 1], "non-integral multiplicity 3/2 at index 0"),
            ([1, 3], "negative multiplicity -1 at index 1"),
            ([0, zeta(3)], "non-integral multiplicity (irrational)"),
            ([Fraction(1, 3), Fraction(1, 3) * zeta(4)], "non-integral multiplicity (irrational)"),
        ],
    )
    def test_refusals_match_dense_loop(self, traces, message):
        for invert in (Spectrum.from_power_traces, dense_from_power_traces):
            with pytest.raises(ValueError) as exc:
                invert(len(traces), traces)
            assert str(exc.value) == message

    @pytest.mark.parametrize("order,count", [(3, 2), (3, 4), (0, 0), (-1, 0)])
    def test_one_trace_per_power(self, order, count):
        with pytest.raises(ValueError, match="one trace per power"):
            Spectrum.from_power_traces(order, [Cyc.from_int(1)] * count)

    def test_no_cyc_arithmetic_on_gu33_traces(self, monkeypatch):
        """Each index is one root sum: inverting the Weil traces of the GU_3(3)
        torus element multiplies and adds no Cyc."""
        spec = weilgl.WeilCharSpec("Unitary", 3, 3, 1)
        g = weilgl.gu_torus_element(3, 3, 28)
        traces = [weilgl.weil_value(spec, x, weilgl.gu_kernel_profile(x, 3)) for x in _powers(g)]
        expected = dense_from_power_traces(len(traces), traces)
        calls = 0

        def counting(op):
            def counted(a, b):
                nonlocal calls
                calls += 1
                return op(a, b)

            return counted

        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            monkeypatch.setattr(Cyc, name, counting(getattr(Cyc, name)))
        assert Spectrum.from_power_traces(len(traces), traces) == expected
        assert calls == 0
        assert expected.dimension == spec.degree


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
        assert s.is_simple()

    def test_simple_spectrum_predicate(self):
        assert Spectrum({unity(0, 1): 1, unity(1, 2): 1}).is_simple()
        assert not Spectrum({unity(0, 1): 2}).is_simple()

    def test_power_pushforward(self):
        g = perm_matrix([1, 2, 3, 0])
        s = spectrum(g)
        for k in (2, 3, 5):
            assert power_pushforward(s, k) == spectrum(g**k)

    def test_multiplicities_sum_to_dim(self):
        for g in monomial_group(3).elements[:40]:
            assert spectrum(g).dimension == 3

    def test_canonical_rotation_idempotent(self):
        s = Spectrum({unity(1, 5): 1, unity(2, 5): 1, unity(3, 5): 1, unity(4, 5): 1})
        c = s.canonical_rotation()
        assert c == c.canonical_rotation()
        assert c.mult == {unity(0, 1): 1, unity(1, 5): 1, unity(2, 5): 1, unity(3, 5): 1}

    @pytest.mark.parametrize("order", [1, 4, 6])
    def test_spectrum_walks_once(self, monkeypatch, order):
        """An order-K matrix costs K products: one per power, the last one
        reaching the identity, with no separate walk for the order."""
        g = perm_matrix([*range(1, order), 0])
        products = 0
        mul = CycMatrix.__mul__

        def counting_mul(a, b):
            nonlocal products
            products += 1
            return mul(a, b)

        monkeypatch.setattr(CycMatrix, "__mul__", counting_mul)
        assert spectrum(g).is_simple()
        assert products == order

    def test_infinite_order_fails_fast(self):
        g = CycMatrix.from_rows([[2, 0], [0, 1]])
        for walk in (g.order, lambda: spectrum(g)):
            with pytest.raises(CapExceeded, match="pass cap 10000"):
                walk()

    def test_non_integral_multiplicity_raises(self):
        # trace data of a non-semisimple (wrong-order) input
        with pytest.raises(ValueError):
            Spectrum.from_power_traces(2, [Cyc.from_int(2), Cyc.from_int(1)])


def inner_product(group: MatGroup, chi1, chi2) -> Fraction:
    """Reference for test_monomial_q3: [chi1, chi2]_G = (1/|G|) sum
    chi1(g) * conj(chi2(g)), exact; chi1, chi2 map elements to Cyc."""
    acc = Cyc.from_int(0)
    for g in group.elements:
        acc = acc + chi1(g) * chi2(g).conj()
    if not acc.is_rational():
        raise ValueError("inner product is irrational (inputs not class functions?)")
    return acc.rational() / group.order


def sym2_character(rep=None):
    def chi(g):
        h = rep(g) if rep is not None else g
        t1 = h.trace()
        t2 = (h * h).trace()
        return (t1 * t1 + t2) * Fraction(1, 2)

    return chi


def alt2_character(rep=None):
    def chi(g):
        h = rep(g) if rep is not None else g
        t1 = h.trace()
        t2 = (h * h).trace()
        return (t1 * t1 - t2) * Fraction(1, 2)

    return chi


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
        hinv = h ** (h.order() - 1)
        assert m4(closure([h * g * hinv for g in G.generators])) == 3
