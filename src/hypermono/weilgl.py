"""Weil characters of GL_n(q) and GU_n(q), tori, and simple-spectrum oracles.

Character values are computed from the closed kernel-dimension formulas, so
spectra never require constructing the Weil representations themselves; the
exhaustive oracles run once per conjugacy class of GL_n(q) or GU_n(q), from
its class type (a partition for each irreducible polynomial) with no matrix,
and compare the simple-spectrum elements they find with the classified torus
types.  The torus generators of GU_n(q) and Sp_2n(q) are irreducible
companion matrices, found by one walk on the powers of x and carried to the
standard form by a Witt basis of an invariant form, built by linear algebra
alone (no vector of F^n is listed).  GL_n(q), GU_n(q) and Sp_2n(q) are closed
over a short fixed list of structured elements each, led by one of large
order, of which Dimino's coset enumeration keeps two or three (R.
Steinberg, Canad. J. Math. 14, 1962; D. E. Taylor, Pairs of generators for
matrix groups I, Cayley Bulletin 3, 1987).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .algebra.cyc import Cyc
from .algebra.fq import (
    FieldSpec,
    FqMatrix,
    companion_matrix,
    field,
    irreducibles,
    kernel_dim,
    nullspace,
    poly_mul_fq,
)
from .algebra.numth import is_prime_power, mult_order, partitions
from .algebra.unity import unity
from .repkit import CapExceeded, MatGroup, Spectrum, _cap, _powers, closure

LINEAR = "Linear"
UNITARY = "Unitary"


class ExcludedCase(ValueError):
    pass


# ---------------------------------------------------------------------------
# groups: GL_n(q), GU_n(q) (anti-diagonal Hermitian form), Sp_2n(q)
# ---------------------------------------------------------------------------


def _prime_power(q: int) -> tuple[int, int]:
    pq = is_prime_power(q)
    if pq is None:
        raise ValueError(f"{q} is not a prime power")
    return pq


def _gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def _gu_order(n: int, q: int) -> int:
    out = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        out *= q**i - (-1) ** i
    return out


def _sp_order(n: int, q: int) -> int:
    out = q ** (n * n)
    for i in range(1, n + 1):
        out *= q ** (2 * i) - 1
    return out


def hermitian_gram(F2: FieldSpec, n: int) -> FqMatrix:
    """The anti-diagonal Hermitian Gram matrix."""
    return FqMatrix.from_rows(F2, [[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)])


def is_unitary(g: FqMatrix, f: int) -> bool:
    """g^T * J * conj(g) == J with conj the q-power map (q = p^f)."""
    J = hermitian_gram(g.F, g.n)
    return g.transpose() * J * g.map_entries(g.F.subfield_power_map(f)) == J


def symplectic_gram(F: FieldSpec, n: int) -> FqMatrix:
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = 1
        rows[n + i][i] = F.neg[1]
    return FqMatrix.from_rows(F, rows)


def is_symplectic(g: FqMatrix) -> bool:
    G = symplectic_gram(g.F, g.n // 2)
    return g.transpose() * G * g == G


def _matrix(F: FieldSpec, n: int, entries: dict[tuple[int, int], int], diagonal: int = 1) -> FqMatrix:
    """The n x n matrix with the given (row, column) entries, ``diagonal``
    elsewhere on the diagonal and 0 off it."""
    rows = [[diagonal if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), v in entries.items():
        rows[i][j] = v
    return FqMatrix.from_rows(F, rows)


@lru_cache(maxsize=None)
def general_linear_group(n: int, q: int) -> MatGroup:
    """GL_n(q), closed over Taylor's pair [B, A] (Taylor 1987): B has first
    row (-1, 0, ..., 0, 1) and -1 on the subdiagonal; A = diag(w, 1, ..., 1),
    w the generator of F_q, or I + E_12 when q = 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    F = field(*_prime_power(q))
    minus = F.neg[1]
    B = _matrix(F, n, {(0, 0): minus, (0, n - 1): 1, **{(i, i - 1): minus for i in range(1, n)}}, diagonal=0)
    A = _matrix(F, n, {(0, 1): 1} if q == 2 and n > 1 else {(0, 0): F.gen})
    G = closure([B, A])
    assert G.order == _gl_order(n, q), f"GL_{n}({q}) closure has wrong order {G.order}"
    return G


@lru_cache(maxsize=None)
def unitary_group(n: int, q: int) -> MatGroup:
    """GU_n(q) for the anti-diagonal form J, closed over [x, z y, z J]
    (after Steinberg 1962 and Taylor 1987): x the torus element of order
    q^n + 1 (n odd) or q^n - 1 (n even), y = I + c E_1n with c + c^q = 0, and
    z = diag(w, 1, ..., 1, w^-q), w the generator of F_(q^2).  The list needs
    _form_torus's conjugate of x (18 of the 72 in GU_3(2) close to 162
    elements), which TestTori.PINNED holds fixed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, f = _prime_power(q)
    order, cap = _gu_order(n, q), _cap(None)
    if order > cap:
        raise CapExceeded(f"GU_{n}({q}) has order {order}, above cap {cap}")
    F2 = field(p, 2 * f)
    gram = hermitian_gram(F2, n)
    gens = [gu_torus_element(n, q, q**n + 1 if n % 2 else q**n - 1)]
    if n > 1:  # GU_1(q) is the cyclic torus itself
        q2, conj, w = F2.q, F2.subfield_power_map(f), F2.gen
        c = next(c for c in range(1, q2) if F2.add[c * q2 + conj[c]] == 0)
        y = _matrix(F2, n, {(0, n - 1): c})
        z = _matrix(F2, n, {(0, 0): w, (n - 1, n - 1): F2.inv[conj[w]]})
        gens += [z * y, z * gram]
    G = closure(gens)
    assert G.order == order, f"GU_{n}({q}) closure has wrong order {G.order}"
    assert all(is_unitary(g, f) for g in G.generators)
    return G


@lru_cache(maxsize=None)
def symplectic_group(n: int, q: int) -> MatGroup:
    """Sp_2n(q) for the standard form, closed over [c, t_e1, s] (after
    Taylor 1987): t_v the transvection x -> x + <x, v> v, c the Coxeter
    element t_a1 ... t_a(2n+1) of the chain e_1, f_1, e_1 + e_2, f_2, ...,
    e_(n-1) + e_n, f_n, e_n, and s the torus element of order q^n + 1.  c
    comes first: s and t_e1 alone generate O_4^-(2) in Sp_4(2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    F = field(*_prime_power(q))
    gram = symplectic_gram(F, n)

    def t(*support):  # t_v for the 0/1 vector v with this support; e_i is i - 1, f_i is n + i - 1
        return _symplectic_transvection(F, gram, [int(i in support) for i in range(2 * n)])

    chain = [(0,), (n,)] + [v for i in range(1, n) for v in ((i - 1, i), (n + i,))] + [(n - 1,)]
    coxeter = prod((t(*support) for support in chain), start=FqMatrix.identity(F, 2 * n))
    G = closure([coxeter, t(0), sp_torus_element(n, q, -1)])
    assert G.order == _sp_order(n, q), f"Sp_{2*n}({q}) closure has wrong order {G.order}"
    assert all(is_symplectic(g) for g in G.generators)
    return G


def _block_diagonal(F: FieldSpec, blocks) -> FqMatrix:
    n = sum(b.n for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(b.n):
            rows[off + i][off : off + b.n] = b.data[i * b.n : (i + 1) * b.n]
        off += b.n
    return FqMatrix.from_rows(F, rows)


def _symplectic_transvection(F: FieldSpec, gram: FqMatrix, v) -> FqMatrix:
    """x -> x + <x, v> v."""
    dim = len(v)
    w = gram.transpose().apply(v)  # w^T x = <x, v>
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            rows[i][j] = F.add[(1 if i == j else 0) * F.q + F.mul[v[i] * F.q + w[j]]]
    return FqMatrix.from_rows(F, rows)


# ---------------------------------------------------------------------------
# character values
# ---------------------------------------------------------------------------


def _check_family(family: str) -> None:
    """ValueError unless family is Linear or Unitary."""
    if family not in (LINEAR, UNITARY):
        raise ValueError(f"family must be Linear or Unitary, got {family!r}")


class WeilCharSpec:
    """A Weil character label: family, n, q, and the twist index i."""

    __slots__ = ("family", "n", "q", "i")

    def __init__(self, family: str, n: int, q: int, i: int):
        _check_family(family)
        hi = q - 2 if family == LINEAR else q
        if not 0 <= i <= max(hi, 0):
            raise ValueError(f"index {i} out of range 0..{hi}")
        self.family = family
        self.n = n
        self.q = q
        self.i = i

    @property
    def degree(self) -> int:
        n, q, i = self.n, self.q, self.i
        if self.family == LINEAR:
            return (q**n - q) // (q - 1) if i == 0 else (q**n - 1) // (q - 1)
        s = (-1) ** n
        return (q**n + q * s) // (q + 1) if i == 0 else (q**n - s) // (q + 1)

    def __repr__(self):
        return f"WeilCharSpec({self.family}, n={self.n}, q={self.q}, i={self.i})"


def _scalars(F: FieldSpec, Q: int) -> list[int]:
    """xi^k for k = 0..Q-1, xi = gen^((|F| - 1)/Q) of order Q: the powers of
    the generator itself for GL_n(q) (Q = q - 1), and those of order q + 1 in
    F_(q^2) for GU_n(q)."""
    return F.exp[:: (F.q - 1) // Q]


def gl_kernel_profile(g: FqMatrix, q: int) -> tuple[int, ...]:
    return tuple(kernel_dim(g, s) for s in _scalars(g.F, q - 1))


def gu_kernel_profile(g: FqMatrix, q: int) -> tuple[int, ...]:
    return tuple(kernel_dim(g, s) for s in _scalars(g.F, q + 1))


def tau_value(n: int, q: int, i: int, g: FqMatrix, profile: tuple[int, ...] | None = None) -> Cyc:
    """Irreducible Weil character value on GL_n(q).

    (1/(q-1)) * sum_k zeta_(q-1)^(ik) q^dim ker(g - delta^k) - 2*[i=0],
    the twist-graded pieces of the point-count character with both trivial
    summands removed from the i = 0 piece.  At q = 2 the sum has one term, and
    the single character is (#fixed vectors) - 2.
    """
    if profile is None:
        profile = gl_kernel_profile(g, q)
    return _weil_sum(i, q - 1, [q**d for d in profile], q - 1) - 2 * (i == 0)


def zeta_value(n: int, q: int, i: int, g: FqMatrix, profile: tuple[int, ...] | None = None) -> Cyc:
    """Irreducible Weil character value on GU_n(q):

    ((-1)^n/(q+1)) * sum_k zeta_(q+1)^(ik) (-q)^dim ker(g - xi^k).
    """
    if profile is None:
        profile = gu_kernel_profile(g, q)
    return _weil_sum(i, q + 1, [(-q) ** d for d in profile], (-1) ** n * (q + 1))


def _weil_sum(i: int, Q: int, weights, den: int) -> Cyc:
    """(1/den) * sum_k zeta_Q^(ik) weights[k]: zeta_Q^(ik) = zeta_m^((i/g)k)
    with g = gcd(i, Q) and m = Q/g, so each weight adds into exponent
    (i/g)k mod m of one integer vector, reduced once at conductor m."""
    g = gcd(i, Q)
    m, step = Q // g, i // g
    acc = [0] * m
    for k, w in enumerate(weights):
        acc[step * k % m] += w
    return Cyc.from_root_sum(m, acc, den)


def weil_value(spec: WeilCharSpec, g: FqMatrix, profile=None) -> Cyc:
    if spec.family == LINEAR:
        return tau_value(spec.n, spec.q, spec.i, g, profile)
    return zeta_value(spec.n, spec.q, spec.i, g, profile)


# ---------------------------------------------------------------------------
# spectra from character values
# ---------------------------------------------------------------------------


def weil_spectrum(spec: WeilCharSpec, g: FqMatrix) -> Spectrum:
    """Exact spectrum of g on the Weil module by Fourier inversion over <g>.

    One walk g^0, g^1, ... collects the traces up to the first g^K = 1; a
    walk past the HYPERMONO_CAP cap raises CapExceeded."""
    profile_fn = gl_kernel_profile if spec.family == LINEAR else gu_kernel_profile
    traces = [weil_value(spec, x, profile_fn(x, spec.q)) for x in _powers(g)]
    s = Spectrum.from_power_traces(len(traces), traces)
    if s.dimension != spec.degree:
        raise ValueError("weil_spectrum multiplicities do not sum to the degree")
    return s


def group_scalars(group: MatGroup) -> set[FqMatrix]:
    """The scalar matrices of a closed group, for the element-by-element
    checks of test_criterion_4_weil_identities."""
    g0 = group.identity
    out = set()
    for s in range(1, g0.F.q):
        m = FqMatrix.scalar(g0.F, g0.n, s)
        if m in group:
            out.add(m)
    return out


# ---------------------------------------------------------------------------
# torus constructors
# ---------------------------------------------------------------------------


def _x_walk(F: FieldSpec, f) -> tuple[int, dict[int, int]]:
    """ord(x mod f) for the monic f with f(0) != 0 (low-to-high coefficients),
    and {r: c} for the r < ord with x^r = c mod f, c a constant.

    One walk on x, x^2, ... mod f, one shift per step, up to the first
    constant c = x^r0: the r with x^r constant are the multiples of r0, with
    x^(k r0) = c^k, so ord(x mod f) is r0 ord(c).  It is the order of f's
    companion matrix (Lidl and Niederreiter, Finite Fields, ch. 3)."""
    q, add, mul = F.q, F.add, F.mul
    minus_f = [F.neg[c] for c in f[:-1]]  # x^d = -(f_0 + ... + f_(d-1) x^(d-1))
    y, r0 = [1] + [0] * (len(f) - 2), 0
    while r0 == 0 or any(y[1:]):
        top = y[-1]  # y x mod f: shift up, then add top x^d
        y = [add[a * q + mul[top * q + c]] for a, c in zip([0] + y[:-1], minus_f)]
        r0 += 1
    consts, power = {}, 1
    while power != 1 or not consts:
        consts[len(consts) * r0] = power
        power = mul[power * q + y[0]]
    return len(consts) * r0, consts


def _companions(F: FieldSpec, polys, order: int):
    """The companion matrices of order ``order`` of the monics polys: those
    f with ord(x mod f) = order (_x_walk)."""
    for poly in polys:
        if _x_walk(F, poly)[0] == order:
            yield companion_matrix(F, poly)


def _dual(F: FieldSpec, f, conj=None) -> tuple[int, ...]:
    """The monic polynomial whose roots are the alpha^-1 for the roots alpha
    of the monic f, or the alpha^(-q) with conj (the q-power table)."""
    bar = conj if conj is not None else range(F.q)
    scale = F.inv[bar[f[0]]]
    return tuple(F.mul[scale * F.q + bar[c]] for c in reversed(f))


def gl_singer(n: int, q: int) -> FqMatrix:
    """Companion matrix of order q^n - 1 acting irreducibly (Singer cycle)."""
    F = field(*_prime_power(q))
    return next(_companions(F, irreducibles(F, n), q**n - 1))


def _invariant_forms(g: FqMatrix, conj=None) -> list[FqMatrix]:
    """Basis of the space of Gram matrices G with g^T G conj(g) = G.

    With conj (a field automorphism as a table) G is also Hermitian,
    G^T = conj(G); without, conj is the identity and G is alternating,
    G^T = -G with zero diagonal.  Solved F_p-linearly in the entries.
    """
    F, n = g.F, g.n
    p, f = F.p, F.f
    gt, sg = g.transpose(), g.map_entries(conj) if conj is not None else g
    dimc = n * n * f  # entries of G: n*n field elements = n*n*f F_p coordinates
    cols = []
    # image of each basis Gram matrix under all constraints, stacked
    for basis_idx in range(dimc):
        entry_idx, coord = divmod(basis_idx, f)
        data = [0] * (n * n)
        data[entry_idx] = p**coord
        G = FqMatrix(F, n, data)
        H = G.transpose()
        img = [F.sub(r, x) for r, x in zip((gt * G * sg).data, data)]
        if conj is not None:
            img += [F.sub(h, conj[x]) for h, x in zip(H.data, data)]
        else:
            img += [F.add[h * F.q + x] for h, x in zip(H.data, data)] + data[:: n + 1]
        cols.append([c for x in img for c in F._digits(x)])
    mat = [list(row) for row in zip(*cols)]
    return [
        FqMatrix(F, n, [F._encode(v[e * f : (e + 1) * f]) for e in range(n * n)])
        for v in nullspace(field(p), mat, dimc)
    ]


def _standardize(G: FqMatrix, conj=None) -> FqMatrix:
    """S with S^T G conj(S) the standard Gram matrix, from a Witt basis.

    With conj (the q-power table of F_(q^2)) G is a nondegenerate Hermitian
    Gram matrix and the standard one is hermitian_gram; without, G is
    alternating and it is symplectic_gram.  Each step takes an isotropic u
    and a partner w with B(u, w) = 1 and B(w, w) = 0 from the current
    subspace W, then passes to the orthogonal complement of u and w in W,
    the nullspace of the linear constraints B(., u) = B(., w) = 0 (Taylor,
    The Geometry of the Classical Groups, ch. 7 and 10).  An odd Hermitian
    dimension leaves one vector, scaled to norm 1, for the middle column.
    """
    F, n = G.F, G.n
    q, add, mul = F.q, F.add, F.mul
    bar = conj if conj is not None else range(q)

    def B(u, v):  # u^T G conj(v)
        acc = 0
        for a, b in zip(u, G.apply([bar[x] for x in v])):
            acc = add[acc * q + mul[a * q + b]]
        return acc

    def combine(coeffs, vecs):  # sum_i coeffs[i] * vecs[i]
        out = [0] * n
        for c, v in zip(coeffs, vecs):
            out = [add[x * q + mul[c * q + y]] for x, y in zip(out, v)]
        return out

    W = [[int(i == j) for i in range(n)] for j in range(n)]
    us, ws = [], []
    while len(W) > 1:
        u = W[0]
        if B(u, u):  # Hermitian only: span{W[0], W[1]} holds an isotropic a W[0] + W[1]
            u = next(x for x in (combine((a, 1), W) for a in range(q)) if B(x, x) == 0)
        w = next(x for x in W if B(u, x))
        u = combine((F.inv[B(u, w)],), (u,))  # B(u, w) = 1
        d = B(w, w)  # Hermitian only; B(w + s u, w + s u) = d + s + conj(s)
        if d:
            s = next(s for s in range(q) if add[s * q + bar[s]] == F.neg[d])
            w = combine((1, s), (w, u))
        us.append(u)
        ws.append(w)
        W = [combine(c, W) for c in nullspace(F, [[B(x, u) for x in W], [B(x, w) for x in W]], len(W))]
    if W:  # the middle vector m: scale by a with a conj(a) B(m, m) = 1
        c = F.inv[B(W[0], W[0])]
        W = [combine((next(a for a in range(q) if mul[a * q + bar[a]] == c),), W)]
    cols = us + W + (ws[::-1] if conj is not None else ws)
    return FqMatrix(F, n, [cols[j][i] for i in range(n) for j in range(n)])


def _form_torus(F: FieldSpec, deg: int, order: int, conj=None) -> FqMatrix:
    """An element of order ``order`` of GU_deg (with conj, the q-power table)
    or of Sp_deg (without) for the standard form: the first irreducible
    companion of that order with a nondegenerate invariant form, carried to
    the standard form by _standardize.  Only a self-dual f (f = _dual(f))
    can carry such a form; they are listed in irreducibles' order, each
    fixed by f_0 and its lower half, f_(deg-i) = f_0 bar(f_i).  With
    gcd(order, |F|) = 1 and ord_order(|F|) = deg, an f of that order is
    irreducible for the orders q^n + 1 asked for here: its factor degrees
    divide deg with lcm deg, which proper divisors reach only when n has two
    distinct odd primes."""
    q, bar = F.q, conj if conj is not None else range(F.q)
    if gcd(order, q) == 1 and mult_order(q, order) == deg:
        halves = itertools.product(range(1, q), *[range(q)] * (deg // 2))  # f_0, f_1, ..., f_(deg // 2)
        monics = (h + tuple(F.mul[h[0] * q + bar[c]] for c in h[(deg - 1) // 2 : 0 : -1]) + (1,) for h in halves)
        for C in _companions(F, (f for f in monics if _dual(F, f, conj) == f), order):
            for G in _invariant_forms(C, conj):
                if G.rank() == deg:
                    S = _standardize(G, conj)
                    return S.inverse() * C * S
    group = f"GU_{deg}({F.p ** (F.f // 2)})" if conj is not None else f"Sp_{deg}({q})"
    raise ExcludedCase(f"no {group} torus element of order {order} found")


def _split_torus(A: FqMatrix, conj=None) -> FqMatrix:
    """diag(A, A*) for A acting on a maximal totally isotropic half: A* =
    A^-T for Sp, and conj(J A^-T J) for GU with conj (the q-power table), J
    the anti-diagonal form of A's size (Taylor 1992)."""
    B = A.inverse().transpose()
    if conj is not None:
        J = hermitian_gram(A.F, A.n)
        B = (J * B * J).map_entries(conj)
    return _block_diagonal(A.F, [A, B])


def gu_torus_element(n: int, q: int, order: int) -> FqMatrix:
    """An element of GU_n(q) (anti-diagonal form) of the given order: for
    n even and order q^n - 1 the split torus of a Singer block on half the
    space, else an irreducible companion block and a Witt-basis change of
    basis."""
    p, f = _prime_power(q)
    F2 = field(p, 2 * f)
    conj = F2.subfield_power_map(f)
    if n % 2 == 0 and order == q**n - 1:
        k = n // 2
        h = _split_torus(gl_singer(k, q * q) if k > 1 else FqMatrix(F2, 1, (F2.gen,)), conj)
    else:
        h = _form_torus(F2, n, order, conj)
    assert is_unitary(h, f)
    return h


def gu_block_torus(q: int, blocks: list[tuple[int, int]]) -> FqMatrix:
    """Block-diagonal unitary torus element; blocks = [(n_i, order_i)]: a
    generator of the T_a,b block tori that ss_enumerate lists, as TestTori
    builds them."""
    p, f = _prime_power(q)
    F2 = field(p, 2 * f)
    mats = [gu_torus_element(b, q, o) if b > 1 else _gu1_element(q, o) for b, o in blocks]
    # assemble wrt the orthogonal sum of anti-diagonal forms, then standardize
    big = _block_diagonal(F2, mats)
    gram = _block_diagonal(F2, [hermitian_gram(F2, b) for b, _ in blocks])
    S = _standardize(gram, F2.subfield_power_map(f))
    h = S.inverse() * big * S
    assert is_unitary(h, f)
    return h


def _gu1_element(q: int, order: int) -> FqMatrix:
    p, f = _prime_power(q)
    F2 = field(p, 2 * f)
    if (q + 1) % order != 0:
        raise ExcludedCase(f"GU_1({q}) has no element of order {order}")
    return FqMatrix(F2, 1, (F2.exp[(q * q - 1) // order % (q * q - 1)],))


def sp_torus_element(n: int, q: int, eps: int) -> FqMatrix:
    """Generator of the cyclic torus of order q^n - eps in Sp_2n(q), eps=+-1."""
    F = field(*_prime_power(q))
    h = _split_torus(gl_singer(n, q)) if eps == 1 else _form_torus(F, 2 * n, q**n + 1)
    assert is_symplectic(h)
    return h


# ---------------------------------------------------------------------------
# classified torus types
# ---------------------------------------------------------------------------


class SsClass:
    __slots__ = ("family", "label", "central_order", "dims", "blocks")

    def __init__(self, family, label, central_order, dims, blocks=None):
        self.family = family
        self.label = label
        self.central_order = central_order
        self.dims = sorted(dims)
        self.blocks = blocks

    def to_json(self):
        return {
            "family": self.family,
            "torus": self.label,
            "central_order": self.central_order,
            "simple_on_dims": self.dims,
            "blocks": self.blocks,
        }

    def __repr__(self):
        return f"SsClass({self.family}, {self.label}, obar={self.central_order}, dims={self.dims})"


LINEAR_EXCLUSIONS = {(3, 4)}
UNITARY_EXCLUSIONS = {(3, 2), (3, 4), (4, 2), (4, 3), (5, 2), (6, 2)}


def weil_degrees(family: str, n: int, q: int) -> list[int]:
    indices = range(q - 1 if family == LINEAR else q + 1)
    return sorted({WeilCharSpec(family, n, q, i).degree for i in indices})


def ss_enumerate(family: str, n: int, q: int) -> list[SsClass]:
    """Torus types whose generators may have simple spectrum on a Weil module."""
    _prime_power(q)
    if family == LINEAR:
        if n < 3:
            raise ExcludedCase(f"Linear n={n} < 3 outside the classification")
        if (n, q) in LINEAR_EXCLUSIONS:
            raise ExcludedCase(f"Linear ({n},{q}) is an excluded case")
        degs = weil_degrees(family, n, q)
        return [SsClass(LINEAR, "Singer", (q**n - 1) // (q - 1), degs)]
    if family == UNITARY:
        if n < 3:
            raise ExcludedCase(f"Unitary n={n} < 3 outside the classification")
        if (n, q) in UNITARY_EXCLUSIONS:
            raise ExcludedCase(f"Unitary ({n},{q}) is an excluded case")
        small, big = (WeilCharSpec(UNITARY, n, q, i).degree for i in (0, 1))
        out = []
        if n % 2 == 0:
            out.append(SsClass(UNITARY, "Singer", (q**n - 1) // (q + 1), [big], blocks=[(n, q**n - 1)]))
            for a in range(n - 1, n // 2, -2):
                b = n - a
                if b % 2 == 1 and gcd(a, b) == 1:
                    out.append(
                        SsClass(
                            UNITARY,
                            f"T_{a},{b}",
                            (q**a + 1) * (q**b + 1) // (q + 1),
                            [small, big],
                            blocks=[(a, q**a + 1), (b, q**b + 1)],
                        )
                    )
        else:
            out.append(SsClass(UNITARY, "Singer", (q**n + 1) // (q + 1), [small, big], blocks=[(n, q**n + 1)]))
            out.append(
                SsClass(
                    UNITARY,
                    f"T_{n-1},1",
                    q ** (n - 1) - 1,
                    [small],
                    blocks=[(n - 1, q ** (n - 1) - 1), (1, q + 1)],
                )
            )
        return out
    raise ValueError("family must be Linear or Unitary")


# ---------------------------------------------------------------------------
# deleted permutation module
# ---------------------------------------------------------------------------


def deleted_perm_spectrum(cycle_type) -> Spectrum:
    """Spectrum of a permutation of the given cycle type on the deleted
    permutation module: the union of the mu_c minus one trivial eigenvalue."""
    cycle_type = list(cycle_type)
    if not cycle_type or any(c < 1 for c in cycle_type):
        raise ValueError("cycle type must be a partition")
    values = []
    for c in cycle_type:
        values.extend(unity(k, c) for k in range(c))
    values.remove(unity(0, 1))
    return Spectrum.from_multiset(values)


def simple_cycle_types(n: int) -> list[tuple[int, ...]]:
    """Cycle types of S_n with simple spectrum on the deleted permutation
    module: the alternating oracle of test_criterion_2_alternating_oracle."""
    return [ct for ct in partitions(n) if deleted_perm_spectrum(ct).is_simple()]


# ---------------------------------------------------------------------------
# conjugacy classes of GL_n(q) and GU_n(q) as class types
# ---------------------------------------------------------------------------


def _class_count(family: str, n: int, q: int) -> int:
    """k(GL_n(q)) or k(GU_n(q)): the x^n coefficient of prod_{j >= 1}
    (1 -+ x^j)/(1 - q x^j), - for GL and + for GU (Macdonald, Bull. Austral.
    Math. Soc. 23, 1981)."""
    sign = -1 if family == LINEAR else 1
    series = [1] + [0] * n
    for j in range(1, n + 1):
        for d in range(j, n + 1):  # times 1/(1 - q x^j)
            series[d] += q * series[d - j]
        for d in range(n, j - 1, -1):  # times (1 -+ x^j)
            series[d] += sign * series[d - j]
    return series[n]


def _centralizer_factor(lam: tuple[int, ...], Q: int) -> int:
    """a_lam(Q) = Q^(sum lam'_i^2) prod_i prod_{k <= m_i} (1 - Q^-k), with m_i
    the multiplicity of the part i, as an exact integer."""
    conj = [sum(1 for part in lam if part > i) for i in range(lam[0])]
    exponent = sum(c * c for c in conj)
    out = 1
    for i in set(lam):
        m = lam.count(i)
        exponent -= m * (m + 1) // 2
        for k in range(1, m + 1):
            out *= Q**k - 1
    return out * Q**exponent


def _class_types(family: str, n: int, q: int):
    """The field F and the conjugacy classes of GL_n(q) or GU_n(q) as class
    types over F, each with the order of its centraliser.

    A type is a map f -> lam_f from the monic irreducibles f != x over F to
    partitions, listed as (f, lam) pairs.  For GL_n(q), F = F_q, the
    primary rational canonical form gives sum deg(f) |lam_f| = n and
    |C(g)| = prod_f a_{lam_f}(q^deg f) (Macdonald, Symmetric Functions and
    Hall Polynomials, 2nd ed., IV.2).  For GU_n(q), F = F_(q^2) and
    lam_f = lam_f~, f~ the monic polynomial whose roots are the alpha^(-q):
    a self-dual f of degree d, always odd, gives |a_lam(-q^d)|, and a pair
    {f, f~} of degree d is one unit of weight 2d giving a_lam(q^(2d)) (Wall,
    J. Austral. Math. Soc. 3, 1963; Ennola, Ann. Acad. Sci. Fenn. 323,
    1963).  The count and the class equation are checked on every call.
    """
    p, e = _prime_power(q)
    if family == LINEAR:
        F = field(p, e)
        units = [((f,), d, q**d) for d in range(1, n + 1) for f in irreducibles(F, d)]
    else:
        F = field(p, 2 * e)
        conj = F.subfield_power_map(e)
        units = []
        for d in range(1, n + 1):
            if d % 2 == 0 and 2 * d > n:  # no self-dual f of even degree, and no pair fits
                continue
            for f in irreducibles(F, d):
                dual = _dual(F, f, conj)
                if dual == f:
                    units.append(((f,), d, -(q**d)))
                elif 2 * d <= n and f < dual:
                    units.append(((f, dual), 2 * d, q ** (2 * d)))
        units.sort(key=lambda unit: unit[1])

    def types(start: int, rest: int):
        # the maps on units[start:] of total weight rest, as (unit, lam) lists
        if rest == 0:
            yield []
            return
        for j in range(start, len(units)):
            weight = units[j][1]
            if weight > rest:
                return
            for size in range(1, rest // weight + 1):
                for lam in partitions(size):
                    for tail in types(j + 1, rest - weight * size):
                        yield [(units[j], lam)] + tail

    out = []
    for cls in types(0, n):
        cent = prod(abs(_centralizer_factor(lam, Q)) for (_, _, Q), lam in cls)
        out.append(([(f, lam) for (fs, _, _), lam in cls for f in fs], cent))
    group = f"{'GL' if family == LINEAR else 'GU'}_{n}({q})"
    assert len(out) == _class_count(family, n, q), f"{group}: {len(out)} classes enumerated"
    assert sum(Fraction(1, c) for _, c in out) == 1, f"{group}: class sizes do not sum to the order"
    return F, out


def gl_classes(n: int, q: int) -> list[tuple[FqMatrix, int]]:
    """One representative of each conjugacy class of GL_n(q), with the order
    of its centraliser: for the class type f -> lam_f (_class_types), the block
    diagonal of companion_matrix(f^k), one block for each part k of each lam_f.
    The matrix form of the class types, which TestClassData holds to the
    closure's classes and characteristic polynomials."""
    F, classes = _class_types(LINEAR, n, q)
    out = []
    for cls, cent in classes:
        blocks = []
        for f, lam in cls:
            power = (1,)
            for k in range(1, lam[0] + 1):
                power = poly_mul_fq(F, power, f)
                blocks.extend(companion_matrix(F, power) for _ in range(lam.count(k)))
        out.append((_block_diagonal(F, blocks), cent))
    return out


# ---------------------------------------------------------------------------
# exhaustive oracles
# ---------------------------------------------------------------------------

ELEMENT_SCAN_CAP = 500_000


class OracleReport:
    def __init__(self, family, n, q, agree, details, counterexamples):
        self.family = family
        self.n = n
        self.q = q
        self.mode = "elements"
        self.agree = agree
        self.details = details
        self.counterexamples = counterexamples

    def to_json(self):
        return {
            "family": self.family,
            "n": self.n,
            "q": self.q,
            "mode": self.mode,
            "agree": self.agree,
            "details": self.details,
            "counterexamples": self.counterexamples,
        }


def the_group(family: str, n: int, q: int) -> MatGroup:
    """GL_n(q) or GU_n(q), closed, for the element-by-element checks of
    test_criterion_4_weil_identities; ss_exhaustive_check closes no group."""
    _check_family(family)
    return general_linear_group(n, q) if family == LINEAR else unitary_group(n, q)


def ss_exhaustive_check(family: str, n: int, q: int) -> OracleReport:
    """Find every simple-spectrum element of GL_n(q) or GU_n(q) on each Weil
    module; compare the realized torus data against the classified list.

    Every count is a class function, so the oracle runs once per class type
    f -> lam_f (_class_types), weighted by the class size |G|/|C(g)|, with
    no matrix.  dim ker(g^j - s) is the sum, over the f with x^j = s mod f,
    of deg f * sum_{k in lam_f} min(k, gcd(j, p^n)); so each f needs only
    ord(x mod f) and the residues r with x^r mod f constant, from one walk
    on x mod f.  The walk over j stops at g^j = 1 (the order of g), and the
    central order is the least j with g^j scalar.  |chi_i|^2 is evaluated
    once per distinct kernel profile.  The walks take at most k(G) B steps,
    B = q^n - 1 for GL_n(q) and p^ceil(log_p n) (q^n + 1) for GU_n(q), a
    bound on the element orders; above the HYPERMONO_CAP cap, CapExceeded
    is raised before any class is listed.
    """
    _check_family(family)
    if n < 1:
        raise ValueError("n must be >= 1")
    p = _prime_power(q)[0]
    if family == LINEAR:
        name, order, bound = f"GL_{n}({q})", _gl_order(n, q), q**n - 1
    else:
        unipotent = next(p**e for e in range(n + 1) if p**e >= n)  # p^ceil(log_p n)
        name, order, bound = f"GU_{n}({q})", _gu_order(n, q), unipotent * (q**n + 1)
    classes, walk_cap = _class_count(family, n, q), _cap(None)
    if classes * bound > walk_cap:
        raise CapExceeded(
            f"{name} has {classes} conjugacy classes: "
            f"{classes} x {bound} power-walk steps exceed cap {walk_cap}"
        )
    F, types = _class_types(family, n, q)
    scalars = _scalars(F, q - 1 if family == LINEAR else q + 1)
    index = {s: k for k, s in enumerate(scalars)}

    walks = {f: _x_walk(F, f) for f in {f for cls, _ in types for f, _ in cls}}

    def profile(cls, j: int) -> tuple[int, ...]:
        prof = [0] * len(scalars)
        u = gcd(j, p**n)
        for f, lam in cls:
            ord_f, consts = walks[f]
            k = index.get(consts.get(j % ord_f))
            if k is not None:
                prof[k] += (len(f) - 1) * sum(min(part, u) for part in lam)
        return tuple(prof)

    one = (n,) + (0,) * (len(scalars) - 1)
    specs = [WeilCharSpec(family, n, q, i) for i in range(len(scalars))]  # one module per character of the scalars
    degrees = [spec.degree for spec in specs]
    abs2_rows: dict[tuple[int, ...], list[Cyc]] = {}  # kernel profile -> |chi_i|^2 there, per module

    # degree -> central order -> number of simple elements, over the modules of that degree
    by_dim: dict[int, dict[int, int]] = {d: {} for d in degrees}  # p'-elements
    by_dim_p: dict[int, dict[int, int]] = {d: {} for d in degrees}  # the rest
    pprime_counts: dict[int, int] = {}  # central order -> number of p'-elements
    for cls, cent_order in types:
        chain = [one]
        while (prof := profile(cls, len(chain))) != one:
            chain.append(prof)
        g_order, weight = len(chain), order // cent_order
        assert g_order <= bound, f"{name}: element order {g_order} above the bound {bound}"
        cent = next(k for k in range(1, g_order + 1) if n in chain[k % g_order])
        sums = [Cyc.from_int(0)] * len(specs)
        for prof, cnt in Counter(chain).items():
            row = abs2_rows.get(prof)
            if row is None:
                row = abs2_rows[prof] = [weil_value(spec, None, prof).abs2() for spec in specs]
            sums = [s + v * cnt for s, v in zip(sums, row)]
        if g_order % p != 0:
            pprime_counts[cent] = pprime_counts.get(cent, 0) + weight
        target = by_dim if g_order % p != 0 else by_dim_p
        for d, s in zip(degrees, sums):
            total = s.rational()
            if total.denominator != 1:
                raise RuntimeError("non-integral Parseval sum")
            if total == g_order * d:
                target[d][cent] = target[d].get(cent, 0) + weight

    details = {
        "order": order,
        "degrees": degrees,
        "ss_by_dim": {str(d): {str(c): cnt for c, cnt in sorted(v.items())} for d, v in sorted(by_dim.items())},
        "ss_by_dim_non_p_prime": {
            str(d): {str(c): cnt for c, cnt in sorted(v.items())} for d, v in sorted(by_dim_p.items()) if v
        },
        "p_prime_counts_by_obar": {str(c): cnt for c, cnt in sorted(pprime_counts.items())},
        "modules_per_dim": {str(d): degrees.count(d) for d in set(degrees)},
    }

    counterexamples = []
    try:
        expected = ss_enumerate(family, n, q)
    except ExcludedCase as exc:
        return OracleReport(family, n, q, None, {**details, "excluded": str(exc)}, [])

    expected_by_dim: dict[int, set[int]] = {d: set() for d in degrees}
    for cls in expected:
        for d in cls.dims:
            expected_by_dim.setdefault(d, set()).add(cls.central_order)
    agree = True
    for d, got_counts in by_dim.items():
        got = set(got_counts)
        want = expected_by_dim.get(d, set())
        if got - want:
            agree = False
            counterexamples.append({"dim": d, "unexpected_central_orders": sorted(got - want)})
        details.setdefault("per_dim", {})[str(d)] = {"realized": sorted(got), "allowed": sorted(want)}
    # every enumerated type must be realized on at least one of its dims
    for cls in expected:
        hit = any(cls.central_order in by_dim.get(d, {}) for d in cls.dims)
        if not hit:
            agree = False
            counterexamples.append({"type": cls.label, "missing": True})
    return OracleReport(family, n, q, agree, details, counterexamples)
