"""Weil characters of GL_n(q) and GU_n(q), tori, and simple-spectrum oracles.

Character values are computed from the closed kernel-dimension formulas, so
spectra never require constructing the Weil representations themselves; the
exhaustive oracles enumerate the groups at desk scale and compare the
simple-spectrum elements they find with the classified torus types.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .algebra.cyc import Cyc
from .algebra.fq import FieldSpec, FqMatrix, companion_matrix, field, kernel_dim, nullspace, poly_is_irreducible_fq
from .algebra.numth import is_prime_power
from .algebra.unity import unity
from .repkit import MatGroup, Spectrum, closure

LINEAR = "Linear"
UNITARY = "Unitary"


class ExcludedCase(ValueError):
    pass


# ---------------------------------------------------------------------------
# groups: GL_n(q), GU_n(q) (anti-diagonal Hermitian form), Sp_2n(q)
# ---------------------------------------------------------------------------


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


def is_unitary(g: FqMatrix, f: int, gram: FqMatrix | None = None) -> bool:
    """g^T * G * conj(g) == G with conj the q-power map (q = p^f)."""
    G = gram if gram is not None else hermitian_gram(g.F, g.n)
    return g.transpose() * G * g.map_entries(g.F.subfield_power_map(f)) == G


def symplectic_gram(F: FieldSpec, n: int) -> FqMatrix:
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = 1
        rows[n + i][i] = F.neg[1]
    return FqMatrix.from_rows(F, rows)


def is_symplectic(g: FqMatrix, gram: FqMatrix | None = None) -> bool:
    G = gram if gram is not None else symplectic_gram(g.F, g.n // 2)
    return g.transpose() * G * g == G


@lru_cache(maxsize=None)
def general_linear_group(n: int, q: int) -> MatGroup:
    pq = is_prime_power(q)
    if pq is None:
        raise ValueError(f"{q} is not a prime power")
    F = field(*pq)
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
                rows[i][j] = 1
                gens.append(FqMatrix.from_rows(F, rows))
    diag = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    diag[0][0] = F.gen
    gens.append(FqMatrix.from_rows(F, diag))
    G = closure(gens)
    assert G.order == _gl_order(n, q), f"GL_{n}({q}) closure has wrong order {G.order}"
    return G


@lru_cache(maxsize=None)
def unitary_group(n: int, q: int) -> MatGroup:
    pq = is_prime_power(q)
    if pq is None:
        raise ValueError(f"{q} is not a prime power")
    p, f = pq
    F2 = field(p, 2 * f)
    gram = hermitian_gram(F2, n)
    q2 = q * q
    gens: list[FqMatrix] = []
    # monomial unitary matrices: flip-compatible permutation pi with
    # diagonal d_j, d_j * d_(n-1-j)^q = 1 and middle entry of norm 1
    import itertools

    conj = F2.subfield_power_map(f)
    half = [j for j in range(n) if j < n - 1 - j]
    norm_one = [x for x in range(1, q2) if F2.mul[x * F2.q + conj[x]] == 1]
    for pi in itertools.permutations(range(n)):
        if any(pi[j] + pi[n - 1 - j] != n - 1 for j in range(n)):
            continue
        free_choices = [range(1, q2)] * len(half) + ([norm_one] if n % 2 else [])
        for choice in itertools.product(*free_choices):
            d = [0] * n
            for j, v in zip(half, choice):
                d[j] = v
                d[n - 1 - j] = F2.inv[conj[v]]
            if n % 2:
                d[n // 2] = choice[-1]
            rows = [[0] * n for _ in range(n)]
            for j in range(n):
                rows[pi[j]][j] = d[j]
            g = FqMatrix.from_rows(F2, rows)
            assert is_unitary(g, f, gram)
            gens.append(g)
    # unipotent upper/lower triangular unitary matrices
    tri_patterns = [(i, j) for i in range(n) for j in range(n) if i < j]
    for flip in (False, True):
        for values in itertools.product(range(q2), repeat=len(tri_patterns)):
            rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            for (i, j), v in zip(tri_patterns, values):
                if flip:
                    rows[j][i] = v
                else:
                    rows[i][j] = v
            g = FqMatrix.from_rows(F2, rows)
            if g.data != FqMatrix.identity(F2, n).data and is_unitary(g, f, gram):
                gens.append(g)
    G = closure(gens)
    assert G.order == _gu_order(n, q), f"GU_{n}({q}) closure has wrong order {G.order}"
    return G


@lru_cache(maxsize=None)
def symplectic_group(n: int, q: int) -> MatGroup:
    """Sp_2n(q) for the standard form (generated by symplectic transvections)."""
    pq = is_prime_power(q)
    if pq is None:
        raise ValueError(f"{q} is not a prime power")
    F = field(*pq)
    gram = symplectic_gram(F, n)
    dim = 2 * n
    vecs = []
    for i in range(dim):
        v = [0] * dim
        v[i] = 1
        vecs.append(tuple(v))
    for i in range(dim):
        for j in range(i + 1, dim):
            v = [0] * dim
            v[i] = 1
            v[j] = 1
            vecs.append(tuple(v))
    gens = []
    for v in vecs:
        for lam in range(1, F.q):
            g = _symplectic_transvection(F, gram, v, lam)
            if is_symplectic(g, gram):
                gens.append(g)
    G = closure(gens)
    assert G.order == _sp_order(n, q), f"Sp_{2*n}({q}) closure has wrong order {G.order}"
    return G


def _symplectic_transvection(F: FieldSpec, gram: FqMatrix, v, lam: int) -> FqMatrix:
    """x -> x + lam * <x, v> v."""
    dim = len(v)
    w = gram.transpose().apply(v)  # w^T x = <x, v>
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            rows[i][j] = F.add[(1 if i == j else 0) * F.q + F.mul[F.mul[lam * F.q + v[i]] * F.q + w[j]]]
    return FqMatrix.from_rows(F, rows)


# ---------------------------------------------------------------------------
# character values
# ---------------------------------------------------------------------------


class WeilCharSpec:
    """A Weil character label: family, n, q, and the twist index i."""

    __slots__ = ("family", "n", "q", "i")

    def __init__(self, family: str, n: int, q: int, i: int):
        if family not in (LINEAR, UNITARY):
            raise ValueError("family must be Linear or Unitary")
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
            if q == 2:
                return 2**n - 2
            return (q**n - q) // (q - 1) if i == 0 else (q**n - 1) // (q - 1)
        s = (-1) ** n
        return (q**n + q * s) // (q + 1) if i == 0 else (q**n - s) // (q + 1)

    def __repr__(self):
        return f"WeilCharSpec({self.family}, n={self.n}, q={self.q}, i={self.i})"


def _gl_scalars(F: FieldSpec) -> list[int]:
    """delta^k for k = 0..q-2, delta the fixed generator."""
    out, x = [], 1
    for _ in range(F.q - 1):
        out.append(x)
        x = F.mul[x * F.q + F.gen]
    return out


def _gu_scalars(F2: FieldSpec, q: int) -> list[int]:
    """xi^k for k = 0..q, xi of order q+1 in the quadratic extension."""
    xi = F2.pow(F2.gen, q - 1)
    out, x = [], 1
    for _ in range(q + 1):
        out.append(x)
        x = F2.mul[x * F2.q + xi]
    return out


def gl_kernel_profile(g: FqMatrix, q: int) -> tuple[int, ...]:
    F = g.F
    return tuple(kernel_dim(g, s) for s in _gl_scalars(F))


def gu_kernel_profile(g: FqMatrix, q: int) -> tuple[int, ...]:
    F2 = g.F
    return tuple(kernel_dim(g, s) for s in _gu_scalars(F2, q))


def tau_value(n: int, q: int, i: int, g: FqMatrix, profile: tuple[int, ...] | None = None) -> Cyc:
    """Irreducible Weil character value on GL_n(q).

    For q >= 3:  (1/(q-1)) * sum_k zeta_(q-1)^(ik) q^dim ker(g - delta^k) - 2*[i=0],
    the twist-graded pieces of the point-count character with both trivial
    summands removed from the i = 0 piece.  For q = 2 the single character
    is (#fixed vectors) - 2.
    """
    spec = WeilCharSpec(LINEAR, n, q, i)
    if profile is None:
        profile = gl_kernel_profile(g, q)
    if q == 2:
        return Cyc.from_int(2 ** profile[0] - 2)
    acc = Cyc.from_int(0)
    for k, d in enumerate(profile):
        acc = acc + Cyc.root(unity(i * k, q - 1)) * (q**d)
    acc = acc * Fraction(1, q - 1)
    if i == 0:
        acc = acc - Cyc.from_int(2)
    return acc


def zeta_value(n: int, q: int, i: int, g: FqMatrix, profile: tuple[int, ...] | None = None) -> Cyc:
    """Irreducible Weil character value on GU_n(q):

    ((-1)^n/(q+1)) * sum_k zeta_(q+1)^(ik) (-q)^dim ker(g - xi^k).
    """
    spec = WeilCharSpec(UNITARY, n, q, i)
    if profile is None:
        profile = gu_kernel_profile(g, q)
    acc = Cyc.from_int(0)
    for k, d in enumerate(profile):
        acc = acc + Cyc.root(unity(i * k, q + 1)) * ((-q) ** d)
    return acc * Fraction((-1) ** n, q + 1)


def weil_value(spec: WeilCharSpec, g: FqMatrix, profile=None) -> Cyc:
    if spec.family == LINEAR:
        return tau_value(spec.n, spec.q, spec.i, g, profile)
    return zeta_value(spec.n, spec.q, spec.i, g, profile)


# ---------------------------------------------------------------------------
# spectra from character values
# ---------------------------------------------------------------------------


def weil_spectrum(spec: WeilCharSpec, g: FqMatrix) -> Spectrum:
    """Exact spectrum of g on the Weil module by Fourier inversion over <g>."""
    order = g.order()
    profile_fn = gl_kernel_profile if spec.family == LINEAR else gu_kernel_profile
    traces = []
    x = FqMatrix.identity(g.F, g.n)
    for _ in range(order):
        traces.append(weil_value(spec, x, profile_fn(x, spec.q)))
        x = x * g
    s = Spectrum.from_power_traces(order, traces)
    if s.dimension != spec.degree:
        raise ValueError("weil_spectrum multiplicities do not sum to the degree")
    return s


def group_scalars(group: MatGroup) -> set[FqMatrix]:
    g0 = group.identity
    out = set()
    for s in range(1, g0.F.q):
        m = FqMatrix.scalar(g0.F, g0.n, s)
        if m in group.index:
            out.add(m)
    return out


# ---------------------------------------------------------------------------
# torus constructors
# ---------------------------------------------------------------------------


def _monic_polys(F: FieldSpec, deg: int):
    import itertools

    for coeffs in itertools.product(range(F.q), repeat=deg):
        yield list(coeffs) + [1]


def gl_singer(n: int, q: int) -> FqMatrix:
    """Companion matrix of order q^n - 1 acting irreducibly (Singer cycle)."""
    F = field(*is_prime_power(q))
    target = q**n - 1
    for poly in _monic_polys(F, n):
        if poly[0] == 0:
            continue
        if poly_is_irreducible_fq(F, poly):
            C = companion_matrix(F, poly)
            if C.has_order(target):
                return C
    raise RuntimeError("no Singer companion found (unreachable)")


def _invariant_forms(g: FqMatrix, conj_table=None, shape: str | None = None) -> list[FqMatrix]:
    """Basis of the space of Gram matrices G with g^T G sigma(g) = G.

    sigma is entrywise conj_table when given (Hermitian case) else identity
    (bilinear case).  shape 'hermitian' adds G^T = conj(G), 'antisymmetric'
    adds G^T = -G with zero diagonal.  Solved F_p-linearly in the entries.
    """
    F, n = g.F, g.n
    p, f = F.p, F.f
    sg = g.map_entries(conj_table) if conj_table is not None else g
    # entries of G: n*n field elements = n*n*f F_p coordinates
    def field_to_coords(x):
        out = []
        for _ in range(f):
            out.append(x % p)
            x //= p
        return out

    def coords_to_field(cs):
        x = 0
        for c in reversed(cs):
            x = x * p + c % p
        return x

    dimc = n * n * f
    cols = []
    # image of each basis Gram matrix under all constraints, stacked
    for basis_idx in range(dimc):
        entry_idx, coord = divmod(basis_idx, f)
        val = p**coord
        data = [0] * (n * n)
        data[entry_idx] = val
        G = FqMatrix(F, n, data)
        R = g.transpose() * G * sg
        img = []
        for e_idx in range(n * n):
            img.extend(field_to_coords(F.sub(R.data[e_idx], G.data[e_idx])))
        if shape == "hermitian":
            H = G.transpose()
            Gc = G.map_entries(conj_table)
            for e_idx in range(n * n):
                img.extend(field_to_coords(F.sub(H.data[e_idx], Gc.data[e_idx])))
        elif shape == "antisymmetric":
            H = G.transpose()
            for e_idx in range(n * n):
                img.extend(field_to_coords(F.add[H.data[e_idx] * F.q + G.data[e_idx]]))
            for i in range(n):
                img.extend(field_to_coords(G.data[i * n + i]))
        cols.append(img)
    nrows = len(cols[0])
    mat = [[cols[j][i] for j in range(dimc)] for i in range(nrows)]
    out = []
    for v in nullspace(field(p), mat, dimc):
        data = []
        for e_idx in range(n * n):
            data.append(coords_to_field(v[e_idx * f : (e_idx + 1) * f]))
        out.append(FqMatrix(F, n, data))
    return out


def _hermitian_standardize(G: FqMatrix, f: int) -> FqMatrix:
    """S with S^T G conj(S) = anti-diagonal (all ones), by basis construction."""
    F2 = G.F
    n = G.n
    conj = F2.subfield_power_map(f)
    q = F2.p**f

    def B(u, v):
        Gv = G.apply(tuple(conj[x] for x in v))
        acc = 0
        for a, b in zip(u, Gv):
            acc = F2.add[acc * F2.q + F2.mul[a * F2.q + b]]
        return acc

    def solve_complement(basis_vecs, constraints):
        # the nonzero vectors x with B(c, x) = 0 for all c in constraints,
        # inside the space spanned by basis_vecs, sorted
        span = [(0,) * n]
        for bv in basis_vecs:
            multiples = [tuple(F2.mul[co * F2.q + y] for y in bv) for co in range(1, F2.q)]
            span += [tuple(F2.add[a * F2.q + b] for a, b in zip(x, m)) for x in span for m in multiples]
        return sorted(x for x in set(span) if any(x) and all(B(c, x) == 0 for c in constraints))

    # work with explicit vector lists (desk scale)
    ambient = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    pairs = []  # hyperbolic pairs (v, w) with B(v,v)=B(w,w)=0, B(v,w)=1
    middle = None
    current = ambient
    remaining = n
    while remaining > 0:
        vectors = solve_complement(current, [u for p_ in pairs for u in p_] + ([middle] if middle else []))
        if remaining == 1:
            v = next(x for x in vectors if B(x, x) != 0)
            c = B(v, v)  # lies in F_q
            alpha = next(a for a in range(1, F2.q) if F2.mul[a * F2.q + conj[a]] == F2.inv[c])
            middle = tuple(F2.mul[alpha * F2.q + x] for x in v)
            remaining -= 1
            continue
        iso = next((x for x in vectors if B(x, x) == 0), None)
        if iso is None:
            raise RuntimeError("no isotropic vector found")
        w0 = next(x for x in vectors if B(iso, x) != 0)
        c = B(iso, w0)
        w0 = tuple(F2.mul[F2.inv[c] * F2.q + x] for x in w0)  # B(iso, w0) = 1
        d = B(w0, w0)
        if d != 0:
            t = next(t0 for t0 in range(F2.q) if F2.add[t0 * F2.q + conj[t0]] == d)
            # w = w0 - conj(t) * iso makes B(w, w) = 0 while keeping B(iso, w) = 1
            w = tuple(F2.sub(a, F2.mul[conj[t] * F2.q + b]) for a, b in zip(w0, iso))
        else:
            w = w0
        assert B(iso, w) == 1 and B(w, w) == 0 and B(iso, iso) == 0
        pairs.append((iso, w))
        remaining -= 2
    # assemble columns: v_1 .. v_k, middle?, w_k .. w_1 -> anti-diagonal ones
    cols = [v for v, _ in pairs]
    if middle is not None:
        cols.append(middle)
    cols.extend(w for _, w in reversed(pairs))
    S = FqMatrix(F2, n, tuple(cols[j][i_] for i_ in range(n) for j in range(n)))
    return S


def _symplectic_standardize(G: FqMatrix) -> FqMatrix:
    """S with S^T G S the standard symplectic Gram matrix."""
    F = G.F
    n = G.n

    def B(u, v):
        Gv = G.apply(v)
        acc = 0
        for a, b in zip(u, Gv):
            acc = F.add[acc * F.q + F.mul[a * F.q + b]]
        return acc

    import itertools

    all_vecs = [v for v in itertools.product(range(F.q), repeat=n) if any(v)]
    pairs = []
    used = []

    def orthogonal(x):
        return all(B(u, x) == 0 and B(x, u) == 0 for u in used)

    while 2 * len(pairs) < n:
        e = next(v for v in all_vecs if orthogonal(v))
        fv = next(v for v in all_vecs if orthogonal(v) and B(e, v) != 0)
        c = B(e, fv)
        fv = tuple(F.mul[F.inv[c] * F.q + x] for x in fv)
        pairs.append((e, fv))
        used.extend([e, fv])
    cols = [e for e, _ in pairs] + [fv for _, fv in pairs]
    return FqMatrix(F, n, tuple(cols[j][i_] for i_ in range(n) for j in range(n)))


def _gu_split_torus(n: int, q: int) -> FqMatrix:
    """The order q^n - 1 torus of GU_n(q), n even: diag(A, conj(J A^-T J))
    with A a Singer block on a maximal totally isotropic half."""
    p, f = is_prime_power(q)
    F2 = field(p, 2 * f)
    k = n // 2
    A = gl_singer(k, q * q) if k > 1 else FqMatrix(F2, 1, (F2.gen,))
    conj = F2.subfield_power_map(f)
    Jk = FqMatrix.from_rows(F2, [[1 if i + j == k - 1 else 0 for j in range(k)] for i in range(k)])
    B = (Jk * A.inverse().transpose() * Jk).map_entries(conj)
    rows = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            rows[i][j] = A.data[i * k + j]
            rows[k + i][k + j] = B.data[i * k + j]
    g = FqMatrix.from_rows(F2, rows)
    assert is_unitary(g, f) and g.has_order(q**n - 1)
    return g


def gu_torus_element(n: int, q: int, order: int) -> FqMatrix:
    """An element of GU_n(q) (anti-diagonal form) of the given order, built
    from an irreducible companion block and an exact change of basis."""
    p, f = is_prime_power(q)
    F2 = field(p, 2 * f)
    if n % 2 == 0 and order == q**n - 1:
        return _gu_split_torus(n, q)
    for poly in _monic_polys(F2, n):
        if poly[0] == 0:
            continue
        if not poly_is_irreducible_fq(F2, poly):
            continue
        C = companion_matrix(F2, poly)
        if not C.has_order(order):
            continue
        conj = F2.subfield_power_map(f)
        forms = _invariant_forms(C, conj, shape="hermitian")
        for Gf in forms:
            if Gf.rank() != n:
                continue
            S = _hermitian_standardize(Gf, f)
            h = S.inverse() * C * S
            if is_unitary(h, f) and h.has_order(order):
                return h
    raise ExcludedCase(f"no GU_{n}({q}) torus element of order {order} found")


def gu_block_torus(q: int, blocks: list[tuple[int, int]]) -> FqMatrix:
    """Block-diagonal unitary torus element; blocks = [(n_i, order_i)]."""
    p, f = is_prime_power(q)
    F2 = field(p, 2 * f)
    n = sum(b for b, _ in blocks)
    mats = [gu_torus_element(b, q, o) if b > 1 else _gu1_element(q, o) for b, o in blocks]
    # assemble wrt the orthogonal sum of anti-diagonal forms, then standardize
    data = [[0] * n for _ in range(n)]
    G = [[0] * n for _ in range(n)]
    off = 0
    for (b, _), m in zip(blocks, mats):
        for i in range(b):
            for j in range(b):
                data[off + i][off + j] = m.data[i * b + j]
            G[off + i][off + b - 1 - i] = 1
        off += b
    big = FqMatrix.from_rows(F2, data)
    Gm = FqMatrix.from_rows(F2, G)
    S = _hermitian_standardize(Gm, f)
    h = S.inverse() * big * S
    assert is_unitary(h, f)
    return h


def _gu1_element(q: int, order: int) -> FqMatrix:
    p, f = is_prime_power(q)
    F2 = field(p, 2 * f)
    if (q + 1) % order != 0:
        raise ExcludedCase(f"GU_1({q}) has no element of order {order}")
    x = F2.pow(F2.gen, (q * q - 1) // order)
    return FqMatrix(F2, 1, (x,))


def sp_torus_element(n: int, q: int, eps: int) -> FqMatrix:
    """Generator of the cyclic torus of order q^n - eps in Sp_2n(q), eps=+-1."""
    p, f = is_prime_power(q)
    F = field(p, f)
    if eps == 1:
        A = gl_singer(n, q)
        Ait = A.inverse().transpose()
        dim = 2 * n
        rows = [[0] * dim for _ in range(dim)]
        for i in range(n):
            for j in range(n):
                rows[i][j] = A.data[i * n + j]
                rows[n + i][n + j] = Ait.data[i * n + j]
        g = FqMatrix.from_rows(F, rows)
        assert is_symplectic(g) and g.has_order(q**n - 1)
        return g
    target = q**n + 1
    for poly in _monic_polys(F, 2 * n):
        if poly[0] == 0:
            continue
        if not poly_is_irreducible_fq(F, poly):
            continue
        C = companion_matrix(F, poly)
        if not C.has_order(target):
            continue
        for Gf in _invariant_forms(C, shape="antisymmetric"):
            if Gf.rank() != 2 * n:
                continue
            S = _symplectic_standardize(Gf)
            h = S.inverse() * C * S
            if is_symplectic(h) and h.has_order(target):
                return h
    raise ExcludedCase(f"no Sp_{2*n}({q}) torus element of order {target} found")


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
    if family == LINEAR:
        if q == 2:
            return [2**n - 2]
        return sorted({(q**n - q) // (q - 1), (q**n - 1) // (q - 1)})
    s = (-1) ** n
    return sorted({(q**n + q * s) // (q + 1), (q**n - s) // (q + 1)})


def ss_enumerate(family: str, n: int, q: int) -> list[SsClass]:
    """Torus types whose generators may have simple spectrum on a Weil module."""
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
        s = (-1) ** n
        small = (q**n + q * s) // (q + 1)
        big = (q**n - s) // (q + 1)
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
    """Cycle types of S_n with simple spectrum on the deleted permutation module."""
    from .gates import partitions

    return [ct for ct in partitions(n) if deleted_perm_spectrum(ct).is_simple()]


# ---------------------------------------------------------------------------
# exhaustive oracles
# ---------------------------------------------------------------------------

ELEMENT_SCAN_CAP = 500_000


class OracleReport:
    def __init__(self, family, n, q, mode, agree, details, counterexamples):
        self.family = family
        self.n = n
        self.q = q
        self.mode = mode
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


def _weil_values_all(family: str, n: int, q: int, profile: tuple[int, ...]) -> list[Cyc]:
    """Every Weil character's value at an element of the given kernel profile."""
    if family == LINEAR:
        idxs = range(1) if q == 2 else range(q - 1)
        return [tau_value(n, q, i, None, profile) for i in idxs]
    return [zeta_value(n, q, i, None, profile) for i in range(q + 1)]


def the_group(family: str, n: int, q: int) -> MatGroup:
    return general_linear_group(n, q) if family == LINEAR else unitary_group(n, q)


def ss_exhaustive_check(family: str, n: int, q: int, cap: int = ELEMENT_SCAN_CAP) -> OracleReport:
    """Enumerate the group; find every simple-spectrum element on each Weil
    module; compare the realized torus data against the classified list.

    Above the element-scan cap a fixed-seed sample of elements is used and
    the report is labeled "sampled" (one-directional comparison only).

    Weil values depend only on the kernel profile, so |chi_i|^2 is evaluated
    once per distinct profile.  Order, central order and the Parseval sums
    sum_{y in <g>} |chi_i(y)|^2 depend only on <g>, so they are decided once
    per cyclic subgroup and shared by its phi(|g|) generators.
    """
    import random

    group = the_group(family, n, q)
    mode = "elements"
    scan = group.elements
    if group.order > cap:
        mode = "sampled"
        rng = random.Random(20260809)
        scan = [group.elements[rng.randrange(group.order)] for _ in range(min(cap // 10, 20000))]
    scalars = group_scalars(group)
    profile_of = gl_kernel_profile if family == LINEAR else gu_kernel_profile
    one = group.identity
    profiles: dict[FqMatrix, tuple[int, ...]] = {one: profile_of(one, q)}
    identity_values = _weil_values_all(family, n, q, profiles[one])
    n_modules = len(identity_values)
    degrees = [int(v.rational()) for v in identity_values]
    abs2_rows: dict[tuple[int, ...], list[Cyc]] = {profiles[one]: [v.abs2() for v in identity_values]}
    verdicts: dict[FqMatrix, tuple[int, int, list[bool]]] = {}  # element -> (order, cent, simple per module)

    def decide(g: FqMatrix) -> tuple[int, int, list[bool]]:
        chain = [one]
        x = g
        while x != one:
            chain.append(x)
            x = x * g
        order = len(chain)
        cent = next(k for k in range(1, order + 1) if chain[k % order] in scalars)
        counts: dict[tuple[int, ...], int] = {}
        for y in chain:
            prof = profiles.get(y)
            if prof is None:
                prof = profiles[y] = profile_of(y, q)
            counts[prof] = counts.get(prof, 0) + 1
        sums = [Cyc.from_int(0)] * n_modules
        for prof, cnt in counts.items():
            row = abs2_rows.get(prof)
            if row is None:
                row = abs2_rows[prof] = [v.abs2() for v in _weil_values_all(family, n, q, prof)]
            for i in range(n_modules):
                sums[i] = sums[i] + row[i] * cnt
        simple = []
        for i in range(n_modules):
            total = sums[i].rational()
            if total.denominator != 1:
                raise RuntimeError("non-integral Parseval sum")
            simple.append(int(total) == order * degrees[i])
        verdict = (order, cent, simple)
        for j in range(order):
            if gcd(j, order) == 1:
                verdicts[chain[j]] = verdict
        return verdict

    p = one.F.p
    ss_central: dict[int, dict[int, int]] = {i: {} for i in range(n_modules)}  # p'-elements
    ss_central_p: dict[int, dict[int, int]] = {i: {} for i in range(n_modules)}  # the rest
    pprime_counts: dict[int, int] = {}  # central order -> number of p'-elements
    for g in scan:
        order, cent, simple = verdicts.get(g) or decide(g)
        if order % p != 0:
            pprime_counts[cent] = pprime_counts.get(cent, 0) + 1
        target = ss_central if order % p != 0 else ss_central_p
        for i in range(n_modules):
            if simple[i]:
                target[i][cent] = target[i].get(cent, 0) + 1

    # merge modules of equal degree
    def merge(per_module):
        by_dim: dict[int, dict[int, int]] = {}
        for i, d in enumerate(degrees):
            tgt = by_dim.setdefault(d, {})
            for cent, cnt in per_module[i].items():
                tgt[cent] = tgt.get(cent, 0) + cnt
        return by_dim

    by_dim = merge(ss_central)
    by_dim_p = merge(ss_central_p)
    details = {
        "order": group.order,
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
        return OracleReport(family, n, q, mode, None, {**details, "excluded": str(exc)}, [])

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
    # (one-directional in sampled mode: a sample may simply miss a type)
    if mode == "elements":
        for cls in expected:
            hit = any(cls.central_order in by_dim.get(d, {}) for d in cls.dims)
            if not hit:
                agree = False
                counterexamples.append({"type": cls.label, "missing": True})
    return OracleReport(family, n, q, mode, agree, details, counterexamples)
