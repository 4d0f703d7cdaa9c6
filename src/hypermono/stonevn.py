"""Stone-von Neumann models and intertwiners for outer symplectic actions.

For odd p the q^n-dimensional Schroedinger model of the Heisenberg group
(symmetrized cocycle, so every form-preserving map induces an automorphism
fixing the center); for p = 2 the tensor model of the extraspecial groups
2^(1+2n) of either type.  Both models are tables of unitary monomials, one
per coset of the center.  Intertwiners for outer actions are produced by
exact group averaging against a matrix unit and certified by re-checking
the intertwining relation on generators; uniqueness is Schur's lemma on top
of an exact irreducibility certificate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt, prod

from .algebra.cyc import Cyc
from .algebra.fq import FqMatrix, field
from .algebra.numth import _cap, is_prime
from .algebra.unity import unity
from .repkit import CYC_ORDER_CAP, CapExceeded, CycMatrix, MonomialMatrix, Spectrum, monomial_traces
from .weilgl import ExcludedCase, _prime_power, _symplectic_transvection, is_symplectic, sp_torus_element, symplectic_gram


class ModelError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# the shared model shape: a table of unitary monomials
# ---------------------------------------------------------------------------


class _MonomialModel:
    """A model whose matrices rho(label), one per coset of the center, are
    monomial: a MonomialMatrix over zeta_m, with rho delta_x =
    zeta_m^exps[x] delta_perm[x].

    A subclass calls _set_dim right after its argument checks, sets p, n, F,
    m and _irreducible = None, and provides monomials() (label -> MonomialMatrix),
    generators() (labels generating the group modulo its center),
    parity_matrix() and gauss_candidates().
    The commutator form of both models on F^(2n) is the standard
    alternating form of weilgl.symplectic_gram, up to sign and mod 2
    (Gerardin, J. Algebra 46, 1977).
    """

    def _set_dim(self, p: int, e: int) -> None:
        """dim = p^e; CapExceeded when dim^3, a table of dim^2 monomials of dim columns, passes the cap."""
        cap = _cap(None)
        if 3 * e > cap.bit_length() or p ** (3 * e) > cap:  # the first test spares forming a huge p^(3e)
            raise CapExceeded(f"a model of dimension {p}^{e}: its table of dimension^3 entries passes the cap {cap}")
        self.dim = p**e

    def preserves_structure(self, g: FqMatrix) -> bool:
        """Whether g is a 2n x 2n matrix over the model's field that keeps
        the symplectic form (weilgl.is_symplectic)."""
        return g.F.q == self.F.q and g.n == 2 * self.n and is_symplectic(g)

    def irreducible_certificate(self) -> bool:
        """Exact character-norm test: sum over E of |chi|^2 equals |E|, read
        on one element per coset of the center (|chi| is constant on a coset)
        as a sum of dim^2.  Computed on first use and kept."""
        if self._irreducible is None:
            self._irreducible = self._character_norm_sum() == self.dim * self.dim
        return self._irreducible

    def _character_norm_sum(self) -> Fraction:
        """sum over the coset labels of |tr rho(label)|^2, read once per
        distinct trace key and weighted by the number of labels that have it."""
        total = Fraction(0)
        for t, count in monomial_traces(self.monomials().values()):
            a2 = t.abs2()
            if not a2.is_rational():
                raise ModelError("irrational |chi|^2 (bug)")
            total += a2.rational() * count
        return total


# ---------------------------------------------------------------------------
# odd p: Schroedinger model over F_q
# ---------------------------------------------------------------------------


class HeisenbergModel(_MonomialModel):
    """Delta-function model of the exponent-p Heisenberg group over F_q.

    Elements (a, b, z) with (a,b,z)(a',b',z') = (a+a', b+b', z+z'+(ba'-b'a)/2)
    act by rho(a,b,z) delta_x = psi(z + b.x + b.a/2) delta_(x+a); every matrix
    preserving the form (u,v) -> b_u.a_v - b_v.a_u induces an automorphism
    fixing the center.  The coset labels are the pairs (a, b), and phases are
    exponents of zeta_p.
    """

    def __init__(self, p: int, n: int, f: int = 1):
        if not is_prime(p) or p == 2:
            raise ModelError("odd p required (use extraspecial2 for p = 2)")
        if n < 1:
            raise ValueError("n must be >= 1")
        self._set_dim(p, n * f)
        self.p, self.n, self.f = p, n, f
        self.m = p
        self.F = field(p, f)
        self.q = q = self.F.q
        self.points = list(itertools.product(range(q), repeat=n))
        self.point_index = {x: i for i, x in enumerate(self.points)}
        self.half = self.F.inv[2 % p]  # 1/2 in F_p < F_q
        self._monomials = None
        self._irreducible = None

    # -- field helpers -------------------------------------------------
    def _dot(self, u, v) -> int:
        F = self.F
        acc = 0
        for a, b in zip(u, v):
            acc = F.add[acc * F.q + F.mul[a * F.q + b]]
        return acc

    def _psi_exp(self, t: int) -> int:
        """Exponent of zeta_p: the absolute trace of t."""
        return self.F.trace_to_prime(t)

    def _add_pt(self, x, a):
        F = self.F
        return tuple(F.add[u * F.q + v] for u, v in zip(x, a))

    # -- the representation as monomial data ---------------------------
    def rho_monomial(self, a, b) -> MonomialMatrix:
        """rho(a, b, 0), with rho delta_x = zeta_p^exps[x] delta_perm[x], point by
        point: the reference test_table_matches_rho_monomial holds monomials() to."""
        F = self.F
        shift = F.mul[self.half * F.q + self._dot(b, a)]
        perm = []
        phase = []
        for x in self.points:
            perm.append(self.point_index[self._add_pt(x, a)])
            phase.append(self._psi_exp(F.add[shift * F.q + self._dot(b, x)]))
        return MonomialMatrix(perm, phase, self.p)

    def monomials(self) -> dict:
        """rho(a, b) for each of the q^(2n) labels (a, b), equal to
        rho_monomial(a, b), built on first use and kept: the averaging and the
        certificates read it."""
        if self._monomials is None:
            self._monomials = self._monomial_table()
        return self._monomials

    def _monomial_table(self) -> dict:
        """All rho(a, b) from two q^n x q^n tables, shift[a][x] = index(x + a)
        and phase[b][x] = Tr(b.x).  The trace is additive and 1/2 lies in F_p,
        so rho(a, b) has perm shift[a] and exps half * phase[b][a] + phase[b][x]."""
        F, p, points, half = self.F, self.p, self.points, self.half
        tr = [F.trace_to_prime(t) for t in range(F.q)]
        shift = [tuple(self.point_index[self._add_pt(x, a)] for x in points) for a in points]
        phase = [[tr[self._dot(b, x)] for x in points] for b in points]
        table = {}
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                row = phase[j]
                c = half * row[i]
                table[(a, b)] = MonomialMatrix._make(shift[i], tuple([(c + t) % p for t in row]), p)
        return table

    def rho_matrix(self, a, b) -> CycMatrix:
        return self.rho_monomial(a, b).to_cyc()

    def generators(self):
        """(a, b) labels of a generating set of E modulo the center: the
        F_p-basis p^j e_i (x^j in slot i, j < f) of each half of F_q^(2n)."""
        out = []
        zero = (0,) * self.n
        for i in range(self.n):
            for j in range(self.f):
                e = tuple(self.p**j if k == i else 0 for k in range(self.n))
                out.append((e, zero))
                out.append((zero, e))
        return out

    def parity_matrix(self) -> MonomialMatrix:
        """delta_x -> delta_(-x): the intertwiner of the central inversion."""
        F = self.F
        perm = [self.point_index[tuple(F.neg[c] for c in x)] for x in self.points]
        return MonomialMatrix(perm, [0] * self.dim, 1)

    def gauss_candidates(self):
        """delta with known abs2 for unitary normalization: p-powers and the
        quadratic Gauss sum (abs2 = p)."""
        p = self.p
        squares = [0] * p
        for t in range(p):
            squares[t * t % p] += 1
        return [(Cyc.from_int(1), 1), (Cyc.from_root_sum(p, squares), p)]


def outer_intertwiner_odd(model: HeisenbergModel, g: FqMatrix) -> "ProjectiveMatrix":
    """Intertwiner M with M rho(h) = rho(sigma_g h) M, by exact averaging.

    The symmetrized cocycle makes sigma(rho(a, b)) = rho(g(a, b)).  g is
    linear, so g(a, b) = g(a, 0) + g(0, b): each half's images come from g's
    columns, one sum of point indices per label, read off the shifts that the
    monomials carry."""
    if not model.preserves_structure(g):
        raise ModelError(f"not a {2 * model.n} x {2 * model.n} matrix over {model.F} preserving the symplectic form")
    n, q, mul, index = model.n, model.q, model.F.mul, model.point_index
    table = model.monomials()
    monos = list(table.values())  # the label (points[i], points[j]) at i * Q + j
    Q = len(model.points)
    add = [monos[i * Q].perm for i in range(Q)]  # add[i][j] indexes points[i] + points[j]
    cols = [g.data[j :: 2 * n] for j in range(2 * n)]  # g e_j, the columns of g

    def half(cols):
        """(index of the a half, index of the b half) of g v for the points v,
        with v's coordinates taken against cols."""
        out = [(0, 0)]
        for col in cols:  # the last coordinate varies fastest, as in points
            steps = [tuple([mul[c * q + x] for x in col]) for c in range(q)]
            steps = [(index[v[:n]], index[v[n:]]) for v in steps]
            out = [(add[a][c], add[b][d]) for a, b in out for c, d in steps]
        return out

    images = [
        monos[add[a][c] * Q + add[b][d]] for a, b in half(cols[:n]) for c, d in half(cols[n:])
    ]
    return _average(model, dict(zip(table, images)).__getitem__)


# ---------------------------------------------------------------------------
# p = 2: extraspecial tensor models
# ---------------------------------------------------------------------------


class Extraspecial2Model(_MonomialModel):
    """2^(1+2n)_eps acting on (C^2)^(tensor n) via signed Pauli matrices.

    The label v = (a, b) in F_2^n x F_2^n (slot k the bit 2^(n-1-k) of a
    point, slot 0 the leftmost tensor factor) stands for the section
    s(v) = i^t X^a Z^b: s(v) delta_x = i^(2 b.x + t) delta_(x + a), with
    t = a_(n-1) + b_(n-1) on the minus type and 0 on the plus type.  s(v) is
    the product of the s(e_k) with v[k] = 1 in ascending k, and s(v)^2 =
    (-1)^Q(v) with Q(v) = a.b + t mod 2.
    """

    def __init__(self, n: int, eps: str):
        if eps not in ("+", "-"):
            raise ModelError("eps must be '+' or '-'")
        if n < 1:
            raise ValueError("n must be >= 1")
        self._set_dim(2, n)
        self.n = n
        self.eps = eps
        self.p = 2
        self.F = field(2)
        self.m = 4
        self._irreducible = None
        points = range(self.dim)
        shift = [tuple([x ^ a for x in points]) for a in points]
        phase = [[tuple([(2 * (b & x).bit_count() + t) % 4 for x in points]) for t in range(3)] for b in points]
        self._monomials, self.Q = {}, {}
        for v, (a, b) in zip(itertools.product(range(2), repeat=2 * n), itertools.product(points, repeat=2)):
            t = (eps == "-") * ((a & 1) + (b & 1))
            self._monomials[v] = MonomialMatrix._make(shift[a], phase[b][t], 4)
            self.Q[v] = ((a & b).bit_count() + t) % 2

    def monomials(self) -> dict:
        """The section s(v) for each label v in F_2^(2n)."""
        return self._monomials

    def generators(self):
        """Labels of the generators: the unit vectors of F_2^(2n)."""
        n2 = 2 * self.n
        return [tuple(1 if j == k else 0 for j in range(n2)) for k in range(n2)]

    def parity_matrix(self) -> None:
        """-1 is the identity on F_2^(2n): there are no parity halves."""
        return None

    def gauss_candidates(self):
        """delta with known abs2 for unitary normalization: 1 and 1 + i (abs2 = 2)."""
        return [(Cyc.from_int(1), 1), (Cyc.from_root_sum(4, [1, 1]), 2)]

    def preserves_structure(self, g: FqMatrix) -> bool:
        """The form check of every model, and Q kept on the basis, hence on
        every vector: Q(u + w) = Q(u) + Q(w) + B(u, w), and g keeps B."""
        return super().preserves_structure(g) and all(self.Q[tuple(g.apply(e))] == self.Q[e] for e in self.generators())


def outer_intertwiner_2(model: Extraspecial2Model, g: FqMatrix) -> "ProjectiveMatrix":
    """Intertwiner for an automorphism over an orthogonal outer element g:
    sigma(s(e_k)) = s(g e_k), and as g keeps both forms (checked above),
    sigma(s(v)) = sigma(s(v')) s(g e_k) for v' = v with its last set bit k
    cleared, which is label i & (i - 1) for label i in the table's order."""
    if not model.preserves_structure(g):
        raise ModelError(f"not a {2 * model.n} x {2 * model.n} matrix over {model.F} preserving the quadratic structure")
    table = model.monomials()
    gen_imgs = [table[tuple(g.apply(lab))] for lab in model.generators()]
    top = len(gen_imgs)
    images = [MonomialMatrix.identity(model.dim, model.m)]
    for i in range(1, len(table)):
        images.append(images[i & (i - 1)] * gen_imgs[top - (i & -i).bit_length()])
    return _average(model, dict(zip(table, images)).__getitem__)


# ---------------------------------------------------------------------------
# averaging
# ---------------------------------------------------------------------------


def _average(model, image) -> "ProjectiveMatrix":
    """sum over the coset labels h of rho(sigma h) E_(0,c0) rho(h)^-1, for the
    first c0 that gives a nonzero matrix, where image(h) is the monomial of
    rho(sigma h).  By Schur's lemma the sum is a multiple of the intertwiner."""
    N, m = model.dim, model.m
    table = model.monomials()
    pairs = [(mono, image(label)) for label, mono in table.items()]
    for c0 in range(N):
        accs = [[0] * m for _ in range(N * N)]
        r0 = 0
        for h, sh in pairs:
            # rho(sigma h) E_(r0,c0) rho(h)^-1 has single entry at
            # (perm_sh[r0], perm_h[c0]) with phase exps_sh[r0] - exps_h[c0]
            accs[sh.perm[r0] * N + h.perm[c0]][(sh.exps[r0] - h.exps[c0]) % m] += 1
        sums = [Cyc.from_root_sum(m, acc) for acc in accs]  # each at conductor m, or 0
        M = CycMatrix.from_coeffs(N, m, [None if s.is_zero() else s.num for s in sums])
        if any(v is not None for v in M.coeffs):
            pm = ProjectiveMatrix(M, model, [(table[label], image(label)) for label in model.generators()])
            pm.verify()
            return pm
    raise ModelError("averaging produced zero for every matrix unit (bug)")


# ---------------------------------------------------------------------------
# projective matrices
# ---------------------------------------------------------------------------


class ProjectiveMatrix:
    """An intertwiner, well defined up to the declared scalar group.

    pairs holds the monomials (rho(h), rho(sigma h)) of the model's
    generators h, for the intertwining relation verify re-checks; the coset
    candidates of odd_projective_rep have none.
    """

    def __init__(self, mat: CycMatrix, model: _MonomialModel, pairs=()):
        self.mat = mat
        self.model = model
        self.pairs = pairs
        self._proj = None  # (K, c) with M^K = c * identity
        self._traces = None  # tr(M^k) for k < K
        self._verdicts = None  # {sign: simple?}

    # -- certification --------------------------------------------------
    def verify(self):
        """Exact checks: intertwining on generators; nonzero; irreducibility.

        M rho(h) = rho(sigma h) M compares two monomial products, each of
        which moves every entry of M once and multiplies it by a root of
        unity: no dense product.  With both representations irreducible and
        of equal (central) character, a nonzero intertwiner is invertible and
        the solution space is one-dimensional, which is the uniqueness guard.
        """
        if not self.pairs:
            raise ModelError("no intertwining relation to check (a coset candidate, not an intertwiner)")
        M = self.mat
        for h, sh in self.pairs:
            if M.monomial_product(h) != M.monomial_product(sh, left=True):
                raise ModelError("intertwining relation fails on a generator")
        if not self.model.irreducible_certificate():
            raise ModelError("model representation is not irreducible")
        return True

    # -- scalar data ------------------------------------------------------
    def projective_order(self) -> tuple[int, Cyc]:
        """(k, c) with M^k = c * identity, k minimal."""
        if self._proj is None:
            self._walk()
        return self._proj

    def _walk(self) -> None:
        """The one power walk M^0, M^1, ..., M^K = c * identity, CapExceeded
        past CYC_ORDER_CAP powers.

        It keeps (K, c), the traces tr(M^k) for k < K, and the simple-spectrum
        verdicts {sign: simple?}: sign 0 for the whole space and, when the
        model has a parity P that M commutes with, +1 and -1 for the halves
        (1 +- P)/2, whose traces tr(M^k P) are read off P's nonzero entries.

        Dense products stop at the first k0 where M^k0 = a * Q, with Q a
        MonomialMatrix: M^k0 has exactly N nonzero entries, a is the first.
        Then M^(r k0 + j) = a^r Q^r M^j for j < k0, so each later trace is an
        O(N) read, a^r tr(Q^r M^j) and a^r tr(P Q^r M^j), of a head power
        M^j, and M^(r k0) is scalar exactly when Q^r is.  No power strictly
        between is scalar, or some M^j with j < k0 would be a scalar times a
        monomial matrix.  The head M^0, ..., M^(k0 - 1) lives only in this
        call, and every power, head or tail, counts against the cap.
        """
        M = self.mat
        N = M.n
        P = self.model.parity_matrix()
        halves = P is not None and M.monomial_product(P) == M.monomial_product(P, left=True)
        signs = (0, 1, -1) if halves else (0,)
        sums = dict.fromkeys(signs, Cyc.from_int(0))
        half = Fraction(1, 2)
        c2_inv = self.unitarity_scalar().inverse()
        weight = Cyc.from_int(1)
        traces = []
        head = []  # M^0, ..., M^(k0 - 1)
        x, k0 = CycMatrix.identity(N), 0  # k0 stays 0 until M^k0 = a * Q
        for K in range(CYC_ORDER_CAP + 1):
            if K and not k0:
                x = x * M if K > 1 else M
                c = x.is_scalar()
                if c is not None:
                    break
                if x.coeffs.count(None) == N * N - N:
                    a = next(Cyc(x.m, v, x.den) for v in x.coeffs if v is not None)
                    Q = MonomialMatrix.from_cyc(x.scale(a.inverse()))
                    if Q is not None:
                        k0, a_r, Q_r = K, Cyc.from_int(1), MonomialMatrix.identity(N)
            if k0:
                j = K % k0
                if not j:  # M^K = a^r Q^r
                    a_r, Q_r = a_r * a, Q_r * Q
                    c = Q_r.is_scalar()
                    if c is not None:
                        c = a_r * c
                        break
                    PQ_r = P * Q_r if halves else None
                t = a_r * Q_r.trace_product(head[j])
                t_par = a_r * PQ_r.trace_product(head[j]) if halves else None
            else:
                head.append(x)
                t = x.trace()
                t_par = P.trace_product(x) if halves else None
            traces.append(t)
            sums[0] = sums[0] + t.abs2() * weight
            if halves:
                sums[1] = sums[1] + ((t + t_par) * half).abs2() * weight
                sums[-1] = sums[-1] + ((t - t_par) * half).abs2() * weight
            weight = weight * c2_inv
        else:
            raise CapExceeded(f"the projective order of M passes cap {CYC_ORDER_CAP}")
        dims = {0: N}
        if halves:
            # dimension of a half: trace of the projector (1 +- P)/2
            for sign in (1, -1):
                dims[sign] = int(((Cyc.from_int(N) + sign * P.trace()) * half).rational())
        verdicts = {}
        for sign, acc in sums.items():
            if not acc.is_rational():
                raise ModelError("autocorrelation sum is irrational (bug)")
            total = acc.rational() / K
            if total.denominator != 1:
                raise ModelError("autocorrelation sum is non-integral (bug)")
            verdicts[sign] = int(total) == dims[sign]
        self._proj, self._traces, self._verdicts = (K, c), traces, verdicts

    def unitarity_scalar(self) -> Cyc:
        """c2 with M* M = c2 * identity (Schur: M* M centralizes the model)."""
        M = self.mat
        column = (Cyc(M.m, v, M.den) for v in M.coeffs[:: M.n] if v is not None)
        return sum((x.abs2() for x in column), Cyc.from_int(0))

    # -- normalization to a finite-order matrix ---------------------------
    def _finite_order_scalar(self) -> Cyc:
        """s with (s M)^K = 1 for the projective order K: the inverse of a
        magnitude delta when |c| != 1, times the inverse of a K-th root of the
        scalar left over."""
        k, c = self.projective_order()
        s = Cyc.from_int(1)
        a2 = c.abs2()
        if not (a2.is_rational() and a2.rational() == 1):
            c2 = self.unitarity_scalar()
            if not c2.is_rational():
                raise ModelError("unitarity scalar is irrational")
            delta = _magnitude_delta(self.model, c2.rational())
            s = delta.inverse()
            c = c / delta**k  # (M / delta)^k, from the stored walk
        u = c.as_root_of_unity()
        if u is None:
            raise ModelError(f"projective scalar {c!r} is not a root of unity")
        # c = zeta_t^a has the k-th root lambda = zeta_(kt)^a; scale by 1/lambda
        return s * Cyc.root(unity(-u.num, k * u.den))

    def finite_order_form(self) -> CycMatrix:
        """A scalar multiple of M of exact finite order."""
        return self.mat.scale(self._finite_order_scalar())

    # -- spectra ----------------------------------------------------------
    def projective_spectrum(self) -> Spectrum:
        """Spectrum up to global rotation, canonicalized: Fourier inversion of
        the walk's traces, tr((s M)^k) = s^k tr(M^k), with no product."""
        s = self._finite_order_scalar()
        traces, power = [], Cyc.from_int(1)
        for t in self._traces:
            traces.append(t * power)
            power = power * s
        spec = Spectrum.from_power_traces(len(traces), traces)
        if spec.dimension != self.mat.n:
            raise ValueError("multiplicities do not sum to the dimension")
        return spec.canonical_rotation()

    def is_simple(self, sign: int = 0) -> bool:
        """Simple spectrum on the whole space (sign 0) or on the parity half
        (1 + sign P)/2 of the model's parity P, scalar-invariantly.

        Uses the exact autocorrelation identity: for eigenvalues of common
        squared modulus c2, (1/K) sum_k |tr(M^k)|^2 / c2^k counts coincident
        eigenvalue pairs, and equals the dimension iff the spectrum is simple.
        The verdicts for every sign come from the one walk over the powers of
        M that projective_order makes.
        """
        if sign not in (0, 1, -1):
            raise ValueError("sign must be 0 (whole space) or +1 / -1 (a parity half)")
        self.projective_order()
        if sign not in self._verdicts:
            raise ModelError("matrix does not preserve the parity halves")
        return self._verdicts[sign]

    def odd_projective_rep(self) -> "ProjectiveMatrix":
        """A coset representative M * rho(e) of odd projective order.

        Exists whenever the outer element has odd order; all such
        representatives are conjugate under the extraspecial group, so the
        canonical spectrum is well defined.
        """
        k, _ = self.projective_order()
        p = self.model.p
        if k % 2 == 1 and k % p != 0:
            return self
        best = None
        for mono in self.model.monomials().values():
            cand = ProjectiveMatrix(self.mat * mono, self.model)
            kk, _ = cand.projective_order()
            if kk % 2 == 1 and (p == 2 or kk % p != 0):
                if best is None or kk < best[0]:
                    best = (kk, cand)
        if best is None:
            raise ModelError("no odd-projective-order representative in the coset")
        return best[1]


def _magnitude_delta(model: _MonomialModel, target: Fraction) -> Cyc:
    """A cyclotomic delta with abs2(delta) == target: r * g^e with r rational
    and g a fixed element of known abs2 (a Gauss sum, or 1 + i at p = 2)."""
    if target <= 0:
        raise ModelError("non-positive unitarity scalar")
    for g, gn in model.gauss_candidates():
        for e in (0, 1):
            rem = target / (gn**e)
            rn, rd = rem.numerator, rem.denominator
            if rn > 0 and isqrt(rn) ** 2 == rn and isqrt(rd) ** 2 == rd:
                r = Fraction(isqrt(rn), isqrt(rd))
                return Cyc.from_fraction(r) * (g**e)
    raise ModelError(f"no cyclotomic magnitude with abs2 = {target}")


# ---------------------------------------------------------------------------
# half traces (odd p)
# ---------------------------------------------------------------------------


def sp_halves(model: HeisenbergModel, pm: ProjectiveMatrix) -> tuple[Cyc, Cyc]:
    """Traces of the unitary-normalized intertwiner on the even/odd halves:
    the explicit form of sp_mod1_check's scale-free test, which TestHalves
    holds it to (even - odd has abs2 1)."""
    c2 = pm.unitarity_scalar()
    if not c2.is_rational():
        raise ModelError("unitarity scalar is irrational")
    delta = _magnitude_delta(model, c2.rational())
    M = pm.mat.scale(delta.inverse())
    P = model.parity_matrix()
    t_full = M.trace()
    t_par = P.trace_product(M)
    half = Fraction(1, 2)
    return (t_full + t_par) * half, (t_full - t_par) * half


def sp_mod1_check(model: HeisenbergModel, pm: ProjectiveMatrix) -> bool:
    """abs2(even trace - odd trace) equals the unitarity scalar: the exact,
    scale-invariant form of 'even and odd Weil characters differ by 1'."""
    P = model.parity_matrix()
    diff = P.trace_product(pm.mat)
    return diff.abs2() == pm.unitarity_scalar()


# ---------------------------------------------------------------------------
# classified torus data
# ---------------------------------------------------------------------------


def ss_extr_enumerate(p: int, n: int, override: bool = False) -> list[int]:
    """Central orders of simple-spectrum p'-elements over extraspecial groups;
    ValueError below the classification's p^n >= 11, unless override.

    For p = 2, the products of 2^a + 1 over the sets of parts a of n whose
    factors are pairwise coprime, in ``numth.partitions(n)`` order: since
    gcd(2^a + 1, 2^b + 1) = 2^gcd(a, b) + 1 if v_2(a) = v_2(b) and 1 if not,
    the sets whose parts have pairwise distinct 2-adic valuations.  There are
    c(n) of them, c(0) = 1, c(2m) = c(m), c(2m + 1) = c(0) + ... + c(m), and
    CapExceeded comes before any is listed when c(n) * n bits pass the cap."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p**n < 11 and not override:
        raise ValueError(f"the classification needs p^n >= 11, got {p}^{n} = {p**n}")
    if p != 2:
        return [p**n + 1]
    cap = _cap(None)
    half = n // (n & -n or 1) // 2  # n is 2^k (2 half + 1), so c(n) >= half + 1
    count = half + 1
    if count * n <= cap:  # so half < sqrt(cap)
        c, s = [1], [1]  # c(k) and c(0) + ... + c(k)
        for k in range(1, half + 1):
            c.append(s[k // 2] if k % 2 else c[k // 2])
            s.append(s[-1] + c[-1])
        count = s[-1]
    if count * n > cap:
        raise CapExceeded(f"at least {count} central orders of about {n} bits each pass the cap {cap}")
    return [prod(2**a + 1 for a in parts) for parts in sorted(_valuation_sets(n), reverse=True)]


def _valuation_sets(n: int) -> list[tuple[int, ...]]:
    """The sets of parts summing to n with pairwise distinct 2-adic
    valuations, as descending tuples: for even n every part is even, and for
    odd n exactly one part is odd."""
    if n == 0:
        return [()]
    if n % 2 == 0:
        return [tuple(2 * a for a in parts) for parts in _valuation_sets(n // 2)]
    return [
        tuple(sorted((o, *(2 * a for a in parts)), reverse=True))
        for o in range(1, n + 1, 2)
        for parts in _valuation_sets((n - o) // 2)
    ]


class SpTorusClass:
    __slots__ = ("label", "central_order", "a", "b", "warning")

    def __init__(self, label, central_order, a=None, b=None, warning=None):
        self.label = label
        self.central_order = central_order
        self.a = a
        self.b = b
        self.warning = warning

    def to_json(self):
        return {
            "torus": self.label,
            "central_order": self.central_order,
            "blocks": None if self.a is None else [self.a, self.b],
            "warning": self.warning,
        }

    def __repr__(self):
        return f"SpTorusClass({self.label}, obar={self.central_order})"


def ss_sp_enumerate(n: int, q: int) -> list[SpTorusClass]:
    """Torus types of the odd-characteristic symplectic classification."""
    if _prime_power(q)[0] == 2:
        raise ValueError("q must be odd")
    if n < 2:
        raise ValueError("need n >= 2")
    if (n, q) in ((2, 3), (3, 3)):
        raise ExcludedCase(f"Symplectic ({n},{q}) is an excluded case")
    warn = (
        "the minus-half torus order (q^n-1)/2 cannot arise from local data "
        "unless (n,q) is on the small exception list"
    )
    out = [
        SpTorusClass("T+", (q**n - 1) // 2, warning=warn),
        SpTorusClass("T-", (q**n + 1) // 2),
    ]
    for a in range(1, n):
        b = n - a
        lo, hi = min(a, b), max(a, b)
        e = gcd(a, b)
        if (a % (2 * e) == 0) or (b % (2 * e) == 0):
            if not any(c.a == hi and c.b == lo for c in out if c.a is not None):
                out.append(
                    SpTorusClass(
                        f"T_{hi},{lo}",
                        (q**a + 1) * (q**b + 1) // 2,
                        a=hi,
                        b=lo,
                    )
                )
    return out


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def minus_torus_element(model: Extraspecial2Model) -> FqMatrix:
    """An element of order 2^n + 1 keeping the model's quadratic form Q.

    1. T = sp_torus_element(n, 2, -1) has order 2^n + 1 and keeps the form
       B of symplectic_gram, the model's commutator form.  It acts
       irreducibly, so 1 + T is invertible.
    2. Since T keeps B, v -> Q(Tv) + Q(v) is linear; c_k is its value on
       the basis label e_k.
    3. The u with (G (1 + T))^T u = c gives Q(Tv) + Q(v) = B(u, (1 + T) v)
       for all v, so Q_T = Q + B(u, .) is a quadratic form that T keeps.
    4. By Arf(Q + B(u, .)) = Arf(Q) + Q(u) (Arf, J. reine angew. Math. 183,
       1941; Taylor, The Geometry of the Classical Groups, 1992), and since
       T keeps only forms of minus type, Q(u) = 0 exactly on the minus
       model; the plus model, which has no element of order 2^n + 1,
       raises ModelError.
    5. With Q(u) = 0 the transvection t_u: x -> x + B(x, u) u is an
       involution with Q(t_u x) = Q(x) + B(x, u) = Q_T(x), so
       t_u T t_u keeps Q and B and has T's order.
    """
    n, F2 = model.n, field(2)
    T = sp_torus_element(n, 2, -1)
    G = symplectic_gram(F2, n)
    c = [model.Q[tuple(T.apply(e))] ^ model.Q[e] for e in model.generators()]
    u = tuple((G * T.sub_scalar(1)).transpose().inverse().apply(c))  # T - 1 is 1 + T over F_2
    if model.Q[u]:
        raise ModelError(f"the {model.eps} model has no element of order {2**n + 1}")
    t = _symplectic_transvection(F2, G, u)
    return t * T * t


def ss_extr_oracle(n: int = 2) -> dict:
    """Verify the extraspecial p = 2 torus spectra in the model of 2^(1+2n).

    For the minus type the odd torus generator has spectrum mu_(2^n+1) minus
    the trivial class (simple); for the plus type the block torus has the
    trivial class twice (not simple).  The minus generator is the symplectic
    torus element conjugated by one transvection onto the model's quadratic
    form (minus_torus_element), so every n whose model fits the cap answers.
    """
    out, minus, plus = {}, Extraspecial2Model(n, "-"), Extraspecial2Model(n, "+")
    # each wanted spectrum is mu_order with its trivial class `trivial` times
    for label, model, g, order, trivial in (
        ("minus", minus, minus_torus_element(minus), 2**n + 1, 0),
        # the split torus of order 2^n - 1: diag(A, A^-T) on the two Lagrangians
        ("plus", plus, sp_torus_element(n, 2, 1), 2**n - 1, 2),
    ):
        pm = outer_intertwiner_2(model, g).odd_projective_rep()
        spec = pm.projective_spectrum()
        want = [unity(0, 1)] * trivial + [unity(k, order) for k in range(1, order)]
        out[label] = {
            "torus_order": order,
            "spectrum": {str(u): m for u, m in spec.mult.items()},
            "matches": spec == Spectrum.from_multiset(want).canonical_rotation(),
            "simple": pm.is_simple(),
        }
    out["enumerate"] = ss_extr_enumerate(2, n, override=True)
    out["agree"] = out["minus"]["matches"] and out["plus"]["matches"] and not out["plus"]["simple"]
    return out


def ss_sp_oracle(n: int, q: int) -> dict:
    """Construct the enumerated symplectic torus generators in the model and
    check their projective spectra on both halves; negative controls must
    come out non-simple.  ExcludedCase, before the model, if a block type T_a,b is listed."""
    p, f = _prime_power(q)
    types = ss_sp_enumerate(n, q)
    if blocks := [cls.label for cls in types if cls.a is not None]:
        raise ExcludedCase(f"no block torus is built: {', '.join(blocks)}")
    model = HeisenbergModel(p, n, f)
    dims = ((q**n + 1) // 2, (q**n - 1) // 2)
    results = {"n": n, "q": q, "dims": list(dims), "types": []}
    agree = True
    for cls in types:
        eps = -1 if cls.label == "T-" else 1
        g = sp_torus_element(n, q, eps)
        pm = outer_intertwiner_odd(model, g)
        even = pm.is_simple(+1)
        odd = pm.is_simple(-1)
        expect_even = cls.central_order >= dims[0]
        expect_odd = cls.central_order >= dims[1]
        ok = (even == expect_even) and (odd == expect_odd)
        agree = agree and ok
        results["types"].append(
            {
                "torus": cls.label,
                "central_order": cls.central_order,
                "simple_even": even,
                "simple_odd": odd,
                "as_expected": ok,
                "warning": cls.warning,
            }
        )
    # negative controls
    F = field(p, f)
    ident = FqMatrix.identity(F, 2 * n)
    pm_id = outer_intertwiner_odd(model, ident)
    tv = _symplectic_transvection(F, symplectic_gram(F, n), tuple([1] + [0] * (2 * n - 1)))
    pm_tv = outer_intertwiner_odd(model, tv)
    central = FqMatrix.scalar(F, 2 * n, F.neg[1])
    pm_c = outer_intertwiner_odd(model, central)
    controls = {
        "identity": pm_id.is_simple(+1) or pm_id.is_simple(-1),
        "transvection": pm_tv.is_simple(),
        "central_involution": pm_c.is_simple(),
    }
    agree = agree and not any(controls.values())
    results["negative_controls_simple"] = controls
    results["agree"] = agree
    return results

