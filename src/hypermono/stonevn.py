"""Stone-von Neumann models and intertwiners for outer symplectic actions.

For odd p the q^n-dimensional Schroedinger model of the Heisenberg group
(symmetrized cocycle, so every form-preserving map induces an automorphism
fixing the center); for p = 2 the tensor model of the extraspecial groups
2^(1+2n) of either type.  Intertwiners for outer actions are produced by
exact group averaging against a matrix unit and certified by re-checking
the intertwining relation on generators; uniqueness is Schur's lemma on top
of an exact irreducibility certificate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .algebra.cyc import Cyc, zeta
from .algebra.fq import FqMatrix, field
from .algebra.numth import is_prime
from .algebra.unity import unity
from .repkit import CycMatrix, Spectrum, closure

DESK_CAP = 32


class ModelError(RuntimeError):
    pass


class NormalizationError(ModelError):
    pass


# ---------------------------------------------------------------------------
# odd p: Schroedinger model over F_q
# ---------------------------------------------------------------------------


class HeisenbergModel:
    """Delta-function model of the exponent-p Heisenberg group over F_q.

    Elements (a, b, z) with (a,b,z)(a',b',z') = (a+a', b+b', z+z'+(ba'-b'a)/2)
    act by rho(a,b,z) delta_x = psi(z + b.x + b.a/2) delta_(x+a); every matrix
    preserving the form (u,v) -> b_u.a_v - b_v.a_u induces an automorphism
    fixing the center.
    """

    def __init__(self, p: int, n: int, f: int = 1):
        if not is_prime(p) or p == 2:
            raise ModelError("odd p required (use extraspecial2 for p = 2)")
        self.p, self.n, self.f = p, n, f
        self.F = field(p, f)
        q = self.F.q
        self.q = q
        if q**n > DESK_CAP:
            raise ModelError(f"model dimension {q**n} above desk cap {DESK_CAP}")
        self.dim = q**n
        self.points = list(itertools.product(range(q), repeat=n))
        self.point_index = {x: i for i, x in enumerate(self.points)}
        self.half = self.F.inv[2 % p]  # 1/2 in F_p < F_q
        self.group_order = q ** (2 * n) * q
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
    def rho_monomial(self, a, b, z: int = 0):
        """(perm, phase) with rho delta_x = zeta_p^phase[x] delta_perm[x]."""
        F = self.F
        shift = F.mul[self.half * F.q + self._dot(b, a)]
        base = F.add[z * F.q + shift]
        perm = []
        phase = []
        for x in self.points:
            perm.append(self.point_index[self._add_pt(x, a)])
            phase.append(self._psi_exp(F.add[base * F.q + self._dot(b, x)]))
        return perm, phase

    def monomials(self) -> dict:
        """rho_monomial(a, b) for each of the q^(2n) labels (a, b), built on
        first use and kept: the averaging and the certificates read it."""
        if self._monomials is None:
            self._monomials = {(a, b): self.rho_monomial(a, b) for a in self.points for b in self.points}
        return self._monomials

    def monomial_matrix(self, perm, phase) -> CycMatrix:
        N = self.dim
        zero = Cyc.from_int(0)
        data = [zero] * (N * N)
        for col in range(N):
            data[perm[col] * N + col] = Cyc.root(unity(phase[col], self.p))
        return CycMatrix(N, data)

    def rho_matrix(self, a, b, z: int = 0) -> CycMatrix:
        return self.monomial_matrix(*self.rho_monomial(a, b, z))

    def generators(self):
        """(a, b) labels of a generating set of E modulo the center."""
        out = []
        for i in range(self.n):
            e = tuple(1 if j == i else 0 for j in range(self.n))
            zero = tuple(0 for _ in range(self.n))
            out.append((e, zero))
            out.append((zero, e))
        return out

    def irreducible_certificate(self) -> bool:
        """Exact character-norm test: sum over E of |chi|^2 equals |E|.
        Computed on first use and kept."""
        if self._irreducible is None:
            self._irreducible = self._character_norm_sum() == self.dim * self.dim * self.q
        return self._irreducible  # |E| = q^(2n+1) * dim^2 / dim^2

    def _character_norm_sum(self) -> Fraction:
        """sum over (a, b, z) in E of |chi(a, b, z)|^2.  rho(a, b, z) is
        rho(a, b, 0) with every phase moved by the absolute trace of z."""
        p = self.p
        shifts = [self._psi_exp(z) for z in range(self.q)]
        total = Fraction(0)
        for perm, phase in self.monomials().values():
            acc = [0] * p
            for col in range(self.dim):
                if perm[col] == col:
                    acc[phase[col]] += 1
            for s in shifts:
                moved = [acc[(e - s) % p] for e in range(p)]
                a2 = Cyc(p, _reduce_zp(moved, p), 1).abs2()
                if not a2.is_rational():
                    raise ModelError("irrational |chi|^2 (bug)")
                total += a2.rational()
        return total

    def form_value(self, u, v) -> int:
        """(u, v) -> b_u . a_v - b_v . a_u on F_q^(2n)."""
        F = self.F
        au, bu = u[: self.n], u[self.n :]
        av, bv = v[: self.n], v[self.n :]
        return F.sub(self._dot(bu, av), self._dot(bv, au))

    def preserves_form(self, g: FqMatrix) -> bool:
        n2 = 2 * self.n
        basis = [tuple(1 if j == i else 0 for j in range(n2)) for i in range(n2)]
        for i in range(n2):
            for j in range(i + 1, n2):
                u, v = basis[i], basis[j]
                if self.form_value(g.apply(u), g.apply(v)) != self.form_value(u, v):
                    return False
        return True

    def parity_matrix(self) -> CycMatrix:
        """delta_x -> delta_(-x): the intertwiner of the central inversion."""
        N = self.dim
        zero, one = Cyc.from_int(0), Cyc.from_int(1)
        data = [zero] * (N * N)
        F = self.F
        for col, x in enumerate(self.points):
            data[self.point_index[tuple(F.neg[c] for c in x)] * N + col] = one
        return CycMatrix(N, data)


def _reduce_zp(acc, p):
    """Coefficients over zeta_p^0..zeta_p^(p-1) -> power basis mod Phi_p."""
    top = acc[p - 1]
    return tuple(acc[k] - top for k in range(p - 1))


def _zp_sum(pairs, p) -> Cyc:
    acc = [0] * p
    for expo, coeff in pairs:
        acc[expo % p] += coeff
    return Cyc(p, _reduce_zp(acc, p), 1)


def outer_intertwiner_odd(model: HeisenbergModel, g: FqMatrix) -> "ProjectiveMatrix":
    """Intertwiner M with M rho(h) = rho(sigma_g h) M, by exact averaging."""
    if g.n != 2 * model.n or not model.preserves_form(g):
        raise ModelError("matrix does not preserve the symplectic structure")
    N = model.dim
    n, p = model.n, model.p
    table = model.monomials()
    pairs = []  # (rho(h), rho(sigma h)) as monomial data, h over E mod center
    for (a, b), mono in table.items():
        img = tuple(g.apply(a + b))
        pairs.append((mono, table[(img[:n], img[n:])]))

    for c0 in range(N):
        accs = [[0] * p for _ in range(N * N)]
        r0 = 0
        for (perm1, phase1), (perm2, phase2) in pairs:
            # rho(sigma h) E_(r0,c0) rho(h)^-1 has single entry at
            # (perm2[r0], perm1[c0]) with phase phase2[r0] - phase1[c0]
            row = perm2[r0]
            col = perm1[c0]
            accs[row * N + col][(phase2[r0] - phase1[c0]) % p] += 1
        data = [Cyc(p, _reduce_zp(acc, p), 1) for acc in accs]
        M = CycMatrix(N, data)
        if any(not x.is_zero() for x in M.data):
            pm = ProjectiveMatrix(M, _OddModelAdapter(model), g)
            pm.verify()
            return pm
    raise ModelError("averaging produced zero for every matrix unit (bug)")


class _OddModelAdapter:
    """Uniform surface the ProjectiveMatrix needs from an odd-p model."""

    def __init__(self, model: HeisenbergModel):
        self.model = model
        self.p = model.p
        self.dim = model.dim
        self.scalar_conductor = lcm(2, model.p)

    def coset_labels(self):
        return list(self.model.monomials())

    def rho_matrix(self, lab) -> CycMatrix:
        return self.model.monomial_matrix(*self.model.monomials()[lab])

    def irreducible(self) -> bool:
        return self.model.irreducible_certificate()

    def parity(self) -> CycMatrix:
        return self.model.parity_matrix()

    def gauss_candidates(self):
        """delta with known abs2 for unitary normalization: p-powers and the
        quadratic Gauss sum (abs2 = p)."""
        p = self.p
        gauss = _zp_sum([((t * t) % p, 1) for t in range(p)], p)
        return [(Cyc.from_int(1), 1), (gauss, p)]


# ---------------------------------------------------------------------------
# p = 2: extraspecial tensor models
# ---------------------------------------------------------------------------


class Extraspecial2Model:
    """2^(1+2n)_eps acting on (C^2)^(tensor n) via signed Pauli generators."""

    def __init__(self, n: int, eps: str):
        if eps not in ("+", "-"):
            raise ModelError("eps must be '+' or '-'")
        if 2**n > DESK_CAP:
            raise ModelError(f"model dimension {2**n} above desk cap {DESK_CAP}")
        self.n = n
        self.eps = eps
        self.p = 2
        self.dim = 2**n
        i_unit = zeta(4)
        X = CycMatrix.from_rows([[0, 1], [1, 0]])
        Z = CycMatrix.from_rows([[1, 0], [0, -1]])
        gens = []
        self.gen_labels = []
        for slot in range(n):
            minus = eps == "-" and slot == n - 1
            for base, kind in ((X, 0), (Z, 1)):
                mats = []
                for j in range(n):
                    mats.append(base if j == slot else CycMatrix.identity(2))
                m = _kron_all(mats)
                if minus:
                    m = m.scale(i_unit)
                gens.append(m)
                lab = [0] * (2 * n)
                lab[slot if kind == 0 else n + slot] = 1
                self.gen_labels.append(tuple(lab))
        self.generators = gens
        grp = closure(gens, cap=2 ** (2 * n + 2))
        if grp.order != 2 ** (2 * n + 1):
            raise ModelError(f"extraspecial closure has order {grp.order}")
        self.group = grp
        # label each element by its image in F_2^(2n)
        lab_map = {grp.identity: tuple([0] * (2 * n))}
        frontier = [grp.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for gmat, glab in zip(gens, self.gen_labels):
                    y = x * gmat
                    if y not in lab_map:
                        lab_map[y] = tuple((u + v) % 2 for u, v in zip(lab_map[x], glab))
                        nxt.append(y)
            frontier = nxt
        self.label = lab_map
        # canonical sections s(v) and the quadratic form Q(v): s(v)^2 = (-1)^Q
        self.section: dict[tuple, CycMatrix] = {}
        for v in itertools.product(range(2), repeat=2 * n):
            m = CycMatrix.identity(self.dim)
            for idx, bit in enumerate(self._word_order(v)):
                if bit:
                    m = m * gens[self._word_gen(idx)]
            self.section[v] = m
        self.Q = {}
        for v, m in self.section.items():
            sq = (m * m).is_scalar()
            if sq is None:
                raise ModelError("section square is not scalar (bug)")
            if sq == Cyc.from_int(1):
                self.Q[v] = 0
            elif sq == Cyc.from_int(-1):
                self.Q[v] = 1
            else:
                raise ModelError("section square is not +-1 (bug)")

    def form_value(self, u, v) -> int:
        """Symplectic form: a_u.b_v + b_u.a_v mod 2."""
        n = self.n
        return (
            sum(u[i] * v[n + i] for i in range(n)) + sum(u[n + i] * v[i] for i in range(n))
        ) % 2

    def _word_order(self, v):
        # multiply all X-type generators first, then all Z-type: label v has
        # a-part v[:n] matching generator slots 2*i, b-part v[n:] slots 2*i+1
        n = self.n
        return [v[i] for i in range(n)] + [v[n + i] for i in range(n)]

    def _word_gen(self, word_idx):
        n = self.n
        if word_idx < n:
            return 2 * word_idx  # X_slot
        return 2 * (word_idx - n) + 1  # Z_slot

    def preserves_structure(self, g: FqMatrix) -> bool:
        n2 = 2 * self.n
        basis = [tuple(1 if j == i else 0 for j in range(n2)) for i in range(n2)]
        vecs = [tuple(v) for v in itertools.product(range(2), repeat=n2)]
        for v in vecs:
            if self.Q[tuple(g.apply(v))] != self.Q[v]:
                return False
        for i in range(n2):
            for j in range(i + 1, n2):
                u, v = basis[i], basis[j]
                if self.form_value(tuple(g.apply(u)), tuple(g.apply(v))) != self.form_value(u, v):
                    return False
        return True


def _kron_all(mats):
    out = mats[0]
    for m in mats[1:]:
        out = _kron(out, m)
    return out


def _kron(a: CycMatrix, b: CycMatrix) -> CycMatrix:
    na, nb = a.n, b.n
    N = na * nb
    data = [Cyc.from_int(0)] * (N * N)
    for i in range(na):
        for j in range(na):
            aij = a.data[i * na + j]
            if aij.is_zero():
                continue
            for k in range(nb):
                for l in range(nb):
                    bkl = b.data[k * nb + l]
                    if not bkl.is_zero():
                        data[(i * nb + k) * N + (j * nb + l)] = aij * bkl
    return CycMatrix(N, data)


class _TwoModelAdapter:
    def __init__(self, model: Extraspecial2Model):
        self.model = model
        self.p = 2
        self.dim = model.dim
        self.scalar_conductor = 4

    def coset_labels(self):
        return list(self.model.section)

    def rho_matrix(self, lab) -> CycMatrix:
        return self.model.section[lab]

    def parity(self) -> None:
        return None

    def irreducible(self) -> bool:
        acc = 0
        for gmat in self.model.group.elements:
            t = gmat.trace()
            a2 = t.abs2()
            acc += int(a2.rational())
        return acc == self.model.group.order

    def gauss_candidates(self):
        one_plus_i = Cyc.from_int(1) + zeta(4)
        return [(Cyc.from_int(1), 1), (one_plus_i, 2)]


def outer_intertwiner_2(model: Extraspecial2Model, g: FqMatrix) -> "ProjectiveMatrix":
    """Intertwiner for an automorphism over an orthogonal outer element g."""
    if not model.preserves_structure(g):
        raise ModelError("matrix does not preserve the quadratic structure")
    N = model.dim
    # generator images: sigma(gen_i) = section(g . label_i); relations are
    # preserved exactly because g preserves both forms (checked above)
    gen_imgs = [model.section[tuple(g.apply(lab))] for lab in model.gen_labels]
    # sigma on a coset section via its label word: rebuild as product of
    # generator images with the same canonical exponents
    def sigma_section(v):
        img = CycMatrix.identity(N)
        for idx, bit in enumerate(model._word_order(v)):
            if bit:
                img = img * gen_imgs[model._word_gen(idx)]
        return img

    for c0 in range(N):
        for r0 in range(N):
            acc = CycMatrix(N, [Cyc.from_int(0)] * (N * N))
            for v, smat in model.section.items():
                left = sigma_section(v)
                sinv = smat ** (smat.order() - 1)
                # term = left * E_(r0,c0) * s(v)^-1: column r0 of left times row c0 of sinv
                col = [left.data[i * N + r0] for i in range(N)]
                row = [sinv.data[c0 * N + j] for j in range(N)]
                data = list(acc.data)
                for i in range(N):
                    if not col[i].is_zero():
                        for j in range(N):
                            if not row[j].is_zero():
                                data[i * N + j] = data[i * N + j] + col[i] * row[j]
                acc = CycMatrix(N, data)
            if any(not x.is_zero() for x in acc.data):
                pm = ProjectiveMatrix(acc, _TwoModelAdapter(model), g, sigma_pairs=list(zip(model.generators, gen_imgs)))
                pm.verify()
                return pm
    raise ModelError("averaging produced zero for every matrix unit (bug)")


# ---------------------------------------------------------------------------
# projective matrices
# ---------------------------------------------------------------------------


class ProjectiveMatrix:
    """An intertwiner, well defined up to the declared scalar group."""

    def __init__(self, mat: CycMatrix, adapter, source, sigma_pairs=None):
        self.mat = mat
        self.adapter = adapter
        self.source = source
        self._sigma_pairs = sigma_pairs
        self._proj = None  # (K, c) with M^K = c * identity
        self._walks: dict = {}  # parity (or None) -> {sign: simple?}

    # -- certification --------------------------------------------------
    def verify(self):
        """Exact checks: intertwining on generators; nonzero; irreducibility.

        With both representations irreducible and of equal (central)
        character, a nonzero intertwiner is invertible and the solution
        space is one-dimensional, which is the uniqueness guard.
        """
        M = self.mat
        if self._sigma_pairs is not None:
            for rho_h, rho_sh in self._sigma_pairs:
                if M * rho_h != rho_sh * M:
                    raise ModelError("intertwining relation fails on a generator")
        else:
            model = self.adapter.model
            g = self.source
            n = model.n
            table = model.monomials()
            for a, b in model.generators():
                img = tuple(g.apply(a + b))
                rho_h = model.monomial_matrix(*table[(a, b)])
                rho_sh = model.monomial_matrix(*table[(img[:n], img[n:])])
                if M * rho_h != rho_sh * M:
                    raise ModelError("intertwining relation fails on a generator")
        if not self.adapter.irreducible():
            raise ModelError("model representation is not irreducible")
        return True

    # -- scalar data ------------------------------------------------------
    def projective_order(self, cap: int = 2048) -> tuple[int, Cyc]:
        """(k, c) with M^k = c * identity, k minimal."""
        if self._proj is None:
            self._walk(self.adapter.parity(), cap)
        return self._proj

    def _walk(self, parity: CycMatrix | None, cap: int = 2048) -> dict:
        """The power walk M^0, M^1, ..., M^K = c * identity, made once per parity.

        It fills the projective-order cache and returns {sign: simple?}: sign 0
        for the whole space and, when M commutes with the parity P, +1 and -1
        for the halves (1 +- P)/2.  Every walk carries sign 0, so one without
        a parity reuses whichever walk exists.
        """
        if parity in self._walks:
            return self._walks[parity]
        if parity is None and self._walks:
            return next(iter(self._walks.values()))
        M = self.mat
        N = M.n
        halves = parity is not None and M * parity == parity * M
        signs = (0, 1, -1) if halves else (0,)
        sums = dict.fromkeys(signs, Cyc.from_int(0))
        half = Fraction(1, 2)
        c2_inv = self.unitarity_scalar().inverse()
        weight = Cyc.from_int(1)
        x = CycMatrix.identity(N)
        for K in range(cap + 1):
            if K:
                x = x * M if K > 1 else M
                c = x.is_scalar()
                if c is not None:
                    break
            t = x.trace()
            sums[0] = sums[0] + t.abs2() * weight
            if halves:
                t_par = x.trace_product(parity)
                sums[1] = sums[1] + ((t + t_par) * half).abs2() * weight
                sums[-1] = sums[-1] + ((t - t_par) * half).abs2() * weight
            weight = weight * c2_inv
        else:
            raise ModelError("projective order exceeds cap")
        self._proj = (K, c)
        dims = {0: N}
        if halves:
            # dimension of a half: trace of the projector (1 +- P)/2
            for sign in (1, -1):
                dims[sign] = int(((Cyc.from_int(N) + sign * parity.trace()) * half).rational())
        verdicts = {}
        for sign, acc in sums.items():
            if not acc.is_rational():
                raise ModelError("autocorrelation sum is irrational (bug)")
            total = acc.rational() / K
            if total.denominator != 1:
                raise ModelError("autocorrelation sum is non-integral (bug)")
            verdicts[sign] = int(total) == dims[sign]
        self._walks[parity] = verdicts
        return verdicts

    def unitarity_scalar(self) -> Cyc:
        """c2 with M* M = c2 * identity (Schur: M* M centralizes the model)."""
        M = self.mat
        N = M.n
        acc = Cyc.from_int(0)
        for r in range(N):
            acc = acc + M.data[r * N].abs2()
        return acc

    def rescale(self, s: Cyc) -> "ProjectiveMatrix":
        out = ProjectiveMatrix(self.mat.scale(s), self.adapter, self.source, self._sigma_pairs)
        return out

    # -- normalization to a finite-order matrix ---------------------------
    def finite_order_form(self) -> CycMatrix:
        """A scalar multiple of M of exact finite order."""
        k, c = self.projective_order()
        M = self.mat
        a2 = c.abs2()
        if not (a2.is_rational() and a2.rational() == 1):
            c2 = self.unitarity_scalar()
            if not c2.is_rational():
                raise NormalizationError("unitarity scalar is irrational")
            target = c2.rational()
            delta = _magnitude_delta(self.adapter, target)
            M = M.scale(delta.inverse())
            x = M
            c = None
            for j in range(1, k + 1):
                s = x.is_scalar()
                if s is not None:
                    k, c = j, s
                    break
                x = x * M
            if c is None:
                raise NormalizationError("rescaled matrix lost finite projective order")
        u = c.as_root_of_unity()
        if u is None:
            raise NormalizationError(f"projective scalar {c!r} is not a root of unity")
        t = u.den
        total = k * t
        lam = None
        for j in range(total):
            cand = Cyc.root(unity(j, total))
            if cand**k == c:
                lam = cand
                break
        if lam is None:
            raise NormalizationError("no cyclotomic k-th root of the projective scalar")
        return M.scale(lam.inverse())

    # -- spectra ----------------------------------------------------------
    def projective_spectrum(self) -> Spectrum:
        """Spectrum up to global rotation, canonicalized."""
        from .repkit import spectrum as mat_spectrum

        M0 = self.finite_order_form()
        return mat_spectrum(M0).canonical_rotation()

    def is_simple(self, parity: CycMatrix | None = None, sign: int = 0) -> bool:
        """Simple spectrum (on a parity half when given), scalar-invariantly.

        Uses the exact autocorrelation identity: for eigenvalues of common
        squared modulus c2, (1/K) sum_k |tr(M^k)|^2 / c2^k counts coincident
        eigenvalue pairs, and equals the dimension iff the spectrum is simple.
        The sums for the whole space and for both halves come from one shared
        walk over the powers of M (the one projective_order makes, which covers
        the model's own parity): tr(M^k P) is read off P's nonzero entries,
        and later calls, with either sign, read the stored verdicts.
        """
        if parity is None:
            sign = 0
        elif sign not in (1, -1):
            raise ValueError("a parity half needs sign +1 or -1")
        verdicts = self._walk(parity)
        if sign not in verdicts:
            raise ModelError("matrix does not preserve the parity halves")
        return verdicts[sign]

    def odd_projective_rep(self) -> "ProjectiveMatrix":
        """A coset representative M * rho(e) of odd projective order.

        Exists whenever the outer element has odd order; all such
        representatives are conjugate under the extraspecial group, so the
        canonical spectrum is well defined.
        """
        k, _ = self.projective_order()
        if k % 2 == 1 and k % self.adapter.p != 0:
            return self
        best = None
        for lab in self.adapter.coset_labels():
            cand = ProjectiveMatrix(self.mat * self.adapter.rho_matrix(lab), self.adapter, self.source, None)
            try:
                kk, _ = cand.projective_order(cap=256)
            except ModelError:
                continue
            if kk % 2 == 1 and (self.adapter.p == 2 or kk % self.adapter.p != 0):
                if best is None or kk < best[0]:
                    best = (kk, cand)
        if best is None:
            raise ModelError("no odd-projective-order representative in the coset")
        return best[1]


def _magnitude_delta(adapter, target: Fraction) -> Cyc:
    """A cyclotomic delta with abs2(delta) == target: r * g^e with r rational
    and g a fixed element of known abs2 (a Gauss sum, or 1 + i at p = 2)."""
    from math import isqrt

    if target <= 0:
        raise NormalizationError("non-positive unitarity scalar")
    for g, gn in adapter.gauss_candidates():
        for e in (0, 1):
            rem = target / (gn**e)
            rn, rd = rem.numerator, rem.denominator
            if rn > 0 and isqrt(rn) ** 2 == rn and isqrt(rd) ** 2 == rd:
                r = Fraction(isqrt(rn), isqrt(rd))
                return Cyc.from_fraction(r) * (g**e)
    raise NormalizationError(f"no cyclotomic magnitude with abs2 = {target}")


# ---------------------------------------------------------------------------
# half traces (odd p)
# ---------------------------------------------------------------------------


def sp_halves(model: HeisenbergModel, pm: ProjectiveMatrix) -> tuple[Cyc, Cyc]:
    """Traces of the unitary-normalized intertwiner on the even/odd halves."""
    c2 = pm.unitarity_scalar()
    if not c2.is_rational():
        raise NormalizationError("unitarity scalar is irrational")
    adapter = pm.adapter
    delta = _magnitude_delta(adapter, c2.rational())
    M = pm.mat.scale(delta.inverse())
    P = model.parity_matrix()
    t_full = M.trace()
    t_par = M.trace_product(P)
    half = Fraction(1, 2)
    return (t_full + t_par) * half, (t_full - t_par) * half


def sp_mod1_check(model: HeisenbergModel, pm: ProjectiveMatrix) -> bool:
    """abs2(even trace - odd trace) equals the unitarity scalar: the exact,
    scale-invariant form of 'even and odd Weil characters differ by 1'."""
    P = model.parity_matrix()
    diff = pm.mat.trace_product(P)
    return diff.abs2() == pm.unitarity_scalar()


# ---------------------------------------------------------------------------
# classified torus data
# ---------------------------------------------------------------------------


def ss_extr_enumerate(p: int, n: int, override: bool = False) -> list[int]:
    """Central orders of simple-spectrum p'-elements over extraspecial groups."""
    if p**n < 11 and not override:
        raise ValueError(f"classification hypothesis p^n >= 11 fails for {p}^{n} (pass override)")
    if p != 2:
        return [p**n + 1]
    out = []

    def distinct_partitions(total, max_part):
        if total == 0:
            yield ()
            return
        for part in range(min(total, max_part), 0, -1):
            for rest in distinct_partitions(total - part, part - 1):
                yield (part,) + rest

    for parts in distinct_partitions(n, n):
        vals = [2**a + 1 for a in parts]
        if all(gcd(x, y) == 1 for i, x in enumerate(vals) for y in vals[i + 1 :]):
            prod = 1
            for v in vals:
                prod *= v
            out.append(prod)
    return out


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
    if q % 2 == 0:
        raise ValueError("q must be odd")
    if n < 2:
        raise ValueError("need n >= 2")
    if (n, q) in ((2, 3), (3, 3)):
        from .weilgl import ExcludedCase

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


def find_orthogonal_element(model: Extraspecial2Model, order: int) -> FqMatrix:
    """First invertible F_2 matrix of the given order preserving the model's
    quadratic structure (deterministic scan)."""
    F2 = field(2)
    dim = 2 * model.n
    for bits in range(2 ** (dim * dim)):
        data = tuple((bits >> k) & 1 for k in range(dim * dim))
        g = FqMatrix(F2, dim, data)
        if g.rank() != dim or not model.preserves_structure(g):
            continue
        try:
            if g.order(cap=64) == order:
                return g
        except RuntimeError:
            continue
    raise ModelError(f"no structure-preserving element of order {order}")


def ss_extr_oracle(n: int = 2) -> dict:
    """Verify the extraspecial p = 2 torus spectra at desk scale.

    For the minus type the odd torus generator has spectrum mu_(2^n+1) minus
    the trivial class (simple); for the plus type the block torus has the
    trivial class twice (not simple).
    """
    out = {}
    minus = Extraspecial2Model(n, "-")
    g5 = find_orthogonal_element(minus, 2**n + 1)
    pm = outer_intertwiner_2(minus, g5).odd_projective_rep()
    spec = pm.projective_spectrum()
    want = Spectrum.from_multiset([unity(k, 2**n + 1) for k in range(1, 2**n + 1)]).canonical_rotation()
    out["minus"] = {
        "torus_order": 2**n + 1,
        "spectrum": {str(u): m for u, m in spec.mult.items()},
        "matches": spec == want,
        "simple": pm.is_simple(),
    }
    plus = Extraspecial2Model(n, "+")
    # the split torus of order 2^n - 1: diag(A, A^-T) on the two Lagrangians
    from .weilgl import gl_singer

    A = gl_singer(n, 2)
    F2 = field(2)
    Ait = A.inverse().transpose()
    dim = 2 * n
    rows = [[0] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = A.data[i * n + j]
            rows[n + i][n + j] = Ait.data[i * n + j]
    g3 = FqMatrix.from_rows(F2, rows)
    pm2 = outer_intertwiner_2(plus, g3).odd_projective_rep()
    spec2 = pm2.projective_spectrum()
    want2 = Spectrum.from_multiset(
        [unity(0, 1)] + [unity(k, 2**n - 1) for k in range(2**n - 1)]
    ).canonical_rotation()
    out["plus"] = {
        "torus_order": 2**n - 1,
        "spectrum": {str(u): m for u, m in spec2.mult.items()},
        "matches": spec2 == want2,
        "simple": pm2.is_simple(),
    }
    out["enumerate"] = ss_extr_enumerate(2, n, override=True)
    out["agree"] = out["minus"]["matches"] and out["plus"]["matches"] and not out["plus"]["simple"]
    return out


def ss_sp_oracle(n: int, q: int, mode: str = "targeted") -> dict:
    """Construct the enumerated symplectic torus generators in the model and
    check their projective spectra on both halves; negative controls must
    come out non-simple."""
    from .algebra.numth import is_prime_power
    from .weilgl import _symplectic_transvection, sp_torus_element, symplectic_gram

    p, f = is_prime_power(q)
    if q**n > DESK_CAP:
        raise ModelError(f"model dimension {q**n} above desk cap (targeted mode only)")
    model = HeisenbergModel(p, n, f)
    P = model.parity_matrix()
    dims = ((q**n + 1) // 2, (q**n - 1) // 2)
    types = ss_sp_enumerate(n, q)
    results = {"n": n, "q": q, "dims": list(dims), "types": []}
    agree = True
    for cls in types:
        if cls.a is not None:
            continue  # block types exceed desk scale for all admissible (n, q)
        eps = -1 if cls.label == "T-" else 1
        g = sp_torus_element(n, q, eps)
        pm = outer_intertwiner_odd(model, g)
        even = pm.is_simple(parity=P, sign=+1)
        odd = pm.is_simple(parity=P, sign=-1)
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
    tv = _symplectic_transvection(F, symplectic_gram(F, n), tuple([1] + [0] * (2 * n - 1)), 1)
    pm_tv = outer_intertwiner_odd(model, tv)
    central = FqMatrix.scalar(F, 2 * n, F.neg[1])
    pm_c = outer_intertwiner_odd(model, central)
    controls = {
        "identity": pm_id.is_simple(parity=P, sign=+1) or pm_id.is_simple(parity=P, sign=-1),
        "transvection": pm_tv.is_simple(),
        "central_involution": pm_c.is_simple(),
    }
    agree = agree and not any(controls.values())
    results["negative_controls_simple"] = controls
    results["agree"] = agree
    return results

