"""Generic finite matrix-group engine.

Closure from generators with a hard cap by Dimino's coset enumeration, which
keeps only the irredundant generators and, over F_q, runs on the elements'
data keys (``FqMatrix.data``, bytes when q <= 256), forming each coset as an
earlier coset times a kept generator, one memoised row image at a time,
with no full matrix product and no matrix object until the end; element
orders; conjugacy classes as the orbits of those kept generators'
conjugation permutations on the element positions, over F_q with p <= 128
and q <= 256 by the generator's F_p-linear map on the data planes of all the
elements at once, looked up in the one data-keyed index that closure
filled, with no product per element (other elements take two products
each); exact spectra by discrete Fourier inversion of the power traces, one
root sum per eigenvalue index with no Cyc product; and the fourth moment M4.
Works for matrices over a FieldSpec or over a cyclotomic field, and for
monomial matrices with root-of-unity entries, which closure takes as
MonomialMatrix; elements only need ``*``, ``**``, equality and hashing.
A CycMatrix is flat, like an FqMatrix: one conductor, one denominator and
one integer coefficient tuple per nonzero entry, so a product multiplies
coefficient vectors and reduces each output entry once; Cyc objects are
formed only for code that reads entries one at a time.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from struct import iter_unpack

from .algebra.cyc import Cyc, _apply_rows, _ctx, _lift_rows, _mul_vec, _reduce, _times_root, rref
from .algebra.fq import FqMatrix
from .algebra.numth import CapExceeded, _cap, _power, _powers
from .algebra.unity import UnityClass

CYC_ORDER_CAP = 10_000  # a CycMatrix may have infinite order


class CycMatrix:
    """Dense square matrix over a cyclotomic field, stored flat; immutable
    and hashable.

    One conductor m and one positive denominator den serve the whole matrix:
    coeffs[i * n + j] is None for a zero entry (i, j), otherwise the phi(m)
    integer power-basis coefficients of den times that entry, as in Cyc.  den
    is coprime to the gcd of all the coefficients, so the layout is unique at
    a given conductor.  Products, traces, scalars and equality read the
    coefficients; ``entries()`` gives Cyc objects to code that asks for them.
    """

    __slots__ = ("n", "m", "den", "coeffs", "_hash")

    def __init__(self, n: int, data):
        """The matrix of n * n entries (Cyc, int or Fraction), row-major."""
        data = [x if isinstance(x, Cyc) else Cyc.from_fraction(Fraction(x)) for x in data]
        if len(data) != n * n:
            raise ValueError("matrix data has wrong length")
        m = lcm(1, *(x.m for x in data))
        den = lcm(1, *(x.den for x in data))  # coprime to the gcd of the scaled coefficients
        coeffs = tuple(None if x.is_zero() else tuple(c * (den // x.den) for c in x.lift(m).num) for x in data)
        self.n, self.m, self.den, self.coeffs, self._hash = n, m, den, coeffs, None

    @classmethod
    def _make(cls, n: int, m: int, den: int, coeffs: tuple) -> "CycMatrix":
        """Unchecked constructor for coefficients already in the normal layout."""
        x = object.__new__(cls)
        x.n, x.m, x.den, x.coeffs, x._hash = n, m, den, coeffs, None
        return x

    @classmethod
    def from_coeffs(cls, n: int, m: int, coeffs, den: int = 1) -> "CycMatrix":
        """The matrix with entries coeffs[k] / den at conductor m, each None or
        phi(m) integer coefficients; the denominator is normalized once."""
        coeffs = tuple(coeffs)
        if den < 1 or len(coeffs) != n * n:
            raise ValueError("matrix data has wrong length or denominator")
        if den != 1:
            g = gcd(den, *(c for v in coeffs if v is not None for c in v))
            if g > 1:
                den //= g
                coeffs = tuple(None if v is None else tuple(c // g for c in v) for v in coeffs)
        return cls._make(n, m, den, coeffs)

    @classmethod
    def from_rows(cls, rows) -> "CycMatrix":
        rows = [list(r) for r in rows]
        return cls(len(rows), [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "CycMatrix":
        return cls._make(n, 1, 1, tuple((1,) if i == j else None for i in range(n) for j in range(n)))

    @classmethod
    def scalar(cls, n: int, s: Cyc) -> "CycMatrix":
        d = None if s.is_zero() else s.num
        return cls._make(n, s.m, s.den, tuple(d if i == j else None for i in range(n) for j in range(n)))

    def entries(self) -> list[Cyc]:
        """The entries as Cyc, row-major."""
        m, den, zero = self.m, self.den, Cyc.from_int(0)
        return [zero if v is None else Cyc(m, v, den) for v in self.coeffs]

    def lift(self, m: int) -> "CycMatrix":
        """The same matrix at conductor m, a multiple of self.m."""
        if m == self.m:
            return self
        if m % self.m:
            raise ValueError(f"cannot lift conductor {self.m} to non-multiple {m}")
        rows, phi = _lift_rows(self.m, m), _ctx(m).phi
        return CycMatrix._make(
            self.n, m, self.den, tuple(None if v is None else _apply_rows(rows, v, phi) for v in self.coeffs)
        )

    def __mul__(self, other: "CycMatrix | MonomialMatrix") -> "CycMatrix":
        if isinstance(other, MonomialMatrix):
            return self.monomial_product(other)
        if not isinstance(other, CycMatrix):
            return NotImplemented
        m = lcm(self.m, other.m)
        n, ctx = self.n, _ctx(m)
        a, b = self.lift(m).coeffs, other.lift(m).coeffs
        width = 2 * ctx.phi - 1
        # each row of b as its nonzero entries (j, nonzero coefficients of b_kj), listed once
        b_rows = [
            [(j, [(t, d) for t, d in enumerate(v) if d]) for j, v in enumerate(b[k * n : (k + 1) * n]) if v is not None]
            for k in range(n)
        ]
        out = []
        for i in range(n):
            acc = [None] * n  # per output entry, the unreduced sum of convolutions
            for k, v in enumerate(a[i * n : (i + 1) * n]):
                if v is None or not b_rows[k]:
                    continue
                terms = [(s, c) for s, c in enumerate(v) if c]
                for j, w in b_rows[k]:
                    conv = acc[j]
                    if conv is None:
                        conv = acc[j] = [0] * width
                    for s, c in terms:
                        for t, d in w:
                            conv[s + t] += c * d
            for conv in acc:
                if conv is not None:
                    conv = _reduce(ctx, conv)
                    conv = tuple(conv) if any(conv) else None
                out.append(conv)
        return CycMatrix.from_coeffs(n, m, out, self.den * other.den)

    def monomial_product(self, P: "MonomialMatrix", left: bool = False) -> "CycMatrix":
        """self * P, or P * self when left, by moving each entry once and
        multiplying it by a root of unity: O(n^2), with no dense product."""
        n, e = self.n, P.e
        m = lcm(self.m, e)
        ctx, step, a = _ctx(m), m // e, self.lift(m).coeffs
        out = [None] * (n * n)
        for x, (y, k) in enumerate(zip(P.perm, P.exps)):
            k *= step  # P has zeta^k at (y, x)
            if left:  # row x times zeta^k becomes row y
                src, dst, stride = x * n, y * n, 1
            else:  # column y times zeta^k becomes column x
                src, dst, stride = y, x, n
            for r in range(0, n * stride, stride):
                v = a[src + r]
                if v is not None:
                    out[dst + r] = _times_root(ctx, v, k)
        return CycMatrix._make(n, m, self.den, tuple(out))

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented  # a MonomialMatrix compares itself
        if self.n != other.n or self.den != other.den:  # lifting keeps the denominator
            return False
        if self.m == other.m:
            return self.coeffs == other.coeffs
        m = lcm(self.m, other.m)
        return self.lift(m).coeffs == other.lift(m).coeffs

    def __hash__(self):
        """The hash of the entries' hashes, which a MonomialMatrix reproduces
        without forming its entries."""
        h = self._hash
        if h is None:
            m, den, zero = self.m, self.den, hash(Cyc.from_int(0))
            h = self._hash = hash(tuple(zero if v is None else _entry_hash(m, v, den) for v in self.coeffs))
        return h

    def trace(self) -> Cyc:
        acc = [0] * _ctx(self.m).phi
        for v in self.coeffs[:: self.n + 1]:
            if v is not None:
                for i, c in enumerate(v):
                    acc[i] += c
        return Cyc(self.m, tuple(acc), self.den)

    def scale(self, s: Cyc) -> "CycMatrix":
        if s.is_zero():
            return CycMatrix._make(self.n, 1, 1, (None,) * (self.n * self.n))
        m = lcm(self.m, s.m)
        ctx, w = _ctx(m), s.lift(m).num
        coeffs = tuple(None if v is None else _mul_vec(ctx, v, w) for v in self.lift(m).coeffs)
        return CycMatrix.from_coeffs(self.n, m, coeffs, self.den * s.den)

    def __pow__(self, e: int) -> "CycMatrix":
        if e < 0:
            raise ValueError("negative powers unsupported for CycMatrix (use order)")
        return _power(self, e, CycMatrix.identity(self.n))

    def rank(self) -> int:
        """Rank by Gauss-Jordan over the cyclotomic field."""
        n, data = self.n, self.entries()
        return len(rref([data[i * n : (i + 1) * n] for i in range(n)], n))

    def is_scalar(self) -> Cyc | None:
        n, a = self.n, self.coeffs
        s = a[0]
        if any(v != s for v in a[:: n + 1]) or a.count(None) != (n * n if s is None else n * n - n):
            return None
        return Cyc.from_int(0) if s is None else Cyc(self.m, s, self.den)

    def order(self) -> int:
        return sum(1 for _ in _powers(self, CYC_ORDER_CAP))


@lru_cache(maxsize=4096)
def _entry_hash(m: int, v: tuple[int, ...], den: int) -> int:
    """hash(Cyc(m, v, den)): an entry's hash, which reads its minimal conductor."""
    return hash(Cyc(m, v, den))


@lru_cache(maxsize=None)
def _entry_hashes(e: int) -> tuple[int, tuple[int, ...]]:
    """hash(0) and hash(zeta_e^k) for k < e: the entry hashes of CycMatrix.__hash__."""
    return hash(Cyc.from_int(0)), tuple(hash(Cyc.root(UnityClass(k, e))) for k in range(e))


class MonomialMatrix:
    """A monomial matrix whose entries are roots of unity: column x holds
    zeta_e^exps[x] in row perm[x], and every other entry is 0.

    It equals and hashes like the CycMatrix it stands for (``to_cyc``), so
    either may look the other up, but a product is two tuple comprehensions,
    the hash reads no Cyc, and the trace depends only on ``trace_key``.
    """

    __slots__ = ("perm", "exps", "e", "_hash")

    def __init__(self, perm, exps, e: int):
        if e < 1:
            raise ValueError(f"the exponent modulus must be >= 1, got {e}")
        perm, exps = tuple(perm), tuple(k % e for k in exps)
        if sorted(perm) != list(range(len(perm))) or len(exps) != len(perm):
            raise ValueError("a monomial matrix needs a permutation and one exponent per column")
        self.perm, self.exps, self.e = perm, exps, e
        self._hash = None

    @classmethod
    def _make(cls, perm: tuple, exps: tuple, e: int) -> "MonomialMatrix":
        """Unchecked constructor for tuples already reduced mod e."""
        x = object.__new__(cls)
        x.perm, x.exps, x.e, x._hash = perm, exps, e, None
        return x

    @classmethod
    def identity(cls, n: int, e: int = 1) -> "MonomialMatrix":
        return cls._make(tuple(range(n)), (0,) * n, e)

    @classmethod
    def from_cyc(cls, g: CycMatrix) -> "MonomialMatrix | None":
        """g as a MonomialMatrix over the lcm of its entries' orders, or None
        unless g has exactly one root-of-unity entry per row and column."""
        n = g.n
        perm, roots = [None] * n, [None] * n
        for i, v in enumerate(g.coeffs):
            if v is not None:
                row, col = divmod(i, n)
                if perm[col] is not None:
                    return None
                perm[col] = row
                roots[col] = Cyc(g.m, v, g.den).as_root_of_unity()
        if None in perm or None in roots or len(set(perm)) != n:
            return None
        e = lcm(*(u.den for u in roots))
        return cls._make(tuple(perm), tuple(u.num * (e // u.den) for u in roots), e)

    @property
    def n(self) -> int:
        return len(self.perm)

    def lift(self, e: int) -> "MonomialMatrix":
        """The same matrix with exponents mod e, a multiple of self.e."""
        if e == self.e:
            return self
        step = e // self.e
        return MonomialMatrix._make(self.perm, tuple(k * step for k in self.exps), e)

    def to_cyc(self) -> CycMatrix:
        n, power = self.n, _ctx(self.e).power
        coeffs = [None] * (n * n)
        for col, (row, k) in enumerate(zip(self.perm, self.exps)):
            coeffs[row * n + col] = power[k]
        return CycMatrix._make(n, self.e, 1, tuple(coeffs))

    def __mul__(self, other):
        if isinstance(other, CycMatrix):
            return other.monomial_product(self, left=True)
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        if other.e != self.e:
            e = lcm(self.e, other.e)
            return self.lift(e) * other.lift(e)
        pa, ea, e = self.perm, self.exps, self.e
        pb = other.perm
        return MonomialMatrix._make(
            tuple([pa[y] for y in pb]), tuple([(k + ea[y]) % e for y, k in zip(pb, other.exps)]), e
        )

    def __pow__(self, k: int) -> "MonomialMatrix":
        if k < 0:
            raise ValueError("negative powers unsupported for MonomialMatrix (use order)")
        return _power(self, k, MonomialMatrix.identity(self.n, self.e))

    def __eq__(self, other):
        if isinstance(other, MonomialMatrix):
            if other.e != self.e:
                e = lcm(self.e, other.e)
                return self.lift(e) == other.lift(e)
            return self.perm == other.perm and self.exps == other.exps
        if isinstance(other, CycMatrix):
            return self.to_cyc() == other
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            n = self.n
            zero, roots = _entry_hashes(self.e)
            flat = [zero] * (n * n)
            for col, (row, k) in enumerate(zip(self.perm, self.exps)):
                flat[row * n + col] = roots[k]
            h = self._hash = hash(tuple(flat))
        return h

    def rank(self) -> int:
        return self.n

    def is_scalar(self) -> Cyc | None:
        """zeta_e^k when self is zeta_e^k times the identity, else None."""
        if self.perm != tuple(range(self.n)) or len(set(self.exps)) != 1:
            return None
        return Cyc.root(UnityClass(self.exps[0], self.e))

    def order(self) -> int:
        return sum(1 for _ in _powers(self))

    def trace_key(self) -> tuple[int, tuple[int, ...]]:
        """(e, the number of fixed points with exponent k, for each k < e):
        the arguments of the trace's ``Cyc.from_root_sum``."""
        counts = [0] * self.e
        for x, (row, k) in enumerate(zip(self.perm, self.exps)):
            if row == x:
                counts[k] += 1
        return self.e, tuple(counts)

    def trace(self) -> Cyc:
        return Cyc.from_root_sum(*self.trace_key())

    def trace_product(self, other: CycMatrix) -> Cyc:
        """tr(self * other) = sum of zeta_e^exps[x] * other[x, perm[x]]: O(n),
        without forming the product."""
        n, e = self.n, self.e
        m = lcm(e, other.m)
        ctx, step, b = _ctx(m), m // e, other.lift(m).coeffs
        acc = [0] * ctx.phi
        for x, (row, k) in enumerate(zip(self.perm, self.exps)):
            v = b[x * n + row]
            if v is not None:
                for i, c in enumerate(_times_root(ctx, v, k * step)):
                    acc[i] += c
        return Cyc(m, tuple(acc), other.den)


class MatGroup:
    """A finite matrix group given by full element enumeration, as closure
    returns it: index maps each element's key to its position in elements.
    The key of an FqMatrix is its data; any other element is its own key."""

    def __init__(self, generators, elements, identity, index):
        self.generators = list(generators)
        self.elements = list(elements)
        self.identity = identity
        self.index = index
        self.order = len(self.elements)
        self._classes = None

    def _key(self, g):
        """g's key in index: in an FqMatrix group its data, or None (which
        is no key) when g is not an FqMatrix over the group's field; in any
        other group g itself."""
        one = self.identity
        if isinstance(one, FqMatrix):
            return g.data if isinstance(g, FqMatrix) and g.F is one.F else None
        return g

    def __contains__(self, g):
        return self._key(g) in self.index

    def position(self, g) -> int:
        """g's position in elements; KeyError when g is not in the group."""
        return self.index[self._key(g)]

    def conjugacy_classes(self) -> list[list]:
        """The classes as orbits of the kept generators' conjugation
        permutations on positions, in order of their first element, each
        sorted by position."""
        if self._classes is not None:
            return self._classes
        perms = [self._conjugation_permutation(g) for g in self.generators]
        seen = bytearray(self.order)
        classes = []
        for start in range(self.order):
            if seen[start]:
                continue
            seen[start] = 1
            orbit = [start]
            for i in orbit:  # grows while it is read
                for perm in perms:
                    j = perm[i]
                    if not seen[j]:
                        seen[j] = 1
                        orbit.append(j)
            orbit.sort()
            classes.append([self.elements[i] for i in orbit])
        self._classes = classes
        return classes

    def _conjugation_permutation(self, g) -> list[int]:
        """pi with elements[pi[i]] = g * elements[i] * g^-1, from g's conjugation
        map on the data planes of all FqMatrix elements where it has one, else
        from products.  g^-1 is the last of g's powers."""
        ginv = deque(_powers(g), maxlen=1)[0]
        conj = g.conjugation(ginv) if isinstance(g, FqMatrix) else None
        if conj is None:
            return self._product_permutation(g, ginv)
        planes, index = self._data_planes, self.index
        size = len(planes)
        out = bytearray(size * self.order)
        for k, plane in enumerate(conj(planes)):
            out[k::size] = plane
        return [index[y] for (y,) in iter_unpack(f"{size}s", out)]

    @cached_property
    def _data_planes(self) -> list[bytes]:
        """Plane k: entry k of every element's data, in position order (the
        order of index's keys)."""
        keys, size = bytearray(), len(self.identity.data)
        for key in self.index:  # b"".join would hold an 80-byte buffer view per key
            keys += key
        return [keys[k::size] for k in range(size)]

    def _product_permutation(self, g, ginv) -> list[int]:
        """pi with elements[pi[i]] = g * elements[i] * ginv, two products per element."""
        return [self.position(g * x * ginv) for x in self.elements]

    def class_representatives(self) -> list:
        return [c[0] for c in self.conjugacy_classes()]


def closure(generators) -> MatGroup:
    """Full element enumeration of the group generated by the given matrices.

    Dimino's coset enumeration (G. Butler, *Fundamental Algorithms for
    Permutation Groups*, LNCS 559, 1991, ch. 3).  The generators are taken in
    input order; one already in the group built so far is dropped, and the
    returned group's ``generators`` are the kept, irredundant ones.  For a
    kept generator g, with H the group built so far, <H, g> grows as a union
    of right cosets H*t: for each coset rep r and kept generator s, a product
    t = r*s outside the group so far starts a new coset.  Each element is
    formed once, and recorded once, in the position index the returned
    group keeps.  CapExceeded is raised exactly when the order exceeds the one
    cap (``_cap``: HYPERMONO_CAP, else DEFAULT_CAP), before the coset that
    would pass it is formed.

    Each coset is a block of |H| positions that starts at its rep, so the
    block of r holds elements[i] * r, and the coset of t = r*s is formed as
    the block of r times s: the same matrices elements[i] * t at the same
    positions, entered in the index a block at a time.  Over F_q the
    enumeration runs on data keys, the index is keyed by data, and the
    map y -> y * s is s's ``FqMatrix.right_multiplier``, key to key, one
    matrix-vector product per distinct row, looked up after, for the whole
    call; the FqMatrix elements are made once, at the end.  Cyc and
    monomial elements are their own keys and take one product y * s each.

    Cyc generators that each have exactly one root-of-unity entry per row
    and column are taken as MonomialMatrix over one exponent modulus, and
    the group's elements are then MonomialMatrix; any other Cyc list stays
    on CycMatrix.  Generators of different matrix types, sizes or fields
    raise ValueError before any product.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    cap = _cap(None)
    if all(isinstance(g, (CycMatrix, MonomialMatrix)) for g in generators):
        monomials = [g if isinstance(g, MonomialMatrix) else MonomialMatrix.from_cyc(g) for g in generators]
        if None in monomials:
            generators = [g.to_cyc() if isinstance(g, MonomialMatrix) else g for g in generators]
        else:
            e = lcm(*(g.e for g in monomials))
            generators = [g.lift(e) for g in monomials]
    first = generators[0]
    for g in generators:
        if type(g) is not type(first):
            raise ValueError(f"generators mix {type(first).__name__} and {type(g).__name__}")
        if g.n != first.n:
            raise ValueError(f"generators mix sizes {first.n} and {g.n}")
        if isinstance(g, FqMatrix) and g.F is not first.F:
            raise ValueError(f"generators mix fields {first.F} and {g.F}")
        if g.rank() != g.n:
            raise ValueError("singular generator")
    identity = first**0
    fq = isinstance(first, FqMatrix)  # then closure runs on data keys
    keys = [identity.data if fq else identity]  # the elements' keys, in position order
    index = {keys[0]: 0}  # key -> its position in keys
    kept, times = [], []  # the kept generators s and the maps y -> y * s on keys
    for g in generators:
        if (g.data if fq else g) in index:
            continue
        kept.append(g)
        times.append(g.right_multiplier() if fq else lambda y, s=g: y * s)
        size = len(keys)  # |H|; keys[:size] is H, with the identity first
        reps = [0]  # the coset reps' positions; the block of size keys there is H * rep
        for r in reps:  # grows by one rep per new coset
            for times_s in times:
                t = times_s(keys[r])
                if t in index:
                    continue
                if len(keys) + size > cap:
                    raise CapExceeded(
                        f"closure exceeded cap {cap}: {len(keys)} elements reached, "
                        f"{len(kept)} of {len(generators)} generators kept"
                    )
                start = len(keys)
                block = [t, *map(times_s, keys[r + 1 : r + size])]  # H * r * s
                keys += block
                index.update(zip(block, range(start, start + size)))
                reps.append(start)
    elements = [FqMatrix._make(first.F, first.n, y) for y in keys] if fq else keys
    return MatGroup(kept, elements, identity, index)


class Spectrum:
    """Eigenvalue multiset of a finite-order operator: UnityClass -> multiplicity."""

    __slots__ = ("mult",)

    def __init__(self, mult: dict[UnityClass, int]):
        self.mult = {u: m for u, m in sorted(mult.items()) if m}
        if any(m < 0 for m in self.mult.values()):
            raise ValueError("negative multiplicity")

    @property
    def dimension(self) -> int:
        return sum(self.mult.values())

    def is_simple(self) -> bool:
        return all(m == 1 for m in self.mult.values())

    def canonical_rotation(self) -> "Spectrum":
        """Rotation minimizing the sorted eigenvalue list lexicographically."""
        best = best_flat = None
        for s in self.mult:
            cand = {u - s: m for u, m in self.mult.items()}
            flat = tuple(sorted(u for u, m in cand.items() for _ in range(m)))
            if best_flat is None or flat < best_flat:
                best, best_flat = cand, flat
        return Spectrum(best) if best is not None else self

    def __eq__(self, other):
        return isinstance(other, Spectrum) and self.mult == other.mult

    def __hash__(self):
        return hash(tuple(sorted(self.mult.items())))

    def __repr__(self):
        inner = ", ".join(f"{u}:{m}" for u, m in self.mult.items())
        return "Spectrum{" + inner + "}"

    @classmethod
    def from_multiset(cls, values) -> "Spectrum":
        out: dict[UnityClass, int] = {}
        for u in values:
            out[u] = out.get(u, 0) + 1
        return cls(out)

    @classmethod
    def from_power_traces(cls, order: int, traces) -> "Spectrum":
        """Spectrum from traces of powers 0..order-1 by exact Fourier inversion.

        traces[j] must equal trace(g^j) for an operator with g^order = 1.
        Non-integral multiplicities raise (non-semisimple or wrong order).

        Each multiplicity times order, sum_j traces[j] * zeta_order^(-jk), is
        one root sum at L = lcm(order, conductors) over D = lcm(denominators):
        trace j's power-basis terms are exponent-weight pairs fixed once, and
        the root zeta_order^(-jk) only shifts their exponents by -jkL/order.
        """
        n = order
        traces = [t if isinstance(t, Cyc) else Cyc.from_fraction(Fraction(t)) for t in traces]
        if n < 1 or len(traces) != n:
            raise ValueError(f"need order >= 1 and one trace per power, got order {n} and {len(traces)} traces")
        m = lcm(n, *[t.m for t in traces])
        den = lcm(*[t.den for t in traces])
        step = m // n
        terms = [
            (j * step, [(s * (m // t.m), c * (den // t.den)) for s, c in enumerate(t.num) if c])
            for j, t in enumerate(traces)
        ]
        out: dict[UnityClass, int] = {}
        for k in range(n):
            w = [0] * m
            for shift, pairs in terms:
                shift *= k
                for e, c in pairs:
                    w[(e - shift) % m] += c
            acc = Cyc.from_root_sum(m, w, den)
            if not acc.is_rational():
                raise ValueError("non-integral multiplicity (irrational)")
            q = acc.rational() / n
            if q.denominator != 1:
                raise ValueError(f"non-integral multiplicity {q} at index {k}")
            if q < 0:
                raise ValueError(f"negative multiplicity {q} at index {k}")
            if q:
                out[UnityClass(k, n)] = int(q)
        return cls(out)


def spectrum(g: CycMatrix | MonomialMatrix) -> Spectrum:
    """Exact spectrum of a finite-order Cyc matrix via the character-sum formula.

    One walk over the powers of g, bounded like ``CycMatrix.order`` on a
    CycMatrix, gives the traces up to its order: the matrix route that
    TestSpectrum and TestDeletedPerm compare against."""
    traces = [x.trace() for x in _powers(g, CYC_ORDER_CAP if isinstance(g, CycMatrix) else None)]
    s = Spectrum.from_power_traces(len(traces), traces)
    if s.dimension != g.n:
        raise ValueError("multiplicities do not sum to the dimension")
    return s


def monomial_traces(images) -> list[tuple[Cyc, int]]:
    """(trace, count) per distinct trace key of the MonomialMatrix images:
    each trace is summed once, however many images share its key."""
    return [(Cyc.from_root_sum(*key), count) for key, count in Counter(h.trace_key() for h in images).items()]


def m4(group: MatGroup) -> int:
    """Fourth moment M4 = [chi*conj(chi), chi*conj(chi)]_G, exact integer.

    When every element is a MonomialMatrix, |t|^4 is computed once per
    distinct trace key, weighted by the number of elements that have it.
    """
    elements = group.elements
    if all(isinstance(h, MonomialMatrix) for h in elements):
        terms = monomial_traces(elements)
    else:
        terms = [(h.trace(), 1) for h in elements]
    acc = Cyc.from_int(0)
    for t, count in terms:
        a2 = t.abs2()
        a4 = a2 * a2
        acc = acc + (a4 if count == 1 else a4 * count)
    if not acc.is_rational():
        raise ValueError("M4 sum is irrational")
    q = acc.rational() / group.order
    if q.denominator != 1:
        raise ValueError(f"M4 is non-integral: {q}")
    return int(q)
