"""Generic finite matrix-group engine.

Closure from generators with a hard cap by Dimino's coset enumeration, which
keeps only the irredundant generators; element orders; conjugacy classes by
orbit partition under those kept generators; exact spectra via the
character-sum (discrete Fourier) formula; class-function inner products; and
the fourth moment M4.
Works for matrices over a FieldSpec or over Cyc; elements only need ``*``,
equality and hashing.
"""

from __future__ import annotations

import os
from collections import deque
from fractions import Fraction
from math import lcm

from .algebra.cyc import Cyc, rref
from .algebra.unity import UnityClass

DEFAULT_CAP = 2_000_000
CONJUGACY_CAP = 100_000


def _cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get("HYPERMONO_CAP")
    return int(env) if env else DEFAULT_CAP


class CapExceeded(RuntimeError):
    pass


class CycMatrix:
    """Dense square matrix over Cyc; immutable and hashable."""

    __slots__ = ("n", "data", "_hash")

    def __init__(self, n: int, data):
        self.n = n
        self.data = tuple(data)
        self._hash = None
        if len(self.data) != n * n:
            raise ValueError("matrix data has wrong length")

    @classmethod
    def from_rows(cls, rows) -> "CycMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        flat = []
        for r in rows:
            for x in r:
                flat.append(x if isinstance(x, Cyc) else Cyc.from_fraction(Fraction(x)))
        return cls(n, flat)

    @classmethod
    def identity(cls, n: int) -> "CycMatrix":
        one, zero = Cyc.from_int(1), Cyc.from_int(0)
        return cls(n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    @classmethod
    def scalar(cls, n: int, s: Cyc) -> "CycMatrix":
        zero = Cyc.from_int(0)
        return cls(n, tuple(s if i == j else zero for i in range(n) for j in range(n)))

    def __mul__(self, other: "CycMatrix") -> "CycMatrix":
        n = self.n
        a, b = self.data, other.data
        zero = Cyc.from_int(0)
        out = [zero] * (n * n)
        for i in range(n):
            row = i * n
            for k in range(n):
                aik = a[row + k]
                if not aik.is_zero():
                    kn = k * n
                    for j in range(n):
                        bkj = b[kn + j]
                        if not bkj.is_zero():
                            out[row + j] = out[row + j] + aik * bkj
        return CycMatrix(n, out)

    def __eq__(self, other):
        return isinstance(other, CycMatrix) and self.n == other.n and self.data == other.data

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.data)
        return h

    def trace(self) -> Cyc:
        t = Cyc.from_int(0)
        for i in range(self.n):
            t = t + self.data[i * self.n + i]
        return t

    def trace_product(self, other: "CycMatrix") -> Cyc:
        """tr(self * other) = sum of self[i][j] * other[j][i] over the nonzero
        entries of other: O(n^2), without forming the product."""
        n = self.n
        a, b = self.data, other.data
        t = Cyc.from_int(0)
        for j in range(n):
            for i in range(n):
                bji = b[j * n + i]
                if not bji.is_zero():
                    t = t + a[i * n + j] * bji
        return t

    def scale(self, s: Cyc) -> "CycMatrix":
        return CycMatrix(self.n, tuple(s * x for x in self.data))

    def __pow__(self, e: int) -> "CycMatrix":
        if e < 0:
            raise ValueError("negative powers unsupported for CycMatrix (use order)")
        out = CycMatrix.identity(self.n)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def rank(self) -> int:
        """Rank by Gauss-Jordan over the cyclotomic field."""
        n = self.n
        return len(rref([list(self.data[i * n : (i + 1) * n]) for i in range(n)], n))

    def is_scalar(self) -> Cyc | None:
        n = self.n
        s = self.data[0]
        for i in range(n):
            for j in range(n):
                x = self.data[i * n + j]
                if i == j:
                    if x != s:
                        return None
                elif not x.is_zero():
                    return None
        return s

    def order(self, cap: int = 10000) -> int:
        ident = CycMatrix.identity(self.n)
        x, k = self, 1
        while x != ident:
            x = x * self
            k += 1
            if k > cap:
                raise RuntimeError("order exceeds cap")
        return k


class MatGroup:
    """A finite matrix group given by full element enumeration."""

    def __init__(self, generators, elements, identity):
        self.generators = list(generators)
        self.elements = list(elements)
        self.identity = identity
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.order = len(self.elements)
        self._classes = None

    def __contains__(self, g):
        return g in self.index

    def element_order(self, g) -> int:
        k, x = 1, g
        while x != self.identity:
            x = x * g
            k += 1
        return k

    def conjugacy_classes(self) -> list[list]:
        if self._classes is not None:
            return self._classes
        if self.order > CONJUGACY_CAP:
            raise CapExceeded(f"group order {self.order} above conjugacy cap {CONJUGACY_CAP}")
        gen_pairs = []
        for g in self.generators:
            ginv = g ** (self.element_order(g) - 1)
            gen_pairs.append((g, ginv))
        seen = set()
        classes = []
        for x in self.elements:
            if x in seen:
                continue
            orbit = {x}
            queue = deque([x])
            while queue:
                y = queue.popleft()
                for g, ginv in gen_pairs:
                    z = g * y * ginv
                    if z not in orbit:
                        orbit.add(z)
                        queue.append(z)
            seen |= orbit
            classes.append(sorted(orbit, key=self.index.__getitem__))
        self._classes = classes
        return classes

    def class_representatives(self) -> list:
        return [c[0] for c in self.conjugacy_classes()]


def closure(generators, cap: int | None = None, identity=None) -> MatGroup:
    """Full element enumeration of the group generated by the given matrices.

    Dimino's coset enumeration (G. Butler, *Fundamental Algorithms for
    Permutation Groups*, LNCS 559, 1991, ch. 3).  The generators are taken in
    input order; one already in the group built so far is dropped, and the
    returned group's ``generators`` are the kept, irredundant ones.  For a
    kept generator g, with H the group built so far, <H, g> grows as a union
    of right cosets H*t: for each coset rep r and kept generator s, a product
    t = r*s outside the group so far starts a new coset.  Each element is
    formed once.  CapExceeded is raised exactly when the order exceeds cap,
    before the coset that would pass it is formed.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    cap = _cap(cap)
    g0 = generators[0]
    if identity is None:
        if isinstance(g0, CycMatrix):
            identity = CycMatrix.identity(g0.n)
        else:
            from .algebra.fq import FqMatrix

            identity = FqMatrix.identity(g0.F, g0.n)
    for g in generators:
        if g.rank() != g.n:
            raise ValueError("singular generator")
    elements = [identity]
    seen = {identity}
    kept = []
    for g in generators:
        if g in seen:
            continue
        kept.append(g)
        size = len(elements)  # |H|; elements[:size] is H, with the identity first
        reps = [identity]
        for r in reps:  # grows by one rep per new coset
            for s in kept:
                t = r * s
                if t in seen:
                    continue
                if len(elements) + size > cap:
                    raise CapExceeded(
                        f"closure exceeded cap {cap}: {len(elements)} elements reached, "
                        f"{len(kept)} of {len(generators)} generators kept"
                    )
                seen.add(t)
                elements.append(t)
                for i in range(1, size):
                    x = elements[i] * t
                    seen.add(x)
                    elements.append(x)
                reps.append(t)
    del seen  # freed before MatGroup builds its index, so the two never coexist
    return MatGroup(kept, elements, identity)


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

    def power_pushforward(self, k: int) -> "Spectrum":
        out: dict[UnityClass, int] = {}
        for u, m in self.mult.items():
            v = u * k
            out[v] = out.get(v, 0) + m
        return Spectrum(out)

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
        """
        n = order
        traces = [t if isinstance(t, Cyc) else Cyc.from_fraction(Fraction(t)) for t in traces]
        m = lcm(n, *[t.m for t in traces])
        zs = [Cyc.root(UnityClass(k, n), m) for k in range(n)]
        out: dict[UnityClass, int] = {}
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
        return cls(out)


def spectrum(g: CycMatrix, order: int | None = None) -> Spectrum:
    """Exact spectrum of a finite-order Cyc matrix via the character-sum formula."""
    if order is None:
        order = g.order()
    traces = []
    x = CycMatrix.identity(g.n)
    for _ in range(order):
        traces.append(x.trace())
        x = x * g
    s = Spectrum.from_power_traces(order, traces)
    if s.dimension != g.n:
        raise ValueError("multiplicities do not sum to the dimension")
    return s


def simple_spectrum(s: Spectrum) -> bool:
    return s.is_simple()


def inner_product(group: MatGroup, chi1, chi2) -> Fraction:
    """[chi1, chi2]_G = (1/|G|) sum chi1(g) * conj(chi2(g)), exact.

    chi1, chi2: callables element -> Cyc.
    """
    acc = Cyc.from_int(0)
    for g in group.elements:
        acc = acc + chi1(g) * chi2(g).conj()
    if not acc.is_rational():
        raise ValueError("inner product is irrational (inputs not class functions?)")
    return acc.rational() / group.order


def m4(group: MatGroup, rep=None) -> int:
    """Fourth moment M4 = [chi*conj(chi), chi*conj(chi)]_G, exact integer."""
    acc = Cyc.from_int(0)
    for g in group.elements:
        t = (rep(g) if rep is not None else g).trace()
        a2 = t.abs2()
        acc = acc + a2 * a2
    if not acc.is_rational():
        raise ValueError("M4 sum is irrational")
    q = acc.rational() / group.order
    if q.denominator != 1:
        raise ValueError(f"M4 is non-integral: {q}")
    return int(q)


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
