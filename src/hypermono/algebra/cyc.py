"""Exact cyclotomic numbers.

A ``Cyc`` holds an element of Q(zeta_m) as an integer coefficient vector in
the power basis 1, z, ..., z^(phi(m)-1) modulo the m-th cyclotomic
polynomial, together with a positive integer denominator.  All arithmetic is
exact; there is no floating point anywhere.  Conductors lift to the lcm on
mixed operations and are never minimized automatically (hashing uses a
lazily computed minimal canonical form so that equal values hash equally
across conductors).  Every sum of roots of unity with integer weights is
built by ``Cyc.from_root_sum``.

Field operations use closed forms and solve no linear system: ``minimize``
steps down one prime at a time by the relative trace to Q(zeta_(m/p)), and
``inverse`` divides the product of the nontrivial Galois conjugates by the
rational norm.  ``rref`` serves only the rank of ``CycMatrix``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .numth import _power, euler_phi, factor
from .unity import UnityClass


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (num by den, den monic-led)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            phi_d = cyclotomic_poly(d)
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                for j, b in enumerate(phi_d):
                    new[i + j] += a * b
            den = new
    return tuple(_poly_divexact(num, den))


class _Ctx:
    """Cached arithmetic tables for one conductor."""

    def __init__(self, m: int):
        self.m = m
        self.phi = euler_phi(m)
        poly = cyclotomic_poly(m)
        phi = self.phi
        # power[k] = coefficient vector of zeta^k, k in [0, m)
        power: list[tuple[int, ...]] = []
        cur = [0] * phi
        cur[0] = 1
        for _ in range(m):
            power.append(tuple(cur))
            nxt = [0] * (phi + 1)
            for i, c in enumerate(cur):
                nxt[i + 1] = c
            top = nxt[phi]
            if top:
                for i in range(phi):
                    nxt[i] -= top * poly[i]
            cur = nxt[:phi]
        self.power = power
        # reduction rows for x^j, j in [phi, 2*phi-2]: x^m = 1 mod Phi_m
        self.red = [power[j % m] for j in range(phi, 2 * phi - 1)]
        # conj rows: zeta^k -> zeta^(m-k) for basis k
        self.conj_rows = [power[(m - k) % m] for k in range(phi)]

    def galois_rows(self, t: int) -> list[tuple[int, ...]]:
        return [self.power[(k * t) % self.m] for k in range(self.phi)]


@lru_cache(maxsize=None)
def _ctx(m: int) -> _Ctx:
    return _Ctx(m)


def _reduce(ctx: _Ctx, prod: list[int]) -> list[int]:
    """A product of two power-basis vectors, its 2*phi - 1 coefficients,
    reduced modulo the m-th cyclotomic polynomial."""
    phi = ctx.phi
    out = prod[:phi]
    red = ctx.red
    for j in range(phi, len(prod)):
        c = prod[j]
        if c:
            for i, r in enumerate(red[j - phi]):
                if r:
                    out[i] += c * r
    return out


def _mul_vec(ctx: _Ctx, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    prod = [0] * (2 * ctx.phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    return tuple(_reduce(ctx, prod))


def _apply_rows(rows, coeffs, phi):
    out = [0] * phi
    for k, c in enumerate(coeffs):
        if c:
            row = rows[k]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
    return tuple(out)


@lru_cache(maxsize=256)
def _lift_rows(m: int, m2: int) -> tuple[tuple[int, ...], ...]:
    """Rows taking conductor-m coefficients to conductor m2, a multiple of m."""
    power, step = _ctx(m2).power, m2 // m
    return tuple(power[(k * step) % m2] for k in range(euler_phi(m)))


def _times_root(ctx: _Ctx, v: tuple[int, ...], k: int) -> tuple[int, ...]:
    """v * zeta_m^k for power-basis coefficients v."""
    if not k:
        return v
    m, power = ctx.m, ctx.power
    return _apply_rows([power[(i + k) % m] for i in range(ctx.phi)], v, ctx.phi)


def _subfield_trace(x: "Cyc", p: int) -> "Cyc":
    """Tr(x) / [m : d] from Q(z_m) down to Q(z_d), d = m/p for a prime p | m,
    at conductor d: x itself when x lies in Q(z_d)."""
    m = x.m
    d = m // p
    if d % p == 0:  # z_m^(pj + r) = z_d^j z_m^r, and Tr(z_m^r) = 0 for 0 < r < p
        return Cyc(d, x.num[::p], x.den)
    # z_m^k = z_p^(uk) z_d^(vk) with v = 1/p mod d; Tr(z_p^(uk)) is p - 1 if p | k, else -1
    ctx, v = _ctx(d), pow(p, -1, d)
    rows = [ctx.power[v * k % d] for k in range(len(x.num))]
    weighted = [c * (p - 1) if k % p == 0 else -c for k, c in enumerate(x.num)]
    return Cyc(d, _apply_rows(rows, weighted, ctx.phi), x.den * (p - 1))


class Cyc:
    __slots__ = ("m", "num", "den", "_key")

    def __init__(self, m: int, num: tuple[int, ...], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("Cyc denominator is zero")
        if den < 0:
            den, num = -den, tuple(-c for c in num)
        if den != 1:  # at den = 1 the gcd is 1 whatever the coefficients
            g = gcd(den, *num)
            if g > 1:
                den //= g
                num = tuple(c // g for c in num)
        if not any(num):
            m, num, den = 1, (0,), 1
        self.m, self.num, self.den, self._key = m, num, den, None

    # -- constructors ------------------------------------------------
    @classmethod
    def _make(cls, m: int, num: tuple[int, ...], den: int) -> "Cyc":
        """Unchecked constructor for a value already in the normal form __init__ gives."""
        x = object.__new__(cls)
        x.m, x.num, x.den, x._key = m, num, den, None
        return x

    @classmethod
    def from_int(cls, n: int) -> "Cyc":
        if n == 0:
            return ZERO
        return cls._make(1, (n,), 1)

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "Cyc":
        q = Fraction(q)
        if q == 0:
            return ZERO
        return cls(1, (q.numerator,), q.denominator)

    @classmethod
    def root(cls, u: UnityClass, m: int | None = None) -> "Cyc":
        """zeta_m ** (m * u) for a conductor multiple m of order(u)."""
        if m is None:
            m = u.den
        if m % u.den != 0:
            raise ValueError(f"conductor {m} does not admit a root of order {u.den}")
        k = u.num * (m // u.den)
        ctx = _ctx(m)
        return cls(m, ctx.power[k % m], 1)

    @classmethod
    def from_root_sum(cls, m: int, weights, den: int = 1) -> "Cyc":
        """sum of weights[k] * zeta_m^k over k < len(weights) <= m, over a
        nonzero den: one pass over the power table, normalized once."""
        ctx = _ctx(m)
        return cls(m, _apply_rows(ctx.power, weights, ctx.phi), den)

    # -- conductor handling ------------------------------------------
    def lift(self, m2: int) -> "Cyc":
        if m2 == self.m:
            return self
        if m2 % self.m != 0:
            raise ValueError(f"cannot lift conductor {self.m} to non-multiple {m2}")
        return Cyc(m2, _apply_rows(_lift_rows(self.m, m2), self.num, _ctx(m2).phi), self.den)

    @staticmethod
    def _common(a: "Cyc", b: "Cyc") -> tuple["Cyc", "Cyc"]:
        if a.m == b.m:
            return a, b
        m = lcm(a.m, b.m)
        return a.lift(m), b.lift(m)

    # -- ring operations ---------------------------------------------
    def __add__(self, other) -> "Cyc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b = Cyc._common(self, other)
        da, db = a.den, b.den
        num = tuple(x * db + y * da for x, y in zip(a.num, b.num))
        return Cyc(a.m, num, da * db)

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc._make(self.m, tuple(-c for c in self.num), self.den)

    def __sub__(self, other) -> "Cyc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other) -> "Cyc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ZERO
        a, b = Cyc._common(self, other)
        return Cyc(a.m, _mul_vec(_ctx(a.m), a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Cyc":
        return _power(self.inverse() if k < 0 else self, abs(k), ONE)

    def conj(self) -> "Cyc":
        ctx = _ctx(self.m)
        return Cyc(self.m, _apply_rows(ctx.conj_rows, self.num, ctx.phi), self.den)

    def galois(self, t: int) -> "Cyc":
        """Apply the Galois map zeta -> zeta^t (gcd(t, m) must be 1): the
        reference test_minimize_meets_the_definition holds minimize to."""
        if gcd(t, self.m) != 1:
            raise ValueError("galois twist index must be coprime to the conductor")
        ctx = _ctx(self.m)
        return Cyc(self.m, _apply_rows(ctx.galois_rows(t % self.m), self.num, ctx.phi), self.den)

    def abs2(self) -> "Cyc":
        """x * conj(x); lands in the real subfield, rational in small cases."""
        return self * self.conj()

    # -- predicates / extraction --------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def is_integer(self) -> bool:
        return self.is_rational() and self.den == 1

    def integer(self) -> int:
        q = self.rational()
        if q.denominator != 1:
            raise ValueError(f"{self!r} is not a rational integer")
        return q.numerator

    def as_root_of_unity(self) -> UnityClass | None:
        """If x == zeta_m^k (exactly, including -1 factors), its class in Q/Z."""
        if self.den != 1:
            return None
        ctx = _ctx(self.m)
        for k in range(self.m):
            if self.num == ctx.power[k]:
                return UnityClass(k, self.m)
        if self.m % 2 == 1:  # -zeta^k = zeta_{2m}^{m+2k}
            for k in range(self.m):
                if self.num == tuple(-c for c in ctx.power[k]):
                    return UnityClass(self.m + 2 * k, 2 * self.m)
        return None

    # -- canonical form, equality, hashing ----------------------------
    def _canonical(self):
        key = self._key
        if key is None:
            c = self.minimize()
            key = self._key = (c.m, c.num, c.den)
        return key

    def minimize(self) -> "Cyc":
        """Equal value at the smallest conductor (conductor minimization on demand).

        For each prime p | m, x lies in Q(z_(m/p)) exactly when its relative
        trace to that subfield, over the degree, lifts back to x; then that
        quotient is x at conductor m/p.  A prime that fails at m fails at
        every divisor of m, so one pass over the primes reaches the minimum."""
        cur = self
        for p in factor(self.m):
            while cur.m % p == 0:
                down = _subfield_trace(cur, p)
                if down.lift(cur.m) != cur:
                    break
                cur = down
        return cur

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.m == other.m:
            return self.num == other.num and self.den == other.den
        a, b = Cyc._common(self, other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        return hash(self._canonical())

    def __repr__(self) -> str:
        if self.is_rational():
            q = self.rational()
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        terms = []
        for k, c in enumerate(self.num):
            if c:
                z = f"z{self.m}^{k}" if k > 1 else ("1" if k == 0 else f"z{self.m}")
                terms.append(f"{c}*{z}")
        s = " + ".join(terms).replace("+ -", "- ")
        return s if self.den == 1 else f"({s})/{self.den}"

    # -- field inverse -------------------------------------------------
    def inverse(self) -> "Cyc":
        """1/x = (prod over t != 1 of sigma_t(x)) / N(x), where the Galois
        norm N(x) = x * prod over t != 1 of sigma_t(x) is rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero Cyc")
        if self.is_rational():
            return Cyc.from_fraction(1 / self.rational())
        m, ctx = self.m, _ctx(self.m)
        rest = ctx.power[0]
        for t in range(2, m):
            if gcd(t, m) == 1:
                rest = _mul_vec(ctx, rest, _apply_rows(ctx.galois_rows(t), self.num, ctx.phi))
        # x = num/den, so 1/x = den * rest(num) / N(num)
        return Cyc(m, tuple(c * self.den for c in rest), _mul_vec(ctx, self.num, rest)[0])

    def __truediv__(self, other) -> "Cyc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()


def _coerce(x) -> "Cyc":
    if isinstance(x, Cyc):
        return x
    if isinstance(x, int):
        return Cyc.from_int(x)
    if isinstance(x, Fraction):
        return Cyc.from_fraction(x)
    return NotImplemented


def rref(rows: list[list], ncols: int) -> list[int]:
    """Gauss-Jordan over an exact field (Fraction or Cyc entries), in place:
    reduce rows to reduced row echelon form, pivoting in the first ncols
    columns (later columns ride along).  Returns the pivot columns."""
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        prow = rows[r] = [v * inv for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, prow)]
        pivots.append(col)
    return pivots


ZERO = Cyc._make(1, (0,), 1)
ONE = Cyc._make(1, (1,), 1)


def zeta(m: int) -> Cyc:
    return Cyc.root(UnityClass(1, m), m)


def json_int(x, what: str) -> int:
    """A JSON integer; booleans and floats raise ValueError, never truncate."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be a JSON integer, got {json.dumps(x)}")
    return x


def cyc_from_literal(obj: dict) -> Cyc:
    """A {"conductor": m, "coeffs": [...], "den": d} literal: phi(m) integer
    power-basis coefficients over the denominator d (default 1)."""
    m = json_int(obj.get("conductor"), "conductor")
    den = json_int(obj.get("den", 1), "den")
    coeffs = obj.get("coeffs")
    if m < 1 or den == 0 or not isinstance(coeffs, list) or len(coeffs) != euler_phi(m):
        raise ValueError(f"bad cyclotomic literal {json.dumps(obj)}")
    return Cyc(m, tuple(json_int(c, "coefficient") for c in coeffs), den)
