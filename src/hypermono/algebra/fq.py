"""Finite fields F_q and exact matrix algebra over them.

Elements of F_(p^f) are ints in [0, p^f) encoding coefficient vectors base p
against the deterministic defining polynomial: the monic irreducible of
degree f whose non-leading coefficient vector (a_{f-1}, ..., a_0), read as a
base-p integer, is least.  A matrix's entries are flat and row-major, in
``FqMatrix.data`` of type ``FieldSpec.key`` (``bytes`` when q <= 256, a
tuple otherwise), read the same way by the hot matrix loops (product,
Gauss-Jordan, matrix-vector) in ``_fqcore_py``.  The data is the matrix's
key: equal data means equal matrices over the same field.  Conjugation is
F_p-linear in the base-p digits of the entries, and ``FqMatrix.conjugation``
applies it to the planes of many keys at once.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

from . import _fqcore_py as _kernel
from .numth import CapExceeded, _cap, _power, _powers, is_prime

KERNEL_IMPLEMENTATION = "python"  # the only kernel; perfbench prints it on its env line


def _poly_mul_mod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % p
    # reduce by monic mod
    deg = len(mod) - 1
    for i in range(len(out) - 1, deg - 1, -1):
        c = out[i]
        if c:
            for j in range(deg + 1):
                out[i - deg + j] = (out[i - deg + j] - c * mod[j]) % p
    return out[:deg]


@lru_cache(maxsize=None)
def _defining_poly(p: int, f: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree f over F_p.

    Least under reading (a_{f-1}, ..., a_1, a_0) as a base-p integer.
    """
    if f == 1:
        return (0, 1)  # x; field(p) is built on it, so it cannot sieve for itself
    return min(irreducibles(field(p), f), key=lambda poly: poly[::-1])


class FieldSpec:
    """F_q with q = p^f and full arithmetic lookup tables (desk-scale q).
    ``exp[k] = gen^k`` (k < q - 1) is the one power table; ``key`` is the
    type of an FqMatrix's data over F_q, ``bytes`` when q <= 256."""

    def __init__(self, p: int, f: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if f < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.f = f
        self.q = p**f
        self.poly = _defining_poly(p, f)
        q = self.q
        self.key = bytes if q <= 256 else tuple
        # element i encodes sum_j digit_j(i) * x^j, digit_0 = i mod p; addition
        # is digit-wise, so the table for p^k comes from the one for p^(k-1)
        prime_rows = [[(a + b) % p for b in range(p)] for a in range(p)]
        rows = prime_rows
        for _ in range(f - 1):
            rows = [[p * hi + lo for hi in rows[a // p] for lo in prime_rows[a % p]] for a in range(len(rows) * p)]
        self.add = [s for row in rows for s in row]
        self.neg = [self._encode([(-x) % p for x in self._digits(a)]) for a in range(q)]
        # gen: the least a whose powers a^0, a^1, ..., walked in polynomial
        # arithmetic, take q - 1 steps to return to 1; that walk is the exp
        # table, and mul, inv and dlog come from it
        poly, one = list(self.poly), [1] + [0] * (f - 1)
        for gen in range(1, q):
            a = x = self._digits(gen)
            exp = [1]
            while x != one:
                exp.append(self._encode(x))
                x = _poly_mul_mod(x, a, poly, p)
            if len(exp) == q - 1:
                break
        self.gen, self.exp = gen, exp
        dlog = [0] * q  # dlog[a] = k with gen^k = a (a != 0)
        for k, a in enumerate(exp):
            dlog[a] = k
        self.dlog = dlog
        exp2 = exp + exp
        logs = dlog[1:]
        mul = [0] * q
        for a in range(1, q):
            row = exp2[dlog[a] : dlog[a] + q - 1]  # row[k] = a * gen^k
            mul.append(0)
            mul.extend([row[k] for k in logs])
        self.mul = mul
        self.inv = [0] + [exp[-k] for k in logs]
        self.frob = self.subfield_power_map(1)  # x -> x^p

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.f):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits) -> int:
        out = 0
        for d in reversed(list(digits)):
            out = out * self.p + d % self.p
        return out

    def element_order(self, a: int) -> int:
        """The multiplicative order of a, power by power: the reference
        test_tables_are_polynomial_arithmetic holds gen to."""
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        k, x = 1, a
        while x != 1:
            x = self.mul[x * self.q + a]
            k += 1
        return k

    def sub(self, a: int, b: int) -> int:
        return self.add[a * self.q + self.neg[b]]

    def trace_to_prime(self, a: int) -> int:
        """Tr_{F_q/F_p}(a) as an int in [0, p)."""
        t, x = 0, a
        for _ in range(self.f):
            t = self.add[t * self.q + x]
            x = self.frob[x]
        return t  # lies in the prime field: encoding of c is c itself

    def subfield_power_map(self, e: int) -> list[int]:
        """The map x -> x^(p^e) as a table, in one pass: gen^k -> gen^(k p^e), 0 -> 0."""
        exp, r, m = self.exp, self.p**e, self.q - 1
        return [0] + [exp[k * r % m] for k in self.dlog[1:]]

    def __repr__(self):
        return f"F_{self.q}" if self.f > 1 else f"F_{self.p}"


def field(p: int, f: int = 1) -> FieldSpec:
    """The one FieldSpec of F_(p^f), however f is spelled: field(3) is field(3, 1).
    CapExceeded, before the cache, when its tables of q^2 entries pass the cap
    in force, so the answer does not depend on the cap that first built it."""
    q, cap = p**f, _cap(None)
    if q * q > cap:
        raise CapExceeded(f"the tables of F_{q}, q^2 = {q * q} entries, pass the cap {cap}")
    return _field(p, f)


_field = lru_cache(maxsize=None)(FieldSpec)


class _Memo(dict):
    """A dict that forms a missing value as fn(key), once."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class FqMatrix:
    """Square matrix over a FieldSpec; immutable, hashable.  Its entries are
    ``data``, flat and row-major, of the field's ``key`` type."""

    __slots__ = ("F", "n", "data")

    def __init__(self, F: FieldSpec, n: int, data):
        self.F = F
        self.n = n
        self.data = F.key(data)
        if len(self.data) != n * n:
            raise ValueError("matrix data has wrong length")

    @classmethod
    def _make(cls, F: FieldSpec, n: int, data) -> "FqMatrix":
        """Unchecked constructor for data of n * n entries already of F's
        ``key`` type."""
        x = object.__new__(cls)
        x.F, x.n, x.data = F, n, data
        return x

    @classmethod
    def identity(cls, F: FieldSpec, n: int) -> "FqMatrix":
        return cls(F, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def scalar(cls, F: FieldSpec, n: int, s: int) -> "FqMatrix":
        return cls(F, n, tuple(s if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def from_rows(cls, F: FieldSpec, rows) -> "FqMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        return cls(F, n, tuple(x % F.q for r in rows for x in r))

    def rows(self):
        return [list(self.data[i * self.n : (i + 1) * self.n]) for i in range(self.n)]

    def __mul__(self, other: "FqMatrix") -> "FqMatrix":
        F = self.F
        return FqMatrix._make(F, self.n, F.key(_kernel.mat_mul(self.data, other.data, self.n, F.q, F.mul, F.add)))

    def __eq__(self, other):
        return isinstance(other, FqMatrix) and self.data == other.data and self.F is other.F

    def __hash__(self):
        return hash(self.data)

    def right_multiplier(self):
        """The map y.data -> (y * self).data on data keys, row by row: row i
        of y * self is self^T applied to row i of y, formed with ``mat_vec``
        the first time the map meets that row and looked up after.  The memo
        lives as long as the map and holds at most one image per distinct
        row, q^n at most."""
        F, n = self.F, self.n
        q, mul, add, mat_vec, key = F.q, F.mul, F.add, _kernel.mat_vec, F.key
        st = self.transpose().data
        image = _Memo(lambda row: key(mat_vec(st, row, n, q, mul, add))).__getitem__
        first, *rest = [slice(i, i + n) for i in range(0, n * n, n)]

        def times(y):
            out = image(y[first])
            for s in rest:
                out += image(y[s])
            return out

        return times

    def conjugation(self, inverse: "FqMatrix"):
        """The map y -> self * y * inverse on data planes, or None unless
        p <= 128 and q <= 256: plane k holds entry k of many data keys, that
        is ``b"".join(keys)[k::n^2]``.  The map is F_p-linear in the base-p
        digits of the entries, with matrix L read off the images of the
        N = n^2 f basis digits (2N products).  For f > 1 plane k splits into
        its f digit planes through f translate tables, and the image digits
        recombine through f more.  Image digit plane d' sums digit plane d
        read through the byte table y -> L[d', d] y mod p over d, as ints
        (byte k of the int is byte k of the plane), reduced by one translate
        before a byte could carry; a reduced sum takes one more term without
        a carry when 2(p - 1) <= 255."""
        F, n = self.F, self.n
        p, f = F.p, F.f
        per = 255 // (p - 1) - 1  # terms a reduced sum takes before a byte could carry
        if per < 1 or F.key is not bytes:
            return None
        size = n * n * f
        basis = []  # image digits of each basis digit: x^(k % f) at entry k // f
        for k in range(size):
            e = [0] * (n * n)
            e[k // f] = p ** (k % f)
            basis.append([d for x in (self * FqMatrix(F, n, e) * inverse).data for d in F._digits(x)])
        times = [bytes(c * b % p for b in range(p)).ljust(256, b"\0") for c in range(p)]  # digits are < p
        reduce = bytes(b % p for b in range(256))
        place = [bytes(b * p**d for b in range(p)).ljust(256, b"\0") for d in range(f)]  # digit d's share
        from_bytes = int.from_bytes

        def conj(planes: list[bytes]) -> list[bytes]:
            planes = _digit_planes(F, planes)
            m, images = len(planes[0]), []
            for row in range(size):
                terms = [from_bytes(x.translate(times[c[row]]), "little") for x, c in zip(planes, basis) if c[row]]
                image = bytes(m)
                for lo in range(0, len(terms), per):
                    image = from_bytes(image, "little") + sum(terms[lo : lo + per])
                    image = image.to_bytes(m, "little").translate(reduce)
                images.append(image)
            if f > 1:  # an entry is the sum of its digits d times p^d, with no carry as q <= 256
                digits, images = images, []
                for k in range(0, size, f):
                    entry = sum(from_bytes(x.translate(t), "little") for x, t in zip(digits[k : k + f], place))
                    images.append(entry.to_bytes(m, "little"))
            return images

        return conj

    def rank(self) -> int:
        F = self.F
        return _kernel.mat_rank(self.data, self.n, F.q, F.mul, F.add, F.neg, F.inv)

    def sub_scalar(self, lam: int) -> "FqMatrix":
        F, n = self.F, self.n
        d = list(self.data)
        for i in range(n):
            d[i * n + i] = F.sub(d[i * n + i], lam)
        return FqMatrix(F, n, d)

    def transpose(self) -> "FqMatrix":
        n = self.n
        return FqMatrix(self.F, n, tuple(self.data[j * n + i] for i in range(n) for j in range(n)))

    def map_entries(self, table) -> "FqMatrix":
        return FqMatrix(self.F, self.n, tuple(table[x] for x in self.data))

    def inverse(self) -> "FqMatrix":
        F, n = self.F, self.n
        m = [list(self.data[i * n : (i + 1) * n]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
        if len(_kernel.rref(m, n, F.q, F.mul, F.add, F.neg, F.inv)) < n:
            raise ZeroDivisionError("singular matrix")
        return FqMatrix(F, n, tuple(m[i][n + j] for i in range(n) for j in range(n)))

    def __pow__(self, e: int) -> "FqMatrix":
        return _power(self.inverse() if e < 0 else self, abs(e), FqMatrix.identity(self.F, self.n))

    def order(self) -> int:
        """The least k >= 1 with self^k = 1; CapExceeded past the cap (a
        singular matrix never reaches the identity)."""
        return sum(1 for _ in _powers(self))

    def apply(self, v):
        F = self.F
        return _kernel.mat_vec(self.data, tuple(v), self.n, F.q, F.mul, F.add)

    def char_poly(self) -> tuple[int, ...]:
        """Characteristic polynomial coefficients (low to high, monic) over F_q,
        by cofactor expansion: the reference that
        TestClassData.test_characteristic_polynomials holds gl_classes to."""
        F, n, q = self.F, self.n, self.F.q
        # cofactor expansion of x*I - A over F_q[x], kept to n <= 6
        if n > 6:
            raise NotImplementedError("char_poly implemented for n <= 6")

        def det_poly(rows):
            # rows: list of lists of poly coeff tuples over F_q
            k = len(rows)
            if k == 1:
                return rows[0][0]
            out = None
            for j in range(k):
                entry = rows[0][j]
                if not any(entry):
                    continue
                minor = [[rows[i][jj] for jj in range(k) if jj != j] for i in range(1, k)]
                sub = det_poly(minor)
                term = poly_mul_fq(F, entry, sub)
                if j % 2 == 1:
                    term = tuple(F.neg[c] for c in term)
                out = term if out is None else _polyadd_fq(F, out, term)
            return out if out is not None else (0,)

        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                a = self.data[i * n + j]
                if i == j:
                    row.append((F.neg[a], 1))  # x - a
                else:
                    row.append((F.neg[a],))
            rows.append(row)
        poly = list(det_poly(rows))
        while len(poly) < n + 1:
            poly.append(0)
        return tuple(poly)

    def __repr__(self):
        return f"FqMatrix({self.F}, {self.rows()})"


def _digit_planes(F: FieldSpec, planes: list[bytes]) -> list[bytes]:
    """The digit planes of data planes over F (q <= 256): digit d of plane k,
    lowest first, at k * f + d, each read through one translate table; the
    data planes themselves when f = 1."""
    p, f = F.p, F.f
    if f == 1:
        return planes
    digit = [bytes(b // p**d % p for b in range(256)) for d in range(f)]
    return [x.translate(t) for x in planes for t in digit]


def _polyadd_fq(F, a, b):
    la, lb = len(a), len(b)
    out = []
    for i in range(max(la, lb)):
        x = a[i] if i < la else 0
        y = b[i] if i < lb else 0
        out.append(F.add[x * F.q + y])
    return tuple(out)


def poly_mul_fq(F: FieldSpec, a, b) -> tuple[int, ...]:
    """Product of two polynomials (low-to-high coeffs over F_q)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add[out[i + j] * F.q + F.mul[x * F.q + y]]
    return tuple(out)


def nullspace(F: FieldSpec, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of {v in F_q^ncols : rows v = 0}, one vector per free column."""
    rows = [list(r) for r in rows]
    pivots = _kernel.rref(rows, ncols, F.q, F.mul, F.add, F.neg, F.inv)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[fc] = 1
        for r, c in enumerate(pivots):
            v[c] = F.neg[rows[r][fc]]
        basis.append(v)
    return basis


def kernel_dim(a: FqMatrix, lam: int = 0) -> int:
    """dim over F_q of ker(a - lam * I)."""
    if not 0 <= lam < a.F.q:
        raise ValueError("scalar outside the field")
    return a.n - a.sub_scalar(lam).rank()


def irreducibles(F: FieldSpec, d: int):
    """The monic irreducibles of degree d over F other than x, as low-to-high
    coefficient tuples, in itertools.product order of the non-leading
    coefficients (the constant term varies slowest).

    A sieve, one constant term c != 0 at a time: one flag byte per monic of
    degree d with constant term c, at its place in that order.  Every
    product g h of an irreducible g of degree k <= d/2 with a monic h of
    degree d - k and constant term c/g_0 is flagged, and the unflagged
    monics are yielded.  Each constant term's flags take q^(d-1) bytes.
    """
    q, add, mul, inv = F.q, F.add, F.mul, F.inv
    factors = [g for k in range(1, d // 2 + 1) for g in irreducibles(F, k)]
    place = [q ** (d - 2 - i) for i in range(d - 1)]  # of c_1, ..., c_(d-1); c_1 leads
    for c in range(1, q):
        composite = bytearray(q ** (d - 1))
        for g in factors:
            k, h0 = len(g) - 1, mul[c * q + inv[g[0]]]
            start = [0] * (d - k) + list(g[:k])  # g x^(d-k), without its leading 1
            start[: k + 1] = [add[x * q + mul[h0 * q + a]] for x, a in zip(start, g)]  # + h_0 g
            products = [start]
            for j in range(1, d - k):  # + h_j g x^j, for every h_j
                products = [
                    v[:j] + [add[x * q + mul[s * q + a]] for x, a in zip(v[j:], g)] + v[j + k + 1 :]
                    for v in products
                    for s in range(q)
                ]
            for v in products:
                composite[sum(map(operator.mul, v[1:], place))] = 1
        for rest in itertools.compress(itertools.product(range(q), repeat=d - 1), map(operator.not_, composite)):
            yield (c,) + rest + (1,)


def companion_matrix(F: FieldSpec, coeffs) -> FqMatrix:
    """Companion matrix of a monic polynomial (low-to-high coeffs over F_q)."""
    n = len(coeffs) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = F.neg[coeffs[i] % F.q]
    return FqMatrix.from_rows(F, rows)
