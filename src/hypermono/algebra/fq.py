"""Finite fields F_q and exact matrix algebra over them.

Elements of F_(p^f) are ints in [0, p^f) encoding coefficient vectors base p
against the deterministic defining polynomial: the monic irreducible of
degree f whose non-leading coefficient vector (a_{f-1}, ..., a_0), read as a
base-p integer, is least.  Matrices are flat row-major tuples; the hot
matrix loops (product, rank, matrix-vector) live in ``_fqcore_py``.
"""

from __future__ import annotations

from functools import lru_cache

from . import _fqcore_py as _kernel
from .numth import is_prime, prime_divisors

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
        return (0, 1)  # x; field(p) is built on it, so it cannot test itself
    Fp = field(p)
    for code in range(p**f):
        coeffs = []
        c = code
        for _ in range(f):
            coeffs.append(c % p)
            c //= p
        poly = coeffs + [1]  # low-to-high, monic
        if poly_is_irreducible_fq(Fp, poly):
            return tuple(poly)
    raise RuntimeError("no irreducible polynomial found (unreachable)")


class FieldSpec:
    """F_q with q = p^f and full arithmetic lookup tables (desk-scale q)."""

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
        # element i encodes sum_j digit_j(i) * x^j, digit_0 = i mod p; addition
        # is digit-wise, so the table for p^k comes from the one for p^(k-1)
        prime_rows = [[(a + b) % p for b in range(p)] for a in range(p)]
        rows = prime_rows
        for _ in range(f - 1):
            rows = [[p * hi + lo for hi in rows[a // p] for lo in prime_rows[a % p]] for a in range(len(rows) * p)]
        self.add = [s for row in rows for s in row]
        self.neg = [self._encode([(-x) % p for x in self._digits(a)]) for a in range(q)]
        # gen: the least element of order q - 1, found by powering candidates in
        # polynomial arithmetic; then mul, inv and dlog come from its exp/log tables
        poly = list(self.poly)
        one = [1] + [0] * (f - 1)

        def power(a, e):
            out, base = one, self._digits(a)
            while e:
                if e & 1:
                    out = _poly_mul_mod(out, base, poly, p)
                base = _poly_mul_mod(base, base, poly, p)
                e >>= 1
            return out

        self.gen = next(a for a in range(1, q) if all(power(a, (q - 1) // r) != one for r in prime_divisors(q - 1)))
        exp, x, g = [1], one, self._digits(self.gen)
        for _ in range(q - 2):
            x = _poly_mul_mod(x, g, poly, p)
            exp.append(self._encode(x))
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
        self.frob = [self.pow(a, p) for a in range(q)]  # x -> x^p

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

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv[a]
            e = -e
        out, base = 1, a
        mul, q = self.mul, self.q
        while e:
            if e & 1:
                out = mul[out * q + base]
            base = mul[base * q + base]
            e >>= 1
        return out

    def element_order(self, a: int) -> int:
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
        """The map x -> x^(p^e) as a table."""
        out = list(range(self.q))
        for _ in range(e):
            out = [self.frob[x] for x in out]
        return out

    def __repr__(self):
        return f"F_{self.q}" if self.f > 1 else f"F_{self.p}"


@lru_cache(maxsize=None)
def field(p: int, f: int = 1) -> FieldSpec:
    return FieldSpec(p, f)


class FqMatrix:
    """Square matrix over a FieldSpec; immutable, hashable."""

    __slots__ = ("F", "n", "data")

    def __init__(self, F: FieldSpec, n: int, data):
        self.F = F
        self.n = n
        self.data = tuple(data)
        if len(self.data) != n * n:
            raise ValueError("matrix data has wrong length")

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
        return FqMatrix(F, self.n, _kernel.mat_mul(self.data, other.data, self.n, F.q, F.mul, F.add))

    def __eq__(self, other):
        return isinstance(other, FqMatrix) and self.data == other.data and self.F is other.F

    def __hash__(self):
        return hash(self.data)

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
        if len(rref(F, m, n)) < n:
            raise ZeroDivisionError("singular matrix")
        return FqMatrix(F, n, tuple(m[i][n + j] for i in range(n) for j in range(n)))

    def __pow__(self, e: int) -> "FqMatrix":
        if e < 0:
            return self.inverse() ** (-e)
        out = FqMatrix.identity(self.F, self.n)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def order(self, cap: int = 10**6) -> int:
        ident = FqMatrix.identity(self.F, self.n)
        x, k = self, 1
        while x != ident:
            x = x * self
            k += 1
            if k > cap:
                raise RuntimeError("matrix order exceeds cap (non-invertible input?)")
        return k

    def has_order(self, N: int) -> bool:
        """Whether the order is exactly N: g^N = 1 and g^(N/r) != 1 for each
        prime r dividing N, by binary powering."""
        ident = FqMatrix.identity(self.F, self.n)
        return self**N == ident and all(self ** (N // r) != ident for r in prime_divisors(N))

    def apply(self, v):
        F = self.F
        return _kernel.mat_vec(self.data, tuple(v), self.n, F.q, F.mul, F.add)

    def trace(self) -> int:
        n, F = self.n, self.F
        t = 0
        for i in range(n):
            t = F.add[t * F.q + self.data[i * n + i]]
        return t

    def char_poly(self) -> tuple[int, ...]:
        """Characteristic polynomial coefficients (low to high, monic) over F_q."""
        F, n, q = self.F, self.n, self.F.q
        # Hessenberg-free direct expansion via exact Gaussian elimination on
        # x*I - A over F_q[x] is overkill at desk scale; use Leverrier-type
        # recursion only in char 0, so here: brute interpolation-free minor
        # expansion for small n.
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
                term = _polymul_fq(F, entry, sub)
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


def _polyadd_fq(F, a, b):
    la, lb = len(a), len(b)
    out = []
    for i in range(max(la, lb)):
        x = a[i] if i < la else 0
        y = b[i] if i < lb else 0
        out.append(F.add[x * F.q + y])
    return tuple(out)


def _polymul_fq(F, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add[out[i + j] * F.q + F.mul[x * F.q + y]]
    return tuple(out)


def rref(F: FieldSpec, rows: list[list[int]], ncols: int) -> list[int]:
    """Gauss-Jordan over F_q, in place: reduce rows to reduced row echelon
    form, pivoting in the first ncols columns (later columns ride along, as
    in an augmented matrix).  Returns the pivot columns."""
    q, mul, add, neg, inv = F.q, F.mul, F.add, F.neg, F.inv
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivinv = inv[rows[r][col]]
        if pivinv != 1:
            rows[r] = [mul[pivinv * q + v] for v in rows[r]]
        prow = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = neg[row[col]]
                rows[i] = [add[a * q + mul[f * q + b]] for a, b in zip(row, prow)]
        pivots.append(col)
    return pivots


def nullspace(F: FieldSpec, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of {v in F_q^ncols : rows v = 0}, one vector per free column."""
    rows = [list(r) for r in rows]
    pivots = rref(F, rows, ncols)
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


def poly_is_irreducible_fq(F: FieldSpec, coeffs) -> bool:
    """Monic polynomial (low-to-high int coeffs over F_q) irreducible over F_q?

    Brute check by scanning for roots and low-degree factors; desk-scale only.
    """
    coeffs = list(coeffs)
    deg = len(coeffs) - 1
    if deg == 1:
        return True

    def eval_at(x):
        acc = 0
        for c in reversed(coeffs):
            acc = F.add[F.mul[acc * F.q + x] * F.q + c]
        return acc

    if any(eval_at(x) == 0 for x in range(F.q)) and deg > 1:
        return False
    if deg <= 3:
        return True
    # trial division by monic irreducible factors of degree d <= deg // 2
    for d in range(2, deg // 2 + 1):
        for code in range(F.q**d):
            g = []
            c = code
            for _ in range(d):
                g.append(c % F.q)
                c //= F.q
            g.append(1)
            if _fq_poly_divides(F, g, coeffs):
                return False
    return True


def _fq_poly_divides(F, g, f) -> bool:
    f = list(f)
    dg = len(g) - 1
    while len(f) - 1 >= dg:
        lead = f[-1]
        if lead:
            shift = len(f) - 1 - dg
            for i, c in enumerate(g):
                f[shift + i] = F.sub(f[shift + i], F.mul[lead * F.q + c])
        f.pop()
    return not any(f)


def companion_matrix(F: FieldSpec, coeffs) -> FqMatrix:
    """Companion matrix of a monic polynomial (low-to-high coeffs over F_q)."""
    n = len(coeffs) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = F.neg[coeffs[i] % F.q]
    return FqMatrix.from_rows(F, rows)
