"""Small integer number theory helpers (trial-division scale)."""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}."""
    if n <= 0:
        raise ValueError("factor() wants a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    fac = factor(n)
    out = [1]
    for p, e in fac.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n == 1:
        return 1
    out = n
    for p in factor(n):
        out = out // p * (p - 1)
    return out


def mult_order(a: int, n: int) -> int:
    """Least k > 0 with a**k == 1 mod n.  Requires gcd(a, n) == 1."""
    if n <= 0:
        raise ValueError("modulus must be positive")
    if gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1, no multiplicative order")
    if n == 1:
        return 1
    order = 1
    x = a % n
    while x != 1:
        x = x * a % n
        order += 1
    return order


def least_prime_divisor(n: int) -> int:
    if n < 2:
        raise ValueError("need n >= 2")
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def perfect_power(n: int) -> tuple[int, int] | None:
    """(base, k) with n == base**k for the largest possible k >= 2, else None."""
    if n < 2:
        return None
    best = None
    for k in range(2, n.bit_length() + 1):
        lo, hi = 2, 1 << (n.bit_length() // k + 1)
        while lo <= hi:
            mid = (lo + hi) // 2
            v = mid**k
            if v == n:
                best = (mid, k)
                break
            if v < n:
                lo = mid + 1
            else:
                hi = mid - 1
    return best


def is_prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with n == p**e, p prime, else None."""
    if n < 2:
        return None
    fac = factor(n)
    if len(fac) != 1:
        return None
    ((p, e),) = fac.items()
    return p, e


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n, for n >= 1 and p >= 2."""
    if n < 1 or p < 2:
        raise ValueError(f"p_part wants n >= 1 and p >= 2, got n = {n}, p = {p}")
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def p_prime_part(n: int, p: int) -> int:
    return n // p_part(n, p)


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]
