"""Small integer number theory at trial-division scale, the one cap, the one power and walk.

Every loop whose length comes from the input is bounded by one cap:
HYPERMONO_CAP when set, else DEFAULT_CAP (``_cap``); past it the loop raises
CapExceeded.  ``least_prime_divisor`` is the only trial division: its odd
divisors stop at 2 cap + 1, so every number below (2 cap + 3)^2 still factors
fully, and ``is_prime``, ``factor`` and everything built on them
(``is_prime_power``, ``divisors``, ``euler_phi``) share that bound.
``_power`` (square-and-multiply) is every ``**`` of the matrix types and Cyc,
and ``_powers`` (the capped walk g^0, g^1, ...) every ``.order()`` and spectrum.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import gcd, isqrt

DEFAULT_CAP = 2_000_000


def _cap(cap: int | None) -> int:
    """cap itself, else HYPERMONO_CAP when set, else DEFAULT_CAP; ValueError
    unless the variable is a positive integer."""
    if cap is not None:
        return cap
    env = os.environ.get("HYPERMONO_CAP")
    if not env:
        return DEFAULT_CAP
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"HYPERMONO_CAP must be a positive integer, got {env!r}")
    return value


class CapExceeded(RuntimeError):
    pass


def _power(x, e: int, one):
    """x ** e for e >= 0 by square-and-multiply from the identity one."""
    out = one
    while e:
        if e & 1:
            out = out * x
        x = x * x
        e >>= 1
    return out


def _powers(g, cap: int | None = None):
    """g^0, g^1, ..., g^(K-1) for the order K of g, one product per step;
    CapExceeded once cap powers (default as in ``_cap``) pass without
    reaching the identity."""
    cap = _cap(cap)
    ident = x = g**0
    for _ in range(cap):
        yield x
        x = x * g
        if x == ident:
            return
    raise CapExceeded(f"the powers of g pass cap {cap} before reaching the identity")


def is_prime(n: int) -> bool:
    return n >= 2 and least_prime_divisor(n) == n


def factor(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}: each
    least_prime_divisor call starts from the last prime found."""
    if n <= 0:
        raise ValueError("factor() wants a positive integer")
    out: dict[int, int] = {}
    p = 2
    while n > 1:
        p = least_prime_divisor(n, p)
        out[p] = 0
        while n % p == 0:
            out[p] += 1
            n //= p
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


def least_prime_divisor(n: int, start: int = 2) -> int:
    """The least prime divisor of n >= 2 that is at least start (n itself
    when none is).  The odd trial divisors stop at 2 cap + 1, the first cap of
    them: CapExceeded when the least one might lie past them."""
    if n < 2:
        raise ValueError("need n >= 2")
    if start <= 2 and n % 2 == 0:
        return 2
    cap, last = _cap(None), isqrt(n)
    for d in range(max(3, start | 1), min(last, 2 * cap + 1) + 1, 2):
        if n % d == 0:
            return d
    if last >= 2 * cap + 3:
        raise CapExceeded(f"trial division of a {n.bit_length()}-bit number passes cap {cap} odd divisors")
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


def partitions(n: int, max_part: int | None = None):
    """All partitions of n as non-increasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for part in range(min(n, max_part), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]
