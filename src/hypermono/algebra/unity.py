"""Roots of unity as exact residues in Q/Z.

A ``UnityClass`` is a reduced fraction num/den taken mod 1; den is the
multiplicative order of the character / eigenvalue it encodes.  The group
operation is written additively (addition mod 1).
"""

from __future__ import annotations

from math import gcd


class UnityClass:
    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        if den <= 0:
            raise ValueError("denominator must be a positive integer")
        num %= den
        g = gcd(num, den)
        self.num, self.den = num // g, den // g

    @property
    def order(self) -> int:
        return self.den

    def is_trivial(self) -> bool:
        return self.den == 1

    def __add__(self, other: "UnityClass") -> "UnityClass":
        return UnityClass(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "UnityClass") -> "UnityClass":
        return UnityClass(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "UnityClass":
        return UnityClass(-self.num, self.den)

    def __mul__(self, k: int) -> "UnityClass":
        if not isinstance(k, int):
            return NotImplemented
        return UnityClass(self.num * k, self.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UnityClass)
            and self.num == other.num
            and self.den == other.den
        )

    def __lt__(self, other: "UnityClass") -> bool:
        return self.num * other.den < other.num * self.den

    def __le__(self, other: "UnityClass") -> bool:
        return self.num * other.den <= other.num * self.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str) -> "UnityClass":
        text = text.strip()
        if "/" in text:
            a, b = text.split("/")
            return cls(int(a), int(b))
        # bare integers denote the trivial class (integer shifts vanish mod 1)
        return cls(int(text), 1)


def unity(a: int, n: int) -> UnityClass:
    """The class a/n mod 1 (reduced)."""
    return UnityClass(a, n)

