"""Hypergeometric descriptors and their local-monodromy arithmetic.

A descriptor is a characteristic p together with the "upstairs" and
"downstairs" multisets of tame multiplicative characters, modeled as
elements of Q/Z.  Everything the wild part contributes at desk scale
(type, wild dimension W, Kummer/Belyi obstructions, determinant, wild
inertia image size) is derived arithmetic.
"""

from __future__ import annotations

import re
from math import gcd

from .algebra.cyc import json_int
from .algebra.numth import CapExceeded, _cap, divisors, is_prime, mult_order
from .algebra.unity import UnityClass, unity
from .repkit import Spectrum


class DescriptorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# character-set expressions
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(Char\*?\(\d+\)|xi\(\d+\)(?:\^-?\d+)?|\{[^{}]*\}|-?\d+/\d+|-?\d+|\||\\|\*)"
)


def chars(n: int, exact: bool = False) -> list[UnityClass]:
    """Char(N), the characters a/N of order dividing N in order of a, the
    trivial one first, or with exact Char*(N), those of order exactly N.
    CapExceeded before listing N above the cap."""
    if n <= 0:
        raise DescriptorError("Char(N) needs N >= 1")
    cap = _cap(None)
    if n > cap:
        raise CapExceeded(f"Char(N) with N = {n} lists more characters than the cap {cap}")
    return [unity(a, n) for a in range(n) if not exact or gcd(a, n) == 1]


def parse_charset(text: str) -> list[UnityClass]:
    """Evaluate a character-set expression to a multiset of Q/Z classes.

    Grammar: Char(N) | Char*(N) | xi(N)[^k] | {item, ...} | a/N,
    combined with `|` (union), `\\` (multiset difference) and
    `A*xi(N)^k` (coset translation).  `1` inside braces denotes the
    trivial character.  A malformed token or an operator without its
    operand is a DescriptorError.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise DescriptorError(f"charset parse error at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise DescriptorError("empty charset expression")

    def parse_atom(i: int) -> list[UnityClass]:
        if i == len(tokens) or tokens[i] in ("|", "\\", "*"):
            raise DescriptorError(f"charset {text!r}: an operator lacks its operand")
        tok = tokens[i]
        if tok.startswith("Char"):
            return chars(int(tok[tok.index("(") + 1 : -1]), tok.startswith("Char*"))
        try:
            if tok.startswith("xi("):
                n, k = re.fullmatch(r"xi\((\d+)\)(?:\^(-?\d+))?", tok).groups()
                return [unity(int(k or 1), int(n))]
            if tok.startswith("{"):
                inner = tok[1:-1]
                return [UnityClass.parse(t) for t in inner.split(",")] if inner.strip() else []
            return [UnityClass.parse(tok)]
        except ValueError as exc:
            raise DescriptorError(f"bad character {tok!r} in charset {text!r}: {exc}")

    # first pass: fold `*` (coset translation) into single operands
    operands: list[list[UnityClass]] = []
    ops: list[str] = []
    i = 0
    while True:
        cur = parse_atom(i)
        i += 1
        while i < len(tokens) and tokens[i] == "*":
            shift_set = parse_atom(i + 1)
            if len(shift_set) == 1:
                s = shift_set[0]
                cur = [u + s for u in cur]
            elif len(cur) == 1:
                s = cur[0]
                cur = [u + s for u in shift_set]
            else:
                raise DescriptorError("coset translation needs a single character on one side")
            i += 2
        operands.append(cur)
        if i == len(tokens):
            break
        if tokens[i] not in ("|", "\\"):
            raise DescriptorError(f"expected | or \\ near {tokens[i]!r}")
        ops.append(tokens[i])
        i += 1
    result = operands[0]
    for op, operand in zip(ops, operands[1:]):
        if op == "|":
            result = result + operand
        else:
            result = list(result)
            for u in operand:
                try:
                    result.remove(u)
                except ValueError:
                    raise DescriptorError(f"difference removes absent character {u}")
    return sorted(result)


# ---------------------------------------------------------------------------
# the descriptor
# ---------------------------------------------------------------------------


class HypDescriptor:
    """Characteristic p plus upstairs/downstairs character multisets."""

    __slots__ = ("p", "upstairs", "downstairs")

    def __init__(self, p: int, upstairs, downstairs=()):
        if not is_prime(p):
            raise DescriptorError(f"characteristic {p} is not prime")
        up = tuple(sorted(upstairs))
        down = tuple(sorted(downstairs))
        if len(up) <= len(down):
            raise DescriptorError(f"type ({len(up)},{len(down)}) has D <= m")
        for u in up + down:
            if u.den % p == 0:
                raise DescriptorError(f"character {u} has order divisible by p={p}")
        overlap = set(up) & set(down)
        if overlap:
            raise DescriptorError(
                "upstairs and downstairs share characters "
                f"{sorted(overlap)} ('no chi_i is any rho_j' fails)"
            )
        self.p = p
        self.upstairs = up
        self.downstairs = down

    # -- basic shape ---------------------------------------------------
    @property
    def D(self) -> int:
        return len(self.upstairs)

    @property
    def m(self) -> int:
        return len(self.downstairs)

    @property
    def W(self) -> int:
        return self.D - self.m

    @property
    def type(self) -> tuple[int, int]:
        return (self.D, self.m)

    def __eq__(self, other):
        return (
            isinstance(other, HypDescriptor)
            and self.p == other.p
            and self.upstairs == other.upstairs
            and self.downstairs == other.downstairs
        )

    def __hash__(self):
        return hash((self.p, self.upstairs, self.downstairs))

    def __repr__(self):
        up = ",".join(map(str, self.upstairs))
        down = ",".join(map(str, self.downstairs))
        return f"Hyp(p={self.p}; [{up}]; [{down}])"

    # -- JSON round trip -------------------------------------------------
    def to_json(self) -> dict:
        return {
            "p": self.p,
            "upstairs": [str(u) for u in self.upstairs],
            "downstairs": [str(u) for u in self.downstairs],
        }

    @classmethod
    def from_json(cls, obj) -> "HypDescriptor":
        """From {"p": an integer, "upstairs": [...], "downstairs": [...]},
        each side a list of charset strings; DescriptorError on any other
        shape."""
        if not isinstance(obj, dict):
            raise DescriptorError("a descriptor is a JSON object")
        try:
            p = json_int(obj.get("p"), "p")
        except ValueError as exc:
            raise DescriptorError(str(exc))
        sides = []
        for key in ("upstairs", "downstairs"):
            entries = obj.get(key, [])
            if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
                raise DescriptorError(f"{key} must be a list of charset strings")
            sides.append([u for e in entries for u in parse_charset(e)])
        return cls(p, *sides)


# ---------------------------------------------------------------------------
# local-monodromy arithmetic
# ---------------------------------------------------------------------------


def _stable_under_shift(chars: tuple[UnityClass, ...], d: int) -> bool:
    shift = unity(1, d)
    shifted = sorted(u + shift for u in chars)
    return shifted == list(chars)


def kummer_induced(h: HypDescriptor) -> int | None:
    """Least degree d >= 2 of a Kummer induction, or None.

    The character data must be stable under translation by a character of
    order d; d then divides D (and m when m > 0) and is prime to p.
    """
    for d in sorted(divisors(h.D)):
        if d < 2 or d % h.p == 0:
            continue
        if h.m > 0 and h.m % d != 0:
            continue
        if _stable_under_shift(h.upstairs, d) and (
            h.m == 0 or _stable_under_shift(h.downstairs, d)
        ):
            return d
    return None


class BelyiObstruction:
    """Outcome of the wild-dimension necessary condition for Belyi induction."""

    __slots__ = ("witnesses",)

    def __init__(self, witnesses):
        self.witnesses = list(witnesses)

    @property
    def possible(self) -> bool:
        return bool(self.witnesses)

    @property
    def impossible(self) -> bool:
        return not self.witnesses

    def __repr__(self):
        if self.impossible:
            return "BelyiObstruction(Impossible)"
        d0, r = self.witnesses[0]
        return f"BelyiObstruction(Candidate(d0={d0}, r={r}))"


def belyi_wild_obstruction(h: HypDescriptor) -> BelyiObstruction:
    """Can W factor as d0*(p^r - 1) with p not dividing d0?

    Any Belyi-induced shape with fewer downstairs than upstairs characters
    has wild dimension of that form; Impossible rules Belyi induction out.
    """
    if h.m == 0:
        raise DescriptorError("Belyi obstruction applies to m > 0 only")
    p, w = h.p, h.W
    witnesses = []
    r = 1
    while p**r - 1 <= w:
        block = p**r - 1
        if w % block == 0 and (w // block) % p != 0:
            witnesses.append((w // block, r))
        r += 1
    return BelyiObstruction(witnesses)


def determinant_char(h: HypDescriptor) -> UnityClass:
    """Geometric determinant character: the sum of the upstairs classes."""
    total = unity(0, 1)
    for u in h.upstairs:
        total = total + u
    return total


def wild_image_order(h: HypDescriptor) -> int | None:
    """|image of P(infinity)| = p^k with k = ord(p mod W); None if p | W."""
    if h.W % h.p == 0:
        return None
    return h.p ** mult_order(h.p, h.W)


def i0_spectrum(h: HypDescriptor) -> Spectrum:
    """Spectrum of a local-monodromy generator at 0 (the upstairs multiset)."""
    out: dict[UnityClass, int] = {}
    for u in h.upstairs:
        out[u] = out.get(u, 0) + 1
    return Spectrum(out)


def i0_simple(h: HypDescriptor) -> bool:
    return len(set(h.upstairs)) == len(h.upstairs)
