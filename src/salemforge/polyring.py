"""Exact univariate polynomials over the integers.

Coefficients are arbitrary-size Python ints stored densely in ascending
degree order with no trailing zeros; the zero polynomial is the empty
tuple.  Every operation here is exact -- no floats ever enter this module.
Division is restricted to monic divisors, which keeps all intermediate
coefficients integral.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass


class NonMonicDivisorError(ValueError):
    """Raised when divmod is attempted with a non-monic divisor."""


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, ascending coefficients, immutable."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(int(c) for c in coeffs))

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial; raises on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError("negative exponent")
        result = IntPoly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def divmod(self, q: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Exact (quotient, remainder) with p = q*quot + rem, deg rem < deg q.

        The divisor must be monic; rational division is out of scope.
        """
        if not q.is_monic():
            raise NonMonicDivisorError(f"divisor must be monic, got {q!r}")
        return _scaled_div(self, q)

    # -- structure -----------------------------------------------------

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def is_reciprocal(self) -> bool:
        """True iff the coefficient sequence is palindromic."""
        if not self.coeffs:
            raise ValueError("zero polynomial")
        return self.coeffs == tuple(reversed(self.coeffs))

    def content(self) -> int:
        return math.gcd(*self.coeffs)

    def primitive_part(self) -> "IntPoly":
        g = self.content()
        if g in (0, 1):
            return self
        if self.coeffs[-1] < 0:
            g = -g
        return IntPoly([c // g for c in self.coeffs])

    # -- display and serialization ------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(sign + body if not parts else f" {sign} {body}")
        return "".join(parts)

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, ascending degree."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "IntPoly":
        if isinstance(data, str):
            data = json.loads(data)
        return cls([int(c) for c in data])


# module-level conveniences mirroring the ring API

X = IntPoly([0, 1])
ONE = IntPoly([1])


def poly(*ascending_coeffs: int) -> IntPoly:
    return IntPoly(ascending_coeffs)


def monomial(k: int, c: int = 1) -> IntPoly:
    return IntPoly([0] * k + [c])


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Remainder of lc(b)^(deg a - deg b + 1) * a divided by b; exact over Z."""
    lc = b.leading()
    d = a.degree - b.degree + 1
    _, rem = _scaled_div(a * lc**d, b)
    return rem


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd over Z via the primitive pseudo-remainder sequence.

    Used to split off square factors before root isolation; the result is
    primitive with positive leading coefficient.
    """
    a, b = p.primitive_part(), q.primitive_part()
    while not b.is_zero():
        if a.is_zero() or (b.degree == 0):
            a, b = b, IntPoly()
            break
        if a.degree < b.degree:
            a, b = b, a
            continue
        r = _pseudo_rem(a, b)
        a, b = b, r.primitive_part()
    if not a.is_zero() and a.leading() < 0:
        a = -a
    return a


def _scaled_div(p: IntPoly, q: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Division by possibly non-monic q; caller pre-scales p so it is exact."""
    lc = q.leading()
    rem = list(p.coeffs)
    dq = q.degree
    if len(rem) - 1 < dq:
        return IntPoly(), p
    quot = [0] * (len(rem) - dq)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c:
            if c % lc != 0:
                raise ValueError("non-exact scaled division")
            f = c // lc
            quot[i - dq] = f
            for j, qc in enumerate(q.coeffs):
                rem[i - dq + j] -= f * qc
    return IntPoly(quot), IntPoly(rem)


def divisors(n: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial, by exact division of x^d - 1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    num = monomial(d) - ONE
    for e in divisors(d):
        if e < d:
            q, r = num.divmod(cyclotomic(e))
            assert r.is_zero(), "cyclotomic recursion must divide exactly"
            num = q
    return num
