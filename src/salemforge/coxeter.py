"""Coxeter element of the E_n(-1) lattice and its Salem factorization.

E_n(x) is produced two independent ways: a sparse closed formula divided
exactly by (x - 1), and the characteristic polynomial of the product of
the n simple reflections.  The factorization splits E_n exactly into its
cyclotomic part and the Salem candidate from n alone.  By Mann's theorem
on vanishing sums of roots of unity, every Phi_d dividing E_n has
d | 1800; each such d is tested exactly on the six-term sparse form of
(x - 1) E_n, with no dense E_n.  salem_pattern certifies by exact
algebra, for every n >= 10, that E_n has n - 2 simple roots on the unit
circle and one real root in (1, rho); so each Phi_d divides at most
once, and with no cyclotomic factor left, Kronecker's theorem makes the
Salem candidate irreducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

from .polyring import (IntPoly, ONE, cyclotomic, divisors, euler_phi,
                       monomial, poly)

Matrix = tuple[tuple[int, ...], ...]


class FormulaConsistencyError(RuntimeError):
    """The closed-form construction of E_n failed an exactness check."""


class StructureError(RuntimeError):
    """Salem candidate violates the expected monic/reciprocal/even shape."""


def _mat_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a, b) -> list[list[int]]:
    n = len(a)
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _mat_transpose(a) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def gram_matrix(n: int) -> Matrix:
    """Gram matrix of the basis s_0..s_{n-1}: chain s_1-...-s_{n-1}, edge s_0-s_3."""
    if n < 10:
        raise ValueError("E_n(-1) requires n >= 10 (signature condition)")
    g = [[0] * n for _ in range(n)]
    for k in range(n):
        g[k][k] = -2
    for k in range(1, n - 1):
        g[k][k + 1] = g[k + 1][k] = 1
    g[0][3] = g[3][0] = 1
    return tuple(tuple(row) for row in g)


def reflection_matrix(gram: Matrix, k: int) -> Matrix:
    """r_k(x) = x + (x, s_k) s_k as a matrix on the basis coordinates."""
    n = len(gram)
    r = _mat_identity(n)
    for j in range(n):
        r[k][j] += gram[k][j]
    return tuple(tuple(row) for row in r)


@dataclass(frozen=True)
class CoxeterSystem:
    """The E_n(-1) lattice data with its Coxeter element w_n = r_0 r_1 ... r_{n-1}."""

    n: int
    gram: Matrix
    reflections: tuple[Matrix, ...]
    coxeter_matrix: Matrix

    @classmethod
    def build(cls, n: int) -> "CoxeterSystem":
        gram = gram_matrix(n)
        refls = tuple(reflection_matrix(gram, k) for k in range(n))
        w = _mat_identity(n)
        for r in refls:
            w = _mat_mul(w, r)
        return cls(n=n, gram=gram, reflections=refls,
                   coxeter_matrix=tuple(tuple(row) for row in w))

    def preserves_gram(self, m: Matrix) -> bool:
        g = [list(row) for row in self.gram]
        mt = _mat_transpose(m)
        return _mat_mul(_mat_mul(mt, g), m) == g


def charpoly(a) -> IntPoly:
    """Monic characteristic polynomial det(xI - A) by Faddeev-LeVerrier.

    All divisions are exact over the integers for an integer matrix.
    """
    n = len(a)
    a = [list(row) for row in a]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = _mat_identity(n)
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                m[i][i] += coeffs[n - k + 1]
        m = _mat_mul(a, m)
        tr = sum(m[i][i] for i in range(n))
        assert tr % k == 0, "Faddeev-LeVerrier trace must divide exactly"
        coeffs[n - k] = -tr // k
    return IntPoly(coeffs)


# E_n(x)(x - 1) = x^(n-2) P(x) - P*(x): the real root rho ~ 1.3247 of P is
# the smallest Pisot number (Salem 1945; Boyd, "Small Salem numbers", 1977)
PISOT = poly(-1, -1, 0, 1)             # P(x) = x^3 - x - 1
PISOT_STAR = poly(1, 0, -1, -1)        # P*(x) = x^3 P(1/x)


def en_from_formula(n: int) -> IntPoly:
    """E_n(x) from E_n(x)(x-1) = x^(n-2) P(x) - P*(x)."""
    if n < 10:
        raise ValueError("n must be >= 10")
    rhs = monomial(n - 2) * PISOT - PISOT_STAR
    quot, rem = rhs.divmod(poly(-1, 1))
    if not rem.is_zero():
        raise FormulaConsistencyError(f"(x-1) does not divide the n={n} right-hand side")
    return quot


def en_from_matrix(n: int) -> IntPoly:
    """E_n(x) as char poly of the Coxeter element; independent oracle."""
    return charpoly(CoxeterSystem.build(n).coxeter_matrix)


# Mann (1965): in a minimal vanishing sum of k roots of unity, all ratios
# of terms are m-th roots of unity, m the product of the primes <= k.  If
# Phi_d | E_n, the six terms of S = (x - 1) E_n at zeta_d split into
# minimal vanishing blocks, none a singleton, so d | 30 (e_i - e_j) within
# each block; over the 41 singleton-free partitions of six terms that
# forces d | 1800 at every n >= 10
CYCLOTOMIC_ORDERS_DIVIDE = 1800


@dataclass(frozen=True)
class SalemFactorization:
    """E_n = (product of Phi_d^m over cyclotomic_part) * phi, named by n.

    n and the sparse split determine phi, so nothing dense is stored:
    degree is deg phi, read from the split.  The dense e_n and
    salem_candidate are computed only when read (the coxeter factor
    report and the oracles), and salem_candidate re-checks the exact
    division and the monic/reciprocal/even shape.
    """

    n: int
    cyclotomic_part: tuple[tuple[int, int], ...]  # (d, multiplicity), ascending d
    residue_class: int
    cyclotomic_orders_divide: int  # every Phi_d dividing E_n has d | this
    note: str = ("no cyclotomic factor in salem_candidate: by Mann's theorem "
                 "every Phi_d dividing E_n has d | cyclotomic_orders_divide; "
                 "each such d was tested exactly on the six-term sparse form "
                 "of (x - 1) E_n; circle roots are simple (salem_pattern), so "
                 "each Phi_d divides at most once; E_n has exactly one root "
                 "outside the closed unit disk (salem_pattern), so by "
                 "Kronecker's theorem salem_candidate is irreducible")

    @property
    def degree(self) -> int:
        """deg phi = n - sum of euler_phi(d) m over the cyclotomic part."""
        return self.n - sum(euler_phi(d) * m for d, m in self.cyclotomic_part)

    @cached_property
    def e_n(self) -> IntPoly:
        return en_from_formula(self.n)

    @cached_property
    def salem_candidate(self) -> IntPoly:
        phi, r = self.e_n.divmod(self.cyclotomic_product())
        if not r.is_zero():
            raise StructureError(f"E_{self.n} is not divisible by its "
                                 f"cyclotomic part {self.cyclotomic_part}")
        if phi.degree % 2 != 0 or not phi.is_monic() or not phi.is_reciprocal():
            raise StructureError(f"Salem candidate for n={self.n} is not "
                                 f"monic reciprocal of even degree: {phi}")
        return phi

    def cyclotomic_product(self) -> IntPoly:
        out = ONE
        for d, mult in self.cyclotomic_part:
            out = out * cyclotomic(d) ** mult
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "e_n": self.e_n.to_json(),
            "cyclotomic_part": [[d, m] for d, m in self.cyclotomic_part],
            "salem_candidate": self.salem_candidate.to_json(),
            "residue_class": self.residue_class,
            "cyclotomic_orders_divide": self.cyclotomic_orders_divide,
            "note": self.note,
        }


def _sparse_terms(n: int) -> tuple[tuple[int, int], ...]:
    """(coefficient, exponent) of S(x) = (x - 1) E_n(x)
    = x^(n+1) - x^(n-1) - x^(n-2) + x^3 + x^2 - 1."""
    return ((1, n + 1), (-1, n - 1), (-1, n - 2), (1, 3), (1, 2), (-1, 0))


def _vanishes_at_zeta(n: int, d: int) -> bool:
    """S(zeta_d) = 0, exactly, for d | CYCLOTOMIC_ORDERS_DIVIDE.

    With r = rad(d) and y = x^(d/r), Phi_d(x) = Phi_r(y), and
    x^0..x^(d/r - 1) is a basis of Q(zeta_d) over Q(zeta_r).  So writing
    e mod d = q (d/r) + s, S vanishes at zeta_d exactly when each group
    sum of +/- y^q over one s reduces to 0 mod Phi_r(y).
    """
    r = math.prod(p for p in (2, 3, 5) if d % p == 0)
    m = d // r
    groups: dict[int, list[int]] = {}
    for c, e in _sparse_terms(n):
        q, s = divmod(e % d, m)
        groups.setdefault(s, [0] * r)[q] += c
    return all(IntPoly(g).divmod(cyclotomic(r))[1].is_zero()
               for g in groups.values())


@cache
def cyclotomic_part(n: int) -> tuple[tuple[int, int], ...]:
    """((d, 1), ...) for every Phi_d dividing E_n, ascending d.

    Phi_1 never divides (E_n(1) = 9 - n); for d >= 2, Phi_d | E_n exactly
    when S(zeta_d) = 0, and d | CYCLOTOMIC_ORDERS_DIVIDE (Mann).  The
    circle roots of E_n are simple (salem_pattern), so each multiplicity
    is 1.  Cached by n: every later salem_factor(n) reuses the split.
    """
    if n < 10:
        raise ValueError("n must be >= 10")
    return tuple((d, 1) for d in divisors(CYCLOTOMIC_ORDERS_DIVIDE)[1:]
                 if _vanishes_at_zeta(n, d))


def salem_factor(n: int) -> SalemFactorization:
    """The Salem factorization of E_n from its sparse split alone, in O(1).

    E_n is monic and reciprocal, and so is every Phi_d with d >= 2, so
    phi is too; its degree must be even, or StructureError: no wrong
    candidate is ever returned.  No dense E_n is built here.
    """
    fact = SalemFactorization(
        n=n, cyclotomic_part=cyclotomic_part(n), residue_class=n % 360,
        cyclotomic_orders_divide=CYCLOTOMIC_ORDERS_DIVIDE,
    )
    if fact.degree % 2 != 0:
        raise StructureError(f"Salem candidate for n={n} has degree "
                             f"{fact.degree}, not an even degree")
    return fact


# -- the Salem root pattern of E_n -------------------------------------------

_SLOPE_QUADRATIC = poly(9, 22, 14)     # 14c^2 + 22c + 9


def _slope_identity_lhs() -> IntPoly:
    """Re(z P'(z) conj P(z)) + 2|P(z)|^2 on |z| = 1 as a polynomial in c:
    the sum over k, l of (k + 2) p_k p_l cos((k - l)t), cos(mt) = T_m(c)."""
    p = PISOT.coeffs
    cheb = [ONE, monomial(1)]                  # Chebyshev T_0, T_1, ...
    while len(cheb) < len(p):
        cheb.append(monomial(1) * cheb[-1] * 2 - cheb[-2])
    out = IntPoly()
    for k, pk in enumerate(p):
        for l, pl in enumerate(p):
            out = out + cheb[abs(k - l)] * ((k + 2) * pk * pl)
    return out


@dataclass(frozen=True)
class SalemPattern:
    """Exact certificate of the root pattern of E_n, n >= 10.

    With S(x) = (x - 1) E_n(x) = x^(n-2) P(x) - P*(x) and
    P*(z) = z^3 conj P(z) on |z| = 1, z = e^(it) is a root of S exactly
    when the phase h(t) = (n - 5)t + 2 arg P(z) lies in 2 pi Z, and
    h' = n - 5 + 2 Re(z P'/P).  The slope identity holds as polynomials
    in c (Chebyshev expansion, exact), and its quadratic has a negative
    discriminant, so Re(z P'/P) >= -2 and h' >= n - 9 > 0.  P has two
    roots inside the circle, so h rises by 2 pi (n - 1) over it: S has
    n - 1 simple circle roots and E_n has n - 2.  E_n(1) = S'(1) = 9 - n
    < 0, and E_n(rho)(rho - 1) = -P*(rho) > 0 (P* mod P has no positive
    coefficient), put the remaining real root eta in (1, rho); 1/eta is
    the last root.
    """

    n: int
    e_n_at_1: int
    discriminant: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "circle_roots": self.n - 2,
            "eta_interval": ["1", "rho"],
            "e_n_at_1": self.e_n_at_1,
            "slope_identity": ("Re(z P'(z) conj P(z)) + 2|P(z)|^2 = "
                               "2(1 - c)(14c^2 + 22c + 9), c = Re z, |z| = 1"),
            "discriminant": self.discriminant,
            "phase_slope_lower_bound": self.n - 9,
            "checks": [[name, ok] for name, ok in self.checks],
            "passed": self.passed,
        }


def salem_pattern(n: int) -> SalemPattern:
    """Certify the Salem root pattern of E_n by exact algebra."""
    if n < 10:
        raise ValueError("n must be >= 10")
    c0, c1, c2 = _SLOPE_QUADRATIC.coeffs
    disc = c1 * c1 - 4 * c2 * c0
    dp, dq = PISOT.derivative(), PISOT_STAR.derivative()
    # E_n(1) = S'(1) because S(1) = P(1) - P*(1) = 0
    e_n_at_1 = (n - 2) * sum(PISOT.coeffs) + sum(dp.coeffs) - sum(dq.coeffs)
    star_rem = PISOT_STAR.divmod(PISOT)[1]
    return SalemPattern(
        n=n, e_n_at_1=e_n_at_1, discriminant=disc,
        checks=(
            ("slope_identity",
             _slope_identity_lhs() == poly(2, -2) * _SLOPE_QUADRATIC),
            ("discriminant_negative", disc < 0 < c2),
            ("phase_slope_positive", n - 9 > 0),
            ("e_n_at_1_negative", e_n_at_1 < 0),
            ("e_n_at_rho_positive",
             not star_rem.is_zero() and all(c <= 0 for c in star_rem.coeffs)),
        ),
    )
