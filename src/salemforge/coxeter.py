"""Coxeter element of the E_n(-1) lattice and its Salem factorization.

E_n(x) is produced two independent ways: a sparse closed formula divided
exactly by (x - 1), and the characteristic polynomial of the product of
the n simple reflections.  The factorization splits E_n exactly into its
cyclotomic part (the Phi_d with d | 360 that divide it) and the Salem
candidate, and certifies by three gcds modulo one prime that the
candidate has no cyclotomic factor left.  salem_pattern certifies by
exact algebra, for every n >= 10, that E_n has n - 2 simple roots on the
unit circle and one real root in (1, rho); with no cyclotomic factor
left, Kronecker's theorem then makes the Salem candidate irreducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        else:
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


# largest prime below 2^25: np.convolve on int64 residues stays exact
# while EXCLUSION_PRIME^2 * ceil((deg + 1) / 2) < 2^63, about degree 16 000
EXCLUSION_PRIME = 33_554_393


@dataclass(frozen=True)
class SalemFactorization:
    n: int
    e_n: IntPoly
    cyclotomic_part: tuple[tuple[int, int], ...]  # (d, multiplicity), ascending d
    salem_candidate: IntPoly
    residue_class: int
    exclusion_prime: int          # the three gcds below are 1 modulo this prime
    note: str = ("no cyclotomic factor in salem_candidate: gcd(f, f1), "
                 "gcd(f(-x), f1) and gcd(f(x), f(-x)) are 1 mod exclusion_prime, "
                 "where f1(x^2) = f(x)f(-x); E_n has exactly one root outside "
                 "the closed unit disk (salem_pattern), so by Kronecker's "
                 "theorem salem_candidate is irreducible")

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
            "exclusion_prime": self.exclusion_prime,
            "note": self.note,
        }


def _phi_d_divides(f: IntPoly, d: int) -> bool:
    """Phi_d | f, by folding f mod x^d - 1 and reducing that mod Phi_d."""
    folded = IntPoly([sum(f.coeffs[r::d]) for r in range(d)])
    return folded.divmod(cyclotomic(d))[1].is_zero()


def _trim(a: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(a)
    return a[:nz[-1] + 1] if nz.size else a[:0]


def _gcd_degree_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> int:
    """Degree of gcd(a, b) over GF(p); residues in [0, p), ascending."""
    a, b = _trim(a), _trim(b)
    while b.size:
        b = b * pow(int(b[-1]), p - 2, p) % p
        a, db = a.copy(), b.size - 1
        for i in range(a.size - 1, db - 1, -1):
            c = int(a[i])
            if c:
                a[i - db:i + 1] = (a[i - db:i + 1] - c * b) % p
        a, b = b, _trim(a[:db])
    return a.size - 1


def _graeffe_mod_p(f: np.ndarray, p: int) -> np.ndarray:
    """f1 with f1(x^2) = f(x)f(-x), as e(y)^2 - y o(y)^2 for f = e(x^2) + x o(x^2)."""
    e, o = f[0::2], f[1::2]
    if p * p * e.size >= 2**63:
        raise ValueError(f"degree {f.size - 1} is too large for exact int64 "
                         f"convolution modulo {p}")
    e2, o2 = np.convolve(e, e) % p, np.convolve(o, o) % p
    out = np.zeros(max(e2.size, o2.size + 1), dtype=np.int64)
    out[:e2.size] = e2
    out[1:o2.size + 1] -= o2
    return out % p


def salem_factor(e_n: IntPoly, n: int) -> SalemFactorization:
    """Split E_n into its cyclotomic part and a Salem candidate f, exactly.

    Each Phi_d with d | 360 is divided out while it divides.  Then f
    (monic, reciprocal, of even degree) is certified to have no
    cyclotomic factor at all (Bradford & Davenport, 1988): with f1 the
    Graeffe square, f1(x^2) = f(x)f(-x), and zeta a primitive d-th root
    of unity with f(zeta) = 0,
      d odd:       zeta^2 is a primitive d-th root, so f and f1 share it;
      d = 2 mod 4: zeta^2 is a primitive d/2-th root, a root of f(-x) and f1;
      4 | d:       -zeta is a primitive d-th root, so f(x) and f(-x) share zeta.
    The three gcds are taken modulo EXCLUSION_PRIME.  A common factor of
    monic integer polynomials is monic and integral (Gauss) and keeps its
    degree mod p, so coprime mod p implies coprime over Q.  A nontrivial
    gcd raises StructureError: no wrong candidate is ever returned.
    """
    rem = e_n
    found: dict[int, int] = {}
    for d in divisors(360):
        while rem.degree >= euler_phi(d) and _phi_d_divides(rem, d):
            rem = rem.divmod(cyclotomic(d))[0]
            found[d] = found.get(d, 0) + 1

    if rem.degree % 2 != 0 or not rem.is_monic() or not rem.is_reciprocal():
        raise StructureError(
            f"Salem candidate for n={n} is not monic reciprocal of even degree: {rem}")
    p = EXCLUSION_PRIME
    f = np.array([c % p for c in rem.coeffs], dtype=np.int64)
    f_neg = f.copy()
    f_neg[1::2] = (-f_neg[1::2]) % p
    f1 = _graeffe_mod_p(f, p)
    for a, b, name, orders in ((f, f1, "gcd(f, f1)", "odd d"),
                               (f_neg, f1, "gcd(f(-x), f1)", "d = 2 mod 4"),
                               (f, f_neg, "gcd(f(x), f(-x))", "d = 0 mod 4")):
        if _gcd_degree_mod_p(a, b, p) > 0:
            raise StructureError(
                f"E_{n}: {name} is nontrivial mod {p}, so a factor Phi_d with "
                f"{orders} (d not dividing 360) is not excluded")
    return SalemFactorization(
        n=n, e_n=e_n,
        cyclotomic_part=tuple(found.items()),
        salem_candidate=rem,
        residue_class=n % 360,
        exclusion_prime=p,
    )


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
