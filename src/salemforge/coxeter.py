"""Coxeter element of the E_n(-1) lattice and its Salem factorization.

E_n(x) is produced two independent ways: a sparse closed formula divided
exactly by (x - 1), and the characteristic polynomial of the product of
the n simple reflections.  The factorization splits E_n into its
cyclotomic part and the Salem candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polyring import IntPoly, ONE, cyclotomic, euler_phi, monomial, poly

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


def en_from_formula(n: int) -> IntPoly:
    """E_n(x) from E_n(x)(x-1) = x^(n-2)(x^3-x-1) + (x^3+x^2-1)."""
    if n < 10:
        raise ValueError("n must be >= 10")
    rhs = monomial(n - 2) * poly(-1, -1, 0, 1) + poly(-1, 0, 1, 1)
    quot, rem = rhs.divmod(poly(-1, 1))
    if not rem.is_zero():
        raise FormulaConsistencyError(f"(x-1) does not divide the n={n} right-hand side")
    return quot


def en_from_matrix(n: int) -> IntPoly:
    """E_n(x) as char poly of the Coxeter element; independent oracle."""
    return charpoly(CoxeterSystem.build(n).coxeter_matrix)


@dataclass(frozen=True)
class SalemFactorization:
    n: int
    e_n: IntPoly
    cyclotomic_part: tuple[tuple[int, int], ...]  # (d, multiplicity), ascending d
    salem_candidate: IntPoly
    residue_class: int
    note: str = "root pattern certified; irreducibility of the non-cyclotomic factor not independently proven"

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
            "note": self.note,
        }


def _totient_sieve(limit: int) -> np.ndarray:
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:  # prime
            phi[p::p] -= phi[p::p] // p
    return phi


def _cyclotomic_candidates(deg: int, dmax: int) -> list[int]:
    """All d <= dmax with euler_phi(d) <= deg, ascending."""
    if dmax < 1:
        return []
    if dmax <= 2_000_000:
        phi = _totient_sieve(dmax)
        return [int(d) for d in np.nonzero(phi[1:] <= deg)[0] + 1]
    return [d for d in range(1, dmax + 1) if euler_phi(d) <= deg]


def _screen_cyclotomic_divisors(p: IntPoly, candidates: list[int]) -> list[int]:
    """Numeric pre-filter: d survives only if p(e^(2 pi i / d)) could be 0.

    Exact divisibility is re-checked by the caller; this only prunes.
    """
    if not candidates:
        return []
    cs = np.array(p.coeffs, dtype=np.float64)
    zs = np.exp(2j * np.pi / np.array(candidates, dtype=np.float64))
    vals = np.zeros(len(candidates), dtype=np.complex128)
    for c in cs[::-1]:
        vals = vals * zs + c
    # conservative round-off allowance for Horner on the unit circle
    tol = max(1e-6, 4.0 * len(cs) * float(np.abs(cs).sum()) * 2.0**-53)
    assert tol < 0.1, "coefficients too large for the float screen"
    return [d for d, v in zip(candidates, vals) if abs(v) <= tol]


def salem_factor(e_n: IntPoly, n: int, screen_cap: int = 10_000,
                 use_periodicity: bool | None = None) -> SalemFactorization:
    """Split E_n into cyclotomic part and Salem candidate by exact stripping.

    For large n a fast path first strips the factors stored for the
    residue class n mod 360 (exact by the mod-360 periodicity of C_n),
    then confirms no further cyclotomic divisor up to `screen_cap`.
    """
    deg = e_n.degree
    if use_periodicity is None:
        use_periodicity = deg > 400
    rem = e_n
    found: dict[int, int] = {}

    if use_periodicity:
        rho = n % 360
        if rho < 10:
            rho += 360
        base = salem_factor(en_from_formula(rho), rho, use_periodicity=False)
        for d, mult in base.cyclotomic_part:
            for _ in range(mult):
                quot, r = rem.divmod(cyclotomic(d))
                if not r.is_zero():
                    raise FormulaConsistencyError(
                        f"periodicity fast path: Phi_{d} does not divide E_{n}")
                rem = quot
                found[d] = found.get(d, 0) + 1
        dmax = screen_cap
    else:
        dmax = min(4 * deg * deg, max(screen_cap, 2 * deg * deg))

    candidates = _cyclotomic_candidates(rem.degree, dmax)
    suspects = _screen_cyclotomic_divisors(rem, candidates)
    for d in suspects:
        phi_d = cyclotomic(d)
        while rem.degree >= phi_d.degree:
            quot, r = rem.divmod(phi_d)
            if not r.is_zero():
                break
            rem = quot
            found[d] = found.get(d, 0) + 1
            if rem.degree == 0:
                break

    if rem.degree % 2 != 0 or not rem.is_monic() or not rem.is_reciprocal():
        raise StructureError(
            f"Salem candidate for n={n} is not monic reciprocal of even degree: {rem}")
    return SalemFactorization(
        n=n, e_n=e_n,
        cyclotomic_part=tuple(sorted(found.items())),
        salem_candidate=rem,
        residue_class=n % 360,
    )
