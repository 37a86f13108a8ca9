"""Coxeter element, its characteristic polynomial, and Salem splitting."""

import numpy as np
import pytest

from salemforge.polyring import IntPoly, cyclotomic, euler_phi, poly
from salemforge.coxeter import (EXCLUSION_PRIME, PISOT, CoxeterSystem,
                                FormulaConsistencyError, StructureError,
                                _graeffe_mod_p, charpoly, en_from_formula,
                                en_from_matrix, gram_matrix, salem_factor,
                                salem_pattern)

# x^14 - x^13 - x^11 + x^10 - x^7 + x^4 - x^3 - x + 1, ascending
PHI_14 = IntPoly([1, -1, 0, -1, 1, 0, 0, -1, 0, 0, 1, -1, 0, -1, 1])

# Lehmer's polynomial, ascending
LEHMER = IntPoly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])


def test_gram_matrix_shape():
    g = gram_matrix(10)
    assert g[0][0] == -2 and g[1][2] == 1 and g[0][3] == 1
    assert g[0][1] == 0          # s_0 attaches only at s_3
    assert all(g[i][j] == g[j][i] for i in range(10) for j in range(10))


def test_gram_requires_n_at_least_10():
    with pytest.raises(ValueError):
        gram_matrix(9)


@pytest.mark.parametrize("n", [10, 12, 19])
def test_reflections_preserve_gram(n):
    sys = CoxeterSystem.build(n)
    for r in sys.reflections:
        assert sys.preserves_gram(r)
    assert sys.preserves_gram(sys.coxeter_matrix)


def test_charpoly_small_matrix():
    # companion matrix of x^2 - 3x + 2
    assert charpoly(((0, -2), (1, 3))) == poly(2, -3, 1)


@pytest.mark.parametrize("n", [10, 14, 19])
def test_formula_matches_matrix(n):
    assert en_from_formula(n) == en_from_matrix(n)


def test_e19_factorization():
    fact = salem_factor(en_from_formula(19), 19)
    assert fact.cyclotomic_part == ((2, 1), (5, 1))
    assert fact.salem_candidate == PHI_14
    assert fact.cyclotomic_product() * fact.salem_candidate == fact.e_n
    assert fact.exclusion_prime == EXCLUSION_PRIME


def test_e10_gives_lehmer():
    fact = salem_factor(en_from_formula(10), 10)
    assert fact.salem_candidate == LEHMER


def test_no_cyclotomic_factor_divides_phi_oracle():
    # exhaustive exact oracle: phi(d) >= sqrt(d / 2), so every Phi_d of
    # degree <= top has d <= 2 top^2
    facts = [salem_factor(en_from_formula(n), n) for n in range(10, 61)]
    top = max(f.salem_candidate.degree for f in facts)
    small = [d for d in range(1, 2 * top * top + 1) if euler_phi(d) <= top]
    for fact in facts:
        phi, n = fact.salem_candidate, fact.n
        assert fact.cyclotomic_product() * phi == fact.e_n
        for d in small:
            if euler_phi(d) <= phi.degree:
                assert not phi.divmod(cyclotomic(d))[1].is_zero(), (n, d)


@pytest.mark.parametrize("d, gcd", [(7, r"gcd\(f, f1\)"),
                                    (14, r"gcd\(f\(-x\), f1\)"),
                                    (28, r"gcd\(f\(x\), f\(-x\)\)")],
                         ids=["d7", "d14", "d28"])
def test_planted_cyclotomic_factor_is_caught_by_its_gcd(d, gcd):
    # d = 7, 14, 28 do not divide 360, so only the exclusion can see them
    with pytest.raises(StructureError, match=gcd):
        salem_factor(PHI_14 * cyclotomic(d), 19)


def test_large_cyclotomic_factor_is_not_missed():
    # Phi_10080(x) = Phi_210(x^48) has degree 2304 and 10080 does not divide 360
    coeffs = [0] * (48 * 48 + 1)
    coeffs[::48] = cyclotomic(210).coeffs
    with pytest.raises(StructureError, match="d = 0 mod 4"):
        salem_factor(IntPoly(coeffs) * en_from_formula(739), 739)


def test_graeffe_refuses_degree_beyond_exact_int64():
    # e(y) has 8193 coefficients: EXCLUSION_PRIME^2 * 8193 >= 2^63
    with pytest.raises(ValueError, match="too large"):
        _graeffe_mod_p(np.ones(16_385, dtype=np.int64), EXCLUSION_PRIME)
    assert _graeffe_mod_p(np.ones(16_383, dtype=np.int64), EXCLUSION_PRIME).size


def test_salem_candidate_shape_guard():
    # a wrong n would leave a non-reciprocal remainder; simulate directly
    with pytest.raises((StructureError, FormulaConsistencyError, ValueError)):
        salem_factor(poly(1, 2, 1, 1), 19)


def test_slope_identity_holds_exactly_over_q():
    """Re(z P'(z) conj P(z)) + 2|P(z)|^2 = 2(1 - c)(14c^2 + 22c + 9) on
    |z| = 1, z = c + i s, reduced by s^2 = 1 - c^2 in sympy; the
    certificate reaches the same verdict by Chebyshev polynomials."""
    sympy = pytest.importorskip("sympy")
    c, s = sympy.symbols("c s", real=True)
    z, zbar = c + sympy.I * s, c - sympy.I * s
    p = sum(k * z ** i for i, k in enumerate(PISOT.coeffs))
    pbar = sum(k * zbar ** i for i, k in enumerate(PISOT.coeffs))
    zdp = z * sympy.diff(p, c)                   # dP/dz, since dz/dc = 1
    zdp_bar = zbar * sympy.diff(pbar, c)
    lhs = sympy.expand((zdp * pbar + zdp_bar * p) / 2 + 2 * p * pbar)
    lhs = sympy.rem(sympy.Poly(lhs, s), sympy.Poly(s ** 2 + c ** 2 - 1, s))
    rhs = 2 * (1 - c) * (14 * c ** 2 + 22 * c + 9)
    assert sympy.expand(lhs.as_expr() - rhs) == 0
    assert sympy.discriminant(14 * c ** 2 + 22 * c + 9, c) == -20
    pattern = salem_pattern(19)
    assert pattern.passed and pattern.discriminant == -20
    assert dict(pattern.checks)["slope_identity"]


@pytest.mark.parametrize("n", [10, 19, 20, 739])
def test_salem_pattern_reads_e_n_at_1_from_the_sparse_form(n):
    pattern = salem_pattern(n)
    assert pattern.e_n_at_1 == sum(en_from_formula(n).coeffs) == 9 - n
    assert pattern.passed
    assert pattern.to_json()["circle_roots"] == n - 2
