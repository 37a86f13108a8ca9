"""Coxeter element, its characteristic polynomial, and Salem splitting."""

from math import gcd

import pytest

from salemforge import coxeter
from salemforge.polyring import IntPoly, cyclotomic, divisors, euler_phi, poly
from salemforge.coxeter import (CYCLOTOMIC_ORDERS_DIVIDE, PISOT, CoxeterSystem,
                                StructureError, charpoly, cyclotomic_part,
                                en_from_formula, en_from_matrix, gram_matrix,
                                salem_factor, salem_pattern)

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
    fact = salem_factor(19)
    assert fact.cyclotomic_part == ((2, 1), (5, 1))
    assert fact.salem_candidate == PHI_14
    assert fact.cyclotomic_product() * fact.salem_candidate == fact.e_n
    assert fact.cyclotomic_orders_divide == CYCLOTOMIC_ORDERS_DIVIDE == 1800


def test_e10_gives_lehmer():
    fact = salem_factor(10)
    assert fact.salem_candidate == LEHMER


def test_no_cyclotomic_factor_divides_phi_oracle():
    # exhaustive exact oracle: phi(d) >= sqrt(d / 2), so every Phi_d of
    # degree <= top has d <= 2 top^2
    facts = [salem_factor(n) for n in range(10, 61)]
    top = max(f.salem_candidate.degree for f in facts)
    small = [d for d in range(1, 2 * top * top + 1) if euler_phi(d) <= top]
    for fact in facts:
        phi, n = fact.salem_candidate, fact.n
        assert fact.cyclotomic_product() * phi == fact.e_n
        for d in small:
            if euler_phi(d) <= phi.degree:
                assert not phi.divmod(cyclotomic(d))[1].is_zero(), (n, d)


def _partitions(items):
    """Every set partition of items, as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def test_mann_bound_divides_1800():
    """S(zeta_d) = 0 splits the six terms of S = (x - 1) E_n into minimal
    vanishing blocks, none a singleton; by Mann's theorem the ratio of two
    terms in a block is a 30th root of unity, so d | 30 (e_i - e_j).  The
    bound depends on n only through n mod 60 (every partition pairs two
    highs, two lows, or two distinct offsets n - c), so n in 10..3609
    covers 60 full periods."""
    parts = [p for p in _partitions(list(range(6)))
             if all(len(block) >= 2 for block in p)]
    assert len(parts) == 41
    seen = set()
    for n in range(10, 3610):
        exps = [e for _, e in coxeter._sparse_terms(n)]
        bound = 1
        for part in parts:
            g = 0
            for block in part:
                for i in block:
                    g = gcd(g, 30 * (exps[i] - exps[block[0]]))
            bound = bound * g // gcd(bound, g)
        assert CYCLOTOMIC_ORDERS_DIVIDE % bound == 0, n
        seen.add(bound)
    assert seen == {60, 120, 180, 300, 360, 600, 900, 1800}


def _dense_fold_part(n):
    """Phi_d | E_n for d | 1800 by folding dense E_n mod x^d - 1 and
    reducing that mod Phi_d, with every multiplicity taken as 1."""
    e_n, out = en_from_formula(n), []
    for d in divisors(CYCLOTOMIC_ORDERS_DIVIDE)[1:]:
        folded = IntPoly([sum(e_n.coeffs[r::d]) for r in range(d)])
        if folded.divmod(cyclotomic(d))[1].is_zero():
            out.append((d, 1))
    return tuple(out)


def test_cyclotomic_part_matches_dense_fold():
    for n in range(10, 201):
        assert cyclotomic_part(n) == _dense_fold_part(n), n


@pytest.mark.parametrize("n", [379, 739, 3259, 19_107_739,
                               730_201_596_227_659])
def test_cyclotomic_part_of_mau_sources(n):
    # 379 = 19 + 360; 739 and 3259: the MAU sources of length 4;
    # 19 107 739 and 730 201 596 227 659: those of lengths 6 and 8
    assert cyclotomic_part(n) == ((2, 1), (5, 1))


def test_salem_candidate_shape_guard(monkeypatch):
    # dropping Phi_2 leaves E_19 / Phi_5 of odd degree 15
    monkeypatch.setattr(coxeter, "cyclotomic_part", lambda n: ((5, 1),))
    with pytest.raises(StructureError, match="even degree"):
        salem_factor(19)


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
