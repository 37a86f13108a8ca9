"""Coxeter element, its characteristic polynomial, and Salem splitting."""

import pytest

from salemforge.polyring import IntPoly, poly
from salemforge.coxeter import (CoxeterSystem, FormulaConsistencyError,
                                StructureError, charpoly, en_from_formula,
                                en_from_matrix, gram_matrix, salem_factor)

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


def test_e10_gives_lehmer():
    fact = salem_factor(en_from_formula(10), 10)
    assert fact.salem_candidate == LEHMER


def test_periodicity_fast_path_agrees():
    e = en_from_formula(379)
    slow = salem_factor(e, 379, use_periodicity=False)
    fast = salem_factor(e, 379, use_periodicity=True)
    assert slow.cyclotomic_part == fast.cyclotomic_part
    assert slow.salem_candidate == fast.salem_candidate


def test_salem_candidate_shape_guard():
    # a wrong n would leave a non-reciprocal remainder; simulate directly
    with pytest.raises((StructureError, FormulaConsistencyError, ValueError)):
        salem_factor(poly(1, 2, 1, 1), 19)
