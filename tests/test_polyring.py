"""Exact integer polynomial ring: arithmetic, division, cyclotomics."""

import pytest
from hypothesis import given, settings, strategies as st

from salemforge.polyring import (IntPoly, NonMonicDivisorError, ONE, X,
                                 cyclotomic, divisors, euler_phi, monomial,
                                 poly, poly_gcd)

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50),
                       min_size=0, max_size=8)


def test_trailing_zeros_stripped():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).is_zero()


def test_degree_of_zero_raises():
    with pytest.raises(ValueError):
        IntPoly().degree


def test_eval_and_str():
    p = poly(-1, 0, 1)          # x^2 - 1
    assert str(p) == "x^2 - 1"
    assert str(IntPoly()) == "0"


def test_divmod_reconstruction():
    p = poly(2, -3, 0, 5, 1)
    q = poly(1, 1)
    quot, rem = p.divmod(q)
    assert q * quot + rem == p
    assert rem.is_zero() or rem.degree < q.degree


def test_divmod_rejects_non_monic():
    with pytest.raises(NonMonicDivisorError):
        poly(1, 1).divmod(poly(1, 2))


def test_reciprocal_and_reverse():
    assert poly(1, -3, 1).is_reciprocal()
    assert not poly(1, 2).is_reciprocal()


def test_json_round_trip():
    p = poly(-(10**30), 0, 7, 1)
    assert IntPoly.from_json(p.to_json()) == p


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_mul_commutes(a, b):
    assert IntPoly(a) * IntPoly(b) == IntPoly(b) * IntPoly(a)


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_mul_distributes(a, b, c):
    pa, pb, pc = IntPoly(a), IntPoly(b), IntPoly(c)
    assert pa * (pb + pc) == pa * pb + pa * pc


def test_gcd_of_common_factor():
    f = poly(1, 1)
    g = poly_gcd(f * poly(2, 3, 1), f * poly(-5, 1))
    assert g == f


def test_divisors_and_phi():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert euler_phi(1) == 1
    assert euler_phi(360) == 96


@pytest.mark.parametrize("d, expected", [
    (1, poly(-1, 1)),
    (2, poly(1, 1)),
    (4, poly(1, 0, 1)),
    (6, poly(1, -1, 1)),
])
def test_small_cyclotomics(d, expected):
    assert cyclotomic(d) == expected


def test_cyclotomic_105_has_coefficient_minus_two():
    # first index where a coefficient outside {-1, 0, 1} appears
    assert cyclotomic(105)[7] == -2


def test_cyclotomic_degree_is_phi():
    for d in (9, 12, 30, 101):
        assert cyclotomic(d).degree == euler_phi(d)


def test_cyclotomic_product_small():
    for d in (6, 12, 20):
        prod = ONE
        for e in divisors(d):
            prod = prod * cyclotomic(e)
        assert prod == monomial(d) - ONE


def test_pow_matches_repeated_mul():
    p = X + ONE
    assert p ** 5 == p * p * p * p * p
    assert p ** 0 == ONE
