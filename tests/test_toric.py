"""Fan certification, dual bases, and torus fixed-point linearization."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from salemforge.mau import relation_search
from salemforge.toric import (Cone, Fan, FanError,
                              IndependenceEvidenceMissing, TorusElement,
                              _cofactors, check_fan, det_int, dual_bases,
                              fixed_points, load_fan)

from conftest import projective_fan

SHIPPED = ["p1", "plane", "p1xp1", "hirzebruch1", "hirzebruch2",
           "hirzebruch3", "p3"]


def _independent_element(dim, precision_bits=256):
    seeds = [mp.log(2), mp.sqrt(3) - 1, mp.pi - 3, mp.e - 2][:dim]
    with mp.workprec(2 * precision_bits):
        te = TorusElement.explicit([s % 1 for s in seeds], precision_bits)
    audit = relation_search(list(te.arguments), 32, precision_bits)
    assert audit.outcome == "no_relation"
    return te, audit


def test_det_int():
    assert det_int(((1, 0), (0, 1))) == 1
    assert det_int(((1, 2), (3, 4))) == -2
    assert det_int(((2, 0, 0), (0, 3, 0), (0, 0, 4))) == 24


def test_cone_rejects_non_primitive():
    with pytest.raises(FanError):
        Cone(((2, 4), (0, 1)))


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_fans_pass(name):
    cert = check_fan(load_fan(name))
    assert cert.passed, cert.failures
    assert all(abs(d) == 1 for d in cert.cone_dets)


def test_expected_cone_counts():
    assert load_fan("p1").n_cones == 2
    assert load_fan("plane").n_cones == 3
    assert load_fan("p1xp1").n_cones == 4
    assert load_fan("p3").n_cones == 4


def test_smoothness_failure_named():
    fan = Fan(dim=2, max_cones=(Cone(((1, 0), (1, 2))),
                                Cone(((1, 2), (-1, 0)))))
    cert = check_fan(fan)
    assert not cert.passed
    assert any("det = 2" in f for f in cert.failures)


def test_unpaired_facet_rejected():
    # remove one cone from the plane fan: two rays become boundary facets
    plane = load_fan("plane")
    fan = Fan(dim=2, max_cones=plane.max_cones[:2])
    cert = check_fan(fan)
    assert not cert.passed
    assert any("expected 2" in f for f in cert.failures)


def test_same_side_overlap_rejected():
    # the same cone listed twice: facets pair up but interiors coincide
    fan = Fan(dim=2, max_cones=(Cone(((1, 0), (0, 1))),
                                Cone(((0, 1), (1, 0)))))
    cert = check_fan(fan)
    assert not cert.passed
    assert any("same side" in f for f in cert.failures)


def test_d1_completeness():
    good = check_fan(Fan(dim=1, max_cones=(Cone(((1,),)), Cone(((-1,),)))))
    assert good.passed
    bad = check_fan(Fan(dim=1, max_cones=(Cone(((1,),)), Cone(((1,),)))))
    assert not bad.passed
    # both half-lines occur, but one twice: the origin lies in 3 cones
    repeated = check_fan(Fan(dim=1, max_cones=(
        Cone(((-1,),)), Cone(((1,),)), Cone(((1,),)))))
    assert not repeated.passed
    assert good.n_facets == 1


def test_solid_angles_sum_to_full_circle():
    """d=2 completeness sanity: cone angles sum to 2 pi."""
    for name in ["plane", "p1xp1", "hirzebruch2"]:
        fan = load_fan(name)
        total = 0.0
        for cone in fan.max_cones:
            (x1, y1), (x2, y2) = cone.generators
            a = math.atan2(y1, x1)
            b = math.atan2(y2, x2)
            diff = abs(b - a) % (2 * math.pi)
            total += min(diff, 2 * math.pi - diff)
        assert abs(total - 2 * math.pi) < 2.0 ** -40


@pytest.mark.parametrize("name", SHIPPED)
def test_dual_bases_round_trip(name):
    fan = load_fan(name)
    d = fan.dim
    for cone, k in zip(fan.max_cones, dual_bases(fan)):
        prod = [[sum(cone.generators[i][t] * k[j][t] for t in range(d))
                 for j in range(d)] for i in range(d)]
        assert prod == [[int(i == j) for j in range(d)] for i in range(d)]
        assert abs(det_int(k)) == 1


@st.composite
def unimodular_matrices(draw):
    """A d x d product of elementary matrices (shears and a row sign)."""
    d = draw(st.integers(1, 6))
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        c = draw(st.integers(-3, 3))
        m[i] = [-x for x in m[i]] if i == j else [
            x + c * y for x, y in zip(m[i], m[j])]
    return tuple(map(tuple, m))


@pytest.mark.parametrize("d", range(1, 7))
def test_projective_fan_passes(d):
    cert = check_fan(projective_fan(d))
    assert cert.passed, cert.failures
    assert cert.n_cones == d + 1
    assert all(abs(dt) == 1 for dt in cert.cone_dets)


@settings(max_examples=60, deadline=None)
@given(unimodular_matrices())
def test_cofactor_rows_and_dual_bases_of_unimodular_matrices(m):
    d = len(m)
    det = det_int(m)
    assert abs(det) == 1
    for k, row in enumerate(_cofactors(m)):
        for i in range(d):
            assert sum(a * b for a, b in zip(row, m[i])) == (det if i == k else 0)
    # P^d mapped by m is smooth and complete, and m is its first cone
    fan = projective_fan(d, m)
    assert fan.max_cones[0].generators == m
    for cone, k in zip(fan.max_cones, dual_bases(fan)):
        g = cone.generators
        assert [[sum(a * b for a, b in zip(g[i], k[j])) for j in range(d)]
                for i in range(d)] == [[int(i == j) for j in range(d)]
                                       for i in range(d)]


def test_fixed_points_counts_and_identity_cone():
    te, audit = _independent_element(2)
    for name, n in [("plane", 3), ("p1xp1", 4), ("hirzebruch1", 4)]:
        pts = fixed_points(load_fan(name), te, audit)
        assert len(pts) == n
    pts = fixed_points(load_fan("plane"), te, audit)
    # first cone has identity dual basis: eigenvalues are the a_i themselves
    for eig, arg in zip(pts[0].eigenvalue_arguments, te.arguments):
        assert abs(eig.mid - arg.mid) < mp.mpf(2) ** -200


@pytest.mark.parametrize("precision_bits", [128, 256, 512])
def test_eigenvalue_argument_balls_contain_the_exact_reduction(
        seq19_739, precision_bits):
    te = TorusElement.from_mau(seq19_739, [0, 1])
    audit = relation_search(list(te.arguments), 32, precision_bits)
    for pt in fixed_points(load_fan("plane"), te, audit, precision_bits):
        for row, eig in zip(pt.dual_basis, pt.eigenvalue_arguments):
            with mp.workprec(3000):
                s = mp.fsum(k * a.mid for k, a in zip(row, te.arguments))
                assert abs(eig.mid - (s - mp.floor(s))) <= eig.rad


def test_fixed_points_refuses_without_evidence():
    te, _ = _independent_element(2)
    with pytest.raises(IndependenceEvidenceMissing):
        fixed_points(load_fan("plane"), te, None)


def test_fixed_points_refuses_an_audit_over_other_arguments():
    te, audit = _independent_element(2)     # no_relation over te's own
    with mp.workprec(600):
        other = TorusElement.explicit([mp.sqrt(5) - 2, mp.sqrt(7) - 2])
    with pytest.raises(IndependenceEvidenceMissing):
        fixed_points(load_fan("plane"), other, audit)
    repeated = TorusElement(dim=2, arguments=te.arguments[:1] * 2,
                            provenance=("explicit", "explicit"))
    with pytest.raises(IndependenceEvidenceMissing):     # theta_1 = theta_2
        fixed_points(load_fan("plane"), repeated, audit)


def test_degenerate_identity_element_rejected():
    te = TorusElement.explicit([Fraction(0), Fraction(0)])
    audit = relation_search(list(te.arguments), 8, 64)
    assert audit.outcome == "candidate"     # theta = 0 is trivially dependent
    with pytest.raises(IndependenceEvidenceMissing):
        fixed_points(load_fan("plane"), te, audit)


def test_explicit_fraction_arguments_cover_their_rounding():
    te = TorusElement.explicit([Fraction(1, 3), Fraction(0)], 256)
    third, zero = te.arguments
    assert zero.mid == 0 and zero.rad == 0
    with mp.workprec(600):
        assert 0 < third.rad < mp.mpf(2) ** -256
        assert abs(third.mid - mp.mpf(1) / 3) <= third.rad


def test_eigenvalue_tuple_stays_independent():
    """Unimodular transport: random nonzero exponents never collapse."""
    te, audit = _independent_element(2)
    fan = load_fan("plane")
    pts = fixed_points(fan, te, audit)
    gap = mp.mpf(audit.gap)
    import random
    rng = random.Random(7)
    for pt in pts:
        for _ in range(10):
            r = (rng.randint(-10, 10), rng.randint(-10, 10))
            if r == (0, 0):
                continue
            s = tuple(sum(r[i] * pt.dual_basis[i][j] for i in range(2))
                      for j in range(2))
            assert s != (0, 0)
            with mp.workprec(600):
                comb = mp.fsum(ri * a.mid for ri, a in
                               zip(r, pt.eigenvalue_arguments))
                dist = abs(comb - mp.nint(comb))
            assert dist > gap / 2


def test_fan_json_round_trip(tmp_path):
    fan = load_fan("hirzebruch3")
    path = tmp_path / "fan.json"
    path.write_text(__import__("json").dumps(fan.to_json()))
    again = load_fan(str(path))
    assert again == fan
