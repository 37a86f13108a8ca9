"""Acceptance gate: the end-to-end guarantees the package ships with.

Each test pins one externally checkable claim — exact polynomial
identities, certified residual bounds, fixed-point counts, entropy
values — together with its runtime budget.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath as mp
import pytest

from salemforge.polyring import IntPoly, cyclotomic, divisors, poly
from salemforge.coxeter import en_from_formula, en_from_matrix, salem_factor
from salemforge.roots import (classify_salem, entropy_from_charpoly,
                              isolate_roots, log_ball, salem_eta)
from salemforge.mcmullen import (eigenvalue_branches, integrality_certificate,
                                 scan_siegel_roots)
from salemforge.mau import mau_build, relation_search
from salemforge.product import (NONSIEGEL, SIEGEL, build_product_spec,
                                product_entropy, siegel_count)

PHI_14 = IntPoly([1, -1, 0, -1, 1, 0, 0, -1, 0, 0, 1, -1, 0, -1, 1])


def test_01_cli_factorization_of_e19():
    t0 = time.monotonic()
    res = subprocess.run([sys.executable, "-m", "salemforge.cli",
                          "coxeter", "factor", "--n", "19"],
                         capture_output=True)
    elapsed = time.monotonic() - t0
    assert res.returncode == 0
    report = json.loads(res.stdout)
    # cyclotomic part (x+1)(x^4+x^3+x^2+x+1), Salem factor integer-exact
    assert report["cyclotomic_part"] == [[2, 1], [5, 1]]
    assert IntPoly.from_json(report["salem_candidate"]) == PHI_14
    assert elapsed < 1.0


def test_02_formula_matches_matrix_oracle():
    t0 = time.monotonic()
    for n in range(10, 31):
        assert en_from_matrix(n) == en_from_formula(n), n
    assert time.monotonic() - t0 < 30.0


def test_03_cyclotomic_part_periodicity():
    t0 = time.monotonic()
    f19 = salem_factor(19)
    f379 = salem_factor(379)
    assert sorted(f19.cyclotomic_part) == sorted(f379.cyclotomic_part)
    assert time.monotonic() - t0 < 60.0


def test_04_salem_root_pattern():
    cert = classify_salem(isolate_roots(PHI_14, 256))
    assert cert.eta.mid.real > 1
    assert 0 < cert.eta_reciprocal.mid.real < 1
    assert len(cert.circle_roots) == 12
    # reciprocal pairing certified within the balls
    with mp.workprec(400):
        assert cert.eta_reciprocal.contains(1 / cert.eta.mid)
        for z in cert.circle_roots:
            inv = 1 / z.mid
            assert any(w.contains(inv) for w in cert.circle_roots)


def test_05_integrality_certificates():
    t0 = time.monotonic()
    for n in (19, 25, 31, 37, 43, 379, 739):
        assert integrality_certificate(n).passed, n
    assert not integrality_certificate(20).passed
    assert time.monotonic() - t0 < 10.0


def test_06_branch_consistency_at_every_circle_root():
    tol = mp.mpf(2) ** -100
    siegel, nonsiegel = scan_siegel_roots(PHI_14, 256)
    assert siegel and nonsiegel
    for root in siegel + nonsiegel:
        if root.index < 0:
            continue
        for br in eigenvalue_branches(root):
            vieta = br.alpha * br.beta - root.ball
            assert vieta.abs_ball().hi < tol
            a2 = br.alpha * br.alpha
            quart = a2 * a2 + br.a_of_delta * a2 + root.ball * root.ball
            assert quart.abs_ball().hi < tol


def test_07_sequence_pipeline():
    t0 = time.monotonic()
    seq = mau_build(4, precision_bits=512, relation_bound=32)
    elapsed = time.monotonic() - t0
    c1, c2 = seq.certificates
    assert (c1.k, c1.q) == (2, 367)
    for c in (c1, c2):
        assert c.deg_phi == 360 * c.k + 14
        assert c.deg_r == 180 * c.k + 7
        assert c.q > c.degree_bound_before and c.q_exceeds_bound
    assert seq.relation_audit.outcome == "no_relation"
    assert elapsed < 120.0


def test_08_relation_finder_soundness():
    rep = relation_search([Fraction(1, 3), Fraction(1, 6)], 32, 256)
    assert rep.outcome == "candidate"
    e = rep.exponents
    assert e[0] * (-2) - e[1] * 1 == 0 and any(e)

    rng = random.Random(612)
    # planted relations with small random exponents are recovered
    for _ in range(5):
        k = rng.randint(2, 4)
        m = [0] * k
        while not any(m):
            m = [rng.randint(-20, 20) for _ in range(k)]
        j = max(i for i in range(k) if m[i])
        with mp.workprec(700):
            th = [mp.mpf(rng.getrandbits(512)) / 2**512 for _ in range(k)]
            acc = sum(mi * t for i, (mi, t) in enumerate(zip(m, th)) if i != j)
            th[j] = ((-acc) / m[j]) % 1
            rep = relation_search(th, 32, 512)
        assert rep.outcome == "candidate"
        cross = [rep.exponents[a] * m[b] - rep.exponents[b] * m[a]
                 for a in range(k) for b in range(a + 1, k)]
        assert all(c == 0 for c in cross)

    # no false positives on random independent tuples
    for _ in range(100):
        with mp.workprec(400):
            th = [mp.mpf(rng.getrandbits(300)) / 2**300 for _ in range(2)]
            rep = relation_search(th, 32, 256)
        assert rep.outcome == "no_relation"


def test_09_surface_times_toric_counts(seq19_739):
    spec = build_product_spec([("mcmullen", 19), ("toric", "plane")],
                              seq19_739)
    count, report = siegel_count(spec)
    assert len(report) == 6 and count == 3
    assert sum(1 for fp in report if fp.classification == NONSIEGEL) == 3
    assert not any(fp.classification == "Undetermined" for fp in report)

    line = build_product_spec([("mcmullen", 19), ("toric", "p1")],
                              seq19_739.truncate(3))
    count, report = siegel_count(line)
    assert len(report) == 4 and count == 2


def test_10_two_surface_product_counts(seq4):
    spec = build_product_spec([("mcmullen", 739), ("mcmullen", 3259)], seq4)
    count, report = siegel_count(spec)
    assert len(report) == 4 and count == 1
    siegel = [fp for fp in report if fp.classification == SIEGEL]
    assert [fp.address for fp in siegel] == [("Q", "Q")]
    assert sum(1 for fp in report if fp.classification == NONSIEGEL) == 3


def test_11_entropy_agreement(seq19_739, seq4):
    spec = build_product_spec([("mcmullen", 19), ("toric", "plane")],
                              seq19_739)
    e = product_entropy(spec)
    ref = entropy_from_charpoly(en_from_formula(19) * poly(-1, 1), 256)
    assert abs(e.mid - ref.mid) < mp.mpf(2) ** -80
    assert e.lo > 0

    double = build_product_spec([("mcmullen", 739), ("mcmullen", 3259)], seq4)
    total = product_entropy(double)
    parts = [log_ball(salem_eta(salem_factor(e.source_n).salem_candidate,
                                512), 512)
             for e in (seq4.entries[0], seq4.entries[2])]
    s = parts[0] + parts[1]
    assert abs(total.mid - s.mid) <= total.rad + s.rad + mp.mpf(2) ** -400


def test_12_property_suites(phi14):
    t0 = time.monotonic()
    # polyring serialization round-trip
    rng = random.Random(12)
    for _ in range(50):
        p = IntPoly([rng.randint(-10**9, 10**9)
                     for _ in range(rng.randint(1, 12))])
        assert IntPoly.from_json(p.to_json()) == p

    # product of cyclotomics over divisors reconstructs x^d - 1
    for d in range(1, 201):
        prod = poly(1)
        for e in divisors(d):
            prod = prod * cyclotomic(e)
        assert prod == monomial_minus_one(d)

    # reciprocal pairing of the certified root set
    rs = isolate_roots(phi14, 256)
    with mp.workprec(400):
        for b in rs.balls():
            inv = 1 / b.mid
            assert any(c.contains(inv) for c in rs.balls())

    # classifications stable under precision refinement
    t1 = isolate_roots(phi14, 128).classification
    t2 = isolate_roots(phi14, 256).classification
    assert sorted(t1) == sorted(t2)
    assert time.monotonic() - t0 < 120.0


def monomial_minus_one(d):
    return IntPoly([-1] + [0] * (d - 1) + [1])
