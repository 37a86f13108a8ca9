"""Prime search, exact LLL, relation detection, and sequence growth."""

import gzip
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from salemforge.mau import (DegreeCertificateFailure, IndependenceFalsified,
                            MAUSequence, PrecisionTooLow,
                            d_of, is_prime, lll_reduce, load_sequence,
                            mau_build, mau_extend, mau_seed, n_of,
                            relation_search)
from salemforge import mau
from salemforge.roots import RealBall


# -- primality ----------------------------------------------------------


def test_is_prime_small_cases():
    assert is_prime(2)[0] and is_prime(3)[0] and is_prime(367)[0]
    assert not is_prime(1)[0] and not is_prime(187)[0]
    assert is_prime(187)[1]["factor"] == 11


def test_is_prime_matches_sieve():
    limit = 2000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, limit + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime(n)[0] == sieve[n]


def test_is_prime_pseudoprime_range():
    # no factor among the 12 bases: the strong-pseudoprime path
    assert is_prime(10**13 + 37)[0]
    assert not is_prime(10**13 + 39)[0]
    # psi_7, the smallest strong pseudoprime to the bases 2..17
    prime, witness = is_prime(341_550_071_728_321)
    assert not prime and witness == {"method": "strong_pseudoprime",
                                     "witness_base": 23}
    prime, witness = is_prime(365_100_798_113_827)  # q of the length-8 source
    assert prime and len(witness["bases"]) == 12
    # psi_12, the end of the test range, passes all 12 bases: no proof
    with pytest.raises(ValueError, match="no primality proof"):
        is_prime(318_665_857_834_031_151_167_461)


@pytest.mark.parametrize("n", [
    318_665_857_834_031_151_168_349,    # 41 * 43 * 180 752 046 417 487 890 623
    (10**13 + 37) ** 2])
def test_is_prime_finds_composites_above_psi_12(n):
    # no factor among the 12 bases, above psi_12: a failing base proves
    # n composite at any size
    assert n > 318_665_857_834_031_151_167_461
    assert is_prime(n) == (False, {"method": "strong_pseudoprime",
                                   "witness_base": 2})


def test_is_prime_refuses_a_strong_probable_prime_above_psi_12():
    # the first strong probable prime of the length-10 scan
    with pytest.raises(ValueError, match="no primality proof"):
        is_prime(533_194_371_131_026_085_103_729_915_727)


def test_extension_scan_starts_at_the_bound(monkeypatch):
    # after length 2 the bound is 2 * 734 = 1468; the first k with
    # q = 180k + 7 > 1468 is k = 9, and q = 1627 is prime
    seq2 = mau_build(2, 256)
    tested = []

    def counting(q):
        tested.append(q)
        return is_prime(q)

    monkeypatch.setattr(mau, "is_prime", counting)
    seq4 = mau_extend(seq2, 256)
    assert tested == [d_of(9)] == [1627]
    assert seq4.certificates[-1].k == 9
    assert seq4.relation_audit is None   # audited once, by the builder
    assert [d_of(k) for k in (2, 3, 4)] == [367, 547, 727]
    assert n_of(2) == 739


def test_extension_refuses_a_split_off_the_residue_19_pattern(monkeypatch):
    # Phi_2 alone claimed for E_739: deg phi would be n - 1, not n - 5 = 2q
    salem_factor = mau.salem_factor
    monkeypatch.setattr(mau, "salem_factor", lambda n: replace(
        salem_factor(n), cyclotomic_part=((2, 1),)))
    with pytest.raises(DegreeCertificateFailure, match="residue-19"):
        mau_extend(MAUSequence(precision_bits=256), 256)


def test_one_relation_audit_per_build(monkeypatch):
    # extensions append unaudited pairs; the one final audit covers every
    # prefix, since a prefix relation extends by zero exponents
    searched = []

    def counting(arguments, bound, precision_bits):
        searched.append(len(arguments))
        return relation_search(arguments, bound, precision_bits)

    monkeypatch.setattr(mau, "relation_search", counting)
    seq = mau_build(4, 256)
    assert searched == [4]
    assert seq.relation_audit.outcome == "no_relation"
    assert len(seq.relation_audit.arguments) == 4


# -- LLL ----------------------------------------------------------------


def _lattice_det2(rows):
    # Gram determinant, invariant under unimodular row operations
    g = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
    n = len(g)
    from fractions import Fraction
    m = [[Fraction(x) for x in row] for row in g]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        assert piv is not None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def test_lll_preserves_lattice_and_shortens():
    rows = [[1, 0, 1_000_003], [0, 1, 1_414_214], [0, 0, 10**7]]
    red, b_norms = lll_reduce(rows)
    assert _lattice_det2(red) == _lattice_det2(rows)
    assert min(sum(x * x for x in v) for v in red) \
        <= min(sum(x * x for x in v) for v in rows)
    assert all(b > 0 for b in b_norms)


def _oracle_gram_schmidt(basis):
    """mu[i][j] and squared norms B[i] of the orthogonalization, exact."""
    n = len(basis)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = []
    b_norms = []
    for i in range(n):
        v = [Fraction(x) for x in basis[i]]
        for j in range(i):
            num = sum(Fraction(x) * y for x, y in zip(basis[i], bstar[j]))
            mu[i][j] = num / b_norms[j]
            v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
        bstar.append(v)
        b_norms.append(sum(x * x for x in v))
    return mu, b_norms


def _oracle_lll(rows, delta=Fraction(99, 100)):
    """Reference LLL: full Fraction Gram-Schmidt after every step."""
    b = [[int(x) for x in row] for row in rows]
    n = len(b)
    mu, bn = _oracle_gram_schmidt(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, bn = _oracle_gram_schmidt(b)
        if bn[k] >= (delta - mu[k][k - 1] ** 2) * bn[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            mu, bn = _oracle_gram_schmidt(b)
            k = max(k - 1, 1)
    return b, bn


def _independent(rows):
    try:
        return all(_oracle_gram_schmidt(rows)[1])
    except ZeroDivisionError:
        return False


@st.composite
def _random_lattices(draw):
    n = draw(st.integers(1, 6))
    width = n + draw(st.integers(0, 2))
    bits = draw(st.sampled_from([4, 64, 128]))
    entry = st.integers(-(1 << bits), 1 << bits)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         min_size=n, max_size=n))
    assume(_independent(rows))
    return rows


def _relation_rows(t, p):
    """The lattice relation_search builds: rows (e_i, t_i), then (0, 2^p)."""
    n = len(t)
    rows = [[1 if j == i else 0 for j in range(n)] + [t[i]] for i in range(n)]
    return rows + [[0] * n + [1 << p]]


def _seeded_relation_rows(n, p, seed):
    rng = random.Random(seed)
    return _relation_rows([rng.randrange(1 << p) for _ in range(n)], p)


@st.composite
def _relation_lattices(draw):
    n = draw(st.integers(1, 5))
    p = draw(st.sampled_from([32, 64, 128, 256]))
    t = [draw(st.integers(0, (1 << p) - 1)) for _ in range(n)]
    m = [draw(st.integers(-20, 20)) for _ in range(n)]
    if m[-1]:   # plant sum(m_i theta_i) = 0 mod 1 through the last slot
        t[-1] = round(Fraction(-sum(a * b for a, b in zip(m, t[:-1])),
                               m[-1])) % (1 << p)
    return _relation_rows(t, p)


_tie_lattices = st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n),
    min_size=n, max_size=n)).filter(_independent)


@given(_random_lattices())
@settings(max_examples=60, deadline=None)
def test_lll_matches_oracle_on_random_lattices(rows):
    assert lll_reduce(rows) == _oracle_lll(rows)


@given(_relation_lattices())
@settings(max_examples=40, deadline=None)
def test_lll_matches_oracle_on_relation_lattices(rows):
    assert lll_reduce(rows) == _oracle_lll(rows)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_lll_matches_oracle_on_larger_relation_lattices(n):
    rows = _seeded_relation_rows(n, 32, seed=n)
    assert lll_reduce(rows) == _oracle_lll(rows)


# mu = 5/2, -3/2 and 1/2 round half to even; rounding half up would differ
@example([[2, 0], [5, 1]])
@example([[2, 0], [-3, 1]])
@example([[2, 0, 0], [1, 1, 0], [-3, 1, 1]])
# |b_1|^2 = 99/100 |b_0|^2 meets the Lovasz bound with equality: no swap
@example([[10, 0, 0], [1, 7, 7]])
@given(_tie_lattices)
@settings(max_examples=200, deadline=None)
def test_lll_matches_oracle_on_small_entry_ties(rows):
    assert lll_reduce(rows) == _oracle_lll(rows)


def _with_dependent_last_row(rows):
    """rows plus 2 r0 - r1 + 3 r2, first reached after earlier swaps."""
    return rows + [[2 * a - b + 3 * c for a, b, c in zip(*rows[:3])]]


@pytest.mark.parametrize("rows", [[[0, 0]], [[1, 2], [2, 4]],
                                  [[1, 0], [0, 1], [1, 1]],
                                  [[3, 1, 4], [1, 5, 9], [4, 6, 13]],
                                  _with_dependent_last_row(
                                      _seeded_relation_rows(3, 32, seed=3))])
def test_lll_rejects_dependent_rows(rows):
    with pytest.raises(ValueError):
        lll_reduce(rows)


# -- relation search ----------------------------------------------------


def test_planted_root_of_unity_relation():
    r = relation_search([Fraction(1, 3), Fraction(1, 6)], 32, 256)
    assert r.outcome == "candidate"
    assert r.exponents == (1, -2)
    assert r.residual.hi < mp.mpf(2) ** -64


def test_planted_doubling_relation():
    with mp.workprec(600):
        th = mp.sqrt(2) - 1
        r = relation_search([th, (2 * th) % 1], 32, 512)
    assert r.outcome == "candidate"
    assert r.exponents == (2, -1)


def test_independent_pair_no_relation():
    with mp.workprec(600):
        r = relation_search([mp.log(2), mp.pi % 1], 32, 512)
    assert r.outcome == "no_relation"
    assert mp.mpf(r.gap) > 0
    assert len(r.notes) == 2


def test_precision_too_low_for_coarse_arguments():
    coarse = RealBall(mp.mpf("0.3"), mp.mpf(2) ** -40)
    with pytest.raises(PrecisionTooLow) as e:
        relation_search([coarse, coarse], 32, 256)
    assert e.value.required_bits <= 40


def test_printed_gap_is_a_lower_bound(monkeypatch, seq4):
    """The reported gap, parsed at 4000 bits, is at most the certified
    bound (sqrt(min B*_i - n bound^2) - slack) / 2^p it is printed from."""
    norms, original = [], mau.lll_reduce

    def recorded(rows):
        basis, b_norms = original(rows)
        norms.append(min(b_norms))
        return basis, b_norms

    monkeypatch.setattr(mau, "lll_reduce", recorded)
    rng = random.Random(20261019)
    audits = [(seq4.arguments(), 512)] + [
        ([mp.ldexp(rng.getrandbits(256), -256) for _ in range(3)], 256)
        for _ in range(40)]
    for args, p in audits:
        rep = relation_search(args, 32, p)
        assert rep.outcome == "no_relation"
        n, lam2 = len(args), norms[-1]
        with mp.workprec(4000):
            slack = n * 32 * (mp.mpf(1) / 2 + mp.ldexp(
                max(a.rad for a in rep.arguments), p))
            exact = mp.ldexp(mp.sqrt(mp.mpf(lam2.numerator) / lam2.denominator
                                     - n * 32 ** 2) - slack, -p)
            assert mp.mpf(rep.gap) <= exact, rep.gap


def test_planted_random_relations_recovered():
    rng = random.Random(20260823)
    for _ in range(5):
        k = rng.randint(2, 4)
        m = [0] * k
        while not any(m):
            m = [rng.randint(-20, 20) for _ in range(k)]
        # make the last nonzero slot carry the dependence
        j = max(i for i in range(k) if m[i])
        with mp.workprec(700):
            thetas = [mp.mpf(rng.getrandbits(512)) / 2**512 for _ in range(k)]
            acc = sum(mi * t for i, (mi, t) in enumerate(zip(m, thetas))
                      if i != j)
            thetas[j] = ((-acc) / m[j]) % 1
            rep = relation_search(thetas, 32, 512)
        assert rep.outcome == "candidate"
        # recovered exponents satisfy the planted relation: proportional to m
        e = rep.exponents
        assert any(e[i] for i in range(k))
        cross = [e[a] * m[b] - e[b] * m[a]
                 for a in range(k) for b in range(a + 1, k)]
        assert all(c == 0 for c in cross)


def test_bare_mpf_arguments_keep_their_precision():
    # 560-bit mpf arguments searched at 512 bits at the ambient (53-bit)
    # precision: rounding them to 53 bits would hide the planted relation
    rng = random.Random(560)
    with mp.workprec(560):
        a = mp.mpf(rng.getrandbits(560)) / 2**560
        b = mp.mpf(rng.getrandbits(560)) / 2**560
        c = ((6 * a - 8 * b) / 11) % 1
    rep = relation_search([a, b, c], 32, 512)
    assert rep.outcome == "candidate"
    assert rep.exponents == (6, -8, -11)
    assert rep.arguments[2].mid == c


def test_fraction_arguments_keep_their_precision():
    # 1/2 + 2^-60 rounded to 53 bits is 1/2, with the relation (2,)
    x = Fraction(1, 2) + Fraction(1, 2**60)
    rep = relation_search([x], 32, 256)
    assert rep.outcome == "no_relation"
    with mp.workprec(600):
        arg = rep.arguments[0]
        assert abs(arg.mid - mp.mpf(x.numerator) / x.denominator) <= arg.rad
        third = relation_search([Fraction(1, 3)], 32, 256).arguments[0]
        assert 0 < third.rad < mp.mpf(2) ** -256
        assert abs(third.mid - mp.mpf(1) / 3) <= third.rad


# -- sequence growth ----------------------------------------------------


def test_mau_build_rejects_odd_or_small():
    with pytest.raises(ValueError):
        mau_build(3)
    with pytest.raises(ValueError):
        mau_build(0)


def test_first_extension_uses_k2(seq4):
    c = seq4.certificates[0]
    assert (c.k, c.n, c.q) == (2, 739, 367)
    assert c.q_exceeds_bound and c.degree_bound_before == 1
    assert c.deg_phi == 360 * 2 + 14 and c.deg_r == 180 * 2 + 7
    assert c.cyclotomic_degree == 5
    assert c.integrality.passed


def test_second_extension_respects_growth(seq4):
    c1, c2 = seq4.certificates
    assert c2.degree_bound_before == 2 * 734
    assert c2.q > c2.degree_bound_before
    assert (c2.k, c2.q) == (9, 1627)
    assert seq4.degree_bound == (2 * 734) * (2 * 3254)


def test_entries_and_audit(seq4):
    assert [(e.source_n, e.role) for e in seq4.entries] == [
        (739, "alpha"), (739, "beta"), (3259, "alpha"), (3259, "beta")]
    assert seq4.relation_audit.outcome == "no_relation"
    for e in seq4.entries:
        # on the unit circle by construction; containment of modulus 1
        a = e.value.abs_ball()
        assert a.lo <= 1 <= a.hi


def test_audit_gaps_are_pinned(seq4, seq8):
    # the printed gap is read off the reduced basis, so any change to the
    # LLL trajectory moves these digits
    assert seq4.relation_audit.gap == "3.565204048e-124"
    assert seq8.relation_audit.gap == "7.566981586e-138"


def test_truncation_keeps_prefix_and_certificates(seq4):
    t = seq4.truncate(3)
    assert len(t) == 3
    assert t.entries == seq4.entries[:3]
    assert t.certificates == seq4.certificates


def test_sequence_json_round_trip(tmp_path, seq4):
    path = tmp_path / "seq.json"
    seq4.dump(path)
    again = load_sequence(path)
    assert again.precision_bits == 512 and len(again) == 4
    assert again.degree_bound == seq4.degree_bound
    # round-tripped arguments still pass the audit at full precision
    rep = relation_search(again.arguments(), 32, 512)
    assert rep.outcome == "no_relation"


def test_stored_sequences_with_minimal_poly_still_load(tmp_path):
    # sequences written before the dense minimal_poly left the entries
    inputs = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
    for name in ("seq_19_739", "seq_mau4"):
        with gzip.open(inputs / f"{name}.json.gz") as fh:
            data = json.load(fh)
        assert all("minimal_poly" in e for e in data["entries"])
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        seq = load_sequence(path)
        assert [e.source_n for e in seq.entries] == \
            [e["source_n"] for e in data["entries"]]
        assert "minimal_poly" not in seq.to_json()["entries"][0]


def test_length_8_sources(seq8):
    assert [(c.k, c.q) for c in seq8.certificates] == [
        (2, 367), (9, 1627), (53_077, 9_553_867),
        (2_028_337_767_299, 365_100_798_113_827)]
    assert [c.n for c in seq8.certificates[2:]] == [19_107_739,
                                                    730_201_596_227_659]
    assert seq8.certificates[3].degree_bound_before == 365_100_798_112_192
    for c in seq8.certificates:
        assert c.q_exceeds_bound and c.deg_r == c.q
        assert c.deg_phi == c.n - 5 and c.cyclotomic_degree == 5
    assert seq8.relation_audit.outcome == "no_relation"


def test_seed_duplicate_source_is_falsified():
    with pytest.raises(IndependenceFalsified):
        mau_seed([19, 19], precision_bits=256)


def test_seeded_sequence_certificates(seq19_739):
    assert [c.n for c in seq19_739.certificates] == [19, 739]
    assert seq19_739.certificates[0].q == 7      # deg r of the n=19 factor
    assert seq19_739.relation_audit.outcome == "no_relation"
