"""Product fixed-point enumeration, classification, and entropy."""

import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import pytest

from salemforge import mau, toric
from salemforge.product import (ProductSpec, SpecError, build_product_spec,
                                enumerate_fixed_points, product_entropy,
                                siegel_count, SIEGEL, NONSIEGEL,
                                UNDETERMINED)
from salemforge.coxeter import salem_factor
from salemforge.mau import MAUSequence, _residual_ball
from salemforge.mcmullen import IntegralityFailure

from conftest import doubled, projective_fan


@pytest.fixture(scope="module")
def spec_plane(seq19_739):
    return build_product_spec([("mcmullen", 19), ("toric", "plane")],
                              seq19_739)


@pytest.fixture(scope="module")
def spec_double(seq4):
    return build_product_spec([("mcmullen", 739), ("mcmullen", 3259)], seq4)


def surface_times_projective(seq8, d, tmp_path):
    """mcmullen 739 x P^d over the first 2 + d entries of seq8."""
    fan = tmp_path / f"p{d}.json"
    fan.write_text(json.dumps(projective_fan(d).to_json()))
    return build_product_spec([("mcmullen", 739), ("toric", str(fan))],
                              seq8.truncate(2 + d))


def test_spec_requires_exact_entry_consumption(seq19_739):
    with pytest.raises(SpecError):
        build_product_spec([("mcmullen", 19)], seq19_739)   # 2 of 4 used
    with pytest.raises(SpecError):
        build_product_spec([("mcmullen", 739)], seq19_739)  # wrong source


def test_spec_rejects_source_without_integrality_certificate(seq19_739):
    # the n = 19 pair relabelled as source 20, whose certificate fails
    pair = tuple(replace(e, source_n=20) for e in seq19_739.entries[:2])
    with pytest.raises(IntegralityFailure, match="n=20"):
        build_product_spec([("mcmullen", 20)], replace(seq19_739, entries=pair))


def test_spec_rejects_two_toric_factors(seq19_739):
    with pytest.raises(SpecError):
        build_product_spec([("toric", "p1"), ("toric", "plane")],
                           seq19_739.truncate(3))


def test_a_toric_factor_is_certified_once(seq19_739):
    # counted by code object, so a call through any binding counts
    names = {toric.check_fan.__code__: "check_fan",
             toric._cofactors.__code__: "_cofactors"}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        build_product_spec([("mcmullen", 19), ("toric", "plane")], seq19_739)
    finally:
        sys.setprofile(None)
    # one certificate, and one cofactor matrix per cone for it and for
    # the dual bases
    assert calls == {"check_fan": 1, "_cofactors": 6}


def test_enumeration_counts(spec_plane, spec_double):
    assert len(enumerate_fixed_points(spec_plane)) == 6      # 2 x N, N = 3
    assert len(enumerate_fixed_points(spec_double)) == 4     # 2 x 2


def test_empty_product_has_one_fixed_point(seq19_739):
    spec = ProductSpec(factors=(), joint_mau=MAUSequence(precision_bits=512),
                       precision_bits=512)
    pts = enumerate_fixed_points(spec)
    assert len(pts) == 1
    assert pts[0].eigenvalue_arguments == ()
    # no search runs: one over no arguments would raise
    count, report = siegel_count(spec)
    assert count == 1 and report[0].classification == SIEGEL
    assert report[0].evidence["reason"] == "empty product, vacuous pass"


def test_p_addresses_are_nonsiegel(spec_plane):
    _, report = siegel_count(spec_plane)
    p_points = [fp for fp in report if "P" in fp.address]
    assert len(p_points) == 3
    for fp in p_points:
        assert fp.classification == NONSIEGEL
        assert "P" in fp.evidence["reason"]


def test_plane_product_counts(spec_plane):
    count, report = siegel_count(spec_plane)
    assert len(report) == 6
    assert count == 3
    assert sum(1 for fp in report if fp.classification == NONSIEGEL) == 3
    # the Siegel points are exactly the Q addresses
    for fp in report:
        assert (fp.classification == SIEGEL) == (fp.address[0] == "Q")


def test_double_factor_counts(spec_double):
    count, report = siegel_count(spec_double)
    assert len(report) == 4 and count == 1
    siegel_addrs = [fp.address for fp in report
                    if fp.classification == SIEGEL]
    assert siegel_addrs == [("Q", "Q")]


def test_chance_relation_is_undetermined_at_low_precision(seq4):
    # at 32 bits an exponent vector comes within 2^-8 of a relation by
    # chance alone: no verified relation, so Q x Q is not NonSiegel
    spec = build_product_spec([("mcmullen", 739), ("mcmullen", 3259)], seq4,
                              32)
    count, report = siegel_count(spec)
    qq = next(fp for fp in report if fp.address == ("Q", "Q"))
    assert qq.classification == UNDETERMINED and count == 0
    assert qq.evidence["remediation"]["raise_precision_to"] > 32


def test_classification_invariant_under_reordering(seq4):
    fwd = build_product_spec([("mcmullen", 739), ("mcmullen", 3259)], seq4)
    # swap the entries to swap factor order coherently
    swapped = MAUSequence(entries=seq4.entries[2:] + seq4.entries[:2],
                          degree_bound=seq4.degree_bound,
                          certificates=seq4.certificates,
                          relation_audit=seq4.relation_audit,
                          precision_bits=seq4.precision_bits)
    rev = build_product_spec([("mcmullen", 3259), ("mcmullen", 739)], swapped)
    _, rf = siegel_count(fwd)
    _, rr = siegel_count(rev)
    fwd_map = {fp.address: fp.classification for fp in rf}
    rev_map = {fp.address[::-1]: fp.classification for fp in rr}
    assert fwd_map == rev_map


def test_entropy_of_plane_product(spec_plane):
    e = product_entropy(spec_plane)
    with mp.workprec(300):
        oracle = mp.mpf("0.276265276471051153650071446194313256961608122")
    assert abs(e.mid - oracle) < mp.mpf(2) ** -80
    assert e.lo > 0


def test_entropy_additivity(spec_plane, spec_double, seq4):
    single = build_product_spec([("mcmullen", 739)], seq4.truncate(2))
    e1 = product_entropy(single)
    e2 = product_entropy(spec_double)
    from salemforge.oracle import salem_eta
    from salemforge.roots import log_ball
    phi2 = salem_factor(seq4.entries[2].source_n).salem_candidate
    expect = e1 + log_ball(salem_eta(phi2, 512), 512)
    assert abs(e2.mid - expect.mid) <= e2.rad + expect.rad + mp.mpf(2) ** -400


def test_four_surface_product_has_one_siegel_point(seq8):
    spec = build_product_spec(
        [("mcmullen", n) for n in (739, 3259, 19_107_739, 730_201_596_227_659)],
        seq8)
    count, report = siegel_count(spec)
    assert len(report) == 16 and count == 1
    assert [fp.address for fp in report if fp.classification == SIEGEL] == [
        ("Q", "Q", "Q", "Q")]
    assert not any(fp.classification == UNDETERMINED for fp in report)


def test_pure_toric_entropy_is_zero(seq19_739):
    spec = build_product_spec([("toric", "p1xp1")], seq19_739.truncate(2))
    with pytest.warns(UserWarning):
        e = product_entropy(spec)
    assert e.mid == 0 and e.rad == 0


def test_undetermined_on_coarse_precision(seq19_739):
    # classify at a precision far above the stored argument accuracy:
    # the radii check must refuse rather than silently classify
    spec = build_product_spec([("mcmullen", 19), ("toric", "plane")],
                              seq19_739, 4096)
    count, report = siegel_count(spec)
    q_points = [fp for fp in report if fp.address[0] == "Q"]
    assert count == 0 and len(q_points) == 3
    for fp in q_points:
        assert fp.classification == UNDETERMINED
        assert "raise_precision_to" in fp.evidence["remediation"]


def _lll_calls(spec):
    # counted by code object, so a call through any binding counts
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is mau.lll_reduce.__code__:
            calls += 1

    sys.setprofile(profile)
    try:
        siegel_count(spec)
    finally:
        sys.setprofile(None)
    return calls


def test_one_lattice_reduction_decides_every_point(spec_plane, seq8,
                                                   tmp_path):
    assert _lll_calls(spec_plane) == 1
    assert _lll_calls(surface_times_projective(seq8, 6, tmp_path)) == 1


@pytest.mark.parametrize("d", range(1, 7))
def test_surface_times_projective_space_counts(seq8, d, tmp_path):
    # the paper's "arbitrarily many Siegel disks": one per cone of P^d
    count, report = siegel_count(surface_times_projective(seq8, d, tmp_path))
    assert count == d + 1
    assert Counter(fp.classification for fp in report) == {
        SIEGEL: d + 1, NONSIEGEL: d + 1}
    for fp in report:
        assert (fp.classification == SIEGEL) == (fp.address[0] == "Q")
        if fp.address[0] == "Q":
            # the sequence searched at bound s B, s = d on P^d
            assert fp.evidence["bound"] == 32
            assert fp.evidence["relation_audit"]["bound"] == 32 * d


def test_the_toric_gate_reads_no_stored_audit(seq19_739):
    # theta_1 planted as 2 theta_0 mod 1; build_product_spec searches the
    # toric coordinates itself, so no stored audit lets them through: none,
    # a stale no_relation over these very arguments, or a foreign one
    seq = doubled(seq19_739.truncate(2), 0, 1)
    stale = replace(seq19_739.relation_audit, arguments=tuple(seq.arguments()))
    assert stale.outcome == "no_relation"
    for audit in (None, stale, seq19_739.relation_audit):
        with pytest.raises(toric.IndependenceEvidenceMissing):
            build_product_spec([("toric", "p1xp1")],
                               replace(seq, relation_audit=audit))


def test_a_verified_sequence_relation_is_a_witness_at_every_point(seq19_739):
    # theta_2 planted as 2 theta_0 mod 1: the toric coordinates (theta_2,
    # theta_3) stay independent, so the gate passes, and the sequence
    # relation (2, 0, -1, 0) is a relation at every all-Q point
    spec = build_product_spec([("mcmullen", 19), ("toric", "plane")],
                              doubled(seq19_739, 0, 2))
    count, report = siegel_count(spec)
    assert count == 0 and len(report) == 6
    assert all(fp.classification == NONSIEGEL for fp in report)
    q_points = [fp for fp in report if fp.address[0] == "Q"]
    assert [fp.evidence["exponents"] for fp in q_points] == [
        [2, 0, -1, 0], [2, 0, 0, 1], [2, 0, 1, -1]]
    for fp in q_points:
        residual = _residual_ball(list(fp.eigenvalue_arguments),
                                  fp.evidence["exponents"], 512)
        assert residual.hi < mp.mpf(2) ** -128


def test_only_mau_reads_a_sequence_audit():
    # independence evidence is a search the caller runs, never a stored one
    src = Path(toric.__file__).parent
    for name in ("product", "toric", "cli"):
        assert ".relation_audit" not in (src / f"{name}.py").read_text(), name
