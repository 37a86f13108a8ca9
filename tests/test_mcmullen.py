"""Eigenvalue pairs at Siegel points and exact integrality certificates."""

import math
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import replace

import mpmath as mp
import pytest

from salemforge.mcmullen import (CircleRoot, NoSiegelRoot, PoleError,
                                 eigenvalue_branches, integrality_certificate,
                                 mcmullen_data, witness_roots, _branch_class,
                                 _cyclotomic_phases, _nonsiegel_edge,
                                 _w_interval)
from salemforge.roots import (GUARD_BITS, ComplexBall, IsolationError, RealBall,
                              phase_circle_root, phase_eta, polar_ball)
from salemforge.oracle import (circle_root, circle_root_arguments,
                               circle_root_brackets, eval_ball, isolate_roots,
                               pisot_phase, salem_eta, scan_siegel_roots)
from salemforge.coxeter import en_from_formula, salem_factor
from salemforge.mau import mau_build
from salemforge.product import build_product_spec, product_entropy
from salemforge import coxeter, mcmullen, oracle, roots

TOL = mp.mpf(2) ** -100


def _residual(b):
    return b.abs_ball().hi


def test_w_is_real_and_matches_closed_form():
    with mp.workprec(300):
        theta = RealBall(mp.mpf("0.7"), mp.mpf(2) ** -250)
        w = _w_interval(theta, 256)
        expected = 2 * mp.cos(mp.mpf("0.35")) / (1 + 2 * mp.cos(mp.mpf("0.7")))
        assert abs(w.mid - expected) < mp.mpf(2) ** -200


def test_w_pole_at_cube_root_of_unity():
    with mp.workprec(300):
        theta = RealBall(2 * mp.pi / 3, mp.mpf(2) ** -250)
    with pytest.raises(PoleError):
        _w_interval(theta, 256)


def test_scan_partitions_phi14(phi14):
    siegel, nonsiegel = scan_siegel_roots(phi14, 256)
    assert len(siegel) + len(nonsiegel) == 12
    assert len(siegel) == 8 and len(nonsiegel) == 4
    # closed under conjugation: indices come in +/- pairs
    for bucket in (siegel, nonsiegel):
        idx = sorted(r.index for r in bucket)
        assert idx == sorted(-i for i in idx)


def test_vieta_and_quadratic_residuals_all_roots(phi14, data19):
    """alpha beta = delta, alpha + beta = s, and alpha^2 solves
    x^2 + a(delta) x + delta^2 = 0, within ball radii at every circle root."""
    siegel, nonsiegel = scan_siegel_roots(phi14, 256)
    for root in siegel + nonsiegel:
        if root.index < 0:
            continue
        for br in eigenvalue_branches(root):
            assert _residual(br.alpha * br.beta - root.ball) < TOL
            assert _residual(br.alpha + br.beta - br.s) < TOL
            a2 = br.alpha * br.alpha
            quart = a2 * a2 + br.a_of_delta * a2 + root.ball * root.ball
            assert _residual(quart) < TOL


def test_eigenvalues_are_roots_of_the_quadratic(data19):
    d = data19
    res = d.alpha * d.alpha - d.s * d.alpha + d.delta.ball
    assert _residual(res) < TOL


def test_branch_signs_disagree_in_s(phi14):
    siegel, _ = scan_siegel_roots(phi14, 256)
    root = next(r for r in siegel if r.index > 0)
    b1, b2 = eigenvalue_branches(root)
    assert {b1.branch_sign, b2.branch_sign} == {1, -1}
    assert _residual(b1.s + b2.s) < TOL          # s flips sign with the branch


def test_nonsiegel_ratio_separated_from_one(phi14):
    _, nonsiegel = scan_siegel_roots(phi14, 256)
    root = next(r for r in nonsiegel if r.index > 0)
    br = eigenvalue_branches(root)[0]
    assert br.classification == "nonsiegel"
    assert br.ratio_abs.lo > 1 or br.ratio_abs.hi < 1


def test_witness_roots_agrees_with_scan(phi14):
    s, ns = witness_roots(salem_factor(19), 256)
    assert eigenvalue_branches(s)[0].classification == "siegel"
    assert eigenvalue_branches(ns)[0].classification == "nonsiegel"
    # the witnesses keep their scan positions
    siegel, nonsiegel = scan_siegel_roots(phi14, 256)
    assert (s.index, ns.index) == (siegel[0].index, nonsiegel[0].index) == (1, 4)
    assert s.theta == siegel[0].theta and ns.theta == nonsiegel[0].theta


def test_witness_roots_demand_a_consistent_split():
    # Phi_5 claimed for E_25, where its roots are no phase roots
    fact25 = salem_factor(25)
    with pytest.raises(IsolationError):
        witness_roots(replace(fact25, cyclotomic_part=((2, 1), (5, 1))), 128)


def _mp_cyclotomic_phases(fact):
    """The phase index of each cyclotomic circle root in (0, pi), read
    from the multiprecision phase: the reference for the float tail."""
    n, out = fact.n, []
    with mp.workprec(64 + n.bit_length()):
        for d, mult in fact.cyclotomic_part:
            for a in range(1, (d + 1) // 2):
                if math.gcd(a, d) == 1:
                    turns = pisot_phase(n, 2 * mp.pi * a / d)[0] / (2 * mp.pi)
                    j = int(mp.nint(turns))
                    assert mult == 1 and abs(turns - j) <= 0.25
                    out.append(j)
    return sorted(out)


def _mp_nonsiegel_edge(n):
    """The phase index of the last root before |w| = 101/50, read from
    the multiprecision phase at the point where |w| = 101/50."""
    with mp.workprec(64 + n.bit_length() + 40):
        w = mp.mpf(101) / 50
        edge = 2 * mp.acos((1 + mp.sqrt(1 + 4 * w ** 2)) / (4 * w))
        return int(pisot_phase(n, edge)[0] / (2 * mp.pi))


LENGTH_10_SOURCE = 1_066_388_742_262_052_170_207_459_831_459


def test_float_phase_indices_equal_the_multiprecision_ones():
    for n in [*range(13, 2001, 6), 730_201_596_227_659, 10**18 - 3,
              LENGTH_10_SOURCE]:
        fact = salem_factor(n)
        assert _cyclotomic_phases(fact) == _mp_cyclotomic_phases(fact), n
        assert _nonsiegel_edge(n) == _mp_nonsiegel_edge(n), n


@pytest.mark.parametrize("sign", (1, -1))
def test_steering_evaluates_no_spare_multiprecision_phase(monkeypatch, sign):
    """The float stage picks the candidates and starts the certified
    roots: no multiprecision phase, two roots are certified, one w per
    witness."""
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)

    for module in (roots, mcmullen, oracle):
        if hasattr(module, "pisot_phase"):
            count(module, "pisot_phase")
    count(mcmullen, "phase_circle_root")
    count(mcmullen, "_w_interval")
    count(mcmullen, "_w_guess")
    assert mcmullen_data(43, 256, sign).siegel_root
    assert calls["phase_circle_root"] == 2
    assert calls["pisot_phase"] == 0
    # each guess reads its w through _w_interval too, at guess_bits
    assert calls["_w_interval"] - calls["_w_guess"] == 2


def test_split_is_computed_once_per_n(monkeypatch):
    """Pair-data calls at one n over four precisions and both signs (the
    siegel_scan pattern) certify each precision once and split E_n once:
    one exact test per divisor d >= 2 of 1800."""
    calls = Counter()
    vanishes = coxeter._vanishes_at_zeta

    def counted(n, d):
        calls[n] += 1
        return vanishes(n, d)

    monkeypatch.setattr(coxeter, "_vanishes_at_zeta", counted)
    coxeter.cyclotomic_part.cache_clear()
    for precision_bits in (128, 256, 512, 1024):
        for sign in (1, -1):
            assert mcmullen_data(43, precision_bits, sign).siegel_root
    assert calls == {43: 35}


def test_other_sign_builds_only_its_branches(monkeypatch):
    """The witnesses, eta and the certificate at (n, precision) are
    certified once: the second sign makes only its two branches."""
    assert mcmullen_data(43, 256, +1).siegel_root
    calls = Counter()

    def count(name):
        original = getattr(mcmullen, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(mcmullen, name, counted)

    for name in ("phase_circle_root", "phase_eta", "integrality_certificate",
                 "eigenvalue_branch"):
        count(name)
    assert mcmullen_data(43, 256, -1).siegel_root
    assert calls == {"eigenvalue_branch": 2}


@pytest.mark.parametrize("n", range(13, 134, 6))
def test_phase_roots_equal_the_dense_scan(n):
    """Every circle root of phi from the phase is the dense oracle's ball,
    mid and radius, at the position its index names."""
    fact = salem_factor(n)
    phi = fact.salem_candidate
    dense = circle_root_arguments(phi, 128, expected=phi.degree // 2 - 1)
    cyc = _cyclotomic_phases(fact)
    phase = {j - 1 - bisect_left(cyc, j): phase_circle_root(n, j, 128)
             for j in range(2, n // 2 + 1) if j not in cyc}
    assert phase == dict(enumerate(dense, start=1))


def test_witnesses_and_eta_equal_the_dense_ones_at_739():
    prec = 512
    fact = salem_factor(739)
    phi = fact.salem_candidate
    brackets = circle_root_brackets(phi, expected=phi.degree // 2 - 1)
    for root in witness_roots(fact, prec):
        assert root.theta == circle_root(phi, *brackets[root.index - 1], prec)
    assert phase_eta(739, prec) == salem_eta(phi, prec)


@pytest.mark.parametrize("n, indices", [(739, (1, 205)), (3259, (1, 909))])
def test_witness_indices_follow_the_continuous_arg(n, indices):
    # a principal arg of P jumps inside (0, pi) and shifts the index
    s, ns = witness_roots(salem_factor(n), 128)
    assert (s.index, ns.index) == indices


def test_production_paths_evaluate_no_dense_phi(monkeypatch):
    """mcmullen_data (below and above degree 40), mau_build,
    build_product_spec and product_entropy build no dense E_n and
    evaluate only P, P* and their derivatives, never phi."""
    horner = roots._horner

    def small_only(coeffs, z):
        assert len(coeffs) <= 4, f"degree-{len(coeffs) - 1} evaluation"
        return horner(coeffs, z)

    def refuse(*args, **kwargs):
        raise AssertionError("dense E_n or a dense circle scan was built")

    monkeypatch.setattr(roots, "_horner", small_only)
    monkeypatch.setattr(oracle, "circle_root_brackets", refuse)
    monkeypatch.setattr(coxeter, "en_from_formula", refuse)
    for n in (31, 739):
        assert mcmullen_data(n, 128).siegel_root
    spec = build_product_spec([("mcmullen", 739)], mau_build(2, 512))
    assert product_entropy(spec).mid > 0


def _f_value(n, x, prec):
    """F(x) = sin(ax) - sin((a-2)x) - sin((a-3)x), a = (n+1)/2, plain mpmath."""
    with mp.workprec(2 * prec):
        a = mp.mpf(n + 1) / 2
        return mp.sin(a * x) - mp.sin((a - 2) * x) - mp.sin((a - 3) * x)


def test_witnesses_certify_at_19107739():
    """E_19107739 is never densified: its cyclotomic part comes from the
    sparse split and the witnesses from the phase alone."""
    n, prec = 19_107_739, 512
    s, ns = witness_roots(salem_factor(n), prec)
    assert s.index == 1
    for root, tag in ((s, "siegel"), (ns, "nonsiegel")):
        assert _branch_class(_w_interval(root.theta, prec)) == tag
        assert 0 < root.theta.lo and root.theta.hi < mp.pi
        lo, hi = _f_value(n, root.theta.lo, prec), _f_value(n, root.theta.hi, prec)
        assert lo * hi < 0


@pytest.mark.parametrize("n, index", [
    (10**18 - 3, 279_409_693_763_625_818),
    (LENGTH_10_SOURCE, 297_959_351_908_418_102_506_945_217_385)])
def test_nonsiegel_walk_certifies_the_first_root_past_the_edge(monkeypatch, n, index):
    """Near |w| = 101/50 the w of neighbouring roots differ far below
    double precision: the walk reads w from the mpf guesses, starts at
    the exact edge and certifies the first root past it."""
    guesses = Counter()
    w_guess = mcmullen._w_guess

    def counted(n, j):
        guesses[j] += 1
        return w_guess(n, j)

    monkeypatch.setattr(mcmullen, "_w_guess", counted)
    data = mcmullen_data(n, 512)
    cyc = _cyclotomic_phases(salem_factor(n))
    j = _nonsiegel_edge(n) + 1
    assert j not in cyc
    assert data.delta_prime.index == index == j - 1 - bisect_left(cyc, j)
    assert _branch_class(data.delta_prime.w) == "nonsiegel"
    assert not (data.ratio_prime - 1).contains_zero()
    assert data.delta.index == 1 and data.siegel_root
    assert sum(guesses.values()) == 3       # j = 2, the edge and the next root


def _sign_certified_opposite(f_lo: RealBall, f_hi: RealBall) -> bool:
    return ((f_lo.is_negative() and f_hi.is_positive())
            or (f_lo.is_positive() and f_hi.is_negative()))


def _endpoint(x, prec):
    """x rounded to the working precision, with a radius covering that."""
    return +x, mp.mpf(2) ** (-(prec + 70))


def test_witness_and_eta_balls_hold_a_sign_change():
    """At n = 739, 512 bits, G = Re(e^(-imt) phi(e^(it))) has certified
    opposite signs at the ends of each witness theta ball, and so does
    phi at the ends of the eta ball; the signs come from eval_ball."""
    prec = 512
    phi = salem_factor(739).salem_candidate
    m = phi.degree // 2

    def g_ball(x):
        with mp.workprec(prec + GUARD_BITS):
            t, r = _endpoint(x, prec)
            z = polar_ball(1, RealBall(t, r), prec)
            u = polar_ball(1, RealBall(-m * t, m * r), prec)
        w = eval_ball(phi, z) * u
        return RealBall(w.mid.real, w.radius)

    def phi_ball(x):
        with mp.workprec(prec + GUARD_BITS):
            t, r = _endpoint(x, prec)
            v = eval_ball(phi, ComplexBall(mp.mpc(t), r, prec))
        return RealBall(v.mid.real, v.radius)

    for root in witness_roots(salem_factor(739), prec):
        assert _sign_certified_opposite(g_ball(root.theta.lo), g_ball(root.theta.hi))
    eta = phase_eta(739, prec)
    assert _sign_certified_opposite(phi_ball(eta.lo), phi_ball(eta.hi))


def _distance_at_omega(n, a, b):
    """|E_n(omega) - (a + b omega)| by mpmath, omega = e^(2 pi i / 3)."""
    with mp.workprec(200):
        omega = mp.expjpi(mp.mpf(2) / 3)
        value = mp.polyval(list(reversed(en_from_formula(n).coeffs)), omega)
        return abs(value - (a + b * omega))


@pytest.mark.parametrize("n", [13, 19, 25, 31, 37, 43, 739, 3259])
def test_integrality_certificate_passes(n):
    cert = integrality_certificate(n)
    assert cert.passed
    # (omega - 1) E_n(omega) = -omega^(n-1) + omega^2 = omega^2 - 1 for
    # n = 1 mod 6, so E_n(omega) = 1 + omega, of norm 1
    assert (cert.a, cert.b, cert.norm) == (1, 1, 1)


@pytest.mark.parametrize("n, a, b", [(13, 1, 1), (20, 0, 1), (21, 0, 0)])
def test_reduction_matches_evaluation_at_omega(n, a, b):
    cert = integrality_certificate(n)
    assert (cert.a, cert.b) == (a, b)
    assert _distance_at_omega(n, a, b) < mp.mpf(2) ** -150


def test_sparse_certificate_matches_the_dense_reduction():
    """E_n(omega) from S(omega) / (omega - 1) equals the reduction of the
    dense coefficients of E_n, for every n from 10 to 400."""
    for n in range(10, 401):
        c = en_from_formula(n).coeffs
        c0, c1, c2 = sum(c[0::3]), sum(c[1::3]), sum(c[2::3])
        cert = integrality_certificate(n)
        assert (cert.a, cert.b) == (c0 - c2, c1 - c2)


def test_integrality_certificate_fails_for_n20():
    cert = integrality_certificate(20)
    assert cert.norm == 1 and not cert.passed      # E_20(omega) = omega
    assert dict(cert.checks) == {"n_is_1_mod_6": False, "norm_is_1": True}


def test_integrality_certificate_fails_for_n21():
    cert = integrality_certificate(21)              # Phi_3 divides E_21
    assert cert.norm == 0 and not cert.passed


def test_norm_is_the_product_over_oracle_roots(phi14):
    """prod (delta^2 + delta + 1) over the Aberth roots of phi_14 holds 1,
    the norm the certificate gives exactly for E_19."""
    prod = ComplexBall.exact(1, 256)
    for z in isolate_roots(phi14, 256).balls():
        prod = prod * (z * z + z + 1)
    assert prod.contains(1) and prod.radius < mp.mpf(2) ** -100


def test_mcmullen_data_validations():
    with pytest.raises(ValueError):
        mcmullen_data(20)
    with pytest.raises(ValueError):
        mcmullen_data(7)


def test_mcmullen_data_fields(data19):
    d = data19
    assert d.n == 19 and d.siegel_root and d.certificate.passed
    assert d.delta_prime is not None
    # entropy matches the independently derived bisection value
    with mp.workprec(300):
        oracle = mp.mpf("0.276265276471051153650071446194313256961608122")
    assert abs(d.entropy.mid - oracle) < mp.mpf(2) ** -80
    # argument bookkeeping: e^(2 pi i t) reproduces alpha and beta
    with mp.workprec(340):
        for turns, value in ((d.alpha_arg_turns, d.alpha),
                             (d.beta_arg_turns, d.beta)):
            z = mp.exp(2j * mp.pi * turns.mid)
            assert abs(z - value.mid) < mp.mpf(2) ** -200


def test_pair_data_builds_one_branch_per_witness(monkeypatch):
    built = []
    original = mcmullen.eigenvalue_branch

    def counted(delta, sign):
        built.append(original(delta, sign))
        return built[-1]

    monkeypatch.setattr(mcmullen, "eigenvalue_branch", counted)
    d = mcmullen_data(19, 256, branch_sign=-1)
    assert [(b.branch_sign, b.classification) for b in built] == [
        (-1, "siegel"), (-1, "nonsiegel")]
    assert (d.alpha_arg_turns, d.beta_arg_turns) == built[0].arg_turns
    assert built[1].arg_turns is None


_COMPLEX_FIELDS = ("alpha", "beta", "s", "a_of_delta", "alpha_prime",
                   "beta_prime")


@pytest.fixture(scope="module")
def data_1024():
    return {(n, sign): mcmullen_data(n, 1024, sign)
            for n in (13, 19, 739, 3259) for sign in (1, -1)}


@pytest.mark.parametrize("precision_bits", (32, 64, 256))
def test_pair_balls_contain_the_1024_bit_values(data_1024, precision_bits):
    for (n, sign), exact in data_1024.items():
        d = mcmullen_data(n, precision_bits, sign)
        assert d.delta.index == exact.delta.index
        assert d.delta_prime.index == exact.delta_prime.index
        for name in _COMPLEX_FIELDS:
            ball, ref = getattr(d, name), getattr(exact, name)
            with mp.workprec(1200):
                assert abs(ball.mid - ref.mid) + ref.radius <= ball.radius, \
                    (n, sign, name)


def test_mcmullen_data_computes_each_phase_guess_once():
    """witness_roots preselects on phase_guess(n, j) and phase_circle_root
    starts from it: each (n, j) is computed once."""
    code = roots.phase_guess.__wrapped__.__code__
    computed = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            computed.append((frame.f_locals["n"], frame.f_locals["j"]))

    roots.phase_guess.cache_clear()
    sys.setprofile(profile)
    try:
        for n in (19, 739):
            mcmullen_data(n, 64)
    finally:
        sys.setprofile(None)
    assert computed and len(computed) == len(set(computed))
    assert roots.phase_guess.cache_info().hits >= 4    # one per certified root


def test_eigenvalues_lie_on_salem_surface(phi14, data19):
    # delta is a certified root of phi
    v = eval_ball(phi14, data19.delta.ball)
    assert v.abs_ball().hi < mp.mpf(2) ** -90


def test_json_serialization(data19):
    blob = data19.to_json()
    assert blob["n"] == 19
    assert isinstance(blob["alpha"]["re"], str)
    assert blob["certificate"]["passed"] is True
