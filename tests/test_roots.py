"""Ball arithmetic, certified root isolation, and Salem classification."""

import random
from pathlib import Path

import mpmath as mp
import pytest

import salemforge
from salemforge.polyring import IntPoly, poly, monomial, ONE
from salemforge.roots import (ComplexBall, RealBall, as_real_ball, _eta_bracket,
                              log_ball, phase_circle_root, phase_eta,
                              phase_guess, phase_tail, polar_ball, sin_ball)
from salemforge.oracle import (NotSalemError, _classify_tags,
                               circle_root_arguments, classify_salem,
                               entropy_from_charpoly, eval_ball, isolate_roots,
                               pisot_phase, salem_eta, unit_circle_distance,
                               yun_squarefree)
from salemforge.coxeter import en_from_formula, salem_factor

PHI_14 = IntPoly([1, -1, 0, -1, 1, 0, 0, -1, 0, 0, 1, -1, 0, -1, 1])

# independently computed to 45 digits by plain bisection on phi_14
with mp.workprec(300):
    ETA_PHI14 = mp.mpf("1.31819750443169069753615279729692971836184565")
    # log of the largest root of E_19 (x-1), same bisection oracle
    ENTROPY_19 = mp.mpf("0.276265276471051153650071446194313256961608122")


def test_real_ball_contains_sum():
    a = RealBall(mp.mpf("0.5"), mp.mpf("1e-30"))
    b = RealBall(mp.mpf("0.25"), mp.mpf("1e-30"))
    s = a + b
    assert s.lo <= 0.75 <= s.hi


def test_real_ball_ends_are_exact():
    b = RealBall(mp.mpf(1), mp.mpf(2) ** -100)
    assert b.lo < 1 < b.hi


def test_real_ball_sum_takes_wide_operands_exactly():
    # in the default 53-bit context: a 600-bit mpf and a 700-bit int
    with mp.workprec(600):
        third = mp.mpf(1) / 3
    big = random.Random(700).getrandbits(700)
    half = RealBall(mp.mpf("0.5"), mp.mpf(0))
    for x in (third, big):
        s = half + x
        with mp.workprec(2000):
            exact = mp.mpf("0.5") + x
        assert s.lo <= exact <= s.hi


def test_real_ball_division():
    with mp.workprec(200):
        q = RealBall(mp.mpf(1), mp.mpf(2) ** -80) / 3
    with mp.workprec(400):
        assert q.lo < mp.mpf(1) / 3 < q.hi
    assert q.rad < mp.mpf(2) ** -75
    with pytest.raises(ZeroDivisionError):
        q / RealBall(mp.mpf(2) ** -90, mp.mpf(2) ** -80)
    with pytest.raises(ZeroDivisionError):
        1 / RealBall(mp.mpf(0), mp.mpf(0))


def test_only_roots_reads_the_working_precision():
    # roots owns every rounding bound; the other layers compose RealBall
    # operations and never size a radius from the context precision
    src = Path(salemforge.__file__).parent
    for name in ("mcmullen", "mau", "toric", "product"):
        assert "mp.mp.prec" not in (src / f"{name}.py").read_text(), name
    # mcmullen builds its complex balls with polar_ball alone
    text = (src / "mcmullen.py").read_text()
    for token in ("workprec", "GUARD_BITS", "ComplexBall("):
        assert token not in text, token


def test_oracle_names_resolve_lazily_from_roots_and_mcmullen():
    from salemforge import mcmullen, oracle, roots
    for name in ("classify_salem", "entropy_from_charpoly", "isolate_roots",
                 "salem_eta", "circle_root_arguments"):
        assert getattr(roots, name) is getattr(oracle, name), name
    assert mcmullen.scan_siegel_roots is oracle.scan_siegel_roots
    for module, name in ((roots, "pisot_phase"), (roots, "circle_root_brackets"),
                         (roots, "NotSalemError"), (mcmullen, "NotSalemInput")):
        with pytest.raises(AttributeError):
            getattr(module, name)


def test_polar_ball_contains_every_corner():
    with mp.workprec(700):
        theta = RealBall(mp.mpf(5) / 7, mp.mpf(2) ** -220)
        moduli = (RealBall(-mp.sqrt(3), mp.mpf(2) ** -200), as_real_ball(3))
    for r in moduli:
        z = polar_ball(r, theta, 128)
        with mp.workprec(800):
            for x in (r.lo, r.hi):
                for t in (theta.lo, theta.hi):
                    assert abs(x * mp.expj(t) - z.mid) <= z.radius
    assert polar_ball(3, theta, 256).radius < 4 * theta.rad


def test_real_ball_mul_signs():
    a = RealBall(mp.mpf(-2), mp.mpf("1e-20"))
    b = RealBall(mp.mpf(3), mp.mpf("1e-20"))
    p = a * b
    assert p.lo <= -6 <= p.hi
    assert p.rad < mp.mpf("1e-18")


def test_real_ball_exact_zero_add_keeps_radius_tight():
    # adding an exact zero must not inflate the radius to ambient ulp scale
    tiny = RealBall(mp.mpf(0), mp.mpf(2) ** -600)
    x = RealBall(mp.mpf(0), mp.mpf(0)) + tiny
    assert x.rad < mp.mpf(2) ** -590


def test_complex_ball_arithmetic_residual_precision():
    with mp.workprec(360):
        z = ComplexBall(mp.exp(mp.mpc(0, mp.mpf(1) / 3)), mp.mpf(2) ** -300, 256)
    w = z * z.conjugate() - 1
    assert w.abs_ball().hi < mp.mpf(2) ** -250


def test_eval_ball_contains_true_value():
    p = poly(-2, 0, 1)                    # x^2 - 2
    with mp.workprec(300):
        z = ComplexBall(mp.sqrt(2), mp.mpf(2) ** -200, 128)
    v = eval_ball(p, z)
    assert v.abs_ball().hi < mp.mpf(2) ** -120


def test_yun_squarefree():
    p = poly(-1, 1) ** 2 * poly(1, 1)
    pieces = dict((f.coeffs, i) for f, i in yun_squarefree(p))
    assert pieces == {(1, 1): 1, (-1, 1): 2}


def test_isolate_roots_quadratic():
    rs = isolate_roots(poly(-2, 0, 1), 128)
    with mp.workprec(200):
        mids = sorted(b.mid.real for b in rs.balls())
        assert abs(mids[1] - mp.sqrt(2)) < mp.mpf(2) ** -60
    assert all(m == 1 for _, m in rs.roots)


def test_isolate_roots_reports_multiplicity():
    rs = isolate_roots(poly(-1, 1) ** 2, 128)
    assert [m for _, m in rs.roots] == [2]


def test_classify_salem_phi14(phi14):
    rs = isolate_roots(phi14, 256)
    cert = classify_salem(rs)
    assert len(cert.circle_roots) == 12
    assert cert.eta.mid.real > 1
    assert abs(cert.eta.mid.real - ETA_PHI14) < mp.mpf(2) ** -60
    # eta and its reciprocal pair off
    with mp.workprec(400):
        assert cert.eta_reciprocal.contains(1 / cert.eta.mid)


def test_classify_salem_rejects_cyclotomic():
    with pytest.raises(NotSalemError):
        classify_salem(isolate_roots(poly(1, 1, 1, 1, 1), 128))


def test_classify_salem_rejects_multiple_root():
    with pytest.raises(NotSalemError):
        classify_salem(isolate_roots(poly(1, -2, 1) * poly(1, 2, 1), 128))


def test_entropy_identity_is_exact_zero():
    e = entropy_from_charpoly(poly(-1, 1) * poly(1, 1), 128)
    assert e.mid == 0 and e.rad == 0


def test_entropy_e19():
    p = en_from_formula(19) * poly(-1, 1)
    e = entropy_from_charpoly(p, 256)
    assert abs(e.mid - ENTROPY_19) < mp.mpf(2) ** -80
    assert e.lo > 0


def test_circle_root_arguments_count(phi14):
    args = circle_root_arguments(phi14, 256, expected=6)
    assert len(args) == 6
    assert all(0 < a.mid < mp.pi for a in args)
    assert all(a.rad < mp.mpf(2) ** -128 for a in args)


def test_salem_eta_matches_isolation(phi14):
    eta = salem_eta(phi14, 256)
    assert abs(eta.mid - ETA_PHI14) < mp.mpf(2) ** -60
    assert eta.rad < mp.mpf(2) ** -200


def test_salem_eta_rejects_cyclotomic():
    with pytest.raises(NotSalemError):
        salem_eta(poly(1, 1, 1), 128)


def test_log_ball_and_unit_circle_distance():
    x = RealBall(mp.e, mp.mpf("1e-30"))
    l = log_ball(x, 128)
    assert l.lo <= 1 <= l.hi
    z = ComplexBall.exact(mp.mpc(0, 1), 128)
    assert unit_circle_distance(z).contains_zero()


def test_straddling_ball_without_pairing_is_unresolved():
    # x^2 + 2 is not reciprocal, so no pairing pins the ball, and the
    # ball around i straddles the unit circle
    with mp.workprec(128):
        ball = ComplexBall(mp.mpc(0, 1), mp.mpf("0.01"), 64)
    assert _classify_tags(poly(2, 0, 1), [ball], 64) == ["unresolved"]


def test_precision_monotonicity(phi14):
    """Classification tags must agree between 128 and 256 bits."""
    t1 = isolate_roots(phi14, 128).classification
    t2 = isolate_roots(phi14, 256).classification
    assert sorted(t1) == sorted(t2)


@pytest.mark.parametrize("mid, rad", [("0.7", "1e-30"), ("3.1", "0"),
                                      ("-2.5", "1e-60"),
                                      ("12345678901234.56789", "1e-50")])
def test_sin_ball_encloses(mid, rad):
    with mp.workprec(300):
        theta = RealBall(mp.mpf(mid), mp.mpf(rad))
    ball = sin_ball(theta, 128)
    with mp.workprec(600):
        for x in (theta.lo, theta.mid, theta.hi):
            assert ball.lo <= mp.sin(x) <= ball.hi
    assert ball.rad < mp.mpf(rad) + mp.mpf(2) ** -150


def test_phase_is_continuous_and_increasing():
    """h(0) = 2 pi, h(pi) = (n + 1) pi, h' >= n - 9 on a fine grid: the
    arg of P does not jump in (0, pi)."""
    n = 13
    with mp.workprec(80):
        assert abs(pisot_phase(n, 0)[0] - 2 * mp.pi) < mp.mpf(2) ** -70
        assert abs(pisot_phase(n, mp.pi)[0] - (n + 1) * mp.pi) < mp.mpf(2) ** -70
        grid = [mp.pi * i / 400 for i in range(401)]
        values = [pisot_phase(n, t) for t in grid]
    assert all(dh >= n - 9 - mp.mpf(2) ** -60 for _, dh in values)
    step = mp.pi / 400 * (n + 13)
    assert all(0 < b[0] - a[0] < step for a, b in zip(values, values[1:]))


def test_no_root_at_theta_zero_or_past_pi():
    # j = 1 is theta = 0, the root of x - 1; j = (n + 1)/2 is theta = pi
    for j in (0, 1, 10):
        with pytest.raises(ValueError):
            phase_circle_root(19, j, 128)
    first = phase_circle_root(19, 2, 128)
    assert first.lo > 0.3
    with mp.workprec(100):
        assert abs(pisot_phase(19, phase_guess(19, 2))[0] - 4 * mp.pi) < 2 ** -45


PHASE_NS = (13, 19, 43, 739, 3259, 19_107_739, 730_201_596_227_659)


@pytest.mark.parametrize("n", PHASE_NS)
def test_float_tail_agrees_with_the_multiprecision_phase(n):
    """(n - 1)t + 2 pi + G(t), with (n - 1)t in mpmath and G in floats,
    is h(t) to 2^-40 on a grid of [0, pi], at every n."""
    with mp.workprec(64 + n.bit_length() + 40):
        for i in range(129):
            t = float(mp.pi * i / 128)
            g, dg = phase_tail(t)
            h, dh = pisot_phase(n, mp.mpf(t))
            assert abs((n - 1) * mp.mpf(t) + 2 * mp.pi + g - h) < mp.mpf(2) ** -40
            assert abs(dg - (dh - (n - 1))) < mp.mpf(2) ** -40


def test_phase_guess_is_good_to_2_to_minus_45():
    # the float start alone, across n and j; the worst measured is
    # 2^-49.3, at n = 1087, j = 362
    for n in [*range(13, 2001, 6), 19_107_739, 730_201_596_227_659]:
        for j in sorted({2, n // 3, n // 2}):
            with mp.workprec(64 + n.bit_length() + 40):
                h = pisot_phase(n, phase_guess(n, j))[0]
                assert abs(h - 2 * mp.pi * j) < mp.mpf(2) ** -45, (n, j)


def test_phase_eta_stays_inside_its_float_bracket():
    """The certified eta lies in the float bracket with at least half of
    the 2^-44 widening to spare, down to n = 10, where g cancels most."""
    margin = mp.mpf(2) ** -45
    for n in [10, 11, 12, *range(13, 2001, 6), 19_107_739, 730_201_596_227_659]:
        lo, hi = _eta_bracket(n)
        eta = phase_eta(n, 128)
        assert lo + margin < eta.lo and eta.hi < hi - margin, n


def test_phase_eta_matches_isolation():
    eta = phase_eta(19, 256)
    assert abs(eta.mid - ETA_PHI14) < mp.mpf(2) ** -60
    assert eta.rad < mp.mpf(2) ** -200
