"""Ball arithmetic, certified root isolation, and Salem classification."""

import random
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import salemforge
from salemforge.polyring import IntPoly, poly, monomial, ONE
from salemforge import roots
from salemforge.roots import (GUARD_BITS, ComplexBall, RealBall, as_real_ball,
                              _eta_bracket, arccos_ball, cos_ball,
                              int_combination, log_ball, phase_circle_root,
                              phase_eta, phase_guess, phase_tail, polar_ball,
                              sin_ball, sqrt_ball, turns_mod1, two_pi_ball)
from salemforge.oracle import (NotSalemError, _classify_tags,
                               circle_root_arguments, classify_salem,
                               entropy_from_charpoly, eval_ball,
                               full_precision_root, isolate_roots,
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
    with mp.workprec(200):
        x = RealBall(+mp.e, mp.mpf("1e-30"))
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


# -- the ball kernels against the workprec formulas they replace ----------
#
# Each kernel computes on _mpf_ tuples with mpmath.libmp at an explicit
# precision; the formulas below are the mpf-operator versions, run inside
# mp.workprec, that they must reproduce bit for bit.


def _ulp_formula(prec, *vals):
    scale = max([mp.mpf(1)] + [abs(v) for v in vals])
    return mp.ldexp(scale, -prec + 4)


def _prec_formula(*vals):
    return max([mp.mp.prec] + [v._mpf_[3] for v in vals]) + 16


def _add_formula(x, y):
    with mp.workprec(_prec_formula(x.mid, y.mid)):
        if x.mid == 0 or y.mid == 0:
            return x.mid + y.mid, x.rad + y.rad
        return x.mid + y.mid, x.rad + y.rad + _ulp_formula(mp.mp.prec, x.mid, y.mid)


def _sub_formula(x, y):
    return _add_formula(x, RealBall(mp.fneg(y.mid, exact=True), y.rad))


def _mul_formula(x, y):
    with mp.workprec(_prec_formula(x.mid, y.mid)):
        rad = abs(x.mid) * y.rad + abs(y.mid) * x.rad + x.rad * y.rad
        return x.mid * y.mid, rad + _ulp_formula(mp.mp.prec, x.mid * y.mid)


def _div_formula(x, y):
    with mp.workprec(_prec_formula(x.mid, y.mid)):
        q = x.mid / y.mid
        rad = (x.rad + abs(q) * y.rad) / (abs(y.mid) - y.rad)
        return q, rad + _ulp_formula(mp.mp.prec, q)


def _sin_formula(theta, bits):
    with mp.workprec(bits + GUARD_BITS):
        return mp.sin(theta.mid), theta.rad + _ulp_formula(mp.mp.prec)


def _cos_formula(theta, bits):
    with mp.workprec(bits + GUARD_BITS):
        return mp.cos(theta.mid), theta.rad + _ulp_formula(mp.mp.prec)


def _polar_formula(r, theta, bits):
    with mp.workprec(bits + GUARD_BITS):
        mid = r.mid * mp.exp(mp.mpc(0, theta.mid))
        rad = r.rad + abs(r.mid) * theta.rad
        return mid, rad + _ulp_formula(mp.mp.prec, abs(mid))


def _arccos_formula(x, bits):
    with mp.workprec(bits + GUARD_BITS):
        edge = 1 - (abs(x.mid) + x.rad)
        if edge <= 0:
            raise ValueError
        deriv = 1 / mp.sqrt(edge * (2 - edge))
        return mp.acos(x.mid), x.rad * deriv + _ulp_formula(mp.mp.prec)


def _sqrt_formula(x, bits):
    with mp.workprec(bits + GUARD_BITS):
        if x.lo <= 0:
            raise ValueError
        rad = x.rad / (2 * mp.sqrt(x.lo))
        return mp.sqrt(x.mid), rad + _ulp_formula(mp.mp.prec)


def _log_formula(x, bits):
    with mp.workprec(bits + GUARD_BITS):
        if x.lo <= 0:
            raise ValueError
        lo, hi = mp.log(x.lo), mp.log(x.hi)
        return (lo + hi) / 2, (hi - lo) / 2 + _ulp_formula(mp.mp.prec, hi)


def _turns_formula(x, bits):
    wp = bits + GUARD_BITS
    with mp.workprec(wp):
        t = mp.fsub(x.mid, mp.floor(x.mid), rounding="f")
        return t, x.rad + _ulp_formula(wp)


def _int_combination_formula(ks, balls):
    mids = [mp.fmul(k, x.mid, exact=True) for k, x in zip(ks, balls)]
    with mp.workprec(_prec_formula(*mids)):
        mid = mp.fsum(mids)
        rad = mp.fsum(abs(k) * x.rad for k, x in zip(ks, balls))
        return mid, rad + _ulp_formula(mp.mp.prec, mid)


def _two_pi_formula(bits):
    with mp.workprec(bits + GUARD_BITS):
        two_pi = 2 * mp.pi
        return two_pi, _ulp_formula(mp.mp.prec, two_pi)


def _tuples(mid, rad):
    """mid and rad as exact _mpf_ tuples (a complex mid as its pair)."""
    return (getattr(mid, "_mpc_", None) or mid._mpf_), rad._mpf_


def _same(ball, formula):
    rad = ball.rad if isinstance(ball, RealBall) else ball.radius
    return _tuples(ball.mid, rad) == _tuples(*formula)


def _mpf(mantissa_bits, magnitude):
    """A random-looking mpf of exactly mantissa_bits bits near 2^magnitude."""
    return st.integers(2 ** (mantissa_bits - 1), 2 ** mantissa_bits - 1).map(
        lambda m: mp.make_mpf(mp.libmp.from_man_exp(m, magnitude - mantissa_bits)))


def _value(lo_mag, hi_mag, signed=True):
    """An mpf with a 1..2000-bit mantissa and magnitude 2^lo_mag..2^hi_mag,
    or zero; negative too when signed."""
    nonzero = st.tuples(st.integers(1, 2000), st.integers(lo_mag, hi_mag)).flatmap(
        lambda t: _mpf(*t))
    if signed:
        nonzero = st.tuples(nonzero, st.booleans()).map(
            lambda t: mp.fneg(t[0], exact=True) if t[1] else t[0])
    return st.one_of(st.just(mp.mpf(0)), nonzero)


_BALLS = st.builds(RealBall, _value(-60, 60), _value(-2200, -8, signed=False))
_AMBIENT = st.sampled_from((53, 600, 2 * 512 + GUARD_BITS))
_BITS = st.sampled_from((64, 128, 512, 1024))


@given(_BALLS, _BALLS, _AMBIENT)
@settings(max_examples=300, deadline=None)
def test_ball_operators_equal_the_workprec_formulas(x, y, ambient):
    with mp.workprec(ambient):
        assert _same(x + y, _add_formula(x, y))
        assert _same(x - y, _sub_formula(x, y))
        assert _same(x * y, _mul_formula(x, y))
        if y.contains_zero():
            with pytest.raises(ZeroDivisionError):
                x / y
        else:
            assert _same(x / y, _div_formula(x, y))


@given(_BALLS, _BALLS, _AMBIENT, _BITS)
@settings(max_examples=200, deadline=None)
def test_ball_helpers_equal_the_workprec_formulas(x, r, ambient, bits):
    with mp.workprec(ambient):
        assert _same(sin_ball(x, bits), _sin_formula(x, bits))
        assert _same(cos_ball(x, bits), _cos_formula(x, bits))
        for modulus in (r, as_real_ball(3), as_real_ball(-1)):
            assert _same(polar_ball(modulus, x, bits), _polar_formula(modulus, x, bits))
        assert _same(turns_mod1(x, bits), _turns_formula(x, bits))
        assert _same(two_pi_ball(bits), _two_pi_formula(bits))
        ks = (3, -7, 0)
        assert _same(int_combination(ks, (x, r, x)),
                     _int_combination_formula(ks, (x, r, x)))


_UNIT = st.builds(RealBall, _value(-60, -1), _value(-2200, -8, signed=False))


@given(_UNIT, _BALLS, _AMBIENT, _BITS)
@settings(max_examples=200, deadline=None)
def test_domain_helpers_equal_the_workprec_formulas(u, x, ambient, bits):
    with mp.workprec(ambient):
        for helper, formula, ball in ((arccos_ball, _arccos_formula, u),
                                      (sqrt_ball, _sqrt_formula, x),
                                      (log_ball, _log_formula, x)):
            try:
                expected = formula(ball, bits)
            except ValueError:
                with pytest.raises(ValueError):
                    helper(ball, bits)
                continue
            assert _same(helper(ball, bits), expected), helper.__name__


# -- the Newton precision ladder of sign_change_root ------------------------

LADDER_NS = (13, 43, 739, 3259, 730_201_596_227_659, 10**18 - 3)
LADDER_BITS = (64, 128, 512, 1024)


@pytest.mark.parametrize("n", LADDER_NS)
def test_ladder_gives_the_full_precision_ball(monkeypatch, n):
    """phase_circle_root and phase_eta give the ball that Newton at full
    precision alone gives (oracle.full_precision_root)."""
    js = sorted({2, n // 3, n // 2})
    for bits in LADDER_BITS:
        ladder = [phase_circle_root(n, j, bits) for j in js] + [phase_eta(n, bits)]
        with monkeypatch.context() as m:
            m.setattr(roots, "sign_change_root", full_precision_root)
            full = [phase_circle_root(n, j, bits) for j in js] + [phase_eta(n, bits)]
        for a, b in zip(ladder, full):
            assert _tuples(a.mid, a.rad) == _tuples(b.mid, b.rad), (n, bits)


@pytest.mark.parametrize("n", LADDER_NS)
def test_ladder_runs_at_most_two_full_precision_steps(monkeypatch, n):
    sign_change_root = roots.sign_change_root
    steps = []

    def counting(newton_step, value_ball, lo, hi, precision_bits):
        def step(t):
            steps.append(mp.mp.prec == precision_bits + GUARD_BITS)
            return newton_step(t)
        return sign_change_root(step, value_ball, lo, hi, precision_bits)

    monkeypatch.setattr(roots, "sign_change_root", counting)
    for bits in LADDER_BITS:
        for certify in (lambda: phase_circle_root(n, n // 3, bits),
                        lambda: phase_eta(n, bits)):
            steps.clear()
            certify()
            assert 1 <= sum(steps) <= 2, (n, bits, steps)
