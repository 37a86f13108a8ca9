"""Ball arithmetic and the certified roots of E_n from the Pisot phase.

Midpoint/radius ball arithmetic on top of mpmath and one certified-root
primitive, sign_change_root: Newton from a float bracket on a precision
ladder, then a sign change of the function at t -/+ eps checked on
balls.  This module alone sizes rounding bounds: the other layers
compose RealBall operations, as_real_ball, int_combination, turns_mod1,
two_pi_ball and polar_ball, the one constructor of a reported
ComplexBall (r e^(i theta) for real balls r, theta); ComplexBall
arithmetic serves only the oracles (oracle.py) and the tests.

Ball kernels: the RealBall operators and the ball helpers (sin_ball,
cos_ball, arccos_ball, sqrt_ball, log_ball, polar_ball, turns_mod1,
two_pi_ball, int_combination) compute on the _mpf_ tuples of their
operands with mpmath.libmp, each call at an explicit precision with
round-to-nearest, and make an mpf only of their results: no workprec
block, no intermediate mpf.  Each does the roundings of the mpf-operator
formula inside mp.workprec that states it, in the same order and at the
same precision (for + - * /, 16 bits above the wider of the ambient
mp.mp.prec and the operands' mantissas), so every midpoint and radius is
that formula's to the bit; tests/test_roots.py keeps the formulas as its
reference.

The production roots of McMullen's E_n come from the Pisot phase, in
O(1) work per root at any n: E_n(x)(x - 1) = x^(n-2) P(x) - P*(x) with
P(x) = x^3 - x - 1, whose real root rho is the smallest Pisot number.
phase_circle_root gives the j-th circle-root argument theta_j, certified
by three sines at exact points; phase_eta gives the Salem number eta in
(1, rho); coxeter.salem_pattern certifies, by exact algebra for every
n >= 10, the root pattern behind them (n - 2 simple circle roots and one
real root in (1, rho)).  No dense polynomial is evaluated on these paths.

The phase work runs in two stages.  A double-precision stage steers:
phase_tail is the bounded part G of the phase in floats, which gives the
starting guess of each circle root (phase_guess), the phase index of a
point (phase_turns) and the float bracket of eta, while the term (n - 1)t
stays exact or in mpmath.  No label or ball comes from it: every
reported root is certified afterwards by sign_change_root.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache

import mpmath as mp
from mpmath.libmp import (fone, from_int, ftwo, fzero, mpf_abs, mpf_acos,
                          mpf_add, mpf_cos, mpf_cos_sin, mpf_div, mpf_floor,
                          mpf_ge, mpf_gt, mpf_hypot, mpf_le, mpf_log, mpf_mul,
                          mpf_mul_int, mpf_neg, mpf_pi, mpf_pos, mpf_rdiv_int,
                          mpf_shift, mpf_sin, mpf_sqrt, mpf_sub, mpf_sum,
                          round_floor, round_nearest as _RN)

from .coxeter import PISOT, PISOT_STAR

GUARD_BITS = 80
_mpf = mp.make_mpf


class IsolationError(RuntimeError):
    """Root isolation failed at the requested precision after retries."""


def _ulp(prec: int, *vals) -> tuple:
    """2^(4 - prec) max(1, |v|, ...) for _mpf_ tuples v, each |v| rounded
    to prec bits, as an _mpf_ tuple."""
    scale = fone
    for v in vals:
        a = mpf_abs(v, prec, _RN)
        if mpf_gt(a, scale):
            scale = a
    return mpf_shift(scale, 4 - prec)


def _mantissa_bits(v) -> int:
    if isinstance(v, mp.mpc):
        return max(v.real._mpf_[3], v.imag._mpf_[3])
    if isinstance(v, mp.mpf):
        return v._mpf_[3]
    return 53


def _auto_prec(*bits) -> int:
    """Working precision wide enough that rounding cannot eat mantissas of
    these bit counts: the ambient precision or the widest mantissa,
    whichever is larger, plus 16 bits."""
    wp = mp.mp.prec
    for b in bits:
        if b > wp:
            wp = b
    return wp + 16


def _str_full(v) -> str:
    """Decimal string keeping the entire mantissa (lossless round trip)."""
    dps = mp.libmp.prec_to_dps(max(_mantissa_bits(v), 53)) + 3
    return mp.nstr(v, dps)


def _str_outward(rad) -> str:
    """Radius as a short decimal string, padded so parsing never shrinks it."""
    if rad == 0:
        return "0.0"
    return mp.nstr(mp.fmul(rad, 1 + 2 ** -12, exact=True), 12)


@dataclass(frozen=True)
class RealBall:
    """Certified real interval [mid - rad, mid + rad]."""

    mid: mp.mpf
    rad: mp.mpf

    @property
    def lo(self) -> mp.mpf:
        return _mpf(mpf_sub(self.mid._mpf_, self.rad._mpf_))

    @property
    def hi(self) -> mp.mpf:
        return _mpf(mpf_add(self.mid._mpf_, self.rad._mpf_))

    def contains_zero(self) -> bool:
        m, r = self.mid._mpf_, self.rad._mpf_
        return mpf_le(mpf_sub(m, r), fzero) and mpf_ge(mpf_add(m, r), fzero)

    def is_positive(self) -> bool:
        return self.lo > 0

    def is_negative(self) -> bool:
        return self.hi < 0

    def __add__(self, other):
        o = as_real_ball(other)
        a, b = self.mid._mpf_, o.mid._mpf_
        wp = _auto_prec(a[3], b[3])
        rad = mpf_add(self.rad._mpf_, o.rad._mpf_, wp, _RN)
        if a != fzero and b != fzero:      # a zero operand: no rounding
            rad = mpf_add(rad, _ulp(wp, a, b), wp, _RN)
        return RealBall(_mpf(mpf_add(a, b, wp, _RN)), _mpf(rad))

    __radd__ = __add__

    def __neg__(self):
        return RealBall(_mpf(mpf_neg(self.mid._mpf_)), self.rad)

    def __sub__(self, other):
        return self + (-as_real_ball(other))

    def __rsub__(self, other):
        return as_real_ball(other) + (-self)

    def __mul__(self, other):
        o = as_real_ball(other)
        a, b = self.mid._mpf_, o.mid._mpf_
        ra, rb = self.rad._mpf_, o.rad._mpf_
        wp = _auto_prec(a[3], b[3])
        rad = mpf_add(mpf_add(mpf_mul(mpf_abs(a), rb, wp, _RN),
                              mpf_mul(mpf_abs(b), ra, wp, _RN), wp, _RN),
                      mpf_mul(ra, rb, wp, _RN), wp, _RN)
        mid = mpf_mul(a, b, wp, _RN)
        return RealBall(_mpf(mid), _mpf(mpf_add(rad, _ulp(wp, mid), wp, _RN)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = as_real_ball(other)
        if o.contains_zero():
            raise ZeroDivisionError("divisor ball contains zero")
        a, b = self.mid._mpf_, o.mid._mpf_
        rb = o.rad._mpf_
        wp = _auto_prec(a[3], b[3])
        q = mpf_div(a, b, wp, _RN)
        num = mpf_add(self.rad._mpf_, mpf_mul(mpf_abs(q), rb, wp, _RN), wp, _RN)
        rad = mpf_div(num, mpf_sub(mpf_abs(b), rb, wp, _RN), wp, _RN)
        return RealBall(_mpf(q), _mpf(mpf_add(rad, _ulp(wp, q), wp, _RN)))

    def __rtruediv__(self, other):
        return as_real_ball(other) / self

    def abs_ball(self) -> "RealBall":
        if self.contains_zero():
            half = mp.ldexp(max(-self.lo, self.hi), -1)
            return RealBall(half, half)
        return self if self.mid > 0 else -self

    def to_json(self) -> dict:
        return {"mid": _str_full(self.mid), "radius": _str_outward(self.rad)}


def _jsonable(value):
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


class Report:
    """Mixin for report dataclasses: the JSON object is the fields by name.

    A field value with its own to_json (a ball, an IntPoly, a nested
    report) is serialised by it, tuples and lists element by element, and
    anything else (ints, strings, bools, None, plain dicts) as it is.
    """

    def to_json(self) -> dict:
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}


_ZERO = _mpf(fzero)


def as_real_ball(x) -> RealBall:
    """x as a RealBall: an int or an mpf exactly, at any width; a Fraction
    rounded at the working precision with the rounding in the radius."""
    if isinstance(x, RealBall):
        return x
    if isinstance(x, int):
        return RealBall(_mpf(from_int(x)), _ZERO)
    if isinstance(x, mp.mpf):
        return RealBall(x, _ZERO)
    if isinstance(x, Fraction):
        mid = _mpf(mp.libmp.from_rational(
            x.numerator, x.denominator, mp.mp.prec, _RN))
        return RealBall(mid, mp.ldexp(abs(mid), 1 - mp.mp.prec))
    raise TypeError(f"no exact ball for {type(x).__name__} {x!r}")


def two_pi_ball(precision_bits: int) -> RealBall:
    """2 pi as a ball at precision_bits + GUARD_BITS."""
    wp = precision_bits + GUARD_BITS
    two_pi = mpf_mul_int(mpf_pi(wp, _RN), 2, wp, _RN)
    return RealBall(_mpf(two_pi), _mpf(_ulp(wp, two_pi)))


def int_combination(ks, balls) -> RealBall:
    """sum k_i x_i for ints k_i and balls x_i: the products are exact and
    their sum is rounded once, with that rounding in the radius."""
    mids = [mpf_mul(x.mid._mpf_, from_int(k)) for k, x in zip(ks, balls)]
    wp = _auto_prec(*[m[3] for m in mids])
    mid = mpf_sum(mids, wp, _RN)
    rad = mpf_sum([mpf_mul_int(x.rad._mpf_, abs(k), wp, _RN)
                   for k, x in zip(ks, balls)], wp, _RN)
    return RealBall(_mpf(mid), _mpf(mpf_add(rad, _ulp(wp, mid), wp, _RN)))


def turns_mod1(x: RealBall, precision_bits: int) -> RealBall:
    """A turn x reduced mod 1: the midpoint less its integer part, rounded
    down into [0, 1) at precision_bits + GUARD_BITS, with that rounding in
    the radius."""
    wp = precision_bits + GUARD_BITS
    m = x.mid._mpf_
    t = mpf_sub(m, mpf_floor(m, wp, _RN), wp, round_floor)
    return RealBall(_mpf(t), _mpf(mpf_add(x.rad._mpf_, _ulp(wp), wp, _RN)))


@dataclass(frozen=True)
class ComplexBall:
    """Certified complex disk: the true value lies within `radius` of the
    midpoint.  Reported balls come from polar_ball; the arithmetic serves
    only the oracles and the tests."""

    mid: mp.mpc
    radius: mp.mpf
    precision_bits: int

    @classmethod
    def exact(cls, value, precision_bits: int) -> "ComplexBall":
        with mp.workprec(precision_bits + GUARD_BITS):
            return cls(mp.mpc(value), mp.mpf(0), precision_bits)

    def _wrap(self, mid, rad) -> "ComplexBall":
        ulp = _mpf(_ulp(mp.mp.prec, abs(mid)._mpf_, rad._mpf_))
        return ComplexBall(mid, rad + ulp, self.precision_bits)

    def __add__(self, other):
        o = _as_ball(other, self.precision_bits)
        with mp.workprec(self.precision_bits + GUARD_BITS):
            return self._wrap(self.mid + o.mid, self.radius + o.radius)

    def __neg__(self):
        with mp.workprec(_auto_prec(_mantissa_bits(self.mid))):
            return ComplexBall(-self.mid, self.radius, self.precision_bits)

    def __sub__(self, other):
        return self + (-_as_ball(other, self.precision_bits))

    def __mul__(self, other):
        o = _as_ball(other, self.precision_bits)
        with mp.workprec(self.precision_bits + GUARD_BITS):
            rad = (abs(self.mid) * o.radius + abs(o.mid) * self.radius
                   + self.radius * o.radius)
            return self._wrap(self.mid * o.mid, rad)

    def conjugate(self) -> "ComplexBall":
        with mp.workprec(_auto_prec(_mantissa_bits(self.mid))):
            return ComplexBall(mp.conj(self.mid), self.radius, self.precision_bits)

    def abs_ball(self) -> RealBall:
        with mp.workprec(self.precision_bits + GUARD_BITS):
            r = abs(self.mid)
            return RealBall(r, self.radius + _mpf(_ulp(mp.mp.prec, r._mpf_)))

    def contains(self, value) -> bool:
        with mp.workprec(self.precision_bits + GUARD_BITS):
            return abs(self.mid - mp.mpc(value)) <= self.radius

    def to_json(self) -> dict:
        return {
            "re": _str_full(self.mid.real),
            "im": _str_full(self.mid.imag),
            "radius": _str_outward(self.radius),
            "precision_bits": self.precision_bits,
        }


def _as_ball(x, prec: int) -> ComplexBall:
    if isinstance(x, ComplexBall):
        return x
    return ComplexBall.exact(x, prec)


# -- polynomial evaluation helpers ------------------------------------


def _horner(coeffs, z):
    acc = mp.mpf(0) if isinstance(z, mp.mpf) else mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


# -- certified real roots by a sign change --------------------------------
#
# Every root (the circle-root arguments theta and the Salem number eta,
# in production and in the dense oracle) comes from sign_change_root:
# Newton from a float bracket, its last steps at precision_bits +
# GUARD_BITS, then the intermediate value theorem.  The signs at t - eps
# and t + eps, eps = 2^-(precision_bits + GUARD_BITS/2), are read off
# balls that bound the rounding error of the evaluation, so the returned
# ball (t, eps) contains a root.


def sign_change_root(newton_step, value_ball, lo: float, hi: float,
                     precision_bits: int) -> RealBall:
    """A root of f in the float bracket [lo, hi], certified by a sign change.

    newton_step(t) returns f(t) / f'(t) at the working precision;
    value_ball(x) returns a RealBall containing f(x) at the exact point x.
    Raises IsolationError when Newton leaves the bracket or the two signs
    are not certified opposite.

    Newton runs on a precision ladder.  Each step about doubles the
    correct bits of t, and a step of 2^-b says that t had about b of
    them, so after it t holds about min(p, 2b) at precision p; the next
    step runs at twice that (at least p) plus 32 bits, the first at the
    mantissa of the start plus 32.  From precision_bits + GUARD_BITS on,
    the steps run at that precision until |step| < eps.
    """
    wp = precision_bits + GUARD_BITS
    e = precision_bits + GUARD_BITS // 2
    with mp.workprec(wp):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        t, tol = (lo + hi) / 2, mp.ldexp(1, -e)
    p = t._mpf_[3] + 32
    try:
        for _ in range(100):
            with mp.workprec(min(p, wp)):
                step = newton_step(t)
                t -= step
                if p >= wp and abs(step) < tol:
                    break
            _, man, exp, bc = step._mpf_
            b = -(exp + bc) if man else p
            p = max(p, 2 * min(p, 2 * b)) + 32
    except ZeroDivisionError:
        raise IsolationError("derivative vanished during Newton") from None
    with mp.workprec(wp):
        if not lo <= t <= hi:
            raise IsolationError(f"Newton left the bracket "
                                 f"[{mp.nstr(lo, 17)}, {mp.nstr(hi, 17)}]")
        # t rounded to a multiple of eps: t and t -/+ eps are exact here
        k = int(mp.nint(mp.ldexp(t, e)))
        below = value_ball(mp.ldexp(k - 1, -e))
        above = value_ball(mp.ldexp(k + 1, -e))
        if not ((below.is_negative() and above.is_positive())
                or (below.is_positive() and above.is_negative())):
            raise IsolationError(
                f"no certified sign change around {mp.nstr(t, 17)} at "
                f"{precision_bits} bits; retry with higher precision")
        return RealBall(mp.ldexp(k, -e), tol)


# -- circle roots and eta of E_n from the Pisot phase ----------------------
#
# S(x) = (x - 1) E_n(x) = x^(n-2) P(x) - P*(x).  On |z| = 1,
# P*(z) = z^3 conj P(z), so with a = (n + 1)/2 and z = e^(it)
#   e^(-iat) S(z) = 2i F(t),  F(t) = sin(at) - sin((a-2)t) - sin((a-3)t)
#                                  = |P(z)| sin(h(t) / 2),
# where h(t) = (n - 5)t + 2 arg P(z) is the phase, with arg continuous and
# h(0) = 2 pi.  coxeter.salem_pattern certifies h' >= n - 9 > 0, so the
# j-th circle root of S is the one t with h(t) = 2 pi j: j = 1 is t = 0,
# the root of x - 1, and 2 <= j <= n/2 are the roots in (0, pi).
#
# For arg P, P(z) = (z - rho)(z^2 + rho z + 1/rho) gives
#   arg P(z) = pi + atan2(-sin t, rho - cos t) + 2t + Arg q,
#   q = 1 + rho/z + 1/(rho z^2).
# rho - cos t > 0, and Im q = -sin t (rho + 2 cos t / rho) vanishes on
# [0, pi] only at t = 0, t = pi and cos t = -rho^2/2, where Re q is
# 1 + rho + 1/rho, 1 - rho + 1/rho and 1 - 1/rho, all positive: q never
# crosses the negative real axis, so both principal arguments are
# continuous on [0, pi].  (A principal arg of P itself would jump there.)
#
# So h(t) = (n - 1)t + 2 pi + G(t) with the tail
#   G(t) = 2 atan2(-sin t, rho - cos t) + 2 Arg q,   |G| < 4 pi,
# the same for every n.  G in double precision is good to about 2^-50;
# (n - 1)t is not, since it magnifies the rounding of t by n, so it is
# kept exact (a Fraction) or in mpmath at 64 + log2(n) bits.  The float
# tail steers: it finds the guesses and reads phase indices, and the
# roots it leads to are certified afterwards.

_RHO = 1.324717957244746             # rho rounded to double precision


def phase_tail(t: float) -> tuple[float, float]:
    """The tail G(t) = h(t) - (n - 1)t - 2 pi and G'(t), 0 <= t <= pi, in
    double precision; G does not depend on n."""
    c, s = math.cos(t), math.sin(t)
    q = complex(1 + _RHO * c + (2 * c * c - 1) / _RHO,
                -s * (_RHO + 2 * c / _RHO))
    z = complex(c, s)
    return (2 * math.atan2(-s, _RHO - c) + 2 * cmath.phase(q),
            -4 + 2 * (z * (3 * z * z - 1) / (z ** 3 - z - 1)).real)


def guess_bits(n: int) -> int:
    """The precision of the phase steering at n: 64 + log2(n) bits keep
    (n - 1)t, which magnifies the rounding of t by n, to 2^-60."""
    return 64 + n.bit_length()


def phase_turns(n: int, turns) -> tuple[int, float]:
    """h(2 pi turns) / 2 pi as an integer part k and a float x, |x| < 4.

    (n - 1) turns is exact, for a Fraction and for an mpf; only the tail
    is a float.
    """
    if isinstance(turns, Fraction):
        k, rest = divmod((n - 1) * turns, 1)
    else:
        lin = mp.fmul(n - 1, turns, exact=True)
        k = int(mp.floor(lin, prec=0))        # prec=0: exact at any width
        rest = mp.fsub(lin, k, exact=True)
    return k, float(rest) + 1 + phase_tail(2 * math.pi * float(turns))[0] / (2 * math.pi)


@cache
def phase_guess(n: int, j: int) -> mp.mpf:
    """theta_j, the t in (0, pi) with h(t) = 2 pi j, to about 2^-45;
    cached, so the witness walk and phase_circle_root share one guess.

    t0 + u at guess_bits(n), with t0 = 2 pi (j - 1)/(n - 1) in mpmath.
    u solves (n - 1)u + G(t0 + u) = 0 by float Newton kept inside
    [-t0, pi - t0].
    """
    if n < 10 or not 2 <= j <= n // 2:
        raise ValueError(f"no circle root of E_{n} in (0, pi) with phase index {j}")
    with mp.workprec(guess_bits(n)):
        t0 = 2 * mp.pi * (j - 1) / (n - 1)
    t0f = float(t0)
    lo, hi, u = -t0f, math.pi - t0f, 0.0
    tol = 2.0 ** -40 / (n - 1)        # the float noise in u is about 2^-50 / n
    for _ in range(100):
        g, dg = phase_tail(t0f + u)
        f = (n - 1) * u + g
        if f < 0:
            lo = u
        else:
            hi = u
        nxt = u - f / (n - 1 + dg)
        if abs(nxt - u) < tol:
            with mp.workprec(guess_bits(n)):
                return t0 + nxt
        u = nxt if lo < nxt < hi else (lo + hi) / 2
    raise IsolationError(f"phase Newton did not converge at n={n}, j={j}")


def phase_circle_root(n: int, j: int, precision_bits: int) -> RealBall:
    """theta_j in (0, pi), the j-th circle root of (x - 1) E_n, 2 <= j <= n/2.

    Newton on F from phase_guess, certified by a sign change of F: its
    three sines are taken at the exact points k x / 2.
    """
    t = phase_guess(n, j)
    ks = ((n + 1, 1), (n - 3, -1), (n - 5, -1))      # 2a, 2(a - 2), 2(a - 3)

    def newton_step(x):
        f = d = 0
        for k, sign in ks:
            c, s = mp.cos_sin(mp.ldexp(mp.fmul(k, x, exact=True), -1))
            f += sign * s
            d += sign * k * c
        return 2 * f / d

    def value_ball(x):
        f = as_real_ball(0)
        for k, sign in ks:
            s = sin_ball(as_real_ball(mp.ldexp(mp.fmul(k, x, exact=True), -1)),
                         precision_bits)
            f = f + s if sign > 0 else f - s       # - s is exact
        return f

    with mp.workprec(guess_bits(n)):
        half = mp.pi / (2 * n + 32)        # roots are about 2 pi / n apart
        lo, hi = t - half, t + half
    theta = sign_change_root(newton_step, value_ball, lo, hi, precision_bits)
    with mp.workprec(guess_bits(n)):
        # the certified root is theta_j: its phase is 2 pi j, to far better
        # than the quarter turn allowed here
        k, x = phase_turns(n, theta.mid / (2 * mp.pi))
    if abs(k - j + x) > 0.25:
        raise IsolationError(f"Newton left circle root {j} of E_{n}")
    return theta


def _eta_bracket(n: int) -> tuple[float, float]:
    """A float bracket of eta about 3 * 2^-44 wide: g(x) = P(x) - P*(x)
    x^(2-n), which has the sign of S(x) and no x^n growth, bisected in
    double precision and widened by 2^-44 on each side.

    Near eta both terms of g are below 0.6 and each takes a few roundings,
    so float g is off by less than 2^-49; with g' >= 1.19 at eta for every
    n >= 10, a misread sign moves the bracket by less than 2^-49, well
    inside the widening.
    """
    def g(x: float) -> float:
        return x ** 3 - x - 1 - (1 - x * x - x ** 3) * x ** (2 - n)

    lo, hi = 1.0 + 2.0 ** -16, 1.33          # g(lo) ~ (9 - n) 2^-16 < 0 < g(hi)
    while hi - lo > 2.0 ** -44:
        mid = (lo + hi) / 2
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo - 2.0 ** -44, hi + 2.0 ** -44


def phase_eta(n: int, precision_bits: int) -> RealBall:
    """eta, the real root of E_n in (1, rho), certified by a sign change.

    Newton runs on g(x) = P(x) - P*(x) x^(2-n) from the float bracket of
    _eta_bracket; at the dyadic test points P and P* are exact and x^(2-n)
    is rounded down and up.
    """
    if n < 10:
        raise ValueError("n must be >= 10")
    lo, hi = _eta_bracket(n)
    dp, dq = PISOT.derivative(), PISOT_STAR.derivative()

    def newton_step(x):
        xp = x ** (2 - n)
        q = _horner(PISOT_STAR.coeffs, x)
        num = _horner(PISOT.coeffs, x) - q * xp
        den = (_horner(dp.coeffs, x) - _horner(dq.coeffs, x) * xp
               + (n - 2) * q * xp / x)
        return num / den

    def exact_value(poly, x):
        acc = mp.mpf(0)
        for c in reversed(poly.coeffs):
            acc = mp.fadd(mp.fmul(acc, x, exact=True), c, exact=True)
        return acc

    def value_ball(x):
        wp = precision_bits + GUARD_BITS
        down = mp.mpf(mp.libmp.mpf_pow_int(x._mpf_, 2 - n, wp, mp.libmp.round_floor))
        up = mp.mpf(mp.libmp.mpf_pow_int(x._mpf_, 2 - n, wp, mp.libmp.round_ceiling))
        xp = RealBall(down, mp.fsub(up, down, exact=True))
        return exact_value(PISOT, x) - xp * exact_value(PISOT_STAR, x)

    return sign_change_root(newton_step, value_ball, lo, hi, precision_bits)


def log_ball(x: RealBall, precision_bits: int) -> RealBall:
    """Certified log of a positive interval."""
    wp = precision_bits + GUARD_BITS
    m, r = x.mid._mpf_, x.rad._mpf_
    lo = mpf_sub(m, r)
    if mpf_le(lo, fzero):
        raise ValueError("log of an interval touching zero")
    lo, hi = mpf_log(lo, wp, _RN), mpf_log(mpf_add(m, r), wp, _RN)
    mid = mpf_div(mpf_add(lo, hi, wp, _RN), ftwo, wp, _RN)
    rad = mpf_div(mpf_sub(hi, lo, wp, _RN), ftwo, wp, _RN)
    return RealBall(_mpf(mid), _mpf(mpf_add(rad, _ulp(wp, hi), wp, _RN)))


# -- trigonometric ball helpers (arguments live on the unit circle) ----


def cos_ball(theta: RealBall, precision_bits: int) -> RealBall:
    """cos over an interval; |cos'| <= 1 bounds the radius."""
    wp = precision_bits + GUARD_BITS
    return RealBall(_mpf(mpf_cos(theta.mid._mpf_, wp, _RN)),
                    _mpf(mpf_add(theta.rad._mpf_, _ulp(wp), wp, _RN)))


def sin_ball(theta: RealBall, precision_bits: int) -> RealBall:
    """sin over an interval; |sin'| <= 1 bounds the radius."""
    wp = precision_bits + GUARD_BITS
    return RealBall(_mpf(mpf_sin(theta.mid._mpf_, wp, _RN)),
                    _mpf(mpf_add(theta.rad._mpf_, _ulp(wp), wp, _RN)))


def arccos_ball(x: RealBall, precision_bits: int) -> RealBall:
    """arccos over an interval strictly inside (-1, 1)."""
    wp = precision_bits + GUARD_BITS
    m, r = x.mid._mpf_, x.rad._mpf_
    edge = mpf_sub(fone, mpf_add(mpf_abs(m, wp, _RN), r, wp, _RN), wp, _RN)
    if mpf_le(edge, fzero):
        raise ValueError("arccos interval touches the branch points")
    span = mpf_mul(edge, mpf_sub(ftwo, edge, wp, _RN), wp, _RN)
    deriv = mpf_rdiv_int(1, mpf_sqrt(span, wp, _RN), wp, _RN)
    rad = mpf_add(mpf_mul(r, deriv, wp, _RN), _ulp(wp), wp, _RN)
    return RealBall(_mpf(mpf_acos(m, wp, _RN)), _mpf(rad))


def polar_ball(r, theta: RealBall, precision_bits: int) -> ComplexBall:
    """r e^(i theta) as a ball, for a real ball (or an int) r.

    |r e^(i theta) - r_m e^(i theta_m)| <= r.rad + |r_m| theta.rad, plus
    16 ulps of max(1, |mid|) for the roundings of the midpoint, which
    include theta_m's to the working precision while |theta_m| < 4 pi.
    """
    r = as_real_ball(r)
    wp = precision_bits + GUARD_BITS
    m = r.mid._mpf_
    c, s = mpf_cos_sin(mpf_pos(theta.mid._mpf_, wp, _RN), wp, _RN)
    mid = (mpf_mul(c, m, wp, _RN), mpf_mul(s, m, wp, _RN))
    spread = mpf_mul(mpf_abs(m, wp, _RN), theta.rad._mpf_, wp, _RN)
    rad = mpf_add(r.rad._mpf_, spread, wp, _RN)
    rad = mpf_add(rad, _ulp(wp, mpf_hypot(*mid, wp, _RN)), wp, _RN)
    return ComplexBall(mp.make_mpc(mid), _mpf(rad), precision_bits)


def sqrt_ball(x: RealBall, precision_bits: int) -> RealBall:
    """Square root of a certified positive interval."""
    wp = precision_bits + GUARD_BITS
    m, r = x.mid._mpf_, x.rad._mpf_
    lo = mpf_sub(m, r)
    if mpf_le(lo, fzero):
        raise ValueError("sqrt of an interval touching zero")
    rad = mpf_div(r, mpf_mul_int(mpf_sqrt(lo, wp, _RN), 2, wp, _RN), wp, _RN)
    rad = mpf_add(rad, _ulp(wp), wp, _RN)
    return RealBall(_mpf(mpf_sqrt(m, wp, _RN)), _mpf(rad))


# Oracle names that the acceptance gate and the benchmark read from roots;
# they resolve lazily, so no production import loads the oracle module.
_ORACLE_NAMES = {"classify_salem", "entropy_from_charpoly", "isolate_roots",
                 "salem_eta", "circle_root_arguments"}


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
