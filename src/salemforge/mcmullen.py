"""Eigenvalue data of a McMullen pair at its Siegel fixed point.

For a unit-circle root delta = e^(i theta) of the Salem factor phi of
E_n (n = 1 mod 6), the linearized eigenvalues (alpha, beta) at the Siegel
point satisfy alpha*beta = delta and alpha + beta = s with
s = +/- delta(1+delta)/(1+delta+delta^2).  Writing w = s * delta^(-1/2)
gives the real quantity w = +/- 2cos(theta/2)/(1+2cos theta): the branch
is Siegel exactly when |w| < 2 (both eigenvalues on the circle) and
certified off-circle when |w| > 2.  The witness roots delta, delta' and
the Salem number eta come from the Pisot phase of E_n (roots.py), in O(1)
work per root at any degree: the float tail of the phase and the w of
the mpf guess pick the candidates and their phase indices, and only the
certified roots and their certified w are reported.  The pair data
builds one branch per witness, from the w the witness holds; the Siegel
branch's psi = arccos(w/2) gives alpha, beta and their turns
(theta/2 +/- psi)/2pi.
Every complex ball is a polar ball (roots.polar_ball): this module does
no complex-ball arithmetic and sets no working precision.
Integrality of alpha and beta is certified by one exact norm,
N(E_n(omega)) = Res(E_n, x^2+x+1) = 1, read from the sparse form of E_n.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional

import mpmath as mp

from .coxeter import (PISOT, PISOT_STAR, FormulaConsistencyError,
                      SalemFactorization, salem_factor)
from .roots import (ComplexBall, IsolationError, RealBall, Report,
                    arccos_ball, as_real_ball, cos_ball, guess_bits, log_ball,
                    phase_circle_root, phase_eta, phase_guess, phase_turns,
                    polar_ball, sqrt_ball, turns_mod1, two_pi_ball)


class PoleError(ValueError):
    """delta is a primitive cube root of unity: 1 + delta + delta^2 = 0."""


class NoSiegelRoot(RuntimeError):
    """No circle root produced a certified Siegel branch."""


class IntegralityFailure(RuntimeError):
    """The integrality certificate of a source n failed."""


@dataclass(frozen=True)
class CircleRoot:
    """Certified unit-circle root delta = e^(i theta) of a Salem factor."""

    theta: RealBall            # argument in (0, 2 pi)
    ball: ComplexBall          # e^(i theta)
    index: int                 # scan position among the roots of phi in (0, pi)

    @classmethod
    def from_theta(cls, theta: RealBall, precision_bits: int, index: int) -> "CircleRoot":
        return cls(theta=theta, ball=polar_ball(1, theta, precision_bits), index=index)

    @cached_property
    def w(self) -> RealBall:
        """The branch discriminant at theta, at the ball's precision;
        computed once per root."""
        return _w_interval(self.theta, self.ball.precision_bits)

    def to_json(self) -> dict:
        return {"theta": self.theta.to_json(), "delta": self.ball.to_json(),
                "index": self.index}


@dataclass(frozen=True)
class Branch:
    branch_sign: int
    alpha: ComplexBall
    beta: ComplexBall
    classification: str        # "siegel" | "nonsiegel"
    ratio_abs: RealBall        # certified |alpha / beta|
    arg_turns: Optional[tuple[RealBall, RealBall]]   # Siegel: arg / 2 pi
    delta: CircleRoot
    w_s: RealBall              # branch_sign * w

    # built when read: s = alpha + beta = w_s e^(i theta/2), and a(delta) =
    # 2 delta - s^2 = (2 - w_s^2) delta in x^2 + a(delta) x + delta^2
    @cached_property
    def s(self) -> ComplexBall:
        return polar_ball(self.w_s, _half(self.delta.theta), self.delta.ball.precision_bits)

    @cached_property
    def a_of_delta(self) -> ComplexBall:
        return polar_ball(2 - self.w_s * self.w_s, self.delta.theta,
                          self.delta.ball.precision_bits)


def _half(x: RealBall) -> RealBall:
    """x / 2, exact."""
    return RealBall(mp.ldexp(x.mid, -1), mp.ldexp(x.rad, -1))


def _w_interval(theta: RealBall, precision_bits: int) -> RealBall:
    """w = 2 cos(theta/2) / (1 + 2 cos theta), the real branch discriminant."""
    num = 2 * cos_ball(_half(theta), precision_bits)
    try:
        return num / (1 + 2 * cos_ball(theta, precision_bits))
    except ZeroDivisionError:
        raise PoleError("1 + delta + delta^2 vanishes: delta is a cube root "
                        "of unity") from None


def _branch_class(w: RealBall) -> str:
    """"siegel" when |w| < 2, "nonsiegel" when |w| > 2, both certified."""
    wa = w.abs_ball()
    if wa.hi < 2:
        return "siegel"
    if wa.lo > 2:
        return "nonsiegel"
    raise IsolationError("branch discriminant not separated from 2; "
                         "retry with higher precision")


def eigenvalue_branch(delta: CircleRoot, sign: int) -> Branch:
    """The sign branch of t^2 - s t + delta = 0 at delta's precision,
    tagged from the w that delta holds.

    Every complex ball is a polar ball; s and a(delta) are built only
    when read (Branch.s, Branch.a_of_delta).  A Siegel branch has
    alpha, beta = e^(i(theta/2 +/- psi)) and carries their turns; a
    non-Siegel branch has alpha, beta = u^(+/-1) e^(i theta/2) and carries
    a certified |alpha/beta| != 1.
    """
    precision_bits = delta.ball.precision_bits
    w = delta.w
    tag = _branch_class(w)
    arg_turns = None
    half_theta = _half(delta.theta)
    ws = w if sign > 0 else -w
    if tag == "siegel":
        # psi = arccos(w_s / 2); alpha, beta = e^(i(theta/2 +/- psi))
        psi = arccos_ball(_half(ws), precision_bits)
        up, down = half_theta + psi, half_theta - psi
        alpha = polar_ball(1, up, precision_bits)
        beta = polar_ball(1, down, precision_bits)
        ratio = RealBall(mp.mpf(1),
                         mp.fadd(alpha.radius, beta.radius, exact=True))
        two_pi = two_pi_ball(precision_bits)
        arg_turns = (turns_mod1(up / two_pi, precision_bits),
                     turns_mod1(down / two_pi, precision_bits))
    else:
        # u real with |u| > 1: u = (w_s + sgn(w_s) sqrt(w_s^2 - 4)) / 2
        disc = sqrt_ball(ws * ws - 2 * 2, precision_bits)
        u = _half(ws + disc if ws.mid > 0 else ws - disc)
        alpha = polar_ball(u, half_theta, precision_bits)
        beta = polar_ball(1 / u, half_theta, precision_bits)
        ratio = (u * u).abs_ball()
    return Branch(branch_sign=sign, alpha=alpha, beta=beta,
                  classification=tag, ratio_abs=ratio, arg_turns=arg_turns,
                  delta=delta, w_s=ws)


def eigenvalue_branches(delta: CircleRoot) -> list[Branch]:
    """Both sign branches of t^2 - s t + delta = 0, +1 first."""
    return [eigenvalue_branch(delta, sign) for sign in (+1, -1)]


def _w_guess(n: int, j: int) -> mp.mpf:
    """|w| at the mpf guess of theta_j, at the precision the guess
    carries (roots.guess_bits): it steers the witness walk only."""
    return _w_interval(as_real_ball(phase_guess(n, j)), guess_bits(n)).abs_ball().mid


def _cyclotomic_phases(fact: SalemFactorization) -> list[int]:
    """The phase indices j (h = 2 pi j) of the circle roots of the
    cyclotomic part of E_n in (0, pi), ascending.

    Each root 2 pi a / d must lie on its own whole turn of the phase, or
    IsolationError: the split and the phase disagree.  The turn is read
    from the float tail with (n - 1) a / d exact (roots.phase_turns).
    The remaining indices 2..n/2 then number deg phi / 2 - 1 by
    construction (the degree is read from the same split and is even).
    """
    n = fact.n
    out = []
    for d, mult in fact.cyclotomic_part:
        for a in range(1, (d + 1) // 2):
            if math.gcd(a, d) != 1:
                continue
            k, x = phase_turns(n, Fraction(a, d))
            if mult != 1 or abs(x - round(x)) > 0.25:
                raise IsolationError(f"Phi_{d}^{mult} does not match the "
                                     f"phase of E_{n}")
            out.append(k + round(x))
    out.sort()
    if len(set(out)) != len(out):
        raise IsolationError(f"the circle roots of E_{n} do not split as "
                             f"its cyclotomic part says")
    return out


def _nonsiegel_edge(n: int) -> int:
    """The phase index of the last circle root of E_n before |w| = 101/50.

    |w| = W at cos(t/2) = (1 + sqrt(1 + 4 W^2)) / (4 W), here
    (50 + sqrt(43304)) / 404, with t < 2 pi/3; |w| increases on
    (0, 2 pi/3), so every root before this t has |w| < 101/50.  The
    point is taken at guess_bits(n), as (n - 1)t magnifies its rounding
    by n.
    """
    bits = guess_bits(n)
    cos_half = (50 + sqrt_ball(as_real_ball(43304), bits)) / 404
    turns = arccos_ball(cos_half, bits) / _half(two_pi_ball(bits))
    k, x = phase_turns(n, turns.mid)
    return k + math.floor(x)


def witness_roots(fact: SalemFactorization, precision_bits: int
                  ) -> tuple[CircleRoot, CircleRoot]:
    """One certified Siegel and one certified non-Siegel circle root of
    the Salem factor phi of E_n, n = fact.n, with their scan indices.

    Candidates go by phase index j, skipping the cyclotomic ones; the w
    of the mpf guess of theta_j preselects them (|w| < 99/50 Siegel,
    > 101/50 non-Siegel, both exact), and only those are certified
    (phase_circle_root).
    The first whose class, read from its certified w, agrees is returned,
    holding that w.  The Siegel walk starts at j = 2; the non-Siegel walk
    at the last root before |w| = 101/50.  Index = j - 1 - (cyclotomic
    roots before it), the position among the roots of phi in (0, pi).
    """
    n = fact.n
    cyc = _cyclotomic_phases(fact)

    def witness(tag: str, first: int, preselect) -> CircleRoot:
        for j in range(max(first, 2), n // 2 + 1):
            if j in cyc or not preselect(mp.fmul(50, _w_guess(n, j), exact=True)):
                continue
            root = CircleRoot.from_theta(phase_circle_root(n, j, precision_bits),
                                         precision_bits,
                                         index=j - 1 - bisect_left(cyc, j))
            if _branch_class(root.w) == tag:
                return root
        raise NoSiegelRoot(f"no certified {tag} root found")

    return (witness("siegel", 2, lambda w50: w50 < 99),
            witness("nonsiegel", _nonsiegel_edge(n), lambda w50: w50 > 101))


# -- exact integrality certificate --------------------------------------


@dataclass(frozen=True)
class IntegralityCertificate(Report):
    """E_n(omega) = a + b omega in Z[omega] and its norm N = a^2 - ab + b^2.

    N = Res(E_n, x^2+x+1) = prod (delta^2 + delta + 1) over the roots of
    E_n is a product of integer norms, one per irreducible factor, so
    N = 1 makes 1 + delta + delta^2 a unit at every root of phi; then
    s = +/- delta(1+delta)/(1+delta+delta^2), and with it alpha and beta,
    are algebraic integers.
    """

    n: int
    a: int
    b: int
    norm: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def to_json(self) -> dict:
        return {**super().to_json(), "passed": self.passed}


def integrality_certificate(n: int) -> IntegralityCertificate:
    """Exact norm of E_n(omega), omega a primitive cube root of unity.

    E_n(omega) = S(omega) / (omega - 1) from the sparse form
    S(x) = (x - 1) E_n(x) = x^(n-2) P(x) - P*(x): exponents are reduced
    mod 3, 1 / (omega - 1) = (omega^2 - 1) / 3, and omega^2 = -1 - omega;
    the division by 3 must be exact.  No floating point, no dense E_n.
    """
    if n < 10:
        raise ValueError("n must be >= 10")
    p, q = ([sum(f.coeffs[r::3]) for r in range(3)] for f in (PISOT, PISOT_STAR))
    k = (n - 2) % 3
    s = [p[(r - k) % 3] - q[r] for r in range(3)]          # S(omega)
    m = (-1, 0, 1)                                           # omega^2 - 1
    t = [sum(s[i] * m[(r - i) % 3] for i in range(3)) for r in range(3)]
    a3, b3 = t[0] - t[2], t[1] - t[2]                        # 3 E_n(omega)
    if a3 % 3 or b3 % 3:
        raise FormulaConsistencyError(f"omega - 1 does not divide S(omega) at n={n}")
    a, b = a3 // 3, b3 // 3
    norm = a * a - a * b + b * b
    return IntegralityCertificate(
        n=n, a=a, b=b, norm=norm,
        checks=(("n_is_1_mod_6", n % 6 == 1), ("norm_is_1", norm == 1)),
    )


# -- assembled pair data ------------------------------------------------


@dataclass(frozen=True)
class McMullenPairData(Report):
    n: int
    delta: CircleRoot
    branch_sign: int
    alpha: ComplexBall
    beta: ComplexBall
    s: ComplexBall
    a_of_delta: ComplexBall
    siegel_root: bool
    delta_prime: Optional[CircleRoot]
    alpha_prime: Optional[ComplexBall]
    beta_prime: Optional[ComplexBall]
    entropy: RealBall
    certificate: IntegralityCertificate
    precision_bits: int
    alpha_arg_turns: RealBall         # arg(alpha) / 2 pi in [0, 1)
    beta_arg_turns: RealBall
    ratio_prime: RealBall             # certified |alpha' / beta'|


@cache
def _pair_core(n: int, precision_bits: int) -> tuple:
    """The sign-free pair data (delta, delta', certificate, log eta), once
    per (n, precision_bits); a failure raises and is not cached."""
    delta, delta_prime = witness_roots(salem_factor(n), precision_bits)
    cert = integrality_certificate(n)
    if not cert.passed:
        raise IntegralityFailure(f"integrality certificate failed for n={n}")
    return delta, delta_prime, cert, log_ball(phase_eta(n, precision_bits), precision_bits)


def mcmullen_data(n: int, precision_bits: int = 256,
                  branch_sign: int = +1) -> McMullenPairData:
    """Full eigenvalue data of the pair for n = 1 mod 6 at a Siegel root.

    The two witnesses (witness_roots) and eta (phase_eta) come from the
    Pisot phase of E_n, at every degree; phi is neither built nor
    evaluated.  The split of E_n is read from coxeter's per-n cache.
    The witnesses, eta and the certificate are cached by exactly
    (n, precision_bits); the sign builds only its two branches.
    """
    if n % 6 != 1:
        raise ValueError(f"n must be 1 mod 6, got {n}")
    if n < 13:
        raise ValueError("n must be at least 13")
    delta, delta_prime, cert, entropy = _pair_core(n, precision_bits)

    # one branch per witness, from the w each witness holds; delta's is
    # Siegel: witness_roots certified that w, and the class reads only |w|
    br = eigenvalue_branch(delta, branch_sign)
    brp = eigenvalue_branch(delta_prime, branch_sign)

    return McMullenPairData(
        n=n, delta=delta, branch_sign=branch_sign,
        alpha=br.alpha, beta=br.beta, s=br.s, a_of_delta=br.a_of_delta,
        siegel_root=True, delta_prime=delta_prime,
        alpha_prime=brp.alpha, beta_prime=brp.beta,
        entropy=entropy, certificate=cert, precision_bits=precision_bits,
        alpha_arg_turns=br.arg_turns[0], beta_arg_turns=br.arg_turns[1],
        ratio_prime=brp.ratio_abs,
    )


def __getattr__(name):
    # the acceptance gate reads the dense scan from here; it resolves
    # lazily, so no production import loads the oracle module
    if name == "scan_siegel_roots":
        from .oracle import scan_siegel_roots
        return scan_siegel_roots
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
