"""Reference oracles for the tests, kept off the production paths.

No production module imports this one: roots and mcmullen resolve the
few names the acceptance gate reads from them lazily, and a CLI run
never loads it.  Four oracles stay.  pisot_phase is the phase h(t) of
E_n itself in multiprecision, the reference for the float stage of
roots.  full_precision_root is roots.sign_change_root with every Newton
step at the full working precision, the reference for its precision
ladder.  The dense oracle works on any monic reciprocal polynomial:
circle_root_brackets (a float scan of G(t) = Re(e^(-imt) p(e^(it)))),
circle_root, circle_root_arguments and salem_eta, all certified through
roots.sign_change_root, and scan_siegel_roots, which certifies every
circle root of a dense phi and sorts it by branch.  The Aberth oracle is
isolate_roots, classify_salem and entropy_from_charpoly: an
Aberth-Ehrlich simultaneous solver whose disks have the classical
radius deg * |p(z)/p'(z)|.  Reciprocal polynomials get their on-circle
tags from the algebraic z <-> 1/z pairing, never from numeric proximity
alone; a root neither pinned by the pairing nor separated from the
circle is tagged "unresolved".
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .polyring import IntPoly, poly_gcd
from .roots import (GUARD_BITS, ComplexBall, IsolationError, RealBall, _horner,
                    _ulp, as_real_ball, log_ball, polar_ball, sign_change_root,
                    two_pi_ball)
from .mcmullen import CircleRoot, NoSiegelRoot, _branch_class


class NotSalemError(RuntimeError):
    """Root pattern violates the Salem structure; names the offending root."""


class NotSalemInput(ValueError):
    """Input polynomial is not Salem-certified."""


def unit_circle_distance(z: ComplexBall) -> RealBall:
    """Certified interval containing |z| - 1."""
    return z.abs_ball() - 1


def _fujiwara_bound(p: IntPoly) -> float:
    n = p.degree
    an = abs(p.coeffs[-1])
    best = 0.5
    for k in range(1, n + 1):
        c = abs(p[n - k]) / an
        if c:
            best = max(best, float(mp.mpf(c) ** (mp.mpf(1) / k)))
    return 2.0 * best


def eval_ball(p: IntPoly, z: ComplexBall) -> ComplexBall:
    """p(z) as a ball: Horner midpoint plus a derivative-bound radius."""
    prec = z.precision_bits
    with mp.workprec(prec + GUARD_BITS):
        mid = _horner(p.coeffs, z.mid)
        r = abs(z.mid) + z.radius
        dbound = mp.mpf(0)
        rp = mp.mpf(1)
        for i, c in enumerate(p.coeffs[1:], start=1):
            if c:
                dbound += abs(c) * i * rp
            rp *= r
        rad = dbound * z.radius
        coeff_sum = sum(abs(c) for c in p.coeffs)
        rad += (4 * p.degree * coeff_sum * max(mp.mpf(1), r) ** p.degree
                * mp.mpf(2) ** (-prec - GUARD_BITS + 6))
        ulp = mp.make_mpf(_ulp(mp.mp.prec, abs(mid)._mpf_))
        return ComplexBall(mid, rad + ulp, prec)


# -- squarefree machinery ---------------------------------------------


def _exact_div(p: IntPoly, f: IntPoly) -> IntPoly:
    """Exact quotient p / f.  Yun's algorithm on monic p divides only by
    monic f: poly_gcd returns a primitive divisor of a monic polynomial
    with a positive leading coefficient, which is 1 by Gauss's lemma."""
    q, r = p.divmod(f)
    assert r.is_zero(), "expected exact division"
    return q


def yun_squarefree(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun decomposition p = prod f_i^i for monic p; factors monic squarefree."""
    if not p.is_monic():
        raise ValueError("Yun decomposition implemented for monic input")
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    b = _exact_div(p, g)
    c = _exact_div(p.derivative(), g)
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        f = poly_gcd(b, d)
        if f.degree > 0:
            out.append((f, i))
            b = _exact_div(b, f)
            c = _exact_div(d, f)
        else:
            c = d
        d = c - b.derivative()
        i += 1
    return out


# -- Aberth-Ehrlich isolation -----------------------------------------


def _aberth(p: IntPoly, prec: int, maxiter: int = 500):
    """Simultaneous iteration; returns approximate roots at working precision."""
    n = p.degree
    dp = p.derivative()
    with mp.workprec(prec):
        radius = mp.mpf(_fujiwara_bound(p)) * mp.mpf("0.65")
        zs = [radius * mp.exp(mp.mpc(0, 2 * mp.pi * (j + mp.mpf("0.353")) / n))
              for j in range(n)]
        tol = mp.mpf(2) ** (-prec + 16)
        for _ in range(maxiter):
            moved = mp.mpf(0)
            for j in range(n):
                pj = _horner(p.coeffs, zs[j])
                dj = _horner(dp.coeffs, zs[j])
                if dj == 0:
                    zs[j] += tol
                    continue
                w = pj / dj
                s = mp.mpc(0)
                for k in range(n):
                    if k != j:
                        diff = zs[j] - zs[k]
                        if diff == 0:
                            diff = tol
                        s += 1 / diff
                denom = 1 - w * s
                corr = w / denom if denom != 0 else w
                zs[j] -= corr
                moved = max(moved, abs(corr))
            if moved < tol:
                break
        for j in range(n):
            for _ in range(4):
                dj = _horner(dp.coeffs, zs[j])
                if dj == 0:
                    break
                zs[j] -= _horner(p.coeffs, zs[j]) / dj
        return zs


def _certify(p: IntPoly, zs, prec: int):
    """Disk radius deg*|p/p'| per root; None if the certificate degenerates."""
    n = p.degree
    dp = p.derivative()
    out = []
    with mp.workprec(prec + GUARD_BITS):
        for z in zs:
            dv = _horner(dp.coeffs, z)
            if dv == 0:
                return None
            out.append(n * abs(_horner(p.coeffs, z) / dv))
    return out


@dataclass(frozen=True)
class RootSet:
    poly: IntPoly
    roots: tuple[tuple[ComplexBall, int], ...]
    classification: tuple[str, ...]

    def balls(self):
        return [b for b, _ in self.roots]


def _pairing_index(balls, target_of):
    """For each ball index, the unique ball containing target_of(mid), else None."""
    out = []
    for i, b in enumerate(balls):
        t = target_of(b)
        hits = [j for j, c in enumerate(balls) if c.contains(t)]
        out.append(hits[0] if len(hits) == 1 else None)
    return out


def _classify_tags(p: IntPoly, balls: list[ComplexBall], prec: int) -> list[str]:
    reciprocal = p.is_reciprocal()
    with mp.workprec(prec + GUARD_BITS):
        recip_partner = (_pairing_index(balls, lambda b: 1 / b.mid)
                         if reciprocal and p[0] != 0 else [None] * len(balls))
        conj_partner = _pairing_index(balls, lambda b: mp.conj(b.mid))
        tags = []
        for i, b in enumerate(balls):
            dist = unit_circle_distance(b)
            is_real = conj_partner[i] == i
            on_circle = (reciprocal and recip_partner[i] is not None
                         and recip_partner[i] == conj_partner[i]
                         and dist.contains_zero())
            if on_circle and not is_real:
                tags.append("on_circle")
            elif is_real and (b.mid.real - b.radius) > 1:
                tags.append("real_gt_1")
            elif is_real and 0 < (b.mid.real - b.radius) and (b.mid.real + b.radius) < 1:
                tags.append("real_in_01")
            elif dist.is_positive():
                tags.append("outside_circle")
            elif dist.is_negative():
                tags.append("inside_circle")
            elif on_circle:                   # a real root at 1 or -1
                tags.append("on_circle")
            else:
                # not pinned by the pairing and the interval straddles 1
                tags.append("unresolved")
        return tags


def isolate_roots(p: IntPoly, precision_bits: int = 256) -> RootSet:
    """All complex roots of p as disjoint certified balls with multiplicity.

    Square factors are removed by exact derivative-gcd first; each ball
    radius must reach 2^(-precision_bits/2), retried at doubled working
    precision if missed.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if not p.is_monic():
        raise ValueError("root isolation expects a monic polynomial")
    if p.degree == 0:
        return RootSet(p, (), ())
    pieces = yun_squarefree(p)

    target = mp.mpf(2) ** (-(precision_bits // 2))
    entries = []
    for fac, m in pieces:
        wp = precision_bits + GUARD_BITS
        for _ in range(4):
            zs = _aberth(fac, wp)
            radii = _certify(fac, zs, wp)
            if radii is not None and max(radii) <= target:
                with mp.workprec(wp):
                    ok = all(abs(zs[i] - zs[j]) > radii[i] + radii[j]
                             for i in range(len(zs))
                             for j in range(i + 1, len(zs)))
                if ok:
                    break
            wp *= 2
        else:
            raise IsolationError(
                f"could not isolate roots of degree-{fac.degree} factor at "
                f"{precision_bits} bits; retry with higher precision")
        for z, r in zip(zs, radii):
            entries.append((ComplexBall(z, r, precision_bits), m))

    with mp.workprec(precision_bits + GUARD_BITS):
        entries.sort(key=lambda e: (e[0].mid.real, e[0].mid.imag))
    tags = _classify_tags(p, [b for b, _ in entries], precision_bits)
    return RootSet(p, tuple(entries), tuple(tags))


# -- Salem classification ----------------------------------------------


@dataclass(frozen=True)
class SalemCertificate:
    poly: IntPoly
    eta: ComplexBall
    eta_reciprocal: ComplexBall
    circle_roots: tuple[ComplexBall, ...]
    precision_bits: int


def classify_salem(rs: RootSet) -> SalemCertificate:
    """Certify the Salem root pattern of rs.poly or raise NotSalemError.

    Pattern: exactly one real root > 1, its reciprocal in (0, 1), and all
    remaining roots on the unit circle pinned by the reciprocal pairing.
    """
    p = rs.poly
    if not p.is_monic() or p.degree % 2 != 0 or not p.is_reciprocal():
        raise NotSalemError("polynomial is not monic reciprocal of even degree")
    if any(m != 1 for _, m in rs.roots):
        raise NotSalemError("polynomial has a multiple root")
    eta = recip = None
    circle = []
    for (ball, _), tag in zip(rs.roots, rs.classification):
        if tag == "real_gt_1":
            if eta is not None:
                raise NotSalemError(f"second root outside the circle at {ball.mid}")
            eta = ball
        elif tag == "real_in_01":
            if recip is not None:
                raise NotSalemError(f"second root in (0,1) at {ball.mid}")
            recip = ball
        elif tag == "on_circle":
            circle.append(ball)
        else:
            raise NotSalemError(f"root at {ball.mid} classified {tag}")
    if eta is None or recip is None:
        raise NotSalemError("no real root eta > 1 with reciprocal partner in (0,1)")
    if len(circle) != p.degree - 2:
        raise NotSalemError(f"expected {p.degree - 2} circle roots, got {len(circle)}")
    return SalemCertificate(poly=p, eta=eta, eta_reciprocal=recip,
                            circle_roots=tuple(circle),
                            precision_bits=eta.precision_bits)


def entropy_from_charpoly(p: IntPoly, precision_bits: int = 256) -> RealBall:
    """log of the largest root modulus, certified; exactly 0 when no root
    is certified outside the closed unit disk."""
    balls = isolate_roots(p, precision_bits).balls()
    if not any(unit_circle_distance(b).is_positive() for b in balls):
        return as_real_ball(0)
    return log_ball(max((b.abs_ball() for b in balls), key=lambda a: a.mid),
                    precision_bits)


# -- the phase h(t) of E_n in multiprecision --------------------------------


def _plastic() -> mp.mpf:
    """rho, the real root of x^3 - x - 1, at the working precision."""
    r = mp.sqrt(69) / 18
    return mp.cbrt(mp.mpf(1) / 2 + r) + mp.cbrt(mp.mpf(1) / 2 - r)


def pisot_phase(n: int, t) -> tuple[mp.mpf, mp.mpf]:
    """The phase h(t) of E_n and its derivative h'(t), 0 <= t <= pi, at
    the working precision: the reference for the float tail, the guesses
    and the phase indices of roots."""
    rho = _plastic()
    c, s = mp.cos_sin(t)
    q = mp.mpc(1 + rho * c + (2 * c * c - 1) / rho, -s * (rho + 2 * c / rho))
    h = (n - 1) * t + 2 * mp.pi + 2 * mp.atan2(-s, rho - c) + 2 * mp.arg(q)
    z = mp.mpc(c, s)
    dh = n - 5 + 2 * (z * (3 * z * z - 1) / (z ** 3 - z - 1)).real
    return h, dh


def full_precision_root(newton_step, value_ball, lo: float, hi: float,
                        precision_bits: int) -> RealBall:
    """roots.sign_change_root with no precision ladder: every Newton step
    runs at precision_bits + GUARD_BITS until |step| < eps."""
    e = precision_bits + GUARD_BITS // 2
    with mp.workprec(precision_bits + GUARD_BITS):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        t, tol = (lo + hi) / 2, mp.ldexp(1, -e)
        try:
            for _ in range(100):
                step = newton_step(t)
                t -= step
                if abs(step) < tol:
                    break
        except ZeroDivisionError:
            raise IsolationError("derivative vanished during Newton") from None
        if not lo <= t <= hi:
            raise IsolationError("Newton left the bracket")
        k = int(mp.nint(mp.ldexp(t, e)))
        below = value_ball(mp.ldexp(k - 1, -e))
        above = value_ball(mp.ldexp(k + 1, -e))
        if not ((below.is_negative() and above.is_positive())
                or (below.is_positive() and above.is_negative())):
            raise IsolationError(f"no certified sign change around {mp.nstr(t, 17)}")
        return RealBall(mp.ldexp(k, -e), tol)


# -- the dense oracle: circle roots and eta of any reciprocal polynomial ----
#
# For monic reciprocal p of degree 2m, G(t) := Re(e^(-imt) p(e^(it))) is a
# real trigonometric polynomial whose zeros in (0, pi) are exactly the
# arguments of the upper-half-plane circle roots.  These functions
# evaluate p densely; the tests compare the phase roots against them.


def circle_root_brackets(p: IntPoly, expected: int
                         ) -> list[tuple[float, float]]:
    """Float brackets in (0, pi) where G changes sign, in increasing order.

    The grid has 64m points; a grid 4 times finer is tried, five grids in
    all, until `expected` sign changes are found (Salem candidates have
    m - 1 of them); IsolationError if they never are.
    """
    if p.degree % 2 != 0 or not p.is_reciprocal() or not p.is_monic():
        raise ValueError("circle scan expects a monic reciprocal even-degree input")
    import numpy as np  # only this grid needs numpy, a test-only dependency
    m = p.degree // 2
    coeffs = np.array(p.coeffs, dtype=np.float64)
    grid_factor = 64
    for _ in range(5):
        thetas = np.linspace(0.0, np.pi, grid_factor * m + 2)[1:-1]
        z = np.exp(1j * thetas)
        vals = np.zeros_like(z)
        for c in coeffs[::-1]:
            vals = vals * z + c
        sign = np.sign(np.real(vals * np.exp(-1j * m * thetas)))
        idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        brackets = [(thetas[i], thetas[i + 1]) for i in idx]
        if len(brackets) == expected:
            return brackets
        grid_factor *= 4
    raise IsolationError(
        f"found {len(brackets)} circle-root brackets, expected {expected}")


def circle_root(p: IntPoly, lo: float, hi: float,
                precision_bits: int) -> RealBall:
    """The argument in the bracket [lo, hi] of a circle root of p,
    certified by a sign change of G."""
    m = p.degree // 2
    c = p.coeffs[m:]                   # c_(m+j) = c_(m-j): p is reciprocal

    def newton_step(t):
        # G = c_m + 2 sum c_(m+j) cos(jt), G' = -2 sum j c_(m+j) sin(jt),
        # both by Clenshaw's recurrence in real arithmetic
        cos_t, sin_t = mp.cos_sin(t)
        two_cos = 2 * cos_t
        u1 = u2 = v1 = v2 = 0
        for j in range(m, 0, -1):
            u1, u2 = c[j] + two_cos * u1 - u2, u1
            v1, v2 = j * c[j] + two_cos * v1 - v2, v1
        return (c[0] + 2 * (cos_t * u1 - u2)) / (-2 * sin_t * v1)

    def value_ball(x):
        z = polar_ball(1, as_real_ball(x), precision_bits)
        u = polar_ball(1, as_real_ball(mp.fmul(-m, x, exact=True)), precision_bits)
        w = eval_ball(p, z) * u
        return RealBall(w.mid.real, w.radius)

    return sign_change_root(newton_step, value_ball, lo, hi, precision_bits)


def circle_root_arguments(p: IntPoly, precision_bits: int,
                          expected: int) -> list[RealBall]:
    """Arguments theta in (0, pi) of the circle roots of reciprocal p,
    as disjoint certified real balls in increasing order; conjugate roots
    at -theta are implied.  `expected` is as in circle_root_brackets.
    """
    out = [circle_root(p, lo, hi, precision_bits)
           for lo, hi in circle_root_brackets(p, expected)]
    if any(not a.hi < b.lo for a, b in zip(out, out[1:])):
        raise IsolationError("circle-root balls overlap; retry with higher precision")
    return out


def salem_eta(p: IntPoly, precision_bits: int) -> RealBall:
    """The unique real root > 1 of a Salem-pattern polynomial, certified.

    Works at any degree: a float bisection on (1, Fujiwara bound) brackets
    it and sign_change_root certifies it.
    """
    def scaled(x: float) -> float:
        # x^-deg p(x) has the sign of p(x) and does not overflow for x > 1
        y, acc = 1.0 / x, 0.0
        for c in p.coeffs:
            acc = acc * y + c
        return acc

    lo, hi = 1.0 + 2.0 ** -16, _fujiwara_bound(p) + 1.0
    if not scaled(lo) < 0 < scaled(hi):
        raise NotSalemError("no sign change on (1, bound): not a Salem pattern")
    while hi - lo > 2.0 ** -20:
        mid = (lo + hi) / 2
        if scaled(mid) < 0:
            lo = mid
        else:
            hi = mid
    dp = p.derivative()

    def value_ball(x):
        v = eval_ball(p, ComplexBall(mp.mpc(x), mp.mpf(0), precision_bits))
        return RealBall(v.mid.real, v.radius)

    return sign_change_root(lambda t: _horner(p.coeffs, t) / _horner(dp.coeffs, t),
                            value_ball, lo, hi, precision_bits)


def _check_salem_shape(phi: IntPoly) -> int:
    if phi.is_zero() or not phi.is_monic() or phi.degree % 2 != 0 \
            or not phi.is_reciprocal():
        raise NotSalemInput("not a monic reciprocal even-degree polynomial")
    return phi.degree // 2


def scan_siegel_roots(phi: IntPoly, precision_bits: int = 256
                      ) -> tuple[list[CircleRoot], list[CircleRoot]]:
    """Partition all circle roots of phi by branch classification.

    The dense oracle that the tests compare mcmullen.witness_roots
    against: it certifies every circle root of any Salem-shaped phi by
    circle_root_arguments.  Returns (siegel, nonsiegel) lists, closed
    under conjugation: the conjugate of the root at index i is at -i.
    Raises NoSiegelRoot when no certified Siegel branch exists (signals
    an invalid n or insufficient precision).
    """
    m = _check_salem_shape(phi)
    salem_eta(phi, 64)  # raises NotSalemError when the eta bracket is absent
    thetas = circle_root_arguments(phi, precision_bits, expected=m - 1)
    siegel, nonsiegel = [], []
    for i, th in enumerate(thetas):
        root = CircleRoot.from_theta(th, precision_bits, index=i + 1)
        bucket = siegel if _branch_class(root.w) == "siegel" else nonsiegel
        bucket.append(root)
        bucket.append(CircleRoot.from_theta(two_pi_ball(precision_bits) - th,
                                            precision_bits, -root.index))
    if not siegel:
        raise NoSiegelRoot(f"no Siegel-compatible circle root among {m - 1} candidates")
    return siegel, nonsiegel
