"""Multiplicatively independent unit-circle algebraic integers.

The sequence is grown two entries at a time: pick the smallest k with
q = d(k) = 180k + 7 prime and strictly larger than the accumulated field
degree bound, take the eigenvalue pair (alpha, beta) of the Salem factor
of E_{n(k)} with n(k) = 360k + 19 at a Siegel root, and append it.  The
prime-degree certificates (q prime, q = deg r, q > bound) carry the
independence argument; an LLL-based integer-relation search over the
scaled-argument lattice provides numeric falsification evidence on top.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .coxeter import cyclotomic_part, salem_factor
from .mcmullen import IntegralityCertificate, NoSiegelRoot, mcmullen_data
from .roots import (GUARD_BITS, ComplexBall, RealBall, Report, as_real_ball,
                    int_combination, turns_mod1)


class PrecisionTooLow(ValueError):
    """Argument radii too coarse for the requested relation bound."""

    def __init__(self, message: str, required_bits: int):
        super().__init__(message)
        self.required_bits = required_bits


class DegreeCertificateFailure(RuntimeError):
    """deg phi (= 2 deg r) is not 2q, q = 180k + 7, for the chosen k."""


class WitnessFailure(RuntimeError):
    """A required Siegel or non-Siegel witness root could not be certified."""


class IndependenceFalsified(RuntimeError):
    """The relation search verified a candidate relation: an internal bug."""


# -- deterministic primality for desk-sized integers --------------------

_SPSP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12, the smallest strong pseudoprime to all 12 bases (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_SPSP_VALID_BELOW = 318_665_857_834_031_151_167_461


def _is_strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> tuple[bool, dict]:
    """Deterministic primality with a serializable witness record.

    Divisibility by the first 12 primes, then strong probable-prime tests
    to those 12 bases: a failing base proves n composite at any size, and
    passing all 12 proves n prime below psi_12.  At or above psi_12 a
    candidate that passes them all has no primality proof: ValueError.
    """
    if n < 2:
        return False, {"method": "trivial", "detail": "n < 2"}
    for a in _SPSP_BASES:
        if n % a == 0:
            return n == a, {"method": "trial_division", "factor": a}
    for a in _SPSP_BASES:
        if not _is_strong_probable_prime(n, a):
            return False, {"method": "strong_pseudoprime", "witness_base": a}
    if n >= _SPSP_VALID_BELOW:
        raise ValueError(
            f"{n} is a strong probable prime to all {len(_SPSP_BASES)} bases "
            f"but not below psi_12 = {_SPSP_VALID_BELOW}, where that test "
            f"stops being a proof; no primality proof is implemented there")
    return True, {"method": "strong_pseudoprime", "bases": list(_SPSP_BASES)}


def d_of(k: int) -> int:
    return 180 * k + 7


def n_of(k: int) -> int:
    return 360 * k + 19


# -- exact-integer LLL over the scaled-argument lattice -----------------


def lll_reduce(rows: list[list[int]]
               ) -> tuple[list[list[int]], list[Fraction]]:
    """Integral LLL (Cohen, Alg. 2.6.7), delta = 99/100; returns (basis, B*).

    Keeps d[i] = det Gram(b_0..b_{i-1}) and lam[i][j] = d[j+1] mu[i][j],
    both integers.  Row i's d and lam are built from inner products with
    the current basis when k first reaches it (k_max is the last row
    built), and size reduction and swaps update them in place, a swap only
    over rows up to k_max.  Row k is fully size-reduced before its Lovasz
    test, and mu is rounded half to even, so the reduced basis is the one a
    Gram-Schmidt recomputation after every step would give.  A dependent
    row raises ValueError when first reached.  B*_i = d[i+1] / d[i].
    """
    b = [[int(x) for x in row] for row in rows]
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    k, k_max = 0, -1
    while k < n:
        if k > k_max:
            k_max = k
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for l in range(j):
                    u = (d[l + 1] * u - lam[k][l] * lam[j][l]) // d[l]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise ValueError("lattice rows are linearly dependent")
                else:
                    d[k + 1] = u
            if k == 0:
                k = 1
                continue
        for j in range(k - 1, -1, -1):
            q, r = divmod(lam[k][j], d[j + 1])     # d > 0, so 0 <= r < d
            if 2 * r > d[j + 1] or (2 * r == d[j + 1] and q % 2):
                q += 1
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lam[k][j] -= q * d[j + 1]
                for l in range(j):
                    lam[k][l] -= q * lam[j][l]
        # Lovasz condition B_k >= (99/100 - mu^2) B_{k-1}, times d[k] d[k-1]
        lk = lam[k][k - 1]
        num = d[k + 1] * d[k - 1] + lk * lk
        if 100 * num >= 99 * d[k] * d[k]:
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        new_dk = num // d[k]
        for i in range(k + 1, k_max + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (new_dk * t + lk * lam[i][k]) // d[k + 1]
        d[k] = new_dk
        k = max(k - 1, 1)
    return b, [Fraction(d[i + 1], d[i]) for i in range(n)]


# -- relation search ----------------------------------------------------

_AUDIT_NOTES = (
    "numeric relation search is falsification evidence, not proof",
    "independence is guaranteed by the prime-degree extension certificates; "
    "this search exists to catch implementation bugs",
)


@dataclass(frozen=True)
class RelationReport(Report):
    """Outcome of the integer-relation search over argument turn fractions."""

    arguments: tuple[RealBall, ...]
    bound: int
    precision_bits: int
    outcome: str                      # "no_relation" | "candidate"
    exponents: Optional[tuple[int, ...]] = None
    residual: Optional[RealBall] = None
    gap: Optional[str] = None         # certified lower bound on any residual
    notes: tuple[str, ...] = _AUDIT_NOTES


def _residual_ball(args: list[RealBall], m, precision_bits: int) -> RealBall:
    """Distance of sum(m_i theta_i) from the nearest integer, as a ball."""
    with mp.workprec(precision_bits + GUARD_BITS):
        t = turns_mod1(int_combination(m, args), precision_bits)
    return (t if t.mid < 0.5 else 1 - t).abs_ball()


def relation_search(arguments, bound: int, precision_bits: int) -> RelationReport:
    """LLL search for integer relations sum(m_i theta_i) in Z, |m_i| <= bound.

    Builds the lattice spanned by (e_i, round(2^p theta_i)) and (0, 2^p),
    reduces it, re-verifies short candidates at doubled working precision,
    and otherwise certifies a residual gap from the minimal Gram-Schmidt
    norm of the reduced basis.  A candidate whose residual is below
    2^-(p/4) but not below the chance level raises PrecisionTooLow.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    with mp.workprec(2 * precision_bits + GUARD_BITS):
        args = [as_real_ball(a) for a in arguments]
        if not args:
            raise ValueError("need at least one argument")
        n = len(args)
        for a in args:
            if not (0 <= a.mid < 1):
                raise ValueError("arguments must be turn fractions in [0, 1)")
        max_rad = max(a.rad for a in args)
        if max_rad > mp.mpf(2) ** (-precision_bits):
            needed = int(-mp.floor(mp.log(max_rad, 2)))
            raise PrecisionTooLow(
                f"argument radius 2^{mp.nstr(mp.log(max_rad, 2), 5)} exceeds "
                f"2^-{precision_bits}; recompute arguments at >= {needed} bits "
                f"or search at lower precision", needed)
        scale = mp.mpf(2) ** precision_bits
        t = [int(mp.nint(a.mid * scale)) for a in args]

    rows = [[1 if j == i else 0 for j in range(n)] + [t[i]] for i in range(n)]
    rows.append([0] * n + [1 << precision_bits])
    reduced, b_norms = lll_reduce(rows)

    cands = []
    for v in reduced:
        m = tuple(v[:n])
        if any(m) and all(abs(x) <= bound for x in m):
            cands.append(m)
    # at low p one of the (2 bound + 1)^n exponent vectors comes within
    # 2^-(p/4) of a relation by chance; within 2^-chance_bits, once in 2^20
    threshold = mp.mpf(2) ** (-(precision_bits // 4))
    chance_bits = 20 + n * math.log2(2 * bound + 1)
    for m in sorted(set(cands), key=lambda m: sum(x * x for x in m)):
        if next(x for x in m if x) < 0:
            m = tuple(-x for x in m)
        res = _residual_ball(args, m, 2 * precision_bits)
        if res.hi < threshold:
            if res.hi >= mp.mpf(2) ** -chance_bits:
                needed = 4 * math.ceil(chance_bits)   # 2^-(p/4) <= level
                raise PrecisionTooLow(
                    f"residual of exponents {m} is below "
                    f"2^-{precision_bits // 4} but not below the chance level "
                    f"2^-{chance_bits:.1f}; search at >= {needed} bits", needed)
            return RelationReport(arguments=tuple(args), bound=bound,
                                  precision_bits=precision_bits,
                                  outcome="candidate", exponents=m, residual=res)

    # gap certificate: any nonzero lattice vector has norm >= min |b*_i|,
    # so every |m_i| <= bound relation has residual above `gap`, here in
    # exact arithmetic with the square root rounded down
    tail = min(b_norms) - n * bound * bound
    rad = Fraction(*mp.libmp.to_rational(max_rad._mpf_))
    slack = n * bound * (Fraction(1, 2) + rad * 2 ** precision_bits)
    k = 2 * precision_bits + GUARD_BITS     # bits of the square root
    root = Fraction(math.isqrt(int(max(tail, 0) * 4 ** k)), 2 ** k)
    gap = (root - slack) / 2 ** precision_bits
    if gap <= 0:
        raise PrecisionTooLow(
            "reduced lattice too short to certify absence of relations "
            f"at bound {bound}; raise the search precision",
            2 * precision_bits)
    return RelationReport(arguments=tuple(args), bound=bound,
                          precision_bits=precision_bits,
                          outcome="no_relation", gap=_str_down(gap, 10))


def _str_down(x: Fraction, digits: int) -> str:
    """x > 0 rounded toward zero to `digits` significant digits, written
    as mp.nstr writes it."""
    e = len(str(x.numerator)) - len(str(x.denominator))
    if x < Fraction(10) ** e:         # now 10^e <= x < 10^(e+1)
        e -= 1
    unit = Fraction(10) ** (e + 1 - digits)
    down = math.floor(x / unit) * unit
    return mp.nstr(mp.make_mpf(mp.libmp.from_rational(
        down.numerator, down.denominator, 4 * digits + 64,
        mp.libmp.round_nearest)), digits)


# -- the sequence and its growth ----------------------------------------


@dataclass(frozen=True)
class MAUEntry(Report):
    """One unit-circle value with its provenance and argument bookkeeping.

    source_n names the Salem factor phi of E_n (coxeter.salem_factor),
    the minimal polynomial of the product alpha*beta; the entry itself
    generates a degree <= 2 extension of that field.
    """

    value: ComplexBall
    argument_turns: RealBall
    source_n: int
    role: str                         # "alpha" | "beta"


@dataclass(frozen=True)
class ExtensionCertificate(Report):
    k: int
    n: int
    q: int
    primality_witness: dict
    degree_bound_before: int
    q_exceeds_bound: bool
    deg_phi: int
    deg_r: int
    cyclotomic_degree: int
    siegel_witness_theta: RealBall
    nonsiegel_witness_theta: RealBall
    nonsiegel_ratio: RealBall         # certified |alpha'/beta'| != 1
    integrality: IntegralityCertificate
    note: str = ("smallest admissible k; geometric realizability of the "
                 "source surface is recorded, not enforced")


@dataclass(frozen=True)
class MAUSequence(Report):
    """Immutable certified sequence; extension returns a new value."""

    entries: tuple[MAUEntry, ...] = ()
    degree_bound: int = 1
    certificates: tuple[ExtensionCertificate, ...] = ()
    relation_audit: Optional[RelationReport] = None
    precision_bits: int = 512

    def __len__(self) -> int:
        return len(self.entries)

    def arguments(self) -> list[RealBall]:
        return [e.argument_turns for e in self.entries]

    def truncate(self, length: int) -> "MAUSequence":
        """Keep the first `length` entries; source certificates are retained."""
        if not 0 <= length <= len(self.entries):
            raise ValueError("length out of range")
        return replace(self, entries=self.entries[:length])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def _cball_from_json(data: dict, source) -> ComplexBall:
    prec, = json_fields(data, source, precision_bits=int)
    re, im, rad = _ball_decimals(data, source, prec, "re", "im")
    return ComplexBall(mp.make_mpc((re._mpf_, im._mpf_)), rad, prec)


def _ball_decimals(data, source, prec: int, *keys: str) -> list:
    """A stored ball's decimals at keys and "radius" as mpfs, parsed at
    max(2 prec, 4 len(first)) + GUARD_BITS bits; ValueError naming source
    unless 1 <= prec <= 2^20, every value is an ASCII decimal
    [+-]d+(.d+)?(e[+-]d+)? and the radius >= 0."""
    keys += ("radius",)
    texts = json_fields(data, source, **dict.fromkeys(keys, str))
    if not 1 <= prec <= 1 << 20:
        raise ValueError(f"{source}: precision_bits {prec} is not in [1, 2^20]")
    if all(re.fullmatch(r"[+-]?\d+(\.\d+)?(e[+-]?\d+)?", t, re.ASCII)
           for t in texts):
        with mp.workprec(max(2 * prec, 4 * len(texts[0])) + GUARD_BITS):
            values = [mp.mpf(t) for t in texts]
        if values[-1] >= 0:
            return values
    raise ValueError(f"{source}: ball {dict(zip(keys, texts))} needs "
                     f"finite decimals and a radius >= 0")


def json_fields(data, source, **kinds) -> tuple:
    """The values of the keys in the parsed JSON object data, each key
    named with its JSON kind (int, str, list or dict; a bool is no int),
    or ValueError naming source and the first key that is missing or of
    another kind."""
    for key, kind in kinds.items():
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"{source}: missing key {key!r}")
        if type(data[key]) is not kind:
            raise ValueError(f"{source}: key {key!r} must be of kind "
                             f"{kind.__name__}, not {type(data[key]).__name__}")
    return tuple(data[key] for key in kinds)


def load_sequence(path) -> MAUSequence:
    """Rebuild a sequence from its JSON dump.

    Entries round-trip.  Extension certificates and the relation audit are
    not read, so the sequence carries neither: re-run the build to
    re-derive them, and run relation_search where independence evidence
    is needed.
    """
    with open(path) as fh:
        data = json.load(fh)
    prec, raw, bound = json_fields(data, path, precision_bits=int,
                                   entries=list, degree_bound=int)
    entries = []
    for e in raw:
        value, turns, n, role = json_fields(
            e, path, value=dict, argument_turns=dict, source_n=int, role=str)
        entries.append(MAUEntry(value=_cball_from_json(value, path),
                                argument_turns=RealBall(*_ball_decimals(
                                    turns, path, prec, "mid")),
                                source_n=n, role=role))
    return MAUSequence(entries=tuple(entries), degree_bound=bound,
                       precision_bits=prec)


def _source_pair(seq: MAUSequence, fact, precision_bits: int, *, k: int,
                 q: int, witness: dict, q_exceeds_bound: bool,
                 note: str = ExtensionCertificate.note) -> MAUSequence:
    """seq extended by the (alpha, beta) entries of source n = fact.n and
    their certificate, without a relation audit.

    fact is the factorization of E_n; one Siegel and one non-Siegel root
    are certified (mcmullen_data), and |alpha'/beta'| must be certified
    != 1.
    """
    n = fact.n
    try:
        data = mcmullen_data(n, precision_bits)
    except NoSiegelRoot as exc:
        raise WitnessFailure(str(exc)) from exc
    ratio = data.ratio_prime
    if not (ratio.lo > 1 or ratio.hi < 1):
        raise WitnessFailure("no certified |alpha'/beta'| != 1 witness")
    cert = ExtensionCertificate(
        k=k, n=n, q=q, primality_witness=witness,
        degree_bound_before=seq.degree_bound, q_exceeds_bound=q_exceeds_bound,
        # phi is monic reciprocal (as E_n and each Phi_d are) of even
        # degree (salem_factor checks it), so its trace polynomial r has
        # degree deg phi / 2
        deg_phi=fact.degree, deg_r=fact.degree // 2,
        cyclotomic_degree=n - fact.degree,
        siegel_witness_theta=data.delta.theta,
        nonsiegel_witness_theta=data.delta_prime.theta,
        nonsiegel_ratio=ratio, integrality=data.certificate, note=note)
    pair = (MAUEntry(value=data.alpha, argument_turns=data.alpha_arg_turns,
                     source_n=n, role="alpha"),
            MAUEntry(value=data.beta, argument_turns=data.beta_arg_turns,
                     source_n=n, role="beta"))
    return MAUSequence(entries=seq.entries + pair,
                       degree_bound=seq.degree_bound * 2 * fact.degree,
                       certificates=seq.certificates + (cert,),
                       precision_bits=precision_bits)


def mau_extend(seq: MAUSequence, precision_bits: int = 512) -> MAUSequence:
    """Append the (alpha, beta) pair of the next admissible prime degree.

    Selects the smallest k with q = 180k + 7 prime and q > seq.degree_bound,
    verifies that E_n splits as E_19 does, Phi_2 Phi_5 phi (so
    deg phi = n - 5 = 360k + 14 and deg r = deg phi / 2 = q), and
    certifies one Siegel and one non-Siegel root.  The result carries no
    relation audit: the builder audits the finished sequence once.
    """
    k = max(1, (seq.degree_bound - 7) // 180 + 1)   # the first k with q > bound
    while True:
        q = d_of(k)
        prime, witness = is_prime(q)
        if prime:
            break
        k += 1
    n = n_of(k)

    fact = salem_factor(n)
    if fact.cyclotomic_part != cyclotomic_part(19):
        raise DegreeCertificateFailure(
            f"cyclotomic part of E_{n} deviates from the residue-19 pattern")

    return _source_pair(seq, fact, precision_bits, k=k, q=q, witness=witness,
                        q_exceeds_bound=q > seq.degree_bound)


def _audited(seq: MAUSequence, relation_bound: int) -> MAUSequence:
    """seq with one joint relation audit over all its entries.

    It covers every prefix too: a relation among a prefix is a relation
    of the whole sequence with zero exponents appended.
    """
    audit = relation_search(seq.arguments(), relation_bound,
                            seq.precision_bits)
    if audit.outcome == "candidate":
        raise IndependenceFalsified(
            f"verified relation {audit.exponents} among the arguments of "
            f"the sequence")
    return replace(seq, relation_audit=audit)


def mau_build(length: int, precision_bits: int = 512,
              relation_bound: int = 32) -> MAUSequence:
    """Sequence of `length` certified entries (length even, >= 2)."""
    if length < 2 or length % 2 != 0:
        raise ValueError("length must be an even integer >= 2")
    seq = MAUSequence(precision_bits=precision_bits)
    for _ in range(length // 2):
        seq = mau_extend(seq, precision_bits)
    return _audited(seq, relation_bound)


def mau_seed(ns: list[int], precision_bits: int = 512,
             relation_bound: int = 32) -> MAUSequence:
    """Sequence from explicitly chosen source indices n.

    Unlike mau_build, the q > degree_bound growth guarantee may fail and
    is recorded honestly; joint independence rests on the relation audit
    alone.  Useful for pairing small named sources with toric factors.
    """
    seq = MAUSequence(precision_bits=precision_bits)
    for n in ns:
        if n % 6 != 1:
            raise ValueError(f"unsupported source index {n}")
        fact = salem_factor(n)
        q = fact.degree // 2      # deg r of the trace polynomial
        prime, witness = is_prime(q)
        seq = _source_pair(
            seq, fact, precision_bits, k=(n - 19) // 360, q=q, witness=witness,
            q_exceeds_bound=prime and q > seq.degree_bound,
            note="explicitly seeded source; growth guarantee not certified")
    return _audited(seq, relation_bound)
