"""Fixed points of product automorphisms and their Siegel classification.

A product couples surface factors (each contributing the fixed points P
and Q of its birational model, with certified eigenvalue data at Q) with
at most one toric factor (one fixed point per maximal cone).  Any P in
an address makes the point non-Siegel (dependent eigenvalues).  An all-Q
point's arguments are the sequence's under a unimodular map: a surface
pair as it is, the toric ones as K_c theta mod 1 at the point of cone c.
So a relation m there with |m| <= B is the nonzero sequence relation
m' = (m_S, K_c^T m_T) with |m'| <= s B, s = max_c ||K_c^T||_inf, and a
sequence relation m' is m = (m'_S, G_c m'_T) there, as the cone's
generators have G_c K_c^T = I: one relation search over the sequence at
bound s B decides every all-Q point.  Entropy adds over surface factors
and is zero on toric ones.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Union

from .mau import (MAUSequence, RelationReport, relation_search,
                  PrecisionTooLow)
from .mcmullen import IntegralityFailure, integrality_certificate
from .roots import RealBall, Report, as_real_ball, log_ball, phase_eta
from .toric import (Fan, FanError, TorusElement, ToricFixedPoint,
                    fixed_points as toric_fixed_points, load_fan)

SIEGEL = "SiegelArithmetic"
NONSIEGEL = "NonSiegel"
UNDETERMINED = "Undetermined"

_ANALYTIC_NOTE = ("arithmetic classification of the linearization data; "
                  "analytic linearizability at the Siegel points is an "
                  "inherited assumption, not recomputed")


class SpecError(ValueError):
    """Product description violates a structural invariant."""


@dataclass(frozen=True)
class McMullenFactor:
    """One surface factor: fixed points P and Q, eigenvalue data at Q."""

    n: int
    alpha_arg: RealBall          # turn fractions at Q
    beta_arg: RealBall
    entry_indices: tuple[int, int]


@dataclass(frozen=True)
class ToricFactor:
    fan: Fan
    element: TorusElement
    entry_indices: tuple[int, ...]
    fixed: tuple[ToricFixedPoint, ...]


Factor = Union[McMullenFactor, ToricFactor]


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple[Factor, ...]
    joint_mau: MAUSequence
    precision_bits: int

    def to_json(self) -> dict:
        out = []
        for f in self.factors:
            if isinstance(f, McMullenFactor):
                out.append({"type": "mcmullen", "n": f.n,
                            "entries": list(f.entry_indices)})
            else:
                out.append({"type": "toric", "fan": f.fan.to_json(),
                            "entries": list(f.entry_indices)})
        return {"factors": out, "precision_bits": self.precision_bits,
                "mau_length": len(self.joint_mau)}


def build_product_spec(descriptors: list, joint_mau: MAUSequence,
                       precision_bits: int | None = None) -> ProductSpec:
    """Assemble a spec, consuming the sequence entries in order.

    Each descriptor is ("mcmullen", n) or ("toric", fan name or path); a
    surface factor consumes its (alpha, beta) pair, a toric factor of
    dimension d consumes d coordinate entries.  The entries must be used
    up exactly -- the construction requires one coherent sequence.  The
    toric coordinates' independence evidence is a relation search run
    here, at bound 32 and the sequence's precision, as mau_build audits;
    the sequence's stored audit is never read.
    """
    if precision_bits is None:
        precision_bits = joint_mau.precision_bits
    factors: list[Factor] = []
    cursor = 0
    toric_seen = 0
    for desc in descriptors:
        kind = desc[0]
        if kind == "mcmullen":
            n = int(desc[1])
            if cursor + 2 > len(joint_mau):
                raise SpecError("sequence exhausted before all factors filled")
            a, b = joint_mau.entries[cursor], joint_mau.entries[cursor + 1]
            if a.source_n != n or b.source_n != n or (a.role, b.role) != ("alpha", "beta"):
                raise SpecError(
                    f"entries {cursor},{cursor + 1} are not the (alpha, beta) "
                    f"pair of source {n}")
            if not integrality_certificate(n).passed:
                raise IntegralityFailure(
                    f"integrality certificate failed for source n={n}")
            factors.append(McMullenFactor(
                n=n, alpha_arg=a.argument_turns,
                beta_arg=b.argument_turns, entry_indices=(cursor, cursor + 1)))
            cursor += 2
        elif kind == "toric":
            toric_seen += 1
            if toric_seen > 1:
                raise SpecError("at most one toric factor is allowed")
            fan = load_fan(desc[1])
            d = fan.dim
            if cursor + d > len(joint_mau):
                raise SpecError("sequence exhausted before all factors filled")
            idx = tuple(range(cursor, cursor + d))
            element = TorusElement.from_mau(joint_mau, list(idx))
            audit = relation_search(list(element.arguments), 32,
                                    joint_mau.precision_bits)
            try:   # the fan is certified here, once
                fixed = tuple(toric_fixed_points(fan, element, audit,
                                                 precision_bits))
            except FanError as exc:
                raise SpecError(f"toric factor {desc[1]!r}: {exc}") from None
            factors.append(ToricFactor(fan=fan, element=element,
                                       entry_indices=idx, fixed=fixed))
            cursor += d
        else:
            raise SpecError(f"unknown factor type {kind!r}")
    if cursor != len(joint_mau):
        raise SpecError(
            f"sequence has {len(joint_mau)} entries but factors consume "
            f"{cursor}; the coupling must be exact")
    return ProductSpec(factors=tuple(factors), joint_mau=joint_mau,
                       precision_bits=precision_bits)


@dataclass(frozen=True)
class FixedPoint(Report):
    """One fixed point of the product with its classification record."""

    address: tuple            # "P"/"Q" per surface factor, cone index per toric
    eigenvalue_arguments: tuple[RealBall, ...]   # empty when any P is present
    contains_p: bool
    classification: str = UNDETERMINED
    evidence: Optional[dict] = None


def enumerate_fixed_points(spec: ProductSpec) -> list[FixedPoint]:
    """Cartesian product of the per-factor fixed-point sets, in address order."""
    choices = []
    for f in spec.factors:
        if isinstance(f, McMullenFactor):
            choices.append(["P", "Q"])
        else:
            choices.append(list(range(f.fan.n_cones)))
    out = []
    for address in itertools.product(*choices):
        args: list[RealBall] = []
        contains_p = False
        for f, comp in zip(spec.factors, address):
            if isinstance(f, McMullenFactor):
                if comp == "P":
                    contains_p = True
                else:
                    args.extend([f.alpha_arg, f.beta_arg])
            else:
                args.extend(f.fixed[comp].eigenvalue_arguments)
        if contains_p:
            args = []   # eigenvalue data at P is not modeled
        out.append(FixedPoint(address=tuple(address),
                              eigenvalue_arguments=tuple(args),
                              contains_p=contains_p))
    return out


def _point_exponents(spec: ProductSpec, address: tuple, m) -> list[int]:
    """The sequence relation m as (m_S, G_c m_T) at the all-Q address."""
    return [x for f, c in zip(spec.factors, address) for x in (
        [m[i] for i in f.entry_indices] if isinstance(f, McMullenFactor)
        else [sum(g * m[i] for g, i in zip(row, f.entry_indices))
              for row in f.fan.max_cones[c].generators])]


def classify(fp: FixedPoint, spec: ProductSpec,
             search: Union[RelationReport, PrecisionTooLow, None],
             bound: int = 32) -> FixedPoint:
    """Attach a classification from siegel_count's one relation search
    over the sequence (the module docstring says why it decides fp);
    Undetermined is the honest fallback."""
    if fp.contains_p:
        label, evidence = NONSIEGEL, {
            "reason": "address contains a P component"}
    elif not fp.eigenvalue_arguments:
        label, evidence = SIEGEL, {"reason": "empty product, vacuous pass"}
    elif isinstance(search, PrecisionTooLow):
        label, evidence = UNDETERMINED, {
            "reason": str(search),
            "remediation": {"raise_precision_to": search.required_bits}}
    elif search.outcome == "no_relation":
        label, evidence = SIEGEL, {
            "relation_audit": search.to_json(), "bound": bound,
            "on_circle": "by argument representation",
            "algebraic_integers": "certified per source"}
    else:
        label, evidence = NONSIEGEL, {
            "reason": "verified multiplicative relation",
            "relation_audit": search.to_json(), "bound": bound,
            "exponents": _point_exponents(spec, fp.address, search.exponents)}
    return replace(fp, classification=label,
                   evidence={**evidence, "note": _ANALYTIC_NOTE})


def siegel_count(spec: ProductSpec,
                 bound: int = 32) -> tuple[int, list[FixedPoint]]:
    """(number of arithmetic Siegel points, full classified report).

    One relation search over the sequence at bound s B decides every
    all-Q point (module docstring); an empty product runs none.
    Undetermined points appear in the report but are never counted.
    """
    stretch = max((sum(map(abs, col)) for f in spec.factors
                   if isinstance(f, ToricFactor) for p in f.fixed
                   for col in zip(*p.dual_basis)), default=1)
    search = None
    if spec.factors:
        try:
            search = relation_search(spec.joint_mau.arguments(),
                                     bound * stretch, spec.precision_bits)
        except PrecisionTooLow as exc:
            search = exc
    report = [classify(fp, spec, search, bound)
              for fp in enumerate_fixed_points(spec)]
    count = sum(1 for fp in report if fp.classification == SIEGEL)
    return count, report


def product_entropy(spec: ProductSpec,
                    precision_bits: int | None = None) -> RealBall:
    """Sum of log(eta) over surface factors; toric factors contribute 0.

    Each eta is the Salem number of E_n from the Pisot phase (phase_eta),
    so no factor's phi is built or evaluated.  precision_bits is the
    spec's unless given; only perfbench/make_inputs.py gives it.
    """
    if precision_bits is None:
        precision_bits = spec.precision_bits
    mcm = [f for f in spec.factors if isinstance(f, McMullenFactor)]
    if not mcm:
        warnings.warn("no surface factor: entropy is exactly 0 and the "
                      "positivity claims do not apply")
    return sum((log_ball(phase_eta(f.n, precision_bits), precision_bits)
                for f in mcm), as_real_ball(0))
