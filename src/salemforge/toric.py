"""Complete nonsingular fans and torus-element fixed-point data.

A fan is stored by its maximal cones only.  Smoothness is the exact
unimodularity of each generator matrix; completeness is certified
combinatorially: every facet of a maximal cone is shared by exactly two
cones lying on opposite sides of it, and the facet-adjacency graph is
connected.  A torus element is stored by the arguments theta_i of its
coordinates a_i = e^(2 pi i theta_i), so |a_i| = 1 holds by
representation and the linearized eigenvalues at each fixed point are
integer linear algebra on the arguments, mod 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import mpmath as mp

from .mau import MAUSequence, RelationReport, json_fields
from .roots import (GUARD_BITS, RealBall, Report, as_real_ball,
                    int_combination, turns_mod1)

IntMatrix = tuple[tuple[int, ...], ...]


class FanError(ValueError):
    """Fan data violates a named smoothness/completeness condition."""


class IndependenceEvidenceMissing(RuntimeError):
    """Fixed-point enumeration refused: no certified independence audit."""


def det_int(m) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [list(map(int, row)) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _inverse_transpose(m: IntMatrix) -> IntMatrix:
    """Exact inverse-transpose of a unimodular integer matrix."""
    n = len(m)
    d = det_int(m)
    if abs(d) != 1:
        raise FanError(f"matrix is not unimodular, det = {d}")
    # adjugate via cofactor determinants; exact since |det| = 1
    inv = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = det_int(minor) if minor else 1
            inv[j][i] = (-1) ** (i + j) * cof * d
    # inverse-transpose: K with m . K^T = I
    return tuple(tuple(inv[j][i] for j in range(n)) for i in range(n))


def _facet_normal(rays: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Integer normal to the span of d-1 rays in Z^d (generalized cross)."""
    d = len(rays) + 1
    nu = []
    for i in range(d):
        minor = [[r[c] for c in range(d) if c != i] for r in rays]
        nu.append((-1) ** i * (det_int(minor) if minor else 1))
    return tuple(nu)


@dataclass(frozen=True)
class Cone:
    """Maximal cone given by the primitive generators of its rays (rows)."""

    generators: IntMatrix

    def __post_init__(self):
        g = tuple(tuple(int(x) for x in row) for row in self.generators)
        object.__setattr__(self, "generators", g)
        d = len(g)
        if any(len(row) != d for row in g):
            raise FanError("generator matrix must be square")
        for row in g:
            if math.gcd(*row) != 1:
                raise FanError(f"non-primitive ray {row}")

    @property
    def dim(self) -> int:
        return len(self.generators)

    def det(self) -> int:
        return det_int(self.generators)


@dataclass(frozen=True)
class Fan:
    dim: int
    max_cones: tuple[Cone, ...]

    @classmethod
    def from_json(cls, data) -> "Fan":
        if isinstance(data, str):
            data = json.loads(data)
        dim, max_cones = json_fields(data, "fan data", "dim", "max_cones")
        cones = tuple(Cone(tuple(tuple(r) for r in c)) for c in max_cones)
        return cls(dim=int(dim), max_cones=cones)

    def to_json(self) -> dict:
        return {"dim": self.dim,
                "max_cones": [[list(r) for r in c.generators]
                              for c in self.max_cones]}

    @property
    def n_cones(self) -> int:
        return len(self.max_cones)


def load_fan(source) -> Fan:
    """Fan from a file path, or a shipped example by bare name ('plane')."""
    import os
    name = str(source)
    if os.path.exists(name):
        with open(name) as fh:
            data = json.load(fh)
        try:
            return Fan.from_json(data)
        except ValueError as exc:
            raise FanError(f"{name}: {exc}") from None
    stem = name[:-5] if name.endswith(".json") else name
    ref = resources.files("salemforge").joinpath("fans", stem + ".json")
    return Fan.from_json(json.loads(ref.read_text()))


@dataclass(frozen=True)
class FanCertificate(Report):
    dim: int
    n_cones: int
    passed: bool
    failures: tuple[str, ...]
    cone_dets: tuple[int, ...]
    n_facets: int


def check_fan(fan: Fan) -> FanCertificate:
    """Smoothness + completeness audit; failures name the first bad datum.

    Completeness for a pure full-dimensional simplicial fan: every facet
    lies in exactly two maximal cones, the two cones sit on opposite
    sides of the facet, and the adjacency graph is connected.  In
    dimension 1 the one facet is the origin, with normal (1,).
    """
    failures: list[str] = []
    d = fan.dim
    dets = tuple(c.det() for c in fan.max_cones)
    for p, (cone, dt) in enumerate(zip(fan.max_cones, dets)):
        if cone.dim != d:
            failures.append(f"cone {p}: dimension {cone.dim} != fan dim {d}")
        if abs(dt) != 1:
            failures.append(f"cone {p}: smoothness failure, det = {dt}")
    if fan.n_cones < d + 1:
        failures.append(f"completeness failure: {fan.n_cones} cones < dim+1")

    facets: dict[frozenset, list[tuple[int, tuple[int, ...]]]] = {}
    for p, cone in enumerate(fan.max_cones):
        rows = cone.generators
        for omit in range(d):
            facet = frozenset(rows[i] for i in range(d) if i != omit)
            facets.setdefault(facet, []).append((p, rows[omit]))

    adjacency: dict[int, set[int]] = {p: set() for p in range(fan.n_cones)}
    for facet, members in facets.items():
        if len(members) != 2:
            failures.append(
                f"completeness failure: facet {sorted(facet)} lies in "
                f"{len(members)} cones, expected 2")
            continue
        (p, u), (q, v) = members
        nu = _facet_normal(sorted(facet))
        su = sum(a * b for a, b in zip(nu, u))
        sv = sum(a * b for a, b in zip(nu, v))
        if su == 0 or sv == 0 or (su > 0) == (sv > 0):
            failures.append(
                f"interior overlap: cones {p} and {q} on the same side of "
                f"facet {sorted(facet)}")
        adjacency[p].add(q)
        adjacency[q].add(p)

    # connectivity of the facet-adjacency graph
    if fan.n_cones:
        seen, stack = {0}, [0]
        while stack:
            for q in adjacency[stack.pop()]:
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        if len(seen) != fan.n_cones:
            failures.append("completeness failure: facet-adjacency graph "
                            "is disconnected")
    return FanCertificate(dim=d, n_cones=fan.n_cones, passed=not failures,
                          failures=tuple(failures), cone_dets=dets,
                          n_facets=len(facets))


def dual_bases(fan: Fan) -> list[IntMatrix]:
    """K(p) per maximal cone: rows are the dual Z-basis exponent vectors.

    generators(p) . K(p)^T = identity exactly; unimodularity of each K(p)
    is inherited from smoothness.
    """
    cert = check_fan(fan)
    if not cert.passed:
        raise FanError("fan rejected: " + cert.failures[0])
    return [_inverse_transpose(c.generators) for c in fan.max_cones]


def exponent_image(k_matrix: IntMatrix, r) -> tuple[int, ...]:
    """s = r . K; unimodularity guarantees s = 0 only for r = 0."""
    d = len(k_matrix)
    if abs(det_int(k_matrix)) != 1:
        raise FanError("exponent matrix must be unimodular")
    r = tuple(int(x) for x in r)
    if len(r) != d:
        raise ValueError("vector length mismatch")
    return tuple(sum(r[i] * k_matrix[i][j] for i in range(d)) for j in range(d))


# -- torus elements and fixed points ------------------------------------


@dataclass(frozen=True)
class TorusElement(Report):
    """Point of the compact torus, stored by coordinate arguments (turns)."""

    dim: int
    arguments: tuple[RealBall, ...]
    provenance: tuple[str, ...]

    def __post_init__(self):
        if len(self.arguments) != self.dim:
            raise ValueError("argument count must equal dim")
        if len(self.provenance) != self.dim:
            raise ValueError("provenance count must equal dim")

    @classmethod
    def from_mau(cls, seq: MAUSequence, indices: list[int]) -> "TorusElement":
        args, prov = [], []
        for i in indices:
            e = seq.entries[i]
            args.append(e.argument_turns)
            prov.append(f"mau[{i}]: n={e.source_n} {e.role}")
        return cls(dim=len(indices), arguments=tuple(args),
                   provenance=tuple(prov))

    @classmethod
    def explicit(cls, arguments, precision_bits: int = 256) -> "TorusElement":
        with mp.workprec(precision_bits + GUARD_BITS):
            args = tuple(as_real_ball(a) for a in arguments)
        return cls(dim=len(args), arguments=args,
                   provenance=tuple("explicit" for _ in args))


@dataclass(frozen=True)
class ToricFixedPoint(Report):
    """The torus-fixed point of one maximal cone with linearized data."""

    cone_index: int
    dual_basis: IntMatrix
    eigenvalue_arguments: tuple[RealBall, ...]   # theta . K_i mod 1


def _has_independence_evidence(a: TorusElement,
                               audit: Optional[RelationReport]) -> bool:
    if audit is not None:
        return audit.outcome == "no_relation" and len(audit.arguments) >= a.dim
    return all(p.startswith("mau[") for p in a.provenance)


def fixed_points(fan: Fan, a: TorusElement,
                 independence: Optional[RelationReport] = None,
                 precision_bits: int = 256) -> list[ToricFixedPoint]:
    """Exactly one fixed point per maximal cone, with eigenvalue arguments.

    The exact count requires multiplicative independence of the
    coordinates; enumeration refuses without a passing relation audit or
    full sequence provenance.
    """
    if fan.dim != a.dim:
        raise ValueError("fan and torus element dimensions differ")
    if not _has_independence_evidence(a, independence):
        raise IndependenceEvidenceMissing(
            "coordinates lack certified multiplicative independence; "
            "supply a no-relation audit or sequence provenance")
    out = []
    for p, k_mat in enumerate(dual_bases(fan)):
        eig = tuple(turns_mod1(int_combination(row, a.arguments), precision_bits)
                    for row in k_mat)
        out.append(ToricFixedPoint(cone_index=p, dual_basis=k_mat,
                                   eigenvalue_arguments=eig))
    return out
