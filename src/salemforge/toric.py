"""Complete nonsingular fans and torus-element fixed-point data.

A fan is stored by its maximal cones only and is well-shaped by
construction: dim >= 1 and every cone a dim x dim matrix of primitive
rays.  One exact kernel serves the certificate and the fixed points: the
cofactor matrix C of a cone's generators m has m C^T = det(m) I, so row k
of C is the normal of the facet omitting ray k; smoothness is |det m| = 1
and the dual basis is K = det(m) C.  Completeness is certified
combinatorially: every facet is shared by exactly two cones lying on
opposite sides of it, and the facet-adjacency graph is connected.  A
torus element is stored by the arguments theta_i of its coordinates
a_i = e^(2 pi i theta_i), so |a_i| = 1 holds by representation and the
eigenvalues at each fixed point are integer linear algebra on the
arguments, mod 1.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import mpmath as mp

from .mau import MAUSequence, RelationReport, json_fields
from .roots import (GUARD_BITS, RealBall, Report, as_real_ball,
                    int_combination, turns_mod1)

IntMatrix = tuple[tuple[int, ...], ...]


class FanError(ValueError):
    """Fan data violates a named shape, smoothness or completeness condition."""


class IndependenceEvidenceMissing(ValueError):
    """Fixed-point enumeration refused: no certified independence audit."""


def det_int(m) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss);
    the empty matrix has determinant 1."""
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
    return sign * a[-1][-1] if n else 1


def _cofactors(m: IntMatrix) -> IntMatrix:
    """C[i][j] = (-1)^(i+j) det(m without row i and column j), exactly.

    Row k of C is normal to every row of m but row k, C[k] . m[k] = det m
    (Laplace expansion), and m C^T = det(m) I.
    """
    n = len(m)
    return tuple(tuple((-1) ** (i + j) * det_int(
        [r[:j] + r[j + 1:] for t, r in enumerate(m) if t != i])
        for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class Cone:
    """Maximal cone given by the primitive generators of its rays (rows)."""

    generators: IntMatrix

    def __post_init__(self):
        g = self.generators
        if not (isinstance(g, (list, tuple)) and all(
                isinstance(r, (list, tuple)) and len(r) == len(g)
                and all(type(x) is int for x in r) for r in g)):
            raise FanError(f"cone {g!r} is not a square matrix of integers")
        object.__setattr__(self, "generators", tuple(map(tuple, g)))
        for row in self.generators:
            if math.gcd(*row) != 1:
                raise FanError(f"non-primitive ray {row}")

    @property
    def dim(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class Fan:
    """A fan by its maximal cones; dim >= 1 and every cone is dim x dim."""

    dim: int
    max_cones: tuple[Cone, ...]

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise FanError(f"dim must be an integer >= 1, not {self.dim!r}")
        if not isinstance(self.max_cones, (list, tuple)):
            raise FanError("max_cones must be a list of cones")
        cones = tuple(c if isinstance(c, Cone) else Cone(c)
                      for c in self.max_cones)
        if any(c.dim != self.dim for c in cones):
            raise FanError(f"every cone of a dim {self.dim} fan must be "
                           f"{self.dim} x {self.dim}")
        object.__setattr__(self, "max_cones", cones)

    @classmethod
    def from_json(cls, data) -> "Fan":
        return cls(*json_fields(data, "fan data", dim=int, max_cones=list))

    def to_json(self) -> dict:
        return {"dim": self.dim,
                "max_cones": [[list(r) for r in c.generators]
                              for c in self.max_cones]}

    @property
    def n_cones(self) -> int:
        return len(self.max_cones)


def load_fan(source) -> Fan:
    """Fan from a file path, or a shipped example by bare name ('plane')."""
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
    sides of the facet, and the adjacency graph is connected.  Cofactor
    row k, the normal of the facet omitting ray k, gives det on ray k; on
    the ray the neighbouring cone omits it must give a nonzero value of
    the opposite sign.  In dimension 1 the one facet is the origin.
    """
    failures: list[str] = []
    d, dets = fan.dim, []
    facets: dict[frozenset, list[tuple]] = {}
    for p, cone in enumerate(fan.max_cones):
        rows, cof = cone.generators, _cofactors(cone.generators)
        dets.append(sum(a * b for a, b in zip(cof[0], rows[0])))
        if abs(dets[p]) != 1:
            failures.append(f"cone {p}: smoothness failure, det = {dets[p]}")
        for k in range(d):
            facet = frozenset(rows[:k] + rows[k + 1:])
            facets.setdefault(facet, []).append((p, rows[k], cof[k], dets[p]))
    if fan.n_cones < d + 1:
        failures.append(f"completeness failure: {fan.n_cones} cones < dim+1")

    adjacency: dict[int, set[int]] = {p: set() for p in range(fan.n_cones)}
    for facet, members in facets.items():
        if len(members) != 2:
            failures.append(
                f"completeness failure: facet {sorted(facet)} lies in "
                f"{len(members)} cones, expected 2")
            continue
        (p, _, normal, own), (q, v, _, _) = members
        other = sum(a * b for a, b in zip(normal, v))
        if own == 0 or other == 0 or (own > 0) == (other > 0):
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
                          failures=tuple(failures), cone_dets=tuple(dets),
                          n_facets=len(facets))


def dual_bases(fan: Fan) -> list[IntMatrix]:
    """K(p) = det(p) C(p) per maximal cone, C the cofactor matrix: rows
    are the dual Z-basis exponent vectors, generators(p) . K(p)^T = I
    exactly as smoothness makes det(p) = +-1."""
    cert = check_fan(fan)
    if not cert.passed:
        raise FanError("fan rejected: " + cert.failures[0])
    return [tuple(tuple(dt * x for x in row) for row in _cofactors(c.generators))
            for c, dt in zip(fan.max_cones, cert.cone_dets)]


# -- torus elements and fixed points ------------------------------------


@dataclass(frozen=True)
class TorusElement(Report):
    """Point of the compact torus, stored by coordinate arguments (turns)."""

    dim: int
    arguments: tuple[RealBall, ...]
    provenance: tuple[str, ...]

    def __post_init__(self):
        if not len(self.arguments) == len(self.provenance) == self.dim:
            raise ValueError("argument and provenance counts must equal dim")

    @classmethod
    def from_mau(cls, seq: MAUSequence, indices: list[int]) -> "TorusElement":
        es = [seq.entries[i] for i in indices]
        return cls(dim=len(es), arguments=tuple(e.argument_turns for e in es),
                   provenance=tuple(f"mau[{i}]: n={e.source_n} {e.role}"
                                    for i, e in zip(indices, es)))

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


def fixed_points(fan: Fan, a: TorusElement,
                 independence: Optional[RelationReport],
                 precision_bits: int = 256) -> list[ToricFixedPoint]:
    """Exactly one fixed point per maximal cone, with eigenvalue arguments.

    The exact count requires multiplicative independence of the
    coordinates; enumeration refuses unless independence is a no_relation
    search, run by the caller, whose arguments include each of the
    element's distinct coordinates, ball for ball.
    """
    if fan.dim != a.dim:
        raise ValueError("fan and torus element dimensions differ")
    coords = set(a.arguments)
    if not (independence is not None and independence.outcome == "no_relation"
            and len(coords) == a.dim and coords <= set(independence.arguments)):
        raise IndependenceEvidenceMissing(
            "coordinates lack certified multiplicative independence; "
            "supply a no-relation audit over them")
    out = []
    for p, k_mat in enumerate(dual_bases(fan)):
        eig = tuple(turns_mod1(int_combination(row, a.arguments), precision_bits)
                    for row in k_mat)
        out.append(ToricFixedPoint(cone_index=p, dual_basis=k_mat,
                                   eigenvalue_arguments=eig))
    return out
