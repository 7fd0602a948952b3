"""Sets whose membership values live in per-point weak Boolean algebras.

A universe is a finite tuple of points. An algebra family assigns one
algebra to each point; a modern set over the family maps each point to an
element of that point's carrier. Union applies each point's vee, with the
left set supplying the left operand (the operations need not commute, so
the order is part of the definition); intersection applies wedge the same
way; complement applies the per-point complement where declared.

The crisp sets are those taking only the values O and I. Embedding a plain
subset that way and checking every pairwise union and intersection against
subset arithmetic verifies that the crisp fragment recovers ordinary set
algebra exactly: the pair stage pins both operations to those of subsets,
so every law of ordinary set algebra follows without a scan over triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Hashable, Iterable, Mapping

from .algebra import AlgebraHandle, Element
from .errors import (
    DomainError,
    IncompatibleFamilyError,
    PreconditionError,
    StructuralError,
    UnsupportedOperationError,
)
from .reporting import LawReport, Verdict, Witness, render_element

Point = Hashable


@dataclass(frozen=True)
class Universe:
    """Finite, ordered collection of distinct points."""

    points: tuple[Point, ...]

    def __post_init__(self):
        if not self.points:
            raise StructuralError("a universe needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise StructuralError("universe points must be distinct")

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point):
        return point in self.points


class AlgebraFamily:
    """One algebra per point. Instances compare by identity.

    Two sets may be combined only when their families are compatible:
    the same family object, or families over equal universes assigning
    the identical algebra object at every point.
    """

    def __init__(
        self,
        universe: Universe,
        assignment: Mapping[Point, AlgebraHandle],
        name: str = "",
    ):
        missing = [x for x in universe.points if x not in assignment]
        if missing:
            raise StructuralError(f"no algebra assigned at point {missing[0]!r}")
        extra = [x for x in assignment if x not in universe]
        if extra:
            raise StructuralError(f"algebra assigned at unknown point {extra[0]!r}")
        self.universe = universe
        self.handles = tuple(assignment[x] for x in universe.points)
        self.position = {x: i for i, x in enumerate(universe.points)}
        self.name = name

    def algebra_at(self, point: Point) -> AlgebraHandle:
        try:
            return self.handles[self.position[point]]
        except KeyError:
            raise DomainError(f"point {point!r} is not in the universe") from None

    def compatible(self, other: "AlgebraFamily") -> bool:
        if self is other:
            return True
        return self.universe == other.universe and all(
            a is b for a, b in zip(self.handles, other.handles)
        )

    def __repr__(self):
        label = self.name or "family"
        return f"AlgebraFamily({label!r}, {len(self.universe)} points)"


def constant_family(points: Iterable[Point], algebra: AlgebraHandle, name: str = "") -> AlgebraFamily:
    """Family assigning the same algebra at every point."""
    universe = Universe(tuple(points))
    return AlgebraFamily(universe, {x: algebra for x in universe.points}, name=name)


class ModernSet:
    """Membership values, one per point, in the order of ``universe.points``.

    Construct through :func:`modern_set`, which validates every value
    against its point's carrier; operations construct results directly and
    check only the freshly computed values. Two sets are equal when their
    families are compatible, as the set operations require, and their
    values agree at every point; the hash depends on the values only.
    """

    __slots__ = ("family", "_values")

    def __init__(self, family: AlgebraFamily, values: tuple[Element, ...]):
        self.family = family
        self._values = values

    @property
    def membership(self) -> Mapping[Point, Element]:
        return MappingProxyType(dict(zip(self.family.universe.points, self._values)))

    def value_at(self, point: Point) -> Element:
        i = self.family.position.get(point)
        if i is None:
            raise DomainError(f"point {point!r} is not in the universe")
        return self._values[i]

    def __eq__(self, other):
        if not isinstance(other, ModernSet):
            return NotImplemented
        return self.family.compatible(other.family) and self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __or__(self, other):
        return union(self, other)

    def __and__(self, other):
        return intersection(self, other)

    def __invert__(self):
        return complement(self)

    def issubset(self, other: "ModernSet") -> bool:
        return contains(other, self)

    def describe(self) -> str:
        parts = ", ".join(
            f"{x!r}: {render_element(v)}" for x, v in zip(self.family.universe.points, self._values)
        )
        return "{" + parts + "}"

    def __repr__(self):
        return f"ModernSet({self.describe()})"


def modern_set(family: AlgebraFamily, membership: Mapping[Point, Element]) -> ModernSet:
    """Validating constructor: every point covered, every value in carrier."""
    values = []
    for x, alg in zip(family.universe.points, family.handles):
        if x not in membership:
            raise DomainError(f"no membership value given at point {x!r}")
        v = membership[x]
        if not alg.is_member(v):
            raise DomainError(
                f"value {render_element(v)} at point {x!r} is not in the carrier "
                f"of algebra {alg.name!r}"
            )
        values.append(v)
    for x in membership:
        if x not in family.position:
            raise DomainError(f"membership given at unknown point {x!r}")
    return ModernSet(family, tuple(values))


def empty_set(family: AlgebraFamily) -> ModernSet:
    """Every point at its algebra's O."""
    return ModernSet(family, tuple(alg.zero for alg in family.handles))


def full_set(family: AlgebraFamily) -> ModernSet:
    """Every point at its algebra's I."""
    return ModernSet(family, tuple(alg.one for alg in family.handles))


def embed_crisp(family: AlgebraFamily, members: Iterable[Point]) -> ModernSet:
    """Plain subset of the universe as a modern set: I on members, O off."""
    chosen = set(members)
    for x in chosen:
        if x not in family.universe:
            raise DomainError(f"point {x!r} is not in the universe")
    return ModernSet(family, tuple(
        alg.one if x in chosen else alg.zero
        for x, alg in zip(family.universe.points, family.handles)
    ))


def _require_compatible(a: ModernSet, b: ModernSet) -> None:
    if not a.family.compatible(b.family):
        raise IncompatibleFamilyError(
            "sets over incompatible algebra families cannot be combined"
        )


def _escaped(alg: AlgebraHandle, point: Point, value: Element) -> StructuralError:
    return StructuralError(
        f"operation of algebra {alg.name!r} left the carrier at point {point!r}: "
        f"{render_element(value)}"
    )


def _pointwise(a: ModernSet, b: ModernSet, op: str) -> ModernSet:
    if b.family is not a.family:
        _require_compatible(a, b)
    family = a.family
    values = []
    for x, alg, u, v in zip(family.universe.points, family.handles, a._values, b._values):
        r = getattr(alg, op)(u, v)
        if not alg.is_member(r):
            raise _escaped(alg, x, r)
        values.append(r)
    return ModernSet(family, tuple(values))


def union(a: ModernSet, b: ModernSet) -> ModernSet:
    """Pointwise vee; the left set supplies the left operand."""
    return _pointwise(a, b, "vee")


def intersection(a: ModernSet, b: ModernSet) -> ModernSet:
    """Pointwise wedge; the left set supplies the left operand."""
    return _pointwise(a, b, "wedge")


def complement(a: ModernSet) -> ModernSet:
    """Pointwise complement; every point's algebra must declare one."""
    family = a.family
    values = []
    for x, alg, u in zip(family.universe.points, family.handles, a._values):
        if alg.complement is None:
            raise UnsupportedOperationError(
                f"algebra {alg.name!r} at point {x!r} declares no complement"
            )
        r = alg.complement(u)
        if not alg.is_member(r):
            raise _escaped(alg, x, r)
        values.append(r)
    return ModernSet(family, tuple(values))


def equals(a: ModernSet, b: ModernSet) -> bool:
    """Pointwise equality of membership values."""
    _require_compatible(a, b)
    return a._values == b._values


def is_empty(a: ModernSet) -> bool:
    """True when every point sits at its algebra's O."""
    return all(v == alg.zero for alg, v in zip(a.family.handles, a._values))


def contains(a: ModernSet, b: ModernSet) -> bool:
    """b sits inside a: at every point, wedge(b's value, a's value) is b's value.

    That is the order x <= y iff wedge(x, y) = x, so every point must be
    order-backed: a finite algebra whose tables make it a lattice
    (:attr:`AlgebraHandle.lattice`), or the rational unit interval, whose
    order comes from its ``structure`` since no finite evaluation decides
    an infinite carrier. The first point that is neither is named in the
    error.
    """
    _require_compatible(a, b)
    family = a.family
    for x, alg, u, v in zip(family.universe.points, family.handles, a._values, b._values):
        if alg.structure != "fuzzy-unit" and alg.lattice is None:
            raise UnsupportedOperationError(
                f"algebra {alg.name!r} at point {x!r} declares no order"
            )
        if alg.wedge(v, u) != v:
            return False
    return True


# ---------------------------------------------------------------------------
# Crisp restriction


def verify_crisp_restriction(family: AlgebraFamily, universe_size_cap: int = 4) -> LawReport:
    """Check that crisp sets over the family behave as ordinary subsets.

    Every subset of the universe is embedded (I on members, O off). Each
    union and intersection of a pair must land back on a crisp set and
    match the bitmask oracle (``a | b`` and ``a & b``), and complements
    (where declared at every point) must match set difference.

    No law over triples needs checking after that. Once every pair agrees
    with ``|`` and ``&``, the crisp sets under union and intersection are
    the subsets under ``|`` and ``&``, so associativity, absorption and both
    distributive laws hold because they hold for Python integers; a triple
    scan could not fail.
    """
    points = family.universe.points
    n = len(points)
    if n > universe_size_cap:
        raise PreconditionError(
            f"crisp restriction check enumerates all 2^|X| subsets; "
            f"|X| = {n} exceeds the cap {universe_size_cap}"
        )
    masks = range(1 << n)
    embedded = [
        embed_crisp(family, [points[i] for i in range(n) if mask & (1 << i)])
        for mask in masks
    ]

    def mask_of(s: ModernSet) -> int | None:
        out = 0
        for i, (alg, v) in enumerate(zip(family.handles, s._values)):
            if v == alg.one:
                out |= 1 << i
            elif v != alg.zero:
                return None
        return out

    def subset_label(mask: int) -> str:
        chosen = [repr(points[i]) for i in range(n) if mask & (1 << i)]
        return "{" + ", ".join(chosen) + "}"

    def fail(note: str, a_mask: int, b_mask, lhs, rhs) -> LawReport:
        inputs = (subset_label(a_mask),) if b_mask is None else (
            subset_label(a_mask),
            subset_label(b_mask),
        )
        witness = Witness(inputs=inputs, lhs=lhs, rhs=rhs, note=note)
        return LawReport("crisp-restriction", Verdict.fails(witness))

    for a in masks:
        for b in masks:
            u = mask_of(union(embedded[a], embedded[b]))
            if u is None:
                return fail("union left the crisp sets", a, b, "non-crisp", "crisp")
            if u != a | b:
                return fail(
                    "union disagrees with subset union",
                    a, b, subset_label(u), subset_label(a | b),
                )
            w = mask_of(intersection(embedded[a], embedded[b]))
            if w is None:
                return fail("intersection left the crisp sets", a, b, "non-crisp", "crisp")
            if w != a & b:
                return fail(
                    "intersection disagrees with subset intersection",
                    a, b, subset_label(w), subset_label(a & b),
                )

    full = (1 << n) - 1
    has_complement = all(alg.complement is not None for alg in family.handles)
    if has_complement:
        for a in masks:
            c = mask_of(complement(embedded[a]))
            if c is None or c != full ^ a:
                got = "non-crisp" if c is None else subset_label(c)
                return fail(
                    "complement disagrees with subset complement",
                    a, None, got, subset_label(full ^ a),
                )

    details = (
        ("universe-size", n),
        ("crisp-sets", 1 << n),
        ("complement-checked", has_complement),
    )
    return LawReport("crisp-restriction", Verdict.holds_exhaustive(details=details))
