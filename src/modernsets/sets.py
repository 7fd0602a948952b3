"""Sets whose membership values live in per-point weak Boolean algebras.

A universe is a finite tuple of points. An algebra family assigns one
algebra to each point; a modern set over the family maps each point to an
element of that point's carrier. Union applies each point's vee, with the
left set supplying the left operand (the operations need not commute, so
the order is part of the definition); intersection applies wedge the same
way; complement applies the per-point complement where declared.

The crisp sets are those taking only the values O and I; :func:`embed_crisp`
writes a plain subset that way. Whether they recover ordinary set algebra
is a law check like any other, so it lives with the law engine
(:func:`~modernsets.laws.verify_crisp_restriction`); this module holds no
verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Hashable, Iterable, Mapping

from .algebra import AlgebraHandle, Element
from .errors import (
    DomainError,
    IncompatibleFamilyError,
    StructuralError,
    UnsupportedOperationError,
)
from .reporting import render_element

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


def contains(a: ModernSet, b: ModernSet) -> bool:
    """b sits inside a: at every point, wedge(b's value, a's value) is b's value.

    That is the order x <= y iff wedge(x, y) = x, so every point must have
    a lattice (:attr:`AlgebraHandle.lattice`); the first point that has
    none is named in the error.
    """
    _require_compatible(a, b)
    family = a.family
    for x, alg, u, v in zip(family.universe.points, family.handles, a._values, b._values):
        if alg.lattice is None:
            raise UnsupportedOperationError(
                f"algebra {alg.name!r} at point {x!r} is not lattice-backed; "
                f"containment needs a per-point order"
            )
        if alg.wedge(v, u) != v:
            return False
    return True
