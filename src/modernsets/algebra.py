"""Weak Boolean algebras: the carrier-plus-operations abstraction.

A weak Boolean algebra is a set H with two binary operations (written
``wedge`` and ``vee`` here), and two distinguished distinct elements O and I
satisfying only the eight O/I truth-table identities:

    O wedge I = O    I wedge O = O    O wedge O = O    I wedge I = I
    O vee   I = I    I vee   O = I    O vee   O = O    I vee   I = I

Nothing else is assumed: the operations need not commute, associate, or
distribute, which is exactly what lets non-classical carriers (matrix
algebras under multiply/add) participate. A complement is optional; when
declared it must be an involution swapping O and I. The identities are
checked by :func:`~modernsets.laws.check_wba_axioms`, never assumed.

Carrier elements are plain values: tokens (str) for finite algebras, exact
rationals (Fraction) for the unit-interval algebra, and RationalMatrix for
matrix algebras. Equality between elements is structural and exact. An
infinite carrier may declare a finite sub-carrier that decides its
equations (:class:`Deciding`), and is then ordered and scanned on that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Any, Callable, Mapping, NamedTuple

from .errors import StructuralError
from .lattice import FiniteLattice, _PointTables, lattice_of_tables
from .matrix import RationalMatrix

Element = str | Fraction | RationalMatrix
BinaryOp = Callable[[Element, Element], Element]
UnaryOp = Callable[[Element], Element]


class Deciding(NamedTuple):
    """A finite sub-carrier that decides every equation of the operations ``ops``.

    An equation holds on the carrier, or on a family with it at some points,
    iff it holds with ``carrier`` there. The claim is bound to the ``(wedge,
    vee, complement)`` objects it names: :func:`_carrier` honours it only
    while a handle still has those very objects, so replacing one voids it.
    ``reason`` is named in the details of a family verdict decided on
    ``carrier``, and ``evidence`` is what ``classify`` prints for the point.
    """

    carrier: tuple[Element, ...]
    reason: str
    evidence: str
    ops: tuple[BinaryOp, BinaryOp, UnaryOp | None]


class _Codes(NamedTuple):
    """Exact integer codes of an infinite carrier's values, for scans to run on.

    ``ops`` acts on codes as the handle's operations, O and I act on values; ``encode``
    is injective and gives None for a value with no code; ``sample`` draws the code of
    what the handle's ``sample`` draws, from the same random bits. Like :class:`Deciding`,
    the record is bound to the handle's :data:`_coded_attributes` (``bound``).
    """

    ops: Any
    encode: Callable[[Element], Any]
    decode: Callable[[Any], Element]
    sample: Callable[[random.Random], Any]
    bound: tuple


@dataclass(frozen=True, eq=False)
class AlgebraHandle:
    """Uniform interface over every algebra kind in the package.

    ``wedge``/``vee`` are the raw binary operations, with no membership
    checks. ``elements`` is the declaration-order carrier for finite
    algebras and None otherwise. Infinite carriers instead provide
    ``boundary`` (elements always forced into sample pools) and ``sample``
    (seeded random draw), and may declare ``deciding`` (:class:`Deciding`) and
    integer codes (``_codes``, :class:`_Codes`). Whether an algebra is a lattice
    is decided by evaluation (see :attr:`lattice`), never declared.
    """

    name: str
    zero: Element
    one: Element
    wedge: BinaryOp
    vee: BinaryOp
    is_member: Callable[[Element], bool]
    complement: UnaryOp | None = None
    elements: tuple[Element, ...] | None = None
    boundary: tuple[Element, ...] = ()
    deciding: Deciding | None = None
    sample: Callable[[random.Random], Element] | None = None
    _codes: _Codes | None = None

    @property
    def finite(self) -> bool:
        return self.elements is not None

    @cached_property
    def lattice(self) -> FiniteLattice | None:
        """The lattice this algebra is, or its deciding sub-carrier is, or None.

        Worked out on first read from the operation tables over
        :func:`_carrier`: the order is x <= y iff wedge(x, y) = x, and the
        algebra is a lattice when wedge and vee are that order's meet and
        join and O and I its bounds (:func:`~modernsets.lattice.lattice_of_tables`).
        A handle with a lattice's own tables (:func:`_own_lattice`) and that
        lattice's name is that lattice. None for carriers with nothing finite
        to evaluate and for tables that are not exact (see :func:`_compile_point`).
        """
        tables = self._tables
        if tables is None:
            return None
        lat = _own_lattice(self)
        if lat is not None and lat.name == self.name:
            return lat
        return lattice_of_tables(
            self.name, _carrier(self), tables.wedge, tables.vee, tables.zero, tables.one
        )

    # Each is computed on first read, so the laws of a family battery share
    # one compile per handle.
    @cached_property
    def _tables(self) -> _PointTables | None:
        """:func:`_compile_point` without the complement."""
        return _compile_point(self, False)

    @cached_property
    def _tables_with_complement(self) -> _PointTables | None:
        """:func:`_compile_point` with the complement."""
        return _compile_point(self, True)

    def __repr__(self):
        return f"AlgebraHandle({self.name!r})"


def _carrier(alg: AlgebraHandle) -> tuple[Element, ...] | None:
    """The finite carrier equations are evaluated on: the elements, else a bound claim's."""
    claim = alg.deciding
    if alg.elements is None and claim and claim.ops == (alg.wedge, alg.vee, alg.complement):
        return claim.carrier
    return alg.elements


# What a scan on codes stands in for: the operations, the draw, the membership test, O and I.
_coded_attributes = attrgetter("wedge", "vee", "complement", "sample", "is_member", "zero", "one")


def _bound_codes(alg: AlgebraHandle) -> _Codes | None:
    """The handle's codes while it has the attributes they were made for and O, I and
    every boundary value have one, else None."""
    codes = alg._codes
    if codes and codes.bound == _coded_attributes(alg):
        return None if None in map(codes.encode, (alg.zero, alg.one, *alg.boundary)) else codes
    return None


def _own_lattice(alg: AlgebraHandle) -> FiniteLattice | None:
    """The lattice whose own meet and join, elements, bottom and top ``alg`` has, else None."""
    lat = getattr(alg.wedge, "__self__", None)
    if isinstance(lat, FiniteLattice) and (alg.wedge, alg.vee, alg.elements, alg.zero, alg.one) == (
        lat.meet, lat.join, lat.elements, lat.bottom, lat.top
    ):
        return lat
    return None


def _compile_point(alg: AlgebraHandle, with_complement: bool) -> _PointTables | None:
    """Integer tables of one algebra over :func:`_carrier`, or None if they would not be exact.

    Calls the handle's own wedge, vee and (when asked) complement once per
    element pair and stores each result as its index in the carrier.
    Returns None when there is no finite carrier, its elements are not
    distinct, or O, I or some result is not a listed element that
    ``is_member`` accepts. A handle bound to a lattice (:func:`_own_lattice`)
    has that lattice's meet and join tables, whose results are its elements
    (each is its own meet), so it checks those and returns the lattice's own
    tables, or tables based on them that add the complement's.
    """
    elements = _carrier(alg)
    if elements is None:
        return None
    lat = _own_lattice(alg)
    try:
        index = {e: i for i, e in enumerate(elements)}
        if lat is None:
            wedge = [alg.wedge(x, y) for x in elements for y in elements]
            vee = [alg.vee(x, y) for x in elements for y in elements]
            results = (alg.zero, alg.one, *wedge, *vee)
        else:
            results = elements
        comp = [alg.complement(x) for x in elements] if with_complement else []
        if len(index) != len(elements) or not all(
            r in index and alg.is_member(r) for r in (*results, *comp)
        ):
            return None
    except Exception:
        # Whatever an operation raises, a scan on the values raises it too,
        # at the same operation, if it gets that far.
        return None
    code = index.__getitem__
    if lat is not None:
        tables = lat._tables
        if not with_complement:
            return tables
        return _PointTables(tables.wedge, tables.vee, [code(r) for r in comp], tables.zero, tables.one, tables)
    return _PointTables(
        [code(r) for r in wedge],
        [code(r) for r in vee],
        [code(r) for r in comp],
        code(alg.zero),
        code(alg.one),
    )


@dataclass(frozen=True)
class FiniteAlgebraTable:
    """A weak Boolean algebra given by explicit operation tables.

    Construction validates structure only (distinct tokens, total tables,
    results inside the carrier); the eight algebra identities are checked by
    :func:`~modernsets.laws.check_wba_axioms`, never assumed.
    """

    name: str
    elements: tuple[str, ...]
    zero_token: str
    one_token: str
    wedge_table: Mapping[tuple[str, str], str]
    vee_table: Mapping[tuple[str, str], str]
    complement_table: Mapping[str, str] | None = None

    def __post_init__(self):
        tokens = self.elements
        if len(set(tokens)) != len(tokens):
            raise StructuralError(f"algebra {self.name!r}: duplicate tokens in carrier")
        if not tokens:
            raise StructuralError(f"algebra {self.name!r}: empty carrier")
        for t in (self.zero_token, self.one_token):
            if t not in tokens:
                raise StructuralError(f"algebra {self.name!r}: {t!r} not in carrier")
        if self.zero_token == self.one_token:
            raise StructuralError(f"algebra {self.name!r}: zero and one must be distinct")
        for label, table in (("wedge", self.wedge_table), ("vee", self.vee_table)):
            for x in tokens:
                for y in tokens:
                    if (x, y) not in table:
                        raise StructuralError(
                            f"algebra {self.name!r}: {label} table missing row ({x}, {y})"
                        )
                    result = table[(x, y)]
                    if result not in tokens:
                        raise StructuralError(
                            f"algebra {self.name!r}: {label}({x}, {y}) = {result!r} is outside the carrier"
                        )
        if self.complement_table is not None:
            for x in tokens:
                if x not in self.complement_table:
                    raise StructuralError(
                        f"algebra {self.name!r}: complement table missing {x!r}"
                    )
                if self.complement_table[x] not in tokens:
                    raise StructuralError(
                        f"algebra {self.name!r}: complement({x}) is outside the carrier"
                    )

    def as_handle(self) -> AlgebraHandle:
        carrier = frozenset(self.elements)
        tokens = self.elements
        wedge_table = {x: {y: self.wedge_table[x, y] for y in tokens} for x in tokens}
        vee_table = {x: {y: self.vee_table[x, y] for y in tokens} for x in tokens}
        complement = None
        if self.complement_table is not None:
            comp_table = dict(self.complement_table)
            complement = comp_table.__getitem__
        return AlgebraHandle(
            name=self.name,
            zero=self.zero_token,
            one=self.one_token,
            wedge=lambda x, y: wedge_table[x][y],
            vee=lambda x, y: vee_table[x][y],
            is_member=lambda x: x in carrier,
            complement=complement,
            elements=tuple(self.elements),
        )
