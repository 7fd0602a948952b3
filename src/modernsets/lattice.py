"""Finite lattices, built from Hasse diagrams or read off operation tables.

A lattice is described by its element tokens and covering pairs
``(lower, upper)``. :func:`lattice_from_hasse` closes the covers into an
order and rejects cycles (NotAPosetError); :func:`lattice_of_tables` reads
the order x <= y iff wedge(x, y) = x off an algebra's tables. Both hand the
order, as int bitsets (bit j of ``up[i]`` when element i is below element
j), to the one constructor, which works out every meet and join or raises
NotALatticeError. This module only builds lattices; their laws are
certified in :mod:`modernsets.laws`, by the same registry and scanner that
check every other algebra.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import NamedTuple

from .errors import DomainError, NotALatticeError, NotAPosetError, StructuralError


class _PointTables(NamedTuple):
    """One finite algebra's operations as tables over indices into its elements."""

    wedge: list[int]  # wedge(elements[i], elements[j]) at i * k + j
    vee: list[int]
    complement: list[int]
    zero: int
    one: int


class FiniteLattice:
    """A finite lattice with a precomputed order and token tables.

    ``meet_table[x][y]`` is the meet of tokens x and y and ``join_table[x][y]``
    their join; every operation is a lookup there. Instances compare by
    identity. ``elements`` keeps declaration order, which fixes the scan
    order of every exhaustive check. The constructor
    takes a partial order as up-set bitsets, reflexive and transitive, and
    raises NotALatticeError naming the first pair, in row-major order, that
    has no meet; when every meet exists, the first that has no join.
    """

    def __init__(
        self,
        name: str,
        elements: tuple[str, ...],
        up: list[int],
    ):
        n = len(elements)
        down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
        self.name = name
        self.elements = elements
        self._index = {token: i for i, token in enumerate(elements)}
        self._up = up
        self.meet_table = _bound_table(name, elements, down, "meet")
        self.join_table = _bound_table(name, elements, up, "join")
        full = (1 << n) - 1
        self.bottom = elements[up.index(full)]
        self.top = elements[down.index(full)]

    def __repr__(self):
        return f"FiniteLattice({self.name!r}, {len(self.elements)} elements)"

    def __len__(self):
        return len(self.elements)

    @cached_property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """The covering pairs ``(lower, upper)`` of the order, in row-major order."""
        n = len(self.elements)
        strict = [u & ~(1 << i) for i, u in enumerate(self._up)]
        return tuple(
            (self.elements[i], self.elements[j])
            for i, j in product(range(n), repeat=2)
            if strict[i] >> j & 1
            and not any(strict[i] >> k & 1 and strict[k] >> j & 1 for k in range(n))
        )

    @cached_property
    def _tables(self) -> _PointTables:
        """Meet and join as index tables, with the bottom and top, compiled on first read."""
        code = self._index.__getitem__
        meet, join = (
            [code(t) for row in table.values() for t in row.values()]
            for table in (self.meet_table, self.join_table)
        )
        return _PointTables(meet, join, [], code(self.bottom), code(self.top))

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise self._unknown(token) from None

    def leq(self, x: str, y: str) -> bool:
        return bool(self._up[self.index(x)] >> self.index(y) & 1)

    def meet(self, x: str, y: str) -> str:
        try:
            return self.meet_table[x][y]
        except KeyError:
            raise self._unknown(x, y) from None

    def join(self, x: str, y: str) -> str:
        try:
            return self.join_table[x][y]
        except KeyError:
            raise self._unknown(x, y) from None

    # The names the law registry's equations call, so a lattice is its own ops.
    wedge = meet
    vee = join

    def _unknown(self, *tokens: str) -> DomainError:
        """The error naming the first of ``tokens`` outside the lattice."""
        token = next(t for t in tokens if t not in self._index)
        return DomainError(f"{token!r} is not an element of lattice {self.name!r}")


def _bound_table(
    name: str, elements: tuple[str, ...], bounds: list[int], kind: str
) -> dict[str, dict[str, str]]:
    """Meets from down-sets, or joins from up-sets, as token tables.

    ``bounds[i] & bounds[j]`` holds every common lower (upper) bound of i
    and j, so the element owning exactly that set is the greatest (least)
    of them, and no element owns it when there is no such bound. The
    result for ``(x, y)`` is at ``table[x][y]``.
    """
    owner = {s: elements[k] for k, s in enumerate(bounds)}
    try:
        return {
            x: {y: owner[a & b] for y, b in zip(elements, bounds)}
            for x, a in zip(elements, bounds)
        }
    except KeyError:
        i, j = next(
            (i, j)
            for i, j in product(range(len(bounds)), repeat=2)
            if bounds[i] & bounds[j] not in owner
        )
        raise NotALatticeError(
            f"lattice {name!r}: elements {elements[i]!r} and {elements[j]!r} "
            f"have no unique {kind}"
        ) from None


meet, join = FiniteLattice.meet, FiniteLattice.join


def lattice_from_hasse(
    name: str,
    elements: tuple[str, ...] | list[str],
    covers: tuple[tuple[str, str], ...] | list[tuple[str, str]],
) -> FiniteLattice:
    """Build a FiniteLattice from covering pairs ``(lower, upper)``.

    Raises NotAPosetError for self-covers or cycles and NotALatticeError,
    naming the offending pair, when some pair lacks a unique meet or join.
    """
    elements = tuple(elements)
    covers = tuple((lo, up) for lo, up in covers)
    if not elements:
        raise StructuralError(f"lattice {name!r}: empty carrier")
    if len(set(elements)) != len(elements):
        raise StructuralError(f"lattice {name!r}: duplicate tokens in carrier")
    index = {token: i for i, token in enumerate(elements)}
    n = len(elements)
    for lo, up in covers:
        for t in (lo, up):
            if t not in index:
                raise StructuralError(f"lattice {name!r}: cover references unknown token {t!r}")
        if lo == up:
            raise NotAPosetError(f"lattice {name!r}: self-cover on {lo!r}")

    above = [1 << i for i in range(n)]
    for lo, up in covers:
        above[index[lo]] |= 1 << index[up]
    # Transitive closure: whatever reaches k reaches everything above k.
    for k in range(n):
        for i in range(n):
            if above[i] >> k & 1:
                above[i] |= above[k]
    for i, j in combinations(range(n), 2):
        if above[i] >> j & 1 and above[j] >> i & 1:
            raise NotAPosetError(
                f"lattice {name!r}: cycle through {elements[i]!r} and {elements[j]!r}"
            )
    return FiniteLattice(name, elements, above)


def lattice_of_tables(
    name: str, elements: tuple[str, ...], wedge: list[int], vee: list[int], zero: int, one: int
) -> FiniteLattice | None:
    """The lattice an algebra's tables describe, or None when they describe none.

    ``wedge`` and ``vee`` hold indices into ``elements``, the result for
    ``(i, j)`` at ``i * n + j``. The order is x <= y iff wedge(x, y) = x; the
    tables describe a lattice when wedge and vee are its meet and join and
    ``zero`` and ``one`` its bottom and top. By Birkhoff that is: both
    operations commutative, associative and absorptive, with O and I the
    bounds. The order needs checking only for reflexivity and distinct
    up-sets: once wedge is its meet, x <= y gives down(x) = down(x) & down(y),
    so it is transitive, and then distinct up-sets make it antisymmetric.
    """
    n = len(elements)
    up = [sum(1 << j for j in range(n) if wedge[i * n + j] == i) for i in range(n)]
    if len(set(up)) < n or not all(up[i] >> i & 1 for i in range(n)):
        return None
    try:
        lat = FiniteLattice(name, elements, up)
    except NotALatticeError:
        return None
    tables = lat._tables
    if (tables.wedge, tables.vee, tables.zero, tables.one) != (wedge, vee, zero, one):
        return None
    return lat


@lru_cache(maxsize=None)
def powerset_lattice(n: int) -> FiniteLattice:
    """Powerset of an n-element set ordered by inclusion, 1 <= n <= 6.

    Subsets are tokens over the letters a..f ("ab" is {a, b}); the empty
    set is "0". Element order follows the subset bitmask.
    """
    if not 1 <= n <= 6:
        raise ValueError(f"powerset lattice size must be between 1 and 6, got {n}")
    letters = "abcdef"[:n]

    def token(mask: int) -> str:
        picked = "".join(letters[i] for i in range(n) if mask & (1 << i))
        return picked or "0"

    elements = tuple(token(mask) for mask in range(1 << n))
    covers = []
    for mask in range(1 << n):
        for i in range(n):
            if not mask & (1 << i):
                covers.append((token(mask), token(mask | (1 << i))))
    return lattice_from_hasse(f"pow{n}", elements, covers)


@lru_cache(maxsize=None)
def m3_lattice() -> FiniteLattice:
    """The diamond: three incomparable atoms between bottom and top.

    The smallest modular non-distributive lattice; the classic failing
    triple is its three atoms.
    """
    return lattice_from_hasse(
        "m3",
        ("0", "a", "b", "c", "1"),
        (("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")),
    )


@lru_cache(maxsize=None)
def n5_lattice() -> FiniteLattice:
    """The pentagon: a two-step chain b < c beside a single atom a.

    The smallest non-modular lattice; with m3 it characterizes
    distributivity (a lattice is distributive iff it embeds neither).
    """
    return lattice_from_hasse(
        "n5",
        ("0", "a", "b", "c", "1"),
        (("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")),
    )
