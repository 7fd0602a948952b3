"""Finite lattices built from Hasse diagrams.

A lattice is described by its element tokens and covering pairs
``(lower, upper)``. Construction computes the reflexive-transitive closure,
rejects cycles (NotAPosetError) and missing or non-unique meets/joins
(NotALatticeError), and derives the bottom and top elements. This module
only builds lattices; their laws are certified in :mod:`modernsets.laws`,
by the same registry and scanner that check every other algebra.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, NotALatticeError, NotAPosetError, StructuralError


class FiniteLattice:
    """A finite lattice with precomputed order and operation tables.

    Instances compare by identity. ``elements`` keeps declaration order,
    which fixes the scan order of every exhaustive check.
    """

    def __init__(
        self,
        name: str,
        elements: tuple[str, ...],
        covers: tuple[tuple[str, str], ...],
        leq_table: list[list[bool]],
        meet_table: list[list[int]],
        join_table: list[list[int]],
        bottom: str,
        top: str,
    ):
        self.name = name
        self.elements = elements
        self.covers = covers
        self.bottom = bottom
        self.top = top
        self._index = {token: i for i, token in enumerate(elements)}
        self._leq = leq_table
        self._meet = meet_table
        self._join = join_table

    def __repr__(self):
        return f"FiniteLattice({self.name!r}, {len(self.elements)} elements)"

    def __len__(self):
        return len(self.elements)

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise DomainError(f"{token!r} is not an element of lattice {self.name!r}") from None

    def leq(self, x: str, y: str) -> bool:
        return self._leq[self.index(x)][self.index(y)]

    def meet(self, x: str, y: str) -> str:
        return self.elements[self._meet[self.index(x)][self.index(y)]]

    def join(self, x: str, y: str) -> str:
        return self.elements[self._join[self.index(x)][self.index(y)]]

    # The names the law registry's equations call, so a lattice is its own ops.
    wedge = meet
    vee = join

    def join_of(self, tokens) -> str:
        """Join of a finite family; the empty family joins to bottom."""
        result = self.index(self.bottom)
        for t in tokens:
            result = self._join[result][self.index(t)]
        return self.elements[result]

    def meet_of(self, tokens) -> str:
        """Meet of a finite family; the empty family meets to top."""
        result = self.index(self.top)
        for t in tokens:
            result = self._meet[result][self.index(t)]
        return self.elements[result]


def meet(lat: FiniteLattice, x: str, y: str) -> str:
    return lat.meet(x, y)


def join(lat: FiniteLattice, x: str, y: str) -> str:
    return lat.join(x, y)


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

    leq = [[i == j for j in range(n)] for i in range(n)]
    for lo, up in covers:
        leq[index[lo]][index[up]] = True
    # Warshall closure of the covering relation.
    for k in range(n):
        row_k = leq[k]
        for i in range(n):
            if leq[i][k]:
                row_i = leq[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise NotAPosetError(
                    f"lattice {name!r}: cycle through {elements[i]!r} and {elements[j]!r}"
                )

    def bound_index(i: int, j: int, kind: str) -> int:
        if kind == "meet":
            bounds = [k for k in range(n) if leq[k][i] and leq[k][j]]
            extreme = [g for g in bounds if all(leq[k][g] for k in bounds)]
        else:
            bounds = [k for k in range(n) if leq[i][k] and leq[j][k]]
            extreme = [g for g in bounds if all(leq[g][k] for k in bounds)]
        if len(extreme) != 1:
            kind_word = "meet" if kind == "meet" else "join"
            raise NotALatticeError(
                f"lattice {name!r}: elements {elements[i]!r} and {elements[j]!r} "
                f"have no unique {kind_word}"
            )
        return extreme[0]

    meet_table = [[bound_index(i, j, "meet") for j in range(n)] for i in range(n)]
    join_table = [[bound_index(i, j, "join") for j in range(n)] for i in range(n)]

    bottoms = [i for i in range(n) if all(leq[i][j] for j in range(n))]
    tops = [i for i in range(n) if all(leq[j][i] for j in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        raise NotALatticeError(f"lattice {name!r}: no unique bottom or top element")

    return FiniteLattice(
        name=name,
        elements=elements,
        covers=covers,
        leq_table=leq,
        meet_table=meet_table,
        join_table=join_table,
        bottom=elements[bottoms[0]],
        top=elements[tops[0]],
    )


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
