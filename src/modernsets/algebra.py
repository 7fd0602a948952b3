"""Weak Boolean algebras: the carrier-plus-operations abstraction.

A weak Boolean algebra is a set H with two binary operations (written
``wedge`` and ``vee`` here), and two distinguished distinct elements O and I
satisfying only the eight O/I truth-table identities:

    O wedge I = O    I wedge O = O    O wedge O = O    I wedge I = I
    O vee   I = I    I vee   O = I    O vee   O = O    I vee   I = I

Nothing else is assumed: the operations need not commute, associate, or
distribute, which is exactly what lets non-classical carriers (matrix
algebras under multiply/add) participate. A complement is optional; when
declared it must be an involution swapping O and I.

Carrier elements are plain values: tokens (str) for finite algebras, exact
rationals (Fraction) for the unit-interval algebra, and RationalMatrix for
matrix algebras. Equality between elements is structural and exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple

from .errors import DomainError, StructuralError, UnsupportedOperationError
from .matrix import RationalMatrix

if TYPE_CHECKING:
    from .lattice import FiniteLattice

Element = str | Fraction | RationalMatrix
BinaryOp = Callable[[Element, Element], Element]
UnaryOp = Callable[[Element], Element]


@dataclass(frozen=True, eq=False)
class AlgebraHandle:
    """Uniform interface over every algebra kind in the package.

    ``wedge``/``vee`` are the raw binary operations (no membership checks;
    use :func:`apply_wedge` / :func:`apply_vee` for the checked surface).
    ``elements`` is the declaration-order carrier for finite algebras and
    None otherwise. Infinite carriers instead provide ``boundary`` (elements
    always forced into sample pools) and ``sample`` (seeded random draw).
    ``lattice`` is the backing FiniteLattice when the operations are a
    lattice's meet/join.
    """

    name: str
    structure: str  # "classical" | "fuzzy-unit" | "chain" | "lattice" | "matrix" | "table"
    zero: Element
    one: Element
    wedge: BinaryOp
    vee: BinaryOp
    is_member: Callable[[Element], bool]
    complement: UnaryOp | None = None
    leq: Callable[[Element, Element], bool] | None = None
    elements: tuple[Element, ...] | None = None
    boundary: tuple[Element, ...] = ()
    sample: Callable[[random.Random], Element] | None = None
    lattice: "FiniteLattice | None" = None

    @property
    def finite(self) -> bool:
        return self.elements is not None

    def __repr__(self):
        return f"AlgebraHandle({self.name!r})"


class IdentityViolation(NamedTuple):
    identity: str
    inputs: tuple
    expected: Element | str
    actual: Element | str


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    violations: tuple[IdentityViolation, ...]

    def describe(self) -> str:
        if self.passed:
            return "all weak-Boolean-algebra identities hold"
        lines = [f"{len(self.violations)} identity violation(s):"]
        for v in self.violations:
            lines.append(f"  {v.identity}: expected {v.expected}, got {v.actual}")
        return "\n".join(lines)


# The eight defining identities, evaluated on (zero, one).
WBA_IDENTITIES: tuple[tuple[str, str, tuple[str, str], str], ...] = (
    ("O wedge I = O", "wedge", ("zero", "one"), "zero"),
    ("I wedge O = O", "wedge", ("one", "zero"), "zero"),
    ("O wedge O = O", "wedge", ("zero", "zero"), "zero"),
    ("I wedge I = I", "wedge", ("one", "one"), "one"),
    ("O vee I = I", "vee", ("zero", "one"), "one"),
    ("I vee O = I", "vee", ("one", "zero"), "one"),
    ("O vee O = O", "vee", ("zero", "zero"), "zero"),
    ("I vee I = I", "vee", ("one", "one"), "one"),
)


def check_wba_axioms(a: AlgebraHandle) -> AxiomReport:
    """Evaluate the eight defining identities plus O != I.

    Results falling outside the carrier raise StructuralError: that is a
    malformed algebra, not an identity violation.
    """
    violations: list[IdentityViolation] = []
    if a.zero == a.one:
        violations.append(
            IdentityViolation("O != I", (a.zero, a.one), "distinct O and I", "O = I")
        )
    named = {"zero": a.zero, "one": a.one}
    for identity, opname, arg_names, expected_name in WBA_IDENTITIES:
        args = tuple(named[n] for n in arg_names)
        op = a.wedge if opname == "wedge" else a.vee
        actual = op(*args)
        if not a.is_member(actual):
            raise StructuralError(
                f"algebra {a.name!r}: result of {identity.split('=')[0].strip()} "
                f"is outside the carrier: {actual!r}"
            )
        expected = named[expected_name]
        if actual != expected:
            violations.append(IdentityViolation(identity, args, expected, actual))
    return AxiomReport(passed=not violations, violations=tuple(violations))


def apply_wedge(a: AlgebraHandle, x: Element, y: Element) -> Element:
    """Checked wedge: both operands must belong to the carrier.

    Argument order is preserved exactly as given; no commutation.
    """
    _require_member(a, x)
    _require_member(a, y)
    return a.wedge(x, y)


def apply_vee(a: AlgebraHandle, x: Element, y: Element) -> Element:
    """Checked vee; operand order preserved as given."""
    _require_member(a, x)
    _require_member(a, y)
    return a.vee(x, y)


def apply_complement(a: AlgebraHandle, x: Element) -> Element:
    if a.complement is None:
        raise UnsupportedOperationError(f"algebra {a.name!r} declares no complement")
    _require_member(a, x)
    return a.complement(x)


def enumerate_elements(a: AlgebraHandle) -> list[Element]:
    """Declaration-order carrier list; exhaustive checks iterate this."""
    if a.elements is None:
        raise UnsupportedOperationError(
            f"algebra {a.name!r} has an infinite carrier; cannot enumerate"
        )
    return list(a.elements)


def _require_member(a: AlgebraHandle, x: Element) -> None:
    if not a.is_member(x):
        raise DomainError(f"{x!r} is not in the carrier of algebra {a.name!r}")


@dataclass(frozen=True)
class FiniteAlgebraTable:
    """A weak Boolean algebra given by explicit operation tables.

    Construction validates structure only (distinct tokens, total tables,
    results inside the carrier); the eight algebra identities are checked by
    :func:`check_wba_axioms`, never assumed.
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

    def as_handle(
        self,
        structure: str = "table",
        leq: Callable[[str, str], bool] | None = None,
        lattice: "FiniteLattice | None" = None,
    ) -> AlgebraHandle:
        carrier = frozenset(self.elements)
        wedge_table = dict(self.wedge_table)
        vee_table = dict(self.vee_table)
        complement = None
        if self.complement_table is not None:
            comp_table = dict(self.complement_table)
            complement = comp_table.__getitem__
        return AlgebraHandle(
            name=self.name,
            structure=structure,
            zero=self.zero_token,
            one=self.one_token,
            wedge=lambda x, y: wedge_table[(x, y)],
            vee=lambda x, y: vee_table[(x, y)],
            is_member=lambda x: x in carrier,
            complement=complement,
            leq=leq,
            elements=tuple(self.elements),
            lattice=lattice,
        )
