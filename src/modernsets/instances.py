"""Concrete weak Boolean algebras: classical, fuzzy, chains, lattices, matrices.

All carriers are exact. The unit-interval algebra uses Fraction values, the
matrix algebras use RationalMatrix with exact rational entries, and finite
algebras use string tokens.

The matrix algebra on n x n rational matrices takes

    wedge = multiply then normalize        vee = add then normalize

where normalization sends every positive integer multiple k*Identity
(k >= 1) to the identity and leaves everything else alone, the zero matrix
and fractional multiples included. The identification is applied after each
operation; it is not a congruence of matrix arithmetic, so parenthesization
can matter and wedge genuinely fails to commute for n >= 2. That failure is
the point: these algebras satisfy the eight defining identities while
breaking nearly every classical law.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import lcm
from types import SimpleNamespace
from typing import Any, Callable, Mapping

from .algebra import AlgebraHandle, Deciding, Element, _Codes, _coded_attributes
from .errors import DomainError, ShapeError, StructuralError
from .lattice import FiniteLattice, lattice_from_hasse
from .matrix import RationalMatrix, _product_terms

# ---------------------------------------------------------------------------
# Matrix carrier


_identity = lru_cache(maxsize=None)(RationalMatrix.identity)


def _normal(n: int, nums: tuple[int, ...]) -> tuple[int, ...]:
    """Integer numerators ``nums``, or the identity's when they are k times those, k >= 1."""
    diag = nums[0]
    if diag >= 1 and nums[:: n + 1] == (diag,) * n and sum(map(bool, nums)) == n:
        return _identity(n)._nums
    return nums


def normalize_matrix(m: RationalMatrix) -> RationalMatrix:
    """Collapse positive integer multiples of the identity to the identity.

    The test runs on the canonical integers: a common denominator of 1,
    equal diagonal entries of at least 1, and no nonzero entry off the
    diagonal (:func:`_normal`), which is exactly when ``m`` is ``k`` times
    the identity for an integer ``k >= 1``. A collapse returns the one
    shared identity of that dimension, and anything else returns ``m`` itself.
    """
    if m._den == 1 and _normal(m._n, m._nums) is not m._nums:
        return _identity(m._n)
    return m


def _require_normalized(x: Element, n: int) -> RationalMatrix:
    if not isinstance(x, RationalMatrix):
        raise DomainError(f"expected a {n}x{n} rational matrix, got {x!r}")
    if x.dimension != n:
        raise ShapeError(f"expected dimension {n}, got {x.dimension}")
    if normalize_matrix(x) != x:
        raise DomainError(f"matrix {x} is not in normalized form")
    return x


def matrix_wedge(x: RationalMatrix, y: RationalMatrix) -> RationalMatrix:
    """Multiply then normalize. Inputs must already be normalized."""
    if not isinstance(x, RationalMatrix):
        raise DomainError(f"expected a rational matrix, got {x!r}")
    _require_normalized(x, x.dimension)
    _require_normalized(y, x.dimension)
    return normalize_matrix(x * y)


def matrix_vee(x: RationalMatrix, y: RationalMatrix) -> RationalMatrix:
    """Add then normalize. Inputs must already be normalized."""
    if not isinstance(x, RationalMatrix):
        raise DomainError(f"expected a rational matrix, got {x!r}")
    _require_normalized(x, x.dimension)
    _require_normalized(y, x.dimension)
    return normalize_matrix(x + y)


def _unit_matrix(n: int, i: int, j: int) -> RationalMatrix:
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return RationalMatrix(rows)


def _normal_test(n: int) -> str:
    """:func:`_normal`'s test on the numerators ``r`` of an n x n matrix, as an expression."""
    tests = [f"not r[{i}]" for i in range(n * n) if i % (n + 1)]
    tests += [f"r[0] == r[{i}]" for i in range(n + 1, n * n, n + 1)]
    return " and ".join([*tests, "r[0] >= 1"])


class _MatrixCodes:
    """The column operations and code draw of the n x n matrices over the common
    denominator 1, whose codes are their numerators.

    ``wedge`` and ``vee`` take two lists of codes and give the list of their products
    or sums, normalized (:func:`_normal`); each is one comprehension, generated from
    fixed strings and integer indices on first use, so a process that never scans this
    dimension's codes compiles nothing. ``sample`` draws ``randint(-2, 2)`` for each
    entry in row-major order, unrolled, as ``Random`` draws it.
    """

    complement = None

    def __init__(self, n: int):
        self._n = n
        self.zero, self.one = (0,) * (n * n), _identity(n)._nums

    def _generated(self, *lines: str) -> Callable:
        """The function ``kernel`` that ``lines`` define, where ``I`` is the identity's code."""
        namespace = {"I": self.one}
        exec("\n".join(lines), namespace)
        return namespace["kernel"]

    def _kernel(self, cells: Callable[[list[str], list[str]], list[str]]) -> Callable[[list, list], list]:
        """The entries ``cells`` makes of the names of two codes' entries, lane by lane, normalized."""
        a, b = ([f"{v}{i}" for i in range(self._n * self._n)] for v in "ab")
        return self._generated(
            "def kernel(x, y):",
            f"    return [I if {_normal_test(self._n)} else r for ({', '.join(a)},), ({', '.join(b)},)"
            f" in zip(x, y) for r in [({', '.join(cells(a, b))},)]]",
        )

    @cached_property
    def wedge(self) -> Callable[[list, list], list]:
        return self._kernel(partial(_product_terms, self._n))

    @cached_property
    def vee(self) -> Callable[[list, list], list]:
        return self._kernel(lambda a, b: [f"{x} + {y}" for x, y in zip(a, b)])

    @cached_property
    def _draw(self) -> Callable[[random.Random], tuple[int, ...]]:
        # Each entry is randint(-2, 2): the first getrandbits(3) below 5, less 2.
        names = range(self._n * self._n)
        return self._generated(
            "def kernel(rng):",
            "    getrandbits = rng.getrandbits",
            *(f"    e{i} = getrandbits(3)\n    while e{i} >= 5:\n        e{i} = getrandbits(3)" for i in names),
            f"    r = ({', '.join(f'e{i} - 2' for i in names)},)",
            f"    return I if {_normal_test(self._n)} else r",
        )

    def sample(self, rng: random.Random) -> tuple[int, ...]:
        return self._draw(rng)


@lru_cache(maxsize=None)
def matrix_algebra(n: int) -> AlgebraHandle:
    """The n x n rational matrices under multiply/add with normalization.

    O is the zero matrix, I the identity. No complement and no order are
    declared. The boundary pool is (O, I, E01, E10) for n >= 2, which pins
    the first reported noncommuting pair to the two unit matrices. Scans run
    on the numerators of matrices over the common denominator 1, with the
    column operations and draw of :class:`_MatrixCodes`; sampled values are
    the decoded draws.
    """
    if n < 1:
        raise ValueError(f"matrix dimension must be at least 1, got {n}")
    zero = RationalMatrix.zeros(n)
    one = _identity(n)
    boundary: tuple[Element, ...] = (zero, one)
    if n >= 2:
        boundary = (zero, one, _unit_matrix(n, 0, 1), _unit_matrix(n, 1, 0))

    def is_member(x: Element) -> bool:
        # normalize_matrix returns x itself unless x is a multiple of the identity
        return isinstance(x, RationalMatrix) and x._n == n and ((r := normalize_matrix(x)) is x or r == x)

    # A matrix over the common denominator 1 has its numerators as code. Sums and products
    # stay over 1, where _reduced takes no gcd: on codes they are the numerators', normalized.
    ops = _MatrixCodes(n)
    decode = partial(RationalMatrix._reduced, n, den=1)
    alg = AlgebraHandle(
        name=f"mat{n}",
        zero=zero,
        one=one,
        wedge=lambda x, y: normalize_matrix(x * y),
        vee=lambda x, y: normalize_matrix(x + y),
        is_member=is_member,
        boundary=boundary,
        sample=lambda rng: decode(ops.sample(rng)),
    )

    def encode(x: Element) -> tuple[int, ...] | None:
        return x._nums if type(x) is RationalMatrix and x._n == n and x._den == 1 else None

    return replace(alg, _codes=_Codes(ops, encode, decode, ops.sample, _coded_attributes(alg)))


# ---------------------------------------------------------------------------
# Chains, classical, fuzzy


def _chain_tokens(k: int) -> tuple[str, ...]:
    if k == 2:
        return ("O", "I")
    if k == 3:
        return ("O", "m", "I")
    middles = tuple(f"m{i}" for i in range(1, k - 1))
    return ("O",) + middles + ("I",)


@lru_cache(maxsize=None)
def chain_algebra(k: int) -> AlgebraHandle:
    """Total order on k tokens with min/max and order-reversing complement."""
    if k < 2:
        raise ValueError(f"chain length must be at least 2, got {k}")
    tokens = _chain_tokens(k)
    lat = lattice_from_hasse(f"chain{k}", tokens, tuple(zip(tokens, tokens[1:])))
    flipped = dict(zip(tokens, reversed(tokens)))
    return lattice_algebra(lat, complement=flipped)


@lru_cache(maxsize=None)
def classical_algebra() -> AlgebraHandle:
    """The two-element Boolean algebra on tokens O and I."""
    return replace(chain_algebra(2), name="classical2")


# Every denominator the unit interval's sampler draws divides this.
_LCM = lcm(*range(1, 65))


def _interval_sampler(entry: Callable[[int, int], Any]) -> Callable[[random.Random], Any]:
    """``entry(k, d)`` for ``k = randint(0, d)`` after ``d = randint(1, 64)``: a row, then an
    entry, of a table built on first use, each drawn inline as ``Random`` draws it."""
    pool: tuple[tuple[tuple[Any, ...], int, int], ...] = ()

    def sample(rng: random.Random) -> Any:
        nonlocal pool
        if not pool:
            rows = [tuple(entry(k, d) for k in range(d + 1)) for d in range(1, 65)]
            pool = tuple((row, len(row), len(row).bit_length()) for row in rows)
        getrandbits = rng.getrandbits
        r = getrandbits(7)
        while r >= 64:
            r = getrandbits(7)
        row, n, k = pool[r]
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return row[r]

    return sample


@lru_cache(maxsize=None)
def fuzzy_algebra() -> AlgebraHandle:
    """Rational unit interval with min/max and complement q -> 1 - q.

    Carrier membership requires an exact Fraction in [0, 1]. The boundary
    pool (0, 1, 1/2) guarantees sampled law checks always probe the ends
    and the midpoint, where excluded middle and non-contradiction break.
    The same three elements, K3, decide every equation of min, max and
    1 - x (:class:`~modernsets.algebra.Deciding`): with them the interval is
    a Kleene algebra, so a subdirect product of the 2- and 3-element Kleene
    chains (J. A. Kalman, "Lattices with involution", Trans. AMS 87, 1958).

    Wedge and vee compare by integer cross-products and return the very
    operand ``min``/``max`` would; the complement ``Fraction(d - n, d)``
    equals ``1 - n/d``. ``sample`` draws what ``Fraction(randint(0, d), d)``
    after ``d = randint(1, 64)`` draws. Scans run on the codes n * (_LCM // d)
    of the values n/d whose d divides ``_LCM``, where the operations are ``min``,
    ``max`` and ``_LCM - c``, which make no new denominator; each column
    operation is one list comprehension over the lanes.
    """
    zero = Fraction(0)
    one = Fraction(1)
    k3 = (zero, one, Fraction(1, 2))

    def is_member(x: Element) -> bool:
        return isinstance(x, Fraction) and 0 <= x.numerator <= x.denominator

    def wedge(x: Fraction, y: Fraction) -> Fraction:
        return y if y.numerator * x.denominator < x.numerator * y.denominator else x

    def vee(x: Fraction, y: Fraction) -> Fraction:
        return y if y.numerator * x.denominator > x.numerator * y.denominator else x

    def complement(x: Fraction) -> Fraction:
        return Fraction(x.denominator - x.numerator, x.denominator)

    def encode(x: Element) -> int | None:
        n, d = x.as_integer_ratio() if type(x) is Fraction else (0, 0)
        return n * (_LCM // d) if d and not _LCM % d else None

    alg = AlgebraHandle(
        name="fuzzy",
        zero=zero,
        one=one,
        wedge=wedge,
        vee=vee,
        is_member=is_member,
        complement=complement,
        boundary=k3,
        deciding=Deciding(
            k3, "K3 = {0, 1/2, 1} at each unit-interval point (Kalman 1958)",
            "rational unit interval with min/max and 1 - x", (wedge, vee, complement),
        ),
        sample=_interval_sampler(Fraction),
    )
    ops = SimpleNamespace(
        wedge=lambda x, y: [a if a < b else b for a, b in zip(x, y)],
        vee=lambda x, y: [a if a > b else b for a, b in zip(x, y)],
        complement=lambda x: [_LCM - c for c in x], zero=0, one=_LCM,
    )
    return replace(alg, _codes=_Codes(
        ops, encode, partial(Fraction, denominator=_LCM),
        _interval_sampler(lambda k, d: k * (_LCM // d)), _coded_attributes(alg),
    ))


def lattice_algebra(
    lat: FiniteLattice,
    complement: Mapping[str, str] | None = None,
    name: str | None = None,
) -> AlgebraHandle:
    """Wrap a finite lattice as an algebra: wedge = meet, vee = join.

    ``complement`` is a total token mapping. It is the caller's claim and
    is validated only for totality, not for being an involution (the law
    checker reports on that).
    """
    if len(lat.elements) < 2:
        raise StructuralError(
            f"lattice {lat.name!r} has a single element; an algebra needs O != I"
        )
    comp: Callable[[str], str] | None = None
    if complement is not None:
        table = dict(complement)
        for t in lat.elements:
            if t not in table:
                raise StructuralError(
                    f"complement table for {lat.name!r} is missing {t!r}"
                )
            if table[t] not in lat._index:
                raise StructuralError(
                    f"complement of {t!r} is outside lattice {lat.name!r}"
                )
        comp = table.__getitem__
    carrier = frozenset(lat.elements)
    return AlgebraHandle(
        name=name or lat.name,
        zero=lat.bottom,
        one=lat.top,
        wedge=lat.meet,
        vee=lat.join,
        is_member=lambda x: x in carrier,
        complement=comp,
        elements=lat.elements,
    )
