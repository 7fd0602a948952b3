import dataclasses
from fractions import Fraction
from itertools import product

import pytest

from modernsets import FiniteAlgebraTable, fuzzy_algebra

CENSUS_TOKENS = ("O", "m", "I")
# The five wedge/vee cells the eight identities leave free, in census order.
CENSUS_FREE = ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1))


def census(index, complement=None):
    """Census algebra ``index`` in [0, 3**10): base-3 digits fill the free
    wedge cells, then the free vee cells. ``complement`` is an optional
    token mapping, passed through to the table."""
    digits = [index // 3 ** k % 3 for k in range(10)]
    wedge = {(0, 0): 0, (0, 2): 0, (2, 0): 0, (2, 2): 2, **dict(zip(CENSUS_FREE, digits[:5]))}
    vee = {(0, 0): 0, (0, 2): 2, (2, 0): 2, (2, 2): 2, **dict(zip(CENSUS_FREE, digits[5:]))}
    t = CENSUS_TOKENS
    return FiniteAlgebraTable(
        f"census{index}", t, "O", "I",
        {(t[x], t[y]): t[r] for (x, y), r in wedge.items()},
        {(t[x], t[y]): t[r] for (x, y), r in vee.items()},
        complement,
    )


def five_lattice_laws(elements, wedge, vee):
    """Wedge and vee commutative, associative and absorptive, on tables
    keyed by token pairs: Birkhoff's laws of a lattice."""
    pairs = list(product(elements, repeat=2))
    return (
        all(wedge[x, y] == wedge[y, x] and vee[x, y] == vee[y, x] for x, y in pairs)
        and all(wedge[x, vee[x, y]] == x and vee[x, wedge[x, y]] == x for x, y in pairs)
        and all(
            wedge[x, wedge[y, z]] == wedge[wedge[x, y], z]
            and vee[x, vee[y, z]] == vee[vee[x, y], z]
            for x, y, z in product(elements, repeat=3)
        )
    )


def brute_force_lattice(elements, wedge, vee, zero, one):
    """The five laws, with O the bottom and I the top of the order
    x <= y iff wedge(x, y) = x."""
    return five_lattice_laws(elements, wedge, vee) and all(
        wedge[zero, x] == zero and wedge[x, one] == x for x in elements
    )


@pytest.fixture
def lattice_laws():
    return five_lattice_laws


@pytest.fixture
def lattice_oracle():
    return brute_force_lattice


@pytest.fixture
def census_table():
    return census


@pytest.fixture
def broken_interval():
    """The unit interval with vee(1/2, 1) = 1/2, so vee does not commute on
    K3. ``replace`` alone would void the deciding claim, which is bound to
    the operations, so it is declared again for the new vee: the handle
    claims K3 and breaks on it."""
    fz, half = fuzzy_algebra(), Fraction(1, 2)

    def vee(x, y):
        return half if (x, y) == (half, fz.one) else fz.vee(x, y)

    claim = fz.deciding._replace(ops=(fz.wedge, vee, fz.complement))
    return dataclasses.replace(fz, vee=vee, deciding=claim)


@pytest.fixture
def replaced_interval():
    """The unit interval with vee(1/3, 2/3) = 1/3, built by ``replace`` alone.

    Its vee does not commute, but only off K3, so its tables on K3 are still
    the chain. The deciding claim names the interval's own vee, so the new
    vee voids it."""
    fz, third, two_thirds = fuzzy_algebra(), Fraction(1, 3), Fraction(2, 3)
    return dataclasses.replace(
        fz, vee=lambda x, y: third if (x, y) == (third, two_thirds) else fz.vee(x, y)
    )
