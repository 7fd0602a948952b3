from itertools import product

import pytest


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
