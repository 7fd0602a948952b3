import dataclasses
from fractions import Fraction
from itertools import combinations, product

import pytest

from modernsets import (
    LAWS,
    FiniteAlgebraTable,
    FiniteLattice,
    ModernSet,
    check_cha,
    check_distributive,
    check_lattice_laws,
    check_law,
    fuzzy_algebra,
    get_law,
    lattice_algebra,
    lattice_from_hasse,
)
from modernsets import laws

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


def all_sets(family):
    """Every set over the family's deciding carriers, in the order of ``product``: the
    reference order of an exhaustive family scan."""
    for values in product(*laws._carriers(family)):
        yield ModernSet(family, values)


def _frame(o, pair, y):
    """Frame law on a two-element family: (a vee b) wedge y, and the join of the meets."""
    a, b = pair
    return o.wedge(o.vee(a, b), y), o.vee(o.wedge(a, y), o.wedge(b, y))


# The frame law over pairs ((a, b), y), under the labels check_cha and the direct
# set-level route give their witnesses: the reference for their triple scans.
CHA_PAIR_LAW = laws.Law(
    "complete-heyting", 2, False,
    (("(vee family) wedge y = vee of (s wedge y)", _frame),),
)
SET_FRAME_PAIR_LAW = laws.Law(
    "set-frame", 2, False,
    (("(vee of collection) wedge B = vee of pairwise wedges", _frame),),
)


def carrier_scans_match_elements(target):
    """Every single-carrier scan of ``target`` gives what a plain scan of
    its elements gives: ``laws._verdict`` over ``product(elements,
    repeat=arity)``, and for the frame law the pair scan over
    ``(combinations(elements, 2), y)``.

    For a lattice that covers the certificate rows, ``check_distributive``
    and ``check_cha``, and then ``check_law`` on its algebra; for a handle,
    ``check_law``. The laws are the registry's and the certificate's two
    joined rows. A carrier of four or more elements has scans of at least
    64 tuples, so it must have compiled its tables, and a smaller one must
    not have.
    """
    if isinstance(target, FiniteLattice):
        lat = target

        def scanned(law):
            return laws._verdict(lat, law, product(lat.elements, repeat=law.arity))

        cert = check_lattice_laws(lat)
        assert cert.commutative == scanned(laws._COMMUTATIVE_LAW), lat.name
        assert cert.associative == scanned(laws._ASSOCIATIVE_LAW), lat.name
        assert cert.absorption == scanned(get_law("absorption")), lat.name
        assert cert.distributive == check_distributive(lat) == scanned(get_law("distributive"))
        pairs = laws._verdict(lat, CHA_PAIR_LAW, product(combinations(lat.elements, 2), lat.elements))
        expected = dataclasses.replace(pairs, details=(("binary-distributive", cert.distributive),))
        assert cert.cha == check_cha(lat) == expected, lat.name
        assert ("_tables" in vars(lat)) == (len(lat) >= 4), lat.name
        target = lattice_algebra(lat)
    for law in (*LAWS, laws._COMMUTATIVE_LAW, laws._ASSOCIATIVE_LAW):
        verdict = check_law(target, law).verdict
        if law.needs_complement and target.complement is None:
            assert not verdict.applicable
            continue
        expected = laws._verdict(target, law, product(target.elements, repeat=law.arity))
        assert verdict == expected, (target.name, law.name)
    assert ("_tables" in vars(target)) == (len(target.elements) >= 4), target.name


def rebuilt(target):
    """A new lattice or handle equal to ``target`` that shares no compiled tables, and so
    no record of their scans, with it: a handle bound to a lattice is bound to a copy."""
    if isinstance(target, FiniteLattice):
        return lattice_from_hasse(target.name, target.elements, target.covers)
    lat = getattr(target.wedge, "__self__", None)
    if isinstance(lat, FiniteLattice):
        lat = rebuilt(lat)
        return dataclasses.replace(target, wedge=lat.meet, vee=lat.join)
    return dataclasses.replace(target)


@pytest.fixture
def carrier_reference():
    return carrier_scans_match_elements


@pytest.fixture
def fresh_copy():
    return rebuilt


@pytest.fixture
def kernel_scans(monkeypatch):
    """The names of the laws the column kernel scans (``_ColumnOps.failing``), in order; an
    exhaustive family scan that looks its tuples up by their numbers does not pass there."""
    scanned = []
    failing = laws._ColumnOps.failing
    monkeypatch.setattr(
        laws._ColumnOps, "failing", lambda o, law, slab: scanned.append(law.name) or failing(o, law, slab)
    )
    return scanned


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
