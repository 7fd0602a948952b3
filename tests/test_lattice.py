import dataclasses
from functools import partial, reduce
from itertools import chain, combinations, permutations, product
from random import Random

import pytest

from modernsets import (
    DomainError,
    FiniteAlgebraTable,
    FiniteLattice,
    LatticeCertificate,
    StructuralError,
    NotALatticeError,
    NotAPosetError,
    chain_algebra,
    check_all_laws,
    check_cha,
    check_distributive,
    check_gf_ring_conditions,
    check_lattice_laws,
    check_law,
    classify_family,
    constant_family,
    find_noncommuting_witness,
    get_law,
    join,
    lattice_algebra,
    lattice_from_hasse,
    m3_lattice,
    meet,
    n5_lattice,
    powerset_lattice,
)
from modernsets import laws
from modernsets.cli import builtin_workspace
from modernsets.reporting import Witness


def naive_meet(lat, x, y):
    """Reference meet: the unique maximal common lower bound, via leq only."""
    lower = [z for z in lat.elements if lat.leq(z, x) and lat.leq(z, y)]
    best = [z for z in lower if all(lat.leq(w, z) for w in lower)]
    assert len(best) == 1
    return best[0]


def naive_join(lat, x, y):
    upper = [z for z in lat.elements if lat.leq(x, z) and lat.leq(y, z)]
    best = [z for z in upper if all(lat.leq(z, w) for w in upper)]
    assert len(best) == 1
    return best[0]


def test_m3_meet_join_against_reference():
    lat = m3_lattice()
    for x, y in product(lat.elements, repeat=2):
        assert meet(lat, x, y) == naive_meet(lat, x, y)
        assert join(lat, x, y) == naive_join(lat, x, y)


def test_pow2_against_frozenset_oracle():
    lat = powerset_lattice(2)
    to_set = {"0": frozenset(), "a": frozenset("a"), "b": frozenset("b"), "ab": frozenset("ab")}
    to_token = {v: k for k, v in to_set.items()}
    for x, y in product(lat.elements, repeat=2):
        assert meet(lat, x, y) == to_token[to_set[x] & to_set[y]]
        assert join(lat, x, y) == to_token[to_set[x] | to_set[y]]
        assert lat.leq(x, y) == (to_set[x] <= to_set[y])
    assert lat.bottom == "0"
    assert lat.top == "ab"


def test_bottom_top():
    assert m3_lattice().bottom == "0"
    assert m3_lattice().top == "1"
    assert n5_lattice().bottom == "0"
    assert n5_lattice().top == "1"


def test_hasse_validation_errors():
    with pytest.raises(NotAPosetError):
        lattice_from_hasse("loop", ["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(NotAPosetError):
        lattice_from_hasse("self", ["a"], [("a", "a")])
    # two maximal elements: the pair {a, b} has no join
    with pytest.raises(NotALatticeError) as err:
        lattice_from_hasse("vee", ["0", "a", "b"], [("0", "a"), ("0", "b")])
    assert "'a'" in str(err.value) and "'b'" in str(err.value)


def test_unknown_cover_element():
    with pytest.raises(StructuralError):
        lattice_from_hasse("bad", ["a", "b"], [("a", "c")])


def test_m3_distributivity_witness_is_stable():
    verdict = check_distributive(m3_lattice())
    assert verdict.failed
    assert verdict.witness.inputs == ("a", "b", "c")
    # the recorded sides must re-evaluate to the recorded values
    lat = m3_lattice()
    x, y, z = verdict.witness.inputs
    assert join(lat, x, meet(lat, y, z)) == verdict.witness.lhs
    assert meet(lat, join(lat, x, y), join(lat, x, z)) == verdict.witness.rhs
    assert verdict.witness.lhs != verdict.witness.rhs


def test_n5_not_distributive_and_witness_reevaluates():
    lat = n5_lattice()
    verdict = check_distributive(lat)
    assert verdict.failed
    x, y, z = verdict.witness.inputs
    lhs = join(lat, x, meet(lat, y, z))
    rhs = meet(lat, join(lat, x, y), join(lat, x, z))
    assert (lhs, rhs) == (verdict.witness.lhs, verdict.witness.rhs)


def test_pow_lattices_satisfy_everything():
    for n in (1, 2, 3):
        cert = check_lattice_laws(powerset_lattice(n))
        for label, verdict in cert.entries:
            assert verdict.holds, (n, label)


def test_m3_certificate():
    cert = check_lattice_laws(m3_lattice())
    results = dict(cert.entries)
    assert results["commutative"].holds
    assert results["associative"].holds
    assert results["absorption"].holds
    assert results["distributive"].failed
    assert results["complete-heyting"].failed
    assert results["boolean-complemented"].status == "not-applicable"
    assert "distributive" in cert.describe()


def test_cha_agrees_with_binary_distributivity():
    for lat in (m3_lattice(), n5_lattice(), powerset_lattice(2), powerset_lattice(3)):
        verdict = check_cha(lat)
        detail = dict(verdict.details)["binary-distributive"]
        assert verdict.holds == detail.holds, lat.name


def full_frame_law(lat):
    """Reference frame-law check: every subset of the carrier in size order,
    the empty family first, and every y."""
    for size in range(len(lat.elements) + 1):
        for family in combinations(lat.elements, size):
            joined = reduce(lat.join, family, lat.bottom)
            for y in lat.elements:
                lhs = lat.meet(joined, y)
                rhs = reduce(lat.join, (lat.meet(s, y) for s in family), lat.bottom)
                if lhs != rhs:
                    return Witness(
                        inputs=(family, y),
                        lhs=lhs,
                        rhs=rhs,
                        note="(vee family) wedge y = vee of (s wedge y)",
                    )
    return None


def naive_distributive(lat):
    """Both distributive laws over every triple, through naive meet and join."""
    return all(
        naive_join(lat, x, naive_meet(lat, y, z))
        == naive_meet(lat, naive_join(lat, x, y), naive_join(lat, x, z))
        and naive_meet(lat, x, naive_join(lat, y, z))
        == naive_join(lat, naive_meet(lat, x, y), naive_meet(lat, x, z))
        for x, y, z in product(lat.elements, repeat=3)
    )


def closure_system(rng, ground, size):
    """Masks of an intersection-closed family of subsets of ``ground``
    points, holding the full set, with at most ``size`` members."""
    family = {(1 << ground) - 1}
    for _ in range(200):
        s = rng.randrange(1 << ground)
        grown = family | {s & m for m in family}
        if len(grown) <= size:
            family = grown
    return family


def downsets(rng, points):
    """Masks of the down-sets of a random poset on ``points`` points."""
    below = [0] * points
    for j in range(points):
        for i in range(j):
            if rng.random() < 0.4:
                below[j] |= 1 << i | below[i]
    return {
        s for s in range(1 << points)
        if all(not s >> j & 1 or below[j] & s == below[j] for j in range(points))
    }


def inclusion_covers(order):
    """The covering pairs of the masks ordered by inclusion, named by
    ``str(mask)``, row-major in the given declaration order."""
    return tuple(
        (str(a), str(b))
        for a in order
        for b in order
        if a != b and a & b == a
        and not any(c not in (a, b) and a & c == a and c & b == c for c in order)
    )


def lattice_of_masks(name, rng, masks):
    """The masks ordered by inclusion, declared in a seeded order."""
    order = sorted(masks)
    rng.shuffle(order)
    return lattice_from_hasse(name, [str(m) for m in order], inclusion_covers(order))


def random_lattices(seed, count, max_size):
    """Seeded closure systems and down-set lattices, alternating, with at
    most ``max_size`` elements each."""
    rng = Random(seed)
    lattices = []
    for i in range(count):
        if i % 2:
            masks = closure_system(rng, rng.randint(3, 5), rng.randint(4, max_size))
        else:
            while True:
                masks = downsets(rng, rng.randint(2, 5))
                if len(masks) <= max_size:
                    break
        lattices.append(lattice_of_masks(f"random{seed}-{i}", rng, masks))
    return lattices


def test_random_lattice_scans_match_element_scans(carrier_reference):
    for lat in random_lattices(seed=7, count=60, max_size=12):
        carrier_reference(lat)


def assert_cha_matches_full_enumeration(lat):
    verdict = check_cha(lat)
    witness = full_frame_law(lat)
    if witness is None:
        assert verdict.holds and verdict.mode == "exhaustive", lat.name
    else:
        assert verdict.failed and verdict.witness == witness, lat.name
        assert len(witness.inputs[0]) == 2
    detail = dict(verdict.details)["binary-distributive"]
    assert detail == check_distributive(lat)
    assert detail.holds == (witness is None), lat.name


def test_cha_pairs_match_full_enumeration_on_named_lattices():
    named = [powerset_lattice(n) for n in (1, 2, 3, 4)]
    named += [m3_lattice(), n5_lattice()]
    for n in (2, 3, 4, 5):
        tokens = [str(i) for i in range(n)]
        named.append(lattice_from_hasse(f"chain{n}", tokens, list(zip(tokens, tokens[1:]))))
    for lat in named:
        assert_cha_matches_full_enumeration(lat)


def test_cha_pairs_match_full_enumeration_on_random_lattices():
    lattices = random_lattices(seed=3, count=60, max_size=10)
    assert any(not check_distributive(lat).holds for lat in lattices)
    assert any(check_distributive(lat).holds for lat in lattices)
    for lat in lattices:
        assert_cha_matches_full_enumeration(lat)


def test_random_lattices_against_naive_reference():
    shipped = [powerset_lattice(n) for n in (1, 2, 3)] + [m3_lattice(), n5_lattice()]
    for lat in shipped + random_lattices(seed=5, count=40, max_size=12):
        alg = lattice_algebra(lat) if len(lat) > 1 else None
        for x, y in product(lat.elements, repeat=2):
            m, j = naive_meet(lat, x, y), naive_join(lat, x, y)
            assert meet(lat, x, y) == lat.wedge(x, y) == m, lat.name
            assert join(lat, x, y) == lat.vee(x, y) == j, lat.name
            assert (lat.meet_table[x][y], lat.join_table[x][y]) == (m, j), lat.name
            if alg is not None:
                assert (alg.wedge(x, y), alg.vee(x, y)) == (m, j), lat.name
        for a, b, c in combinations(lat.elements, 3):
            assert reduce(lat.meet, (a, b, c)) == naive_meet(lat, naive_meet(lat, a, b), c), lat.name
            assert reduce(lat.join, (a, b, c)) == naive_join(lat, naive_join(lat, a, b), c), lat.name
        assert all(lat.leq(lat.bottom, x) and lat.leq(x, lat.top) for x in lat.elements)
        assert check_lattice_laws(lat).distributive.holds == naive_distributive(lat), lat.name


def test_m3_heyting_witness():
    verdict = check_cha(m3_lattice())
    assert verdict.failed
    subset, scalar = verdict.witness.inputs
    lat = m3_lattice()
    # re-evaluate: meet of (join of subset) with scalar vs join of pointwise meets
    lhs = meet(lat, reduce(lat.join, subset, lat.bottom), scalar)
    rhs = reduce(lat.join, [meet(lat, s, scalar) for s in subset], lat.bottom)
    assert (lhs, rhs) == (verdict.witness.lhs, verdict.witness.rhs)
    assert lhs != rhs


def test_chain3_distributive_not_boolean():
    lat = lattice_from_hasse("c3", ["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert check_distributive(lat).holds
    verdict = check_lattice_laws(lat).boolean_complemented
    assert verdict.failed
    # the midpoint has no complement
    assert verdict.witness.inputs == ("m",)


def test_pow2_boolean():
    assert check_lattice_laws(powerset_lattice(2)).boolean_complemented.holds


def reference_complement_count(lat):
    """The Boolean row as a plain loop: the first element without exactly one complement."""
    for x in lat.elements:
        complements = [
            y
            for y in lat.elements
            if lat.meet(x, y) == lat.bottom and lat.join(x, y) == lat.top
        ]
        if len(complements) != 1:
            return Witness(
                inputs=(x,),
                lhs=len(complements),
                rhs=1,
                note=f"element {x!r} has {len(complements)} complement(s), expected 1",
            )
    return None


def test_boolean_row_matches_the_reference_loop():
    lattices = [powerset_lattice(n) for n in (1, 2, 3, 4)]
    for n in range(2, 8):
        tokens = [str(i) for i in range(n)]
        lattices.append(lattice_from_hasse(f"chain{n}", tokens, list(zip(tokens, tokens[1:]))))
    lattices += [
        lat for lat in random_lattices(seed=7, count=60, max_size=12) if check_distributive(lat).holds
    ]
    outcomes = set()
    for lat in lattices:
        witness = reference_complement_count(lat)
        verdict = check_lattice_laws(lat).boolean_complemented
        if witness is None:
            assert verdict.holds and verdict.mode == "exhaustive", lat.name
        else:
            assert verdict.failed and verdict.witness == witness, lat.name
        outcomes.add(witness is None)
    assert outcomes == {True, False}


def test_mixed_form_fails_where_distributivity_holds():
    # The right-hand side pairs y with z, not x with z: the equation is not
    # distributivity, and (x vee y) wedge (y vee z) is not a law of Boolean
    # lattices.
    mixed = laws._law("distributive-mixed-form", r"x \/ (y /\ z) = (x \/ y) /\ (y \/ z)")
    lat = powerset_lattice(2)
    assert check_distributive(lat).holds
    verdict = check_law(lattice_algebra(lat), mixed).verdict
    assert verdict.failed
    w = verdict.witness
    x, y, z = w.inputs
    lhs = join(lat, x, meet(lat, y, z))
    rhs = meet(lat, join(lat, x, y), join(lat, y, z))
    assert (lhs, rhs) == (w.lhs, w.rhs)


def test_unknown_token_raises():
    lat = m3_lattice()
    with pytest.raises(DomainError):
        meet(lat, "a", "zzz")
    with pytest.raises(DomainError):
        lat.leq("zzz", "a")
    alg = lattice_algebra(lat)
    for op in (lat.meet, lat.join, lat.wedge, lat.vee, alg.wedge, alg.vee):
        for args in (("zzz", "a"), ("a", "zzz")):
            with pytest.raises(DomainError, match="'zzz' is not an element of lattice 'm3'"):
                op(*args)


def test_powerset_bounds():
    with pytest.raises(ValueError):
        powerset_lattice(0)
    with pytest.raises(ValueError):
        powerset_lattice(7)


def test_lattice_identity_and_len():
    assert m3_lattice() is m3_lattice()
    assert len(m3_lattice()) == 5
    assert len(powerset_lattice(3)) == 8
    assert isinstance(m3_lattice(), FiniteLattice)


def test_certificate_witnesses_mapping():
    cert = check_lattice_laws(n5_lattice())
    assert "distributive" in cert.witnesses
    assert cert.witnesses["distributive"].inputs


# ---------------------------------------------------------------------------
# The bitset constructor against the construction it replaced


def reference_lattice(name, elements, covers):
    """Meet and join tables, bottom and top, by the old O(n^4) construction.

    Warshall closure on a boolean matrix, then for each pair the set of
    common bounds searched for its one extreme element. Raises what
    lattice_from_hasse raises, with the same messages.
    """
    elements = tuple(elements)
    index = {token: i for i, token in enumerate(elements)}
    n = len(elements)
    for lo, up in covers:
        if lo == up:
            raise NotAPosetError(f"lattice {name!r}: self-cover on {lo!r}")
    leq = [[i == j for j in range(n)] for i in range(n)]
    for lo, up in covers:
        leq[index[lo]][index[up]] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise NotAPosetError(
                    f"lattice {name!r}: cycle through {elements[i]!r} and {elements[j]!r}"
                )

    def bound(i, j, kind):
        if kind == "meet":
            bounds = [k for k in range(n) if leq[k][i] and leq[k][j]]
            extreme = [g for g in bounds if all(leq[k][g] for k in bounds)]
        else:
            bounds = [k for k in range(n) if leq[i][k] and leq[j][k]]
            extreme = [g for g in bounds if all(leq[g][k] for k in bounds)]
        if len(extreme) != 1:
            raise NotALatticeError(
                f"lattice {name!r}: elements {elements[i]!r} and {elements[j]!r} "
                f"have no unique {kind}"
            )
        return elements[extreme[0]]

    meets = [[bound(i, j, "meet") for j in range(n)] for i in range(n)]
    joins = [[bound(i, j, "join") for j in range(n)] for i in range(n)]
    (bottom,) = [elements[i] for i in range(n) if all(leq[i])]
    (top,) = [elements[i] for i in range(n) if all(leq[j][i] for j in range(n))]
    return meets, joins, bottom, top


def bitset_lattice(name, elements, covers):
    lat = lattice_from_hasse(name, elements, covers)
    meets = [[lat.meet(x, y) for y in lat.elements] for x in lat.elements]
    joins = [[lat.join(x, y) for y in lat.elements] for x in lat.elements]
    return meets, joins, lat.bottom, lat.top


def outcome(build, name, elements, covers):
    try:
        return build(name, elements, covers)
    except (NotAPosetError, NotALatticeError) as exc:
        return type(exc), str(exc)


def edited_covers(seed, count):
    """Covers of seeded lattices, three in four of them edited once.

    An edit drops a cover (a lattice or a missing bound), adds a random
    pair (often a cycle or a bound that is no longer unique), or reverses a
    cover (a cycle).
    """
    rng = Random(seed)
    for i in range(count):
        if i % 2:
            masks = closure_system(rng, rng.randint(3, 5), rng.randint(4, 12))
        else:
            masks = downsets(rng, rng.randint(2, 4))
        lat = lattice_of_masks(f"case{i}", rng, masks)
        covers = list(lat.covers)
        edit = i % 4
        if edit == 1 and covers:
            covers.pop(rng.randrange(len(covers)))
        elif edit == 2:
            a, b = rng.sample(lat.elements, 2) if len(lat) > 1 else (lat.elements[0],) * 2
            covers.append((a, b))
        elif edit == 3 and covers:
            lo, up = covers.pop(rng.randrange(len(covers)))
            covers.append((up, lo))
        yield lat.name, lat.elements, covers


def test_bitset_construction_matches_reference():
    kinds = set()
    for case in edited_covers(seed=11, count=400):
        expected = outcome(reference_lattice, *case)
        assert outcome(bitset_lattice, *case) == expected, case
        kinds.add(expected[0] if isinstance(expected[0], type) else "lattice")
    # the cases reach lattices, cycles and missing bounds
    assert kinds == {"lattice", NotAPosetError, NotALatticeError}


# ---------------------------------------------------------------------------
# Lattices read off operation tables

CENSUS_TOKENS = ("O", "m", "I")


def test_census_lattices_match_brute_force(census_table, lattice_laws, lattice_oracle):
    backed, lawful = [], []
    for index in range(3 ** 10):
        table = census_table(index)
        lat = table.as_handle().lattice
        tables = table.elements, table.wedge_table, table.vee_table
        assert (lat is not None) == lattice_oracle(*tables, "O", "I"), index
        if lat is not None:
            backed.append(index)
        if lattice_laws(*tables):
            lawful.append(index)
    # chain3 is the one census table that is a lattice with O at the bottom
    # and I on top; two more satisfy the five laws with the bounds misplaced
    assert backed == [55764]
    assert lawful == [29628, 54796, 55764]
    lat = census_table(55764).as_handle().lattice
    assert (lat.name, lat.elements, lat.covers) == (
        "census55764", CENSUS_TOKENS, (("O", "m"), ("m", "I"))
    )
    assert (lat.bottom, lat.top) == ("O", "I")
    for x, y in product(CENSUS_TOKENS, repeat=2):
        assert lat.meet(x, y) == census_table(55764).wedge_table[x, y]
        assert lat.join(x, y) == census_table(55764).vee_table[x, y]


def test_table_lattice_is_derived_on_first_read_and_kept(census_table):
    handle = census_table(55764).as_handle()
    assert "lattice" not in vars(handle)
    assert handle.lattice is handle.lattice
    with pytest.raises(AttributeError):
        handle.lattice = None


def test_covers_are_read_off_the_order_not_the_input():
    # ("0", "1") is implied by the other two pairs, so it is not a cover
    lat = lattice_from_hasse("x", ("0", "a", "1"), (("0", "a"), ("a", "1"), ("0", "1")))
    assert lat.covers == (("0", "a"), ("a", "1"))
    assert lat.covers == table_handle(lat).lattice.covers


def table_handle(lat):
    """``lat``'s meet and join as an algebra of tables, which does not wrap ``lat``,
    so its ``lattice`` is read off the tables."""
    def cells(table):
        return {(x, y): r for x, row in table.items() for y, r in row.items()}

    return FiniteAlgebraTable(
        lat.name, lat.elements, lat.bottom, lat.top, cells(lat.meet_table), cells(lat.join_table)
    ).as_handle()


def test_lattices_read_off_tables_match_their_hasse_diagrams():
    # the reference covers come from the masks (or are written out for m3
    # and n5), not from FiniteLattice.covers
    cases = [
        (lat, inclusion_covers([int(e) for e in lat.elements]))
        for lat in random_lattices(seed=7, count=60, max_size=12)
    ] + [
        (m3_lattice(), (("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1"))),
        (n5_lattice(), (("0", "a"), ("0", "b"), ("a", "1"), ("b", "c"), ("c", "1"))),
    ]
    for lat, reference in cases:
        if len(lat) < 2:
            continue
        derived = table_handle(lat).lattice
        assert derived is not lat
        assert derived.elements == lat.elements
        assert derived.covers == lat.covers == reference, lat.name
        for x, y in product(lat.elements, repeat=2):
            assert derived.leq(x, y) == lat.leq(x, y)
            assert derived.meet(x, y) == lat.meet(x, y)
            assert derived.join(x, y) == lat.join(x, y)
        assert (derived.bottom, derived.top) == (lat.bottom, lat.top)


# ---------------------------------------------------------------------------
# Algebras bound to a lattice: they read its tables and are its order


def counting(calls, fn):
    def run(*args):
        calls.append(args)
        return fn(*args)

    return run


def test_a_lattice_algebra_reads_its_lattices_tables():
    lat = m3_lattice()
    alg = lattice_algebra(lat)
    assert alg._tables is lat._tables
    assert alg.lattice is lat
    # the complement is compiled beside the lattice's own meet and join lists
    comp = lattice_algebra(lat, complement={"0": "1", "a": "b", "b": "c", "c": "a", "1": "0"})
    tables = comp._tables_with_complement
    assert (tables.wedge, tables.vee) == (lat._tables.wedge, lat._tables.vee)
    assert tables.complement == [4, 2, 3, 1, 0]


def test_a_bound_algebra_checks_membership_once_per_element():
    lat = n5_lattice()
    calls = []
    alg = dataclasses.replace(lattice_algebra(lat), is_member=counting(calls, lambda x: True))
    assert alg._tables is lat._tables
    assert len(calls) == len(lat)


@pytest.mark.parametrize("field", ["wedge", "vee", "zero", "one", "elements"])
def test_replacing_a_lattices_own_attribute_compiles_from_the_operations(field):
    lat = n5_lattice()
    k = len(lat)
    op_calls, member_calls = [], []
    alg = dataclasses.replace(
        lattice_algebra(lat), is_member=counting(member_calls, lambda x: x in lat.elements)
    )
    changed = {
        "wedge": counting(op_calls, lat.meet),
        "vee": counting(op_calls, lat.join),
        "zero": lat.top,
        "one": lat.bottom,
        "elements": lat.elements[::-1],
    }[field]
    unbound = dataclasses.replace(alg, **{field: changed})
    assert unbound._tables is not lat._tables
    # O, I and every wedge and vee result
    assert len(member_calls) == 2 + 2 * k * k
    assert len(op_calls) == (k * k if field in ("wedge", "vee") else 0)
    derived = unbound.lattice
    if field in ("zero", "one"):
        # O is then the top, or I the bottom, so the tables describe no lattice
        assert derived is None
    else:
        assert derived is not lat and derived.name == lat.name
        assert set(derived.covers) == set(lat.covers)


def test_a_renamed_lattice_algebra_shares_the_tables_under_its_own_name():
    lat = powerset_lattice(2)
    renamed = dataclasses.replace(lattice_algebra(lat), name="renamed")
    assert renamed._tables is lat._tables
    derived = renamed.lattice
    assert derived is not lat and derived.name == "renamed"
    assert derived.covers == lat.covers


def test_a_bound_algebra_refused_by_its_membership_test_has_no_tables():
    lat = m3_lattice()
    alg = dataclasses.replace(lattice_algebra(lat), is_member=lambda x: x != "b")
    assert alg._tables is None
    assert alg.lattice is None


def test_a_complement_leaving_the_carrier_has_no_complement_tables():
    lat = m3_lattice()
    alg = dataclasses.replace(lattice_algebra(lat), complement=lambda x: "z")
    assert alg._tables is lat._tables
    assert alg._tables_with_complement is None
    # every element passes, then the complement's first "a" is refused
    calls = []
    refused = dataclasses.replace(
        lattice_algebra(lat, complement={"0": "1", "a": "a", "b": "b", "c": "c", "1": "0"}),
        is_member=counting(calls, lambda x: x != "a" or len(calls) <= len(lat)),
    )
    assert refused._tables_with_complement is None


def test_bound_algebras_report_what_their_unbound_twins_report():
    rng = Random(28)
    for i, lat in enumerate(random_lattices(seed=28, count=16, max_size=12)):
        if len(lat) < 2:
            continue
        complement = None
        if i % 2:
            complement = {x: rng.choice(lat.elements) for x in lat.elements}
            complement[lat.bottom], complement[lat.top] = lat.top, lat.bottom
        bound = lattice_algebra(lat, complement=complement)
        twin = dataclasses.replace(
            bound, wedge=lambda x, y, lat=lat: lat.meet(x, y), vee=lambda x, y, lat=lat: lat.join(x, y)
        )
        reports = [check_all_laws(a) for a in (bound, twin)]
        assert [r.verdict for r in reports[0]] == [r.verdict for r in reports[1]], lat.name
        assert [r.describe() for r in reports[0]] == [r.describe() for r in reports[1]]
        assert bound.lattice is lat and twin.lattice is not lat
        certs = [check_lattice_laws(a.lattice) for a in (bound, twin)]
        assert certs[0].entries == certs[1].entries
        assert certs[0].describe() == certs[1].describe()
        families = [constant_family(("p", "q"), a) for a in (bound, twin)]
        levels = [classify_family(f) for f in families]
        assert levels[0] == levels[1] and levels[0].describe() == levels[1].describe()
        rings = [check_gf_ring_conditions(f, seed=i) for f in families]
        assert rings[0] == rings[1] and rings[0].describe() == rings[1].describe()


# ---------------------------------------------------------------------------
# Each equation is scanned once per compiled carrier: certificates, law
# batteries and gfcheck read one record of what the scans of its tables proved.


def shown(check):
    """What ``check()`` shows: its verdicts, witnesses included, and their text, or the
    type and text of what it raised."""
    try:
        result = check()
    except Exception as error:
        return type(error), str(error)
    if isinstance(result, tuple):  # a battery of law reports
        return result, [report.describe() for report in result]
    if isinstance(result, LatticeCertificate):
        return result.entries, result.describe()
    return result, result.describe()


def assert_shared_scans_match_fresh_ones(make, checks):
    """Each check of ``checks(*make())`` shows the same on objects of its own as when
    all of them run on one set of objects, in their order and in reverse."""
    names = list(checks(*make()))
    fresh = {name: shown(checks(*make())[name]) for name in names}
    for order in (names, names[::-1]):
        shared = checks(*make())
        assert {name: shown(shared[name]) for name in order} == fresh, order


def record_checks(lat, alg):
    """The checks that share a compiled carrier: on ``lat`` and its algebra ``alg``, or,
    when ``alg`` has no lattice, the battery and gfcheck alone."""
    checks = {
        "certificate": lambda: check_lattice_laws(lat),
        "battery": lambda: check_all_laws(alg),
        "cha": lambda: check_cha(lat),
        "distributive": lambda: check_distributive(lat),
        "gfcheck": lambda: check_gf_ring_conditions(constant_family(("p", "q"), alg)),
    }
    return {name: check for name, check in checks.items() if lat is not None or name in ("battery", "gfcheck")}


def seeded_tables(seed, count):
    """Table algebras of 4 and 5 elements off the tables of seeded random lattices;
    every other one has a wedge or vee cell redrawn and a complement swapping O and I."""
    rng = Random(seed)
    tables = []
    for i, lat in enumerate(lat for lat in random_lattices(seed, 8 * count, 5) if len(lat) >= 4):
        tokens = lat.elements
        wedge = {(x, y): lat.meet(x, y) for x in tokens for y in tokens}
        vee = {(x, y): lat.join(x, y) for x in tokens for y in tokens}
        complement = None
        if i % 2:
            rng.choice((wedge, vee))[rng.choice(tokens), rng.choice(tokens)] = rng.choice(tokens)
            complement = {x: rng.choice(tokens) for x in tokens}
            complement[lat.bottom], complement[lat.top] = lat.top, lat.bottom
        tables.append(FiniteAlgebraTable(f"table{i}", tokens, lat.bottom, lat.top, wedge, vee, complement))
        if len(tables) == count:
            return tables


def record_targets():
    """Every shipped finite algebra and lattice, seeded random lattices (every other one
    with a complement) and seeded tables, each with its complement or None."""
    workspace = builtin_workspace()
    targets = [(alg, None) for alg in workspace.algebras.values() if alg.finite]
    targets += [(lat, None) for lat in (*workspace.lattices.values(), powerset_lattice(4))]
    rng = Random(30)
    for i, lat in enumerate(lat for lat in random_lattices(seed=30, count=12, max_size=12) if len(lat) >= 2):
        complement = None
        if i % 2:
            complement = {x: rng.choice(lat.elements) for x in lat.elements}
            complement[lat.bottom], complement[lat.top] = lat.top, lat.bottom
        targets.append((lat, complement))
    targets += [(table, None) for table in seeded_tables(seed=30, count=8)]
    return [pytest.param(*target, id=target[0].name + " with complement" * bool(target[1])) for target in targets]


@pytest.mark.parametrize("target, complement", record_targets())
def test_shared_scans_match_fresh_ones(target, complement, fresh_copy):
    def make():
        if isinstance(target, FiniteLattice):
            lat = fresh_copy(target)
            return lat, lattice_algebra(lat, complement=complement)
        alg = target.as_handle() if isinstance(target, FiniteAlgebraTable) else fresh_copy(target)
        return alg.lattice, alg

    assert_shared_scans_match_fresh_ones(make, record_checks)


def test_a_certificate_leaves_the_battery_and_gfcheck_nothing_to_scan(kernel_scans, fresh_copy):
    lattices = [fresh_copy(lat) for lat in (m3_lattice(), n5_lattice(), powerset_lattice(3), powerset_lattice(4))]
    # 10 and 12 elements, distributive and not
    lattices += random_lattices(seed=30, count=2, max_size=12)
    shared = {
        "commutative", "commutative-wedge", "commutative-vee", "associative", "associative-wedge",
        "associative-vee", "absorption", "distributive", "complete-heyting",
    }
    for lat in lattices:
        kernel_scans.clear()
        check_lattice_laws(lat)
        assert "distributive" in kernel_scans and "complete-heyting" in kernel_scans, lat.name
        kernel_scans.clear()
        alg = lattice_algebra(lat)
        check_all_laws(alg)
        check_gf_ring_conditions(constant_family(("p", "q"), alg))
        assert not shared & set(kernel_scans), lat.name


def test_a_law_whose_second_equation_alone_fails_reads_the_record(kernel_scans):
    # chain5 with vee(m1, m2) = m3: wedge is still associative, vee is not
    tokens = chain_algebra(5).elements
    rank = tokens.index
    wedge = {(x, y): min(x, y, key=rank) for x in tokens for y in tokens}
    vee = {(x, y): max(x, y, key=rank) for x in tokens for y in tokens}
    vee["m1", "m2"] = "m3"
    table = FiniteAlgebraTable("vee-broken", tokens, "O", "I", wedge, vee)

    def checks(alg):
        return {name: partial(check_law, alg, law) for name, law in (
            ("wedge", "associative-wedge"), ("vee", "associative-vee"), ("both", laws._ASSOCIATIVE_LAW))}

    assert_shared_scans_match_fresh_ones(lambda: (table.as_handle(),), checks)
    alg = table.as_handle()
    wedge_verdict, vee_verdict = (check_law(alg, law).verdict for law in ("associative-wedge", "associative-vee"))
    kernel_scans.clear()
    both = check_law(alg, laws._ASSOCIATIVE_LAW).verdict
    assert kernel_scans == []
    assert wedge_verdict.holds and both == vee_verdict and both.failed
    assert both.witness.note == get_law("associative-vee").equations[0][0]


def test_distributive_after_a_certificate_reads_the_lower_bound(kernel_scans, fresh_copy):
    for lat in (fresh_copy(m3_lattice()), fresh_copy(n5_lattice())):
        cert = check_lattice_laws(lat)
        # the first failing triple fails the first equation; the other passes every triple before it
        entries = [lat._tables.scanned[fn] for _, fn in get_law("distributive").equations]
        (_, m, first_fails), (_, n, second_fails) = entries
        assert m == n and (first_fails, second_fails) == (True, False), lat.name
        kernel_scans.clear()
        verdict = check_distributive(lat)
        assert kernel_scans == [], lat.name
        assert verdict == cert.distributive == check_distributive(fresh_copy(lat)), lat.name
        assert verdict.failed and verdict.describe() == cert.distributive.describe()


def test_a_registry_equation_under_another_label_reads_the_record(kernel_scans):
    # eight elements, so pairs run on the tables; wedge keeps its left argument
    # and vee its right one, apart from the eight O/I identities
    tokens = ("O", "I", *"abcdef")
    wedge = {(x, y): x for x in tokens for y in tokens}
    vee = {(x, y): y for x in tokens for y in tokens}
    for x, y in product("OI", repeat=2):
        wedge[x, y] = "I" if x == y == "I" else "O"
        vee[x, y] = "O" if x == y == "O" else "I"
    table = FiniteAlgebraTable("proj8", tokens, "O", "I", wedge, vee)
    commutes = get_law("commutative-wedge")
    relabelled = dataclasses.replace(commutes, name="swap", equations=(("swap", commutes.equations[0][1]),))

    def checks(alg):
        return {
            "registry": partial(check_law, alg, commutes),
            "relabelled": partial(check_law, alg, relabelled),
            "witness search": partial(find_noncommuting_witness, alg),
        }

    assert_shared_scans_match_fresh_ones(lambda: (table.as_handle(),), checks)
    alg = table.as_handle()
    registry = check_law(alg, commutes).verdict
    kernel_scans.clear()
    witness = find_noncommuting_witness(alg)
    verdict = check_law(alg, relabelled).verdict
    assert kernel_scans == []
    assert witness.note == "wedge(x, y) = wedge(y, x)" and verdict.witness.note == "swap"
    assert registry.witness.inputs == witness.inputs == verdict.witness.inputs


def test_a_scan_through_the_operations_records_nothing(fresh_copy):
    # Two handles share one lattice's tables. The columns have no name, so every
    # slab of this law is scanned through each handle's operations, and what one
    # handle passes there says nothing of the other.
    lat = fresh_copy(powerset_lattice(3))
    first, second = lattice_algebra(lat, name="first"), lattice_algebra(lat, name="second")
    named = laws.Law("named-first", 2, False, (("name = first", lambda o, x, y: (o.name, "first")),))
    assert first._tables is second._tables
    assert check_law(first, named).verdict.holds
    assert check_law(second, named).verdict.failed
    assert len(lat._tables.scanned) == 0


def test_laws_sharing_equations_answer_as_fresh_scans(kernel_scans):
    # Laws of one or two of four equations of three variables, on tables that break
    # them at different triples: checked in a seeded order on one handle, each law
    # gives a fresh handle's verdict, and once all are checked none scans again.
    equations = [eq for name in ("associative-wedge", "associative-vee", "distributive")
                 for eq in get_law(name).equations]
    combined = [laws.Law(f"law{i}", 3, False, eqs)
                for i, eqs in enumerate(chain(permutations(equations, 1), permutations(equations, 2)))]
    rng = Random(30)
    for table in seeded_tables(seed=31, count=16):
        fresh = [check_law(table.as_handle(), law).verdict for law in combined]
        alg = table.as_handle()
        order = rng.sample(range(len(combined)), len(combined))
        shared = {i: check_law(alg, combined[i]).verdict for i in order}
        assert [shared[i] for i in range(len(combined))] == fresh, table.name
        kernel_scans.clear()
        for law in combined:
            check_law(alg, law)
        assert kernel_scans == [], table.name


def test_one_function_at_two_arities_reads_no_entry_of_the_other(fresh_copy):
    # x wedge (the last argument) = x fails first at the pair (a, 0), number 8,
    # and at the triple (a, 0, 0), number 64
    alg = lattice_algebra(fresh_copy(powerset_lattice(3)))
    fn = lambda o, x, *rest: (o.wedge(x, rest[-1]), x)  # noqa: E731
    pair, triple = (laws.Law(f"arity{n}", n, False, (("x wedge last = x", fn),)) for n in (2, 3))
    expected = [laws._verdict(alg, law, product(alg.elements, repeat=law.arity)) for law in (pair, triple)]
    assert [check_law(alg, law).verdict for law in (pair, triple, pair, triple)] == expected * 2
