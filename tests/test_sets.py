import ast
import dataclasses
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest

from modernsets import (
    AlgebraFamily,
    AlgebraHandle,
    DomainError,
    FiniteAlgebraTable,
    IncompatibleFamilyError,
    LawReport,
    RationalMatrix,
    StructuralError,
    Universe,
    UnsupportedOperationError,
    Verdict,
    Witness,
    chain_algebra,
    classical_algebra,
    complement as set_complement,
    constant_family,
    contains,
    embed_crisp,
    empty_set,
    equals,
    full_set,
    fuzzy_algebra,
    intersection,
    lattice_algebra,
    m3_lattice,
    matrix_algebra,
    modern_set,
    n5_lattice,
    powerset_lattice,
    union,
    verify_crisp_restriction,
)


def fuzzy_family(points=("p", "q")):
    return constant_family(points, fuzzy_algebra(), name="fz")


class TestUniverse:
    def test_basic(self):
        u = Universe(("x", "y"))
        assert len(u) == 2
        assert "x" in u
        assert list(u) == ["x", "y"]

    def test_empty_rejected(self):
        with pytest.raises(StructuralError):
            Universe(())

    def test_duplicates_rejected(self):
        with pytest.raises(StructuralError):
            Universe(("x", "x"))


class TestAlgebraFamily:
    def test_coverage_is_validated(self):
        u = Universe(("x", "y"))
        with pytest.raises(StructuralError):
            AlgebraFamily(u, {"x": classical_algebra()})
        with pytest.raises(StructuralError):
            AlgebraFamily(
                u,
                {"x": classical_algebra(), "y": classical_algebra(), "z": classical_algebra()},
            )

    def test_algebra_at(self):
        fam = fuzzy_family()
        assert fam.algebra_at("p") is fuzzy_algebra()
        with pytest.raises(DomainError):
            fam.algebra_at("nope")

    def test_compatibility(self):
        a = constant_family(("x",), classical_algebra())
        b = constant_family(("x",), classical_algebra())
        c = constant_family(("y",), classical_algebra())
        assert a.compatible(a)
        assert a.compatible(b)  # same handles, equal universes
        assert not a.compatible(c)


class TestConstruction:
    def test_modern_set_validates_points(self):
        fam = fuzzy_family()
        with pytest.raises(DomainError) as err:
            modern_set(fam, {"p": Fraction(1, 2)})
        assert "'q'" in str(err.value)
        with pytest.raises(DomainError) as err:
            modern_set(fam, {"p": Fraction(1, 2), "q": Fraction(1, 2), "r": Fraction(1)})
        assert "'r'" in str(err.value)

    def test_modern_set_validates_values(self):
        fam = fuzzy_family()
        with pytest.raises(DomainError) as err:
            modern_set(fam, {"p": Fraction(3, 2), "q": Fraction(0)})
        assert "'p'" in str(err.value)

    def test_value_at(self):
        fam = fuzzy_family()
        a = modern_set(fam, {"p": Fraction(1, 2), "q": Fraction(3, 10)})
        assert a.value_at("p") == Fraction(1, 2)
        with pytest.raises(DomainError):
            a.value_at("zzz")

    def test_empty_and_full(self):
        fam = fuzzy_family()
        assert empty_set(fam).value_at("p") == Fraction(0)
        assert full_set(fam).value_at("q") == Fraction(1)

    def test_membership_mapping_is_readonly(self):
        fam = fuzzy_family()
        a = empty_set(fam)
        with pytest.raises(TypeError):
            a.membership["p"] = Fraction(1)

    def test_membership_follows_the_universe(self):
        fam = fuzzy_family(("q", "p"))
        a = modern_set(fam, {"p": Fraction(1, 2), "q": Fraction(3, 10)})
        assert a.membership == {"p": Fraction(1, 2), "q": Fraction(3, 10)}
        assert list(a.membership) == ["q", "p"]
        assert a.describe() == "{'q': 3/10, 'p': 1/2}"

    def test_unknown_point_message(self):
        a = empty_set(fuzzy_family())
        with pytest.raises(DomainError, match=r"^point 'zzz' is not in the universe$"):
            a.value_at("zzz")

    @pytest.mark.parametrize("membership, message", [
        ({"p": "O"}, "no membership value given at point 'q'"),
        ({"p": "Z", "q": Fraction(0)}, "value Z at point 'p' is not in the carrier of algebra 'chain3'"),
        ({"p": "O", "q": Fraction(3, 2)}, "value 3/2 at point 'q' is not in the carrier of algebra 'fuzzy'"),
        ({"p": "O", "q": Fraction(0), "r": "I"}, "membership given at unknown point 'r'"),
        # values are checked in universe order, before unknown points
        ({"q": Fraction(1), "p": "Z", "r": 1}, "value Z at point 'p' is not in the carrier of algebra 'chain3'"),
    ])
    def test_modern_set_messages(self, membership, message):
        fam = AlgebraFamily(Universe(("p", "q")), {"p": chain_algebra(3), "q": fuzzy_algebra()})
        with pytest.raises(DomainError) as err:
            modern_set(fam, membership)
        assert str(err.value) == message


class TestPointwiseOps:
    def test_fuzzy_union_intersection(self):
        fam = fuzzy_family()
        a = modern_set(fam, {"p": Fraction(1, 2), "q": Fraction(3, 10)})
        b = modern_set(fam, {"p": Fraction(1, 4), "q": Fraction(7, 10)})
        u = union(a, b)
        i = intersection(a, b)
        assert u.value_at("p") == Fraction(1, 2)
        assert u.value_at("q") == Fraction(7, 10)
        assert i.value_at("p") == Fraction(1, 4)
        assert i.value_at("q") == Fraction(3, 10)

    def test_matrix_intersection_depends_on_order(self):
        fam = constant_family(("x",), matrix_algebra(2))
        e01 = modern_set(fam, {"x": RationalMatrix([[0, 1], [0, 0]])})
        e10 = modern_set(fam, {"x": RationalMatrix([[0, 0], [1, 0]])})
        left = intersection(e01, e10)
        right = intersection(e10, e01)
        assert left.value_at("x") == RationalMatrix([[1, 0], [0, 0]])
        assert right.value_at("x") == RationalMatrix([[0, 0], [0, 1]])
        assert not equals(left, right)

    def test_matrix_union_normalizes(self):
        fam = constant_family(("x",), matrix_algebra(2))
        f = full_set(fam)
        assert union(f, f).value_at("x") == RationalMatrix.identity(2)

    def test_incompatible_families_rejected(self):
        a = empty_set(constant_family(("x",), classical_algebra()))
        b = empty_set(constant_family(("y",), classical_algebra()))
        with pytest.raises(IncompatibleFamilyError):
            union(a, b)
        with pytest.raises(IncompatibleFamilyError):
            intersection(a, b)

    def test_equal_families_built_separately_work(self):
        a = full_set(constant_family(("x",), classical_algebra()))
        b = empty_set(constant_family(("x",), classical_algebra()))
        assert union(a, b).value_at("x") == "I"


class TestComplement:
    def test_crisp_involution(self):
        fam = constant_family(("x", "y", "z"), classical_algebra())
        for values in product(("O", "I"), repeat=3):
            a = modern_set(fam, dict(zip(("x", "y", "z"), values)))
            assert equals(set_complement(set_complement(a)), a)

    def test_missing_complement_names_point(self):
        u = Universe(("x", "y"))
        fam = AlgebraFamily(u, {"x": classical_algebra(), "y": matrix_algebra(2)})
        a = empty_set(fam)
        with pytest.raises(UnsupportedOperationError) as err:
            set_complement(a)
        assert "'y'" in str(err.value)


class TestPredicates:
    def test_equals_and_is_empty(self):
        fam = fuzzy_family()
        assert dict(empty_set(fam).membership) == {"p": 0, "q": 0}
        assert dict(full_set(fam).membership) == {"p": 1, "q": 1}
        assert equals(empty_set(fam), empty_set(fam))
        assert not equals(empty_set(fam), full_set(fam))

    def test_contains_crisp(self):
        fam = constant_family(("x", "y"), classical_algebra())
        small = modern_set(fam, {"x": "I", "y": "O"})
        big = modern_set(fam, {"x": "I", "y": "I"})
        assert contains(big, small)
        assert not contains(small, big)

    def test_contains_fuzzy(self):
        fam = fuzzy_family()
        small = modern_set(fam, {"p": Fraction(1, 4), "q": Fraction(1, 2)})
        big = modern_set(fam, {"p": Fraction(1, 2), "q": Fraction(1, 2)})
        assert contains(big, small)
        assert not contains(small, big)

    def test_contains_needs_an_order(self):
        fam = constant_family(("x",), matrix_algebra(2))
        a = empty_set(fam)
        with pytest.raises(UnsupportedOperationError) as err:
            contains(a, a)
        assert "'x'" in str(err.value)

    def test_contains_refuses_an_interval_broken_on_k3(self, broken_interval):
        # the interval's order is read off its tables on K3, which are no lattice
        a = empty_set(constant_family(("x",), broken_interval))
        with pytest.raises(UnsupportedOperationError, match="'x' is not lattice-backed"):
            contains(a, a)

    def test_contains_refuses_an_interval_with_a_replaced_vee(self, replaced_interval):
        # its tables on K3 are still the chain, but the replaced vee voids
        # the deciding claim, so it has no order to read
        a = empty_set(constant_family(("x",), replaced_interval))
        with pytest.raises(UnsupportedOperationError, match="'x' is not lattice-backed"):
            contains(a, a)

    def test_hash_consistent_with_eq(self):
        fam = fuzzy_family()
        a = modern_set(fam, {"p": Fraction(1, 2), "q": Fraction(0)})
        b = modern_set(fam, {"p": Fraction(1, 2), "q": Fraction(0)})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_equality_follows_family_compatibility(self):
        # Twin families: built separately, the same algebra at every point.
        # The set operations accept them together, so equality must too.
        twin_a = constant_family(("p", "q"), fuzzy_algebra())
        twin_b = constant_family(("p", "q"), fuzzy_algebra())
        values = {"p": Fraction(1, 2), "q": Fraction(0)}
        a = modern_set(twin_a, values)
        b = modern_set(twin_b, values)
        assert twin_a is not twin_b and twin_a.compatible(twin_b)
        assert a == b and equals(a, b)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != modern_set(twin_b, {"p": Fraction(1, 2), "q": Fraction(1)})
        # Another algebra object at the points: incompatible, so unequal
        # even though every value agrees.
        other = modern_set(constant_family(("p", "q"), chain_algebra(3)), {"p": "O", "q": "O"})
        crisp = modern_set(constant_family(("p", "q"), classical_algebra()), {"p": "O", "q": "O"})
        assert not crisp.family.compatible(other.family)
        assert crisp != other


class TestEmbedding:
    def test_embed_crisp_values(self):
        fam = fuzzy_family(("p", "q", "r"))
        a = embed_crisp(fam, {"p", "r"})
        assert a.value_at("p") == Fraction(1)
        assert a.value_at("q") == Fraction(0)
        assert a.value_at("r") == Fraction(1)

    def test_embedding_is_a_homomorphism(self):
        points = ("x", "y", "z")
        fam = constant_family(points, chain_algebra(3))
        subsets = [
            {p for i, p in enumerate(points) if mask >> i & 1} for mask in range(8)
        ]
        for s in subsets:
            for t in subsets:
                assert equals(
                    union(embed_crisp(fam, s), embed_crisp(fam, t)),
                    embed_crisp(fam, s | t),
                )
                assert equals(
                    intersection(embed_crisp(fam, s), embed_crisp(fam, t)),
                    embed_crisp(fam, s & t),
                )

    def test_unknown_point_rejected(self):
        with pytest.raises(DomainError):
            embed_crisp(fuzzy_family(), {"nope"})


class TestCrispRestriction:
    @pytest.mark.parametrize(
        "algebra",
        [
            classical_algebra(),
            fuzzy_algebra(),
            chain_algebra(3),
            chain_algebra(5),
            matrix_algebra(2),
        ],
        ids=lambda a: a.name,
    )
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_holds_for_shipped_algebras(self, algebra, n):
        fam = constant_family(tuple(f"x{i}" for i in range(n)), algebra)
        report = verify_crisp_restriction(fam)
        assert report.verdict.holds
        details = dict(report.verdict.details)
        assert details["universe-size"] == n
        assert details["crisp-sets"] == 2 ** n

    def test_complement_detail(self):
        fam = constant_family(("x",), fuzzy_algebra())
        assert dict(verify_crisp_restriction(fam).verdict.details)["complement-checked"]
        fam = constant_family(("x",), matrix_algebra(2))
        assert not dict(verify_crisp_restriction(fam).verdict.details)["complement-checked"]

    def test_work_is_counted_per_point(self):
        # 3n + 1 pairs and n + 1 complements, each over all n points
        calls = Counter()

        def counted(op):
            def f(*args):
                calls[op] += 1
                return getattr(classical_algebra(), op)(*args)
            return f

        counting = dataclasses.replace(
            classical_algebra(), name="counting",
            wedge=counted("wedge"), vee=counted("vee"), complement=counted("complement"),
        )
        n = 40
        report = verify_crisp_restriction(constant_family(range(n), counting))
        assert report.verdict.holds
        assert dict(report.verdict.details)["crisp-sets"] == 2 ** n
        assert calls == {"vee": n * (3 * n + 1), "wedge": n * (3 * n + 1), "complement": n * (n + 1)}

    def test_negative_control(self):
        # a two-element table where I vee I = O breaks the crisp picture
        broken = FiniteAlgebraTable(
            name="brk",
            elements=("O", "I"),
            zero_token="O",
            one_token="I",
            wedge_table={
                ("O", "O"): "O", ("O", "I"): "O", ("I", "O"): "O", ("I", "I"): "I",
            },
            vee_table={
                ("O", "O"): "O", ("O", "I"): "I", ("I", "O"): "I", ("I", "I"): "O",
            },
        ).as_handle()
        fam = constant_family(("x",), broken)
        report = verify_crisp_restriction(fam)
        assert report.verdict.failed
        assert report.verdict.witness is not None

    @staticmethod
    def broken_at_y(wedge=(), vee=(), comp=None):
        """x classical, y a table on O, m, I: Boolean on O/I except where overridden.

        Every result with an ``m`` operand is ``m``; the crisp check never
        feeds ``m`` in, so only the overridden cells can break it.
        """
        tokens = ("O", "m", "I")

        def table(boolean, overrides):
            cells = {(x, y): "m" for x in tokens for y in tokens}
            cells.update({(x, y): boolean(x, y) for x in "OI" for y in "OI"})
            cells.update(overrides)
            return cells

        broken = FiniteAlgebraTable(
            name="brk",
            elements=tokens,
            zero_token="O",
            one_token="I",
            wedge_table=table(lambda x, y: "I" if x == y == "I" else "O", dict(wedge)),
            vee_table=table(lambda x, y: "O" if x == y == "O" else "I", dict(vee)),
            complement_table={"O": "I", "m": "m", "I": "O", **comp} if comp else None,
        ).as_handle()
        return AlgebraFamily(Universe(("x", "y")), {"x": classical_algebra(), "y": broken})

    @pytest.mark.parametrize(
        "wedge, vee, comp, text",
        [
            ((), [(("I", "I"), "m")], None,
             "union left the crisp sets: inputs ({'y'}, {'y'}) give non-crisp != crisp"),
            ((), [(("O", "I"), "O")], None,
             "union disagrees with subset union: inputs ({}, {'y'}) give {} != {'y'}"),
            ([(("I", "O"), "m")], (), None,
             "intersection left the crisp sets: inputs ({'y'}, {}) give non-crisp != crisp"),
            ([(("I", "I"), "O")], (), None,
             "intersection disagrees with subset intersection: "
             "inputs ({'y'}, {'y'}) give {} != {'y'}"),
            ((), (), {"O": "O", "I": "I"},
             "complement disagrees with subset complement: inputs ({}) give {'x'} != {'x', 'y'}"),
            ((), (), {"O": "m"},
             "complement disagrees with subset complement: "
             "inputs ({}) give non-crisp != {'x', 'y'}"),
        ],
        ids=["union-escapes", "union-differs", "intersection-escapes",
             "intersection-differs", "complement-differs", "complement-escapes"],
    )
    def test_witness_text_and_recheck(self, wedge, vee, comp, text):
        fam = self.broken_at_y(wedge, vee, comp)
        report = verify_crisp_restriction(fam)
        assert report.verdict.failed
        witness = report.verdict.witness
        assert witness.describe() == text

        # Re-evaluate from scratch: embed the named subsets, apply the op.
        def subset(label):
            return set() if label == "{}" else ast.literal_eval(label)

        points = {"x", "y"}
        crisp = {
            embed_crisp(fam, members): set(members)
            for k in range(3)
            for members in combinations(sorted(points), k)
        }
        op = witness.note.split()[0]
        args = [subset(label) for label in witness.inputs]
        sets = [embed_crisp(fam, members) for members in args]
        if op == "union":
            got, expected = union(*sets), args[0] | args[1]
        elif op == "intersection":
            got, expected = intersection(*sets), args[0] & args[1]
        else:
            got, expected = set_complement(*sets), points - args[0]
        if witness.lhs == "non-crisp":
            assert got not in crisp
            if op != "complement":
                assert witness.rhs == "crisp"
                return
        else:
            assert crisp[got] == subset(witness.lhs)
        assert subset(witness.rhs) == expected
        assert witness.lhs != witness.rhs

    def test_point_with_o_equal_to_i_fails(self):
        # The embedding is not one-to-one there, so subsets cannot be recovered.
        degenerate = AlgebraHandle(
            name="one-point",
            zero="e",
            one="e",
            wedge=lambda x, y: "e",
            vee=lambda x, y: "e",
            is_member=lambda x: x == "e",
            elements=("e",),
        )
        fam = AlgebraFamily(Universe(("x", "y")), {"x": classical_algebra(), "y": degenerate})
        witness = verify_crisp_restriction(fam).verdict.witness
        assert witness.describe() == (
            "union disagrees with subset union: inputs ({}, {}) give {'y'} != {}"
        )

    def test_report_shape(self):
        report = verify_crisp_restriction(constant_family(("x",), classical_algebra()))
        assert report.law == "crisp-restriction"
        assert "crisp-restriction" in report.describe()


def full_scan_crisp_restriction(family):
    """Crisp restriction decided on every pair of the 2^|X| crisp sets, as a reference.

    Each result is read back through a dictionary of all the embeddings, so a
    shared embedding reads back as its largest mask; the shipped check reads
    point by point with ``==`` and agrees with this only for values that obey
    Python's hash/eq contract (equal values hash equal), as every carrier here does.
    """
    points = family.universe.points
    masks = range(1 << len(points))
    full = masks[-1]
    crisp = [embed_crisp(family, [p for i, p in enumerate(points) if a >> i & 1]) for a in masks]
    mask_of = {s: a for a, s in enumerate(crisp)}.get

    def first_failure():
        for a, b in product(masks, repeat=2):
            for op, f, want in (("union", union, a | b), ("intersection", intersection, a & b)):
                got = mask_of(f(crisp[a], crisp[b]))
                if got != want:
                    return op, (a, b), got, want
        if all(alg.complement is not None for alg in family.handles):
            for a in masks:
                got = mask_of(set_complement(crisp[a]))
                if got != full ^ a:
                    return "complement", (a,), got, full ^ a
        return None

    found = first_failure()
    if found is None:
        has_complement = all(alg.complement is not None for alg in family.handles)
        details = (("universe-size", len(points)), ("crisp-sets", len(masks)),
                   ("complement-checked", has_complement))
        return LawReport("crisp-restriction", Verdict.holds_exhaustive(details=details))

    def subset(mask):
        if mask is None:
            return "non-crisp"
        return "{" + ", ".join(repr(p) for i, p in enumerate(points) if mask >> i & 1) + "}"

    op, inputs, got, want = found
    inputs = tuple(map(subset, inputs))
    if got is None and op != "complement":
        witness = Witness(inputs, "non-crisp", "crisp", f"{op} left the crisp sets")
    else:
        witness = Witness(inputs, subset(got), subset(want), f"{op} disagrees with subset {op}")
    return LawReport("crisp-restriction", Verdict.fails(witness))


SHIPPED = (
    classical_algebra(), fuzzy_algebra(), chain_algebra(3), chain_algebra(5),
    matrix_algebra(2), matrix_algebra(3), lattice_algebra(m3_lattice()),
    lattice_algebra(n5_lattice()), lattice_algebra(powerset_lattice(2)),
)
TOKENS = ("O", "m", "I")
BOOLEAN = {
    "wedge": lambda x, y: "I" if x == y == "I" else "O",
    "vee": lambda x, y: "O" if x == y == "O" else "I",
    "complement": {"O": "I", "I": "O"}.get,
}


def random_table(rng, name):
    """A table on O, m, I: Boolean on {O, I} but for cells broken at random, with any complement."""
    def table(op):
        cells = {(x, y): rng.choice(TOKENS) for x in TOKENS for y in TOKENS}
        for x, y in product("OI", repeat=2):
            cells[x, y] = rng.choice(TOKENS) if rng.random() < 0.06 else BOOLEAN[op](x, y)
        return cells

    choice, comp = rng.choice((None, "boolean", "any")), None
    if choice is not None:
        comp = {x: rng.choice(TOKENS) for x in TOKENS}
        if choice == "boolean":
            comp.update(O="I", I="O")
    return FiniteAlgebraTable(name, TOKENS, "O", "I", table("wedge"), table("vee"), comp).as_handle()


def random_handle(rng, name):
    """O, m and I, with cells on {O, I} that now and then go wrong, non-crisp, off the carrier, or raise."""
    def op(label, arity):
        outcomes = {}
        for cell in product("OI", repeat=arity):
            roll = rng.random()
            if roll < 0.04:
                outcomes[cell] = "raise"
            elif roll < 0.08:
                outcomes[cell] = rng.choice(("O", "m", "I", "off"))
            else:
                outcomes[cell] = BOOLEAN[label](*cell)

        def f(*args):
            got = outcomes.get(args, "m")
            if got == "raise":
                raise ArithmeticError(f"{name} {label}{args}")
            return got
        return f

    complement = op("complement", 1) if rng.random() < 0.6 else None
    return AlgebraHandle(
        name, "O", "I", op("wedge", 2), op("vee", 2), TOKENS.__contains__, complement, TOKENS
    )


def degenerate_handle(rng, name):
    """O = I = e; a result may be the non-crisp f."""
    results = {cell: rng.choice("eeef") for cell in ("wedge", "vee", "complement")}
    return AlgebraHandle(
        name, "e", "e", lambda x, y: results["wedge"], lambda x, y: results["vee"],
        ("e", "f").__contains__,
        (lambda x: results["complement"]) if rng.random() < 0.5 else None, ("e", "f"),
    )


def random_family(rng):
    """1-5 points, each a broken table, a hand-built handle, an O = I handle, a
    shipped algebra, or a handle an earlier point already holds."""
    handles = []
    for i in range(rng.randint(1, 5)):
        if handles and rng.random() < 0.3:
            handles.append(rng.choice(handles))
        else:
            kind = rng.choice((random_table, random_table, random_handle, degenerate_handle, None, None))
            handles.append(rng.choice(SHIPPED) if kind is None else kind(rng, f"h{i}"))
    points = tuple(f"p{i}" for i in range(len(handles)))
    return AlgebraFamily(Universe(points), dict(zip(points, handles)))


def crisp_outcome(check, family):
    try:
        report = check(family)
    except Exception as exc:
        return type(exc), str(exc)
    return report.describe(), report.verdict.details


class TestCrispRestrictionMatchesFullScan:
    @pytest.mark.parametrize("seed", range(10))
    def test_same_verdict_witness_and_error(self, seed):
        rng = Random(seed)
        seen = Counter()
        for k in range(100):
            family = random_family(rng)
            expected = crisp_outcome(full_scan_crisp_restriction, family)
            got = crisp_outcome(verify_crisp_restriction, family)
            assert got == expected, (k, [alg.name for alg in family.handles])
            if isinstance(expected[0], type):
                seen["raises"] += 1
            elif "holds" in expected[0]:
                seen["holds"] += 1
            else:
                seen["fails"] += 1
                seen["fails past the empty first set"] += "inputs ({}" not in expected[0]
        assert min(seen.values()) > 0 and len(seen) == 4, seen
