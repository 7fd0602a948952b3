import dataclasses
import gc
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, combinations, islice, product
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from modernsets import (
    LAW_NAMES,
    LAWS,
    AlgebraFamily,
    AlgebraHandle,
    DomainError,
    FiniteAlgebraTable,
    ModernSet,
    PreconditionError,
    StructuralError,
    RationalMatrix,
    UnsupportedOperationError,
    Universe,
    Verdict,
    Witness,
    chain_algebra,
    check_all_laws,
    check_cha,
    check_family_law,
    check_gf_ring_conditions,
    check_lattice_laws,
    check_law,
    check_wba_axioms,
    classical_algebra,
    classify_family,
    constant_family,
    contains,
    complement as set_complement,
    embed_crisp,
    empty_set,
    equals,
    full_set,
    fuzzy_algebra,
    get_law,
    intersection,
    lattice_algebra,
    lattice_from_hasse,
    lift_check,
    lift_point_value,
    lift_point_witness,
    m3_lattice,
    matrix_algebra,
    modern_set,
    n5_lattice,
    powerset_lattice,
    union,
    verify_crisp_restriction,
)
from modernsets import laws
from modernsets.algebra import Deciding, _Codes, _bound_codes, _coded_attributes
from modernsets.cli import builtin_workspace, run_command
from modernsets.fileformat import load_file
from modernsets.lattice import _PointTables
from modernsets.laws import _SetOps, _direct_frame_law, _scan, _verdict

from conftest import CHA_PAIR_LAW, SET_FRAME_PAIR_LAW, all_sets

E01 = RationalMatrix([[0, 1], [0, 0]])
E10 = RationalMatrix([[0, 0], [1, 0]])
I2 = RationalMatrix.identity(2)


def pow2_algebra():
    comp = {"0": "ab", "a": "b", "b": "a", "ab": "0"}
    return lattice_algebra(powerset_lattice(2), complement=comp)


def verdicts(reports):
    return {r.law: r.verdict for r in reports}


def recheck_point_witness(algebra, law, witness):
    """Re-evaluate the failed equation directly and compare with the record."""
    for label, fn in law.equations:
        if witness.note == label or len(law.equations) == 1:
            lhs, rhs = fn(algebra, *witness.inputs)
            if (lhs, rhs) == (witness.lhs, witness.rhs):
                assert lhs != rhs
                return
    pytest.fail(f"witness for {law.name} does not re-evaluate: {witness}")


# The registry as it was written by hand, label beside lambda, before it was
# written as equation text. Kept as the reference the compiled registry must
# reproduce: same names, arities, labels and sides.
Law = laws.Law
REFERENCE_LAWS = (
    Law(
        "commutative-wedge", 2, False,
        (("x wedge y = y wedge x", lambda o, x, y: (o.wedge(x, y), o.wedge(y, x))),),
    ),
    Law(
        "commutative-vee", 2, False,
        (("x vee y = y vee x", lambda o, x, y: (o.vee(x, y), o.vee(y, x))),),
    ),
    Law(
        "associative-wedge", 3, False,
        ((
            "x wedge (y wedge z) = (x wedge y) wedge z",
            lambda o, x, y, z: (o.wedge(x, o.wedge(y, z)), o.wedge(o.wedge(x, y), z)),
        ),),
    ),
    Law(
        "associative-vee", 3, False,
        ((
            "x vee (y vee z) = (x vee y) vee z",
            lambda o, x, y, z: (o.vee(x, o.vee(y, z)), o.vee(o.vee(x, y), z)),
        ),),
    ),
    Law(
        "absorption", 2, False,
        (
            ("x wedge (x vee y) = x", lambda o, x, y: (o.wedge(x, o.vee(x, y)), x)),
            ("x vee (x wedge y) = x", lambda o, x, y: (o.vee(x, o.wedge(x, y)), x)),
        ),
    ),
    Law(
        "distributive", 3, False,
        (
            (
                "x vee (y wedge z) = (x vee y) wedge (x vee z)",
                lambda o, x, y, z: (
                    o.vee(x, o.wedge(y, z)),
                    o.wedge(o.vee(x, y), o.vee(x, z)),
                ),
            ),
            (
                "x wedge (y vee z) = (x wedge y) vee (x wedge z)",
                lambda o, x, y, z: (
                    o.wedge(x, o.vee(y, z)),
                    o.vee(o.wedge(x, y), o.wedge(x, z)),
                ),
            ),
        ),
    ),
    Law(
        "idempotent-wedge", 1, False,
        (("x wedge x = x", lambda o, x: (o.wedge(x, x), x)),),
    ),
    Law(
        "idempotent-vee", 1, False,
        (("x vee x = x", lambda o, x: (o.vee(x, x), x)),),
    ),
    Law(
        "excluded-middle", 1, True,
        (("x vee complement(x) = I", lambda o, x: (o.vee(x, o.complement(x)), o.one)),),
    ),
    Law(
        "non-contradiction", 1, True,
        (("x wedge complement(x) = O", lambda o, x: (o.wedge(x, o.complement(x)), o.zero)),),
    ),
    Law(
        "de-morgan", 2, True,
        (
            (
                "complement(x vee y) = complement(x) wedge complement(y)",
                lambda o, x, y: (
                    o.complement(o.vee(x, y)),
                    o.wedge(o.complement(x), o.complement(y)),
                ),
            ),
            (
                "complement(x wedge y) = complement(x) vee complement(y)",
                lambda o, x, y: (
                    o.complement(o.wedge(x, y)),
                    o.vee(o.complement(x), o.complement(y)),
                ),
            ),
        ),
    ),
    Law(
        "distributive-mixed-form", 3, False,
        ((
            "x vee (y wedge z) = (x vee y) wedge (y vee z)",
            lambda o, x, y, z: (o.vee(x, o.wedge(y, z)), o.wedge(o.vee(x, y), o.vee(y, z))),
        ),),
    ),
)
# Not a registry law: its right-hand side pairs y with z, so it is not
# distributivity and fails even on pow2.
MIXED_LAW = laws._law("distributive-mixed-form", r"x \/ (y /\ z) = (x \/ y) /\ (y \/ z)")
COMPILED_LAWS = (*LAWS, MIXED_LAW)


def assert_equations_match_reference(ops, values):
    """Every compiled equation gives the reference lambda's two sides on
    every tuple of ``values`` (complement laws only where ``ops`` has one)."""
    for law, ref in zip(COMPILED_LAWS, REFERENCE_LAWS):
        if law.needs_complement and ops.complement is None:
            continue
        for args in product(values, repeat=law.arity):
            for (label, fn), (_, ref_fn) in zip(law.equations, ref.equations):
                assert fn(ops, *args) == ref_fn(ops, *args), (label, args)


class TestRegistry:
    def test_names_and_order_are_frozen(self):
        assert LAW_NAMES == (
            "commutative-wedge",
            "commutative-vee",
            "associative-wedge",
            "associative-vee",
            "absorption",
            "distributive",
            "idempotent-wedge",
            "idempotent-vee",
            "excluded-middle",
            "non-contradiction",
            "de-morgan",
        )

    def test_arities_and_complement_needs(self):
        by_name = {law.name: law for law in LAWS}
        assert by_name["commutative-wedge"].arity == 2
        assert by_name["associative-vee"].arity == 3
        assert by_name["distributive"].arity == 3
        assert by_name["idempotent-wedge"].arity == 1
        assert by_name["excluded-middle"].needs_complement
        assert by_name["non-contradiction"].needs_complement
        assert by_name["de-morgan"].needs_complement
        assert not by_name["absorption"].needs_complement

    def test_text_registry_matches_hand_written_reference(self):
        assert len(COMPILED_LAWS) == len(REFERENCE_LAWS)
        for law, ref in zip(COMPILED_LAWS, REFERENCE_LAWS):
            assert (law.name, law.arity, law.needs_complement) == (
                ref.name, ref.arity, ref.needs_complement
            )
            assert [label for label, _ in law.equations] == [label for label, _ in ref.equations]

    def test_compiled_equations_match_reference_on_census_tables(self, census_table):
        complements = ({"O": "I", "m": "m", "I": "O"}, {"O": "I", "m": "O", "I": "m"}, None)
        for k, index in enumerate([55764, *Random(31).sample(range(3 ** 10), 60)]):
            h = census_table(index, complements[k % 3]).as_handle()
            assert_equations_match_reference(h, h.elements)

    def test_compiled_equations_match_reference_on_infinite_carriers(self):
        fz = fuzzy_algebra()
        rng = Random(5)
        assert_equations_match_reference(fz, [*fz.boundary, *(fz.sample(rng) for _ in range(8))])
        mat2 = matrix_algebra(2)
        assert_equations_match_reference(mat2, mat2.boundary)

    @pytest.mark.parametrize(
        "lat", [m3_lattice(), n5_lattice(), powerset_lattice(3)], ids=["m3", "n5", "pow3"]
    )
    def test_compiled_equations_match_reference_on_lattices(self, lat):
        flipped = dict(zip(lat.elements, reversed(lat.elements)))
        assert_equations_match_reference(lattice_algebra(lat, complement=flipped), lat.elements)

    def test_get_law(self):
        assert get_law("absorption").name == "absorption"
        with pytest.raises(ValueError) as err:
            get_law("nosuch")
        assert "absorption" in str(err.value)


class TestPointAlgebras:
    def test_classical_satisfies_everything(self):
        for report in check_all_laws(classical_algebra()):
            assert report.verdict.holds, report.law
            assert report.verdict.mode == "exhaustive"

    def test_chain3_profile(self):
        vs = verdicts(check_all_laws(chain_algebra(3)))
        failing = {name for name, v in vs.items() if v.failed}
        assert failing == {"excluded-middle", "non-contradiction"}
        assert vs["excluded-middle"].witness.inputs == ("m",)
        assert vs["excluded-middle"].witness.lhs == "m"
        assert vs["excluded-middle"].witness.rhs == "I"
        assert vs["non-contradiction"].witness.inputs == ("m",)
        assert vs["non-contradiction"].witness.rhs == "O"
        assert vs["de-morgan"].holds

    def test_fuzzy_profile(self):
        vs = verdicts(check_all_laws(fuzzy_algebra(), samples=1000, seed=0))
        for name, v in vs.items():
            if name in ("excluded-middle", "non-contradiction"):
                assert v.failed, name
            else:
                assert v.holds, name
                assert v.mode == "sampled"
                assert v.samples >= 1000
                assert v.seed == 0
        # boundary values are probed first, so the witness is the midpoint
        assert vs["excluded-middle"].witness.inputs == (Fraction(1, 2),)
        assert vs["excluded-middle"].witness.lhs == Fraction(1, 2)
        assert vs["excluded-middle"].witness.rhs == Fraction(1)
        assert vs["non-contradiction"].witness.lhs == Fraction(1, 2)
        assert vs["non-contradiction"].witness.rhs == Fraction(0)

    def test_matrix_profile(self):
        vs = verdicts(check_all_laws(matrix_algebra(2), samples=300, seed=0))
        expected_failed = {
            "commutative-wedge",
            "associative-wedge",
            "associative-vee",
            "absorption",
            "distributive",
            "idempotent-wedge",
            "idempotent-vee",
        }
        for name in expected_failed:
            assert vs[name].failed, name
        assert vs["commutative-vee"].holds
        for name in ("excluded-middle", "non-contradiction", "de-morgan"):
            assert vs[name].status == "not-applicable"
            assert "complement" in vs[name].reason

    def test_matrix_witnesses_from_boundary(self):
        vs = verdicts(check_all_laws(matrix_algebra(2), samples=300, seed=0))
        assert vs["commutative-wedge"].witness.inputs == (E01, E10)
        # summing the identity with itself twice is not associative after
        # normalization: I vee (I vee E01) keeps the doubled diagonal
        assert vs["associative-vee"].witness.inputs == (I2, I2, E01)
        assert vs["associative-vee"].witness.lhs == RationalMatrix([[2, 1], [0, 2]])
        assert vs["associative-vee"].witness.rhs == RationalMatrix([[1, 1], [0, 1]])
        assert vs["idempotent-wedge"].witness.inputs == (E01,)
        assert vs["idempotent-wedge"].witness.lhs == RationalMatrix.zeros(2)

    def test_every_matrix_witness_reevaluates(self):
        m = matrix_algebra(2)
        for report in check_all_laws(m, samples=300, seed=0):
            if report.verdict.failed:
                recheck_point_witness(m, get_law(report.law), report.verdict.witness)

    def test_determinism(self):
        first = check_all_laws(fuzzy_algebra(), samples=200, seed=42)
        second = check_all_laws(fuzzy_algebra(), samples=200, seed=42)
        assert first == second
        third = check_all_laws(matrix_algebra(2), samples=200, seed=7)
        fourth = check_all_laws(matrix_algebra(2), samples=200, seed=7)
        assert third == fourth

    def test_sampled_agrees_with_exhaustive_on_finite(self):
        import random

        base = chain_algebra(3)
        tokens = base.elements
        sampled_view = dataclasses.replace(
            base,
            elements=None,
            boundary=tokens,
            sample=lambda rng: rng.choice(tokens),
        )
        for law in LAWS:
            exhaustive = check_law(base, law)
            sampled = check_law(sampled_view, law, samples=400, seed=5)
            assert exhaustive.verdict.status == sampled.verdict.status, law.name

    def test_missing_complement_is_not_applicable(self):
        report = check_law(matrix_algebra(2), "excluded-middle")
        assert report.verdict.status == "not-applicable"
        assert "mat2" in report.verdict.reason


class TestFamilyLaws:
    def test_exhaustive_crisp_family(self):
        fam = constant_family(("x", "y"), classical_algebra())
        for law in LAWS:
            verdict = check_family_law(fam, law).verdict
            assert verdict.holds, law.name
            assert verdict.mode == "exhaustive"

    def test_arity_one_scan_builds_only_its_witness(self, monkeypatch):
        # excluded middle fails at the second of chain5@6's 15,625 sets,
        # (O, ..., O, m1); the scan runs on index columns, so the only set
        # it builds is that witness
        built = []

        def counted(family, values):
            built.append(ModernSet(family, values))
            return built[-1]

        monkeypatch.setattr(laws, "ModernSet", counted)
        fam = constant_family(tuple(f"x{i}" for i in range(6)), chain_algebra(5))
        verdict = check_family_law(fam, "excluded-middle").verdict
        second = ModernSet(fam, ("O",) * 5 + ("m1",))
        assert verdict.failed and verdict.witness.inputs == (second,)
        assert built == [second]

    def test_value_lane_arity_one_scan_builds_only_its_witness(self, monkeypatch):
        # a carrier listing m twice does not compile, so that point of this
        # family of 500 sets runs on its values; excluded middle fails at the
        # second set, and the only set the scan builds is that witness
        built = []

        def counted(family, values):
            built.append(ModernSet(family, values))
            return built[-1]

        monkeypatch.setattr(laws, "ModernSet", counted)
        doubled = dataclasses.replace(chain_algebra(3), name="doubled", elements=("O", "m", "m", "I"))
        fam = family_of([doubled, chain_algebra(5), chain_algebra(5), chain_algebra(5)])
        verdict = check_family_law(fam, "excluded-middle").verdict
        second = ModernSet(fam, ("O", "O", "O", "m1"))
        assert verdict.failed and verdict.witness.inputs == (second,)
        assert built == [second]

    def test_mixed_matrix_family_fails_commutativity(self):
        u = Universe(("x1", "x2"))
        fam = AlgebraFamily(u, {"x1": classical_algebra(), "x2": matrix_algebra(2)})
        verdict = check_family_law(fam, "commutative-wedge", samples=100, seed=0).verdict
        assert verdict.failed
        a, b = verdict.witness.inputs
        # the witness sets disagree only where the algebra is noncommutative
        assert a.value_at("x1") == b.value_at("x1") == "O"
        assert a.value_at("x2") != b.value_at("x2")
        lhs = intersection(a, b)
        rhs = intersection(b, a)
        assert lhs.value_at("x2") == verdict.witness.lhs.value_at("x2")
        assert rhs.value_at("x2") == verdict.witness.rhs.value_at("x2")
        assert not equals(lhs, rhs)

    def test_family_missing_complement_names_point(self):
        u = Universe(("x1", "x2"))
        fam = AlgebraFamily(u, {"x1": classical_algebra(), "x2": matrix_algebra(2)})
        verdict = check_family_law(fam, "excluded-middle").verdict
        assert verdict.status == "not-applicable"
        assert "'x2'" in verdict.reason

    def test_fuzzy_family_excluded_middle_fails(self):
        fam = constant_family(("p", "q"), fuzzy_algebra())
        verdict = check_family_law(fam, "excluded-middle", samples=100, seed=0).verdict
        assert verdict.failed
        (a,) = verdict.witness.inputs
        lhs = union(a, set_complement(a))
        assert equals(lhs, verdict.witness.lhs)
        assert equals(verdict.witness.rhs, full_set(fam))
        assert not equals(lhs, full_set(fam))


NAMED_ALGEBRAS = {
    "classical2": classical_algebra(),
    "chain3": chain_algebra(3),
    "pow2": pow2_algebra(),
    "chain5": chain_algebra(5),
    "m3": lattice_algebra(m3_lattice()),
    "n5": lattice_algebra(n5_lattice()),
}

CENSUS_TOKENS = ("O", "m", "I")


@st.composite
def census_algebras(draw):
    """A 3-element table algebra: the eight identities fixed, the rest drawn."""
    wedge = {("O", "O"): "O", ("O", "I"): "O", ("I", "O"): "O", ("I", "I"): "I"}
    vee = {("O", "O"): "O", ("O", "I"): "I", ("I", "O"): "I", ("I", "I"): "I"}
    for cell in product(CENSUS_TOKENS, repeat=2):
        if "m" in cell:
            wedge[cell] = draw(st.sampled_from(CENSUS_TOKENS))
            vee[cell] = draw(st.sampled_from(CENSUS_TOKENS))
    complement = {"O": "I", "m": "m", "I": "O"} if draw(st.booleans()) else None
    table = FiniteAlgebraTable("census", CENSUS_TOKENS, "O", "I", wedge, vee, complement)
    return table.as_handle()


def family_of(algebras):
    points = tuple(f"x{i}" for i in range(1, len(algebras) + 1))
    return AlgebraFamily(Universe(points), dict(zip(points, algebras)))


def _table_algebra(name, tokens, wedge_mm):
    """chain3's tables on ``tokens`` order, except wedge(m, m) = ``wedge_mm``."""
    rank = {"O": 0, "m": 1, "I": 2}
    wedge = {(x, y): min(x, y, key=rank.get) for x in tokens for y in tokens}
    vee = {(x, y): max(x, y, key=rank.get) for x in tokens for y in tokens}
    wedge["m", "m"] = wedge_mm
    complement = {"O": "I", "m": "m", "I": "O"}
    return FiniteAlgebraTable(name, tokens, "O", "I", wedge, vee, complement).as_handle()


def _projection_algebra(size):
    """``size`` elements on which wedge keeps its left argument and vee its
    right one, apart from the eight O/I identities, so neither commutes."""
    tokens = ("O", "I", *(f"a{i}" for i in range(size - 2)))
    wedge = {(x, y): x for x in tokens for y in tokens}
    vee = {(x, y): y for x in tokens for y in tokens}
    for x, y in product("OI", repeat=2):
        wedge[x, y] = "I" if x == y == "I" else "O"
        vee[x, y] = "O" if x == y == "O" else "I"
    complement = {**{x: x for x in tokens}, "O": "I", "I": "O"}
    return FiniteAlgebraTable(f"proj{size}", tokens, "O", "I", wedge, vee, complement).as_handle()


# Listed first, m fails at the first set; listed last, at the last ones.
# Squashed (wedge(m, m) = O) breaks the lattice laws at m as well. pow4 and
# proj16 are the largest points whose table ops run in one lane lookup,
# proj17 (2 groups), pow5, proj32 (4 groups each), proj33 (5) and proj42
# (7) points that run in grouped lanes, and proj43 the smallest point that
# looks tuples up in rows; the proj tables do not commute, so they tell a
# cell (x, y) from (y, x).
KERNEL_ALGEBRAS = {
    **NAMED_ALGEBRAS,
    "pow4": lattice_algebra(powerset_lattice(4)),
    "pow5": lattice_algebra(powerset_lattice(5)),
    "proj16": _projection_algebra(16),
    "proj17": _projection_algebra(17),
    "proj32": _projection_algebra(32),
    "proj33": _projection_algebra(33),
    "proj42": _projection_algebra(42),
    "proj43": _projection_algebra(43),
    "m-first": _table_algebra("m-first", ("m", "O", "I"), "m"),
    "squashed-first": _table_algebra("squashed-first", ("m", "O", "I"), "O"),
    "squashed-last": _table_algebra("squashed-last", ("O", "I", "m"), "O"),
}
SLAB_SIZES = (1, 7, 24, 100, 1024)


def assert_kernel_matches_object_path(family, law, slabs=(laws._SLAB_TUPLES,)):
    """The exhaustive verdict at each slab size equals the set-by-set scan and the lift oracle."""
    per_point = [check_law(family.algebra_at(x), law).verdict for x in family.universe.points]
    expected = None
    for slab in slabs:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laws, "_SLAB_TUPLES", slab)
            verdict = check_family_law(family, law).verdict
        if not verdict.applicable:
            assert any(not v.applicable for v in per_point), law.name
            return
        if expected is None:
            expected = _verdict(_SetOps(family), law, product(all_sets(family), repeat=law.arity))
        assert verdict == expected, (slab, law.name)
    # Birkhoff: an identity holds on the product exactly when it holds at every point
    assert expected.holds == all(v.holds for v in per_point), law.name


class TestFamilyKernel:
    @pytest.mark.parametrize("names", [
        ("classical2",), ("chain3",), ("pow2",), ("chain5",), ("m3",), ("n5",),
        ("classical2", "chain3"), ("pow2", "m3"), ("chain5", "n5"), ("n5", "classical2"),
        ("m3", "chain3"), ("chain3", "pow2", "classical2"), ("classical2", "n5", "classical2"),
        ("m-first", "m-first"), ("squashed-first", "pow2"), ("squashed-last", "classical2"),
        ("pow4",), ("pow5",), ("pow5", "squashed-last"), ("proj16",), ("proj17",),
        ("m-first", "proj17"), ("proj32",), ("m-first", "proj33"), ("proj42",),
        ("m-first", "proj43"),
    ])
    def test_named_families_match_object_path(self, names):
        family = family_of([KERNEL_ALGEBRAS[name] for name in names])
        for law in LAWS:
            if set_count(family) ** law.arity <= 50_000:
                assert_kernel_matches_object_path(family, law, SLAB_SIZES)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(census_algebras(), min_size=1, max_size=3))
    def test_census_families_match_object_path(self, algebras):
        family = family_of(algebras)
        for law in LAWS:
            assert_kernel_matches_object_path(family, law)

    def test_carrier_escape_keeps_object_path_error(self):
        chain3 = chain_algebra(3)
        leaky = AlgebraHandle(
            name="leaky",
            zero="O",
            one="I",
            wedge=chain3.wedge,
            vee=lambda x, y: "Z" if (x, y) == ("m", "I") else chain3.vee(x, y),
            is_member=lambda x: x in ("O", "m", "I"),
            complement=chain3.complement,
            elements=("O", "m", "I"),
        )
        family = AlgebraFamily(Universe(("p", "q")), {"p": chain3, "q": leaky})
        message = "operation of algebra 'leaky' left the carrier at point 'q': Z"
        for law in ("commutative-vee", "absorption", "distributive", "de-morgan"):
            with pytest.raises(StructuralError) as excinfo:
                check_family_law(family, law)
            assert str(excinfo.value) == message
        # laws whose scan never reaches the escaping pair keep their verdicts
        assert check_family_law(family, "idempotent-vee").verdict.mode == "exhaustive"
        assert check_family_law(family, "excluded-middle").verdict.failed

    def test_witness_that_does_not_reevaluate_is_an_error(self):
        classical = classical_algebra()
        calls = []

        def drifting_vee(x, y):
            # noncommutative while the tables are compiled, a join afterwards
            calls.append((x, y))
            if len(calls) <= 4 and (x, y) == ("O", "I"):
                return "O"
            return classical.vee(x, y)

        drifting = dataclasses.replace(classical, name="drifting", vee=drifting_vee)
        # three points make 8 sets and 64 pairs, enough to scan on the tables
        family = constant_family(("p", "q", "r"), drifting)
        with pytest.raises(StructuralError, match="do not give the same result twice"):
            check_family_law(family, "commutative-vee")

    def test_carrier_witness_that_does_not_reevaluate_is_an_error(self, kernel_scans):
        # pow3's 64 pairs run on its compiled tables, where vee(0, a) = 0
        pow3 = lattice_algebra(powerset_lattice(3))
        calls = []

        def drifting_vee(x, y):
            calls.append((x, y))
            if len(calls) <= 64 and (x, y) == ("0", "a"):
                return "0"
            return pow3.vee(x, y)

        drifting = dataclasses.replace(pow3, name="drifting", vee=drifting_vee)
        message = (
            "law 'commutative-vee' fails on the compiled tables of AlgebraHandle('drifting') "
            "but not on the inputs (0, a); its operations do not give the same result twice"
        )
        with pytest.raises(StructuralError) as excinfo:
            check_law(drifting, "commutative-vee")
        assert str(excinfo.value) == message
        # The tables' record answers the second check with no scan, and the re-check
        # of its witness on the drifting vee raises the same error.
        kernel_scans.clear()
        with pytest.raises(StructuralError) as excinfo:
            check_law(drifting, "commutative-vee")
        assert str(excinfo.value) == message
        assert kernel_scans == []

    def test_slab_cases_reach_every_boundary(self):
        """The first failures of the named families fall at tuple 0, inside a
        later slab and in a last slab that does not divide the set count.

        A slab holds ``ceil(slab / n ** (arity - 1))`` whole first arguments;
        positions are worked out from that rule and the set-by-set witness.
        """
        positions = set()
        for names in (("m-first", "m-first"), ("squashed-first", "pow2"),
                      ("squashed-last", "classical2"), ("m3", "chain3"), ("chain5", "n5")):
            family = family_of([KERNEL_ALGEBRAS[name] for name in names])
            sets = list(all_sets(family))
            n = len(sets)
            ops = _SetOps(family)
            for law in LAWS:
                if law.needs_complement and ops.complement is None:
                    continue  # not applicable
                found = _scan(ops, law, product(sets, repeat=law.arity))
                if found is None:
                    continue
                index = reduce(lambda i, s: i * n + sets.index(s), found.inputs, 0)
                block = n ** (law.arity - 1)
                for slab in SLAB_SIZES:
                    step = -(-slab // block)  # first arguments per slab
                    at, last = index // (block * step), (n - 1) // step
                    where = "tuple 0" if index == 0 else "last slab" if at == last else (
                        "later slab" if at else "first slab")
                    positions.add((where, n % step == 0))
        assert {"tuple 0", "later slab", "last slab"} <= {where for where, _ in positions}
        assert ("last slab", False) in positions  # the slabs do not divide n

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 60), st.integers(0, 5000), st.integers(1, 1200))
    def test_index_columns_follow_their_formula(self, k, run, lo, length):
        hi = lo + length
        assert laws._digits(k, run, lo, hi) == bytes((t // run) % k for t in range(lo, hi))

    @pytest.mark.parametrize("k", range(17, 43))
    def test_grouped_lanes_match_row_lookup(self, k):
        rng = Random(k)
        wedge, vee = ([rng.randrange(k) for _ in range(k * k)] for _ in range(2))
        complement = [rng.randrange(k) for _ in range(k)]
        for cells in (wedge, vee):  # a transposed cell would show
            assert any(cells[x * k + y] != cells[y * k + x] for x, y in product(range(k), repeat=2))
        column, *ops = laws._point_ops(k, _PointTables(wedge, vee, complement, 0, k - 1))
        assert column is bytes
        xs, ys = zip(*product(range(k), repeat=2))
        for slab in (k * k, *SLAB_SIZES):
            cuts = [(column(xs[i:i + slab]), column(ys[i:i + slab])) for i in range(0, k * k, slab)]
            for op, cells in zip(ops, (wedge, vee)):
                got = b"".join(op(x, y) for x, y in cuts)
                assert list(got) == [cells[x * k + y] for x, y in zip(xs, ys)], (slab, cells is vee)
            got = b"".join(ops[2](x) for x, _ in cuts)
            assert list(got) == [complement[x] for x in xs], slab

    def test_byte_columns_reach_42_elements(self):
        def column(k):
            cells = [0] * (k * k)
            return laws._point_ops(k, _PointTables(cells, cells, [0] * k, 0, 0))[0]

        assert (column(16), column(17), column(42), column(43)) == (bytes, bytes, bytes, list)

    def test_random_sets_draw_as_before(self):
        chain3 = chain_algebra(3)
        # its vee leaves the carrier, so its tables do not compile
        leaky = dataclasses.replace(chain3, name="leaky", vee=lambda x, y: "Z" if {x, y} == {"m", "I"} else "O")
        assert leaky._tables is None
        families = [
            family_of([NAMED_ALGEBRAS["chain5"], fuzzy_algebra(), matrix_algebra(2)]),
            family_of([matrix_algebra(2), NAMED_ALGEBRAS["m3"], NAMED_ALGEBRAS["classical2"]]),
            family_of([fuzzy_algebra(), NAMED_ALGEBRAS["pow2"]]),
            family_of([NAMED_ALGEBRAS["n5"]]),
            family_of([matrix_algebra(3), NAMED_ALGEBRAS["chain5"], fuzzy_algebra(), matrix_algebra(2)]),
            family_of([on_values(fuzzy_algebra()), matrix_algebra(3), NAMED_ALGEBRAS["chain5"]]),
            family_of([leaky, fuzzy_algebra(), matrix_algebra(3)]),
        ]
        for family in families:
            sizes, samplers = laws._point_draws(family)
            draw, points = laws._slab_draw(sizes), len(sizes)
            for seed in range(6):
                rng, reference, values = Random(seed), Random(seed), []
                for count in (1, 1, 7, 0, 64, 3):  # a slab of each count, then the generator's state
                    draw(samplers, rng, count, values)
                    for i in range(len(values) - count * points, len(values), points):
                        assert decoded_draw(family, values[i:i + points]) == reference_draw(family, reference)
                    assert rng.getstate() == reference.getstate()
                assert len(values) == 76 * points

    def test_finite_draws_are_choice_at_every_carrier_size(self):
        # the inlined index draw against Random.choice on a twin generator,
        # at every size up to the index kernel's 256, with the state compared
        # after each draw; sizes just past a power of two redraw often
        for n in range(1, 257):
            elements = tuple(range(n))
            sized = dataclasses.replace(classical_algebra(), name=f"size{n}", elements=elements)
            family = family_of([sized])
            sizes, samplers = laws._point_draws(family)
            rng, reference, values = Random(n), Random(n), []
            for _ in range(16):
                laws._slab_draw(sizes)(samplers, rng, 1, values)
                assert decoded_draw(family, values[-1:]) == {"x1": reference.choice(elements)}
                assert rng.getstate() == reference.getstate()

    def test_a_point_that_cannot_be_sampled_fails_at_the_first_draw(self):
        bare = dataclasses.replace(fuzzy_algebra(), name="bare", deciding=None, sample=None)
        family = family_of([chain_algebra(3), bare])
        # excluded middle fails on a forced spike, before anything is drawn
        verdict = check_family_law(family, "excluded-middle").verdict
        assert verdict.describe() == (
            "fails: x vee complement(x) = I: inputs (ModernSet({'x1': m, 'x2': 0})) give "
            "ModernSet({'x1': m, 'x2': 1}) != ModernSet({'x1': I, 'x2': 1})"
        )
        # commutativity passes the forced stage, so the first draw is reached
        with pytest.raises(PreconditionError, match="^algebra 'bare' cannot be sampled$"):
            check_family_law(family, "commutative-wedge")
        # the draw raises at its first value, once chain3's index is drawn, and keeps none
        (sizes, samplers), rng, reference, values = laws._point_draws(family), Random(0), Random(0), []
        with pytest.raises(PreconditionError, match="^algebra 'bare' cannot be sampled$"):
            laws._slab_draw(sizes)(samplers, rng, 64, values)
        reference.choice(chain_algebra(3).elements)
        assert values == [] and rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("algebras, seed, expected", [
        (
            (chain_algebra(3), matrix_algebra(2)), 3,
            "fails: x wedge (y wedge z) = (x wedge y) wedge z: inputs (ModernSet({'p': O, "
            "'q': [[2,0],[-1,-2]]}), ModernSet({'p': m, 'q': [[2,0],[2,1]]}), ModernSet({'p': O, "
            "'q': [[1,0],[-2,2]]})) give ModernSet({'p': O, 'q': [[2,0],[-1,-2]]}) != "
            "ModernSet({'p': O, 'q': [[4,0],[-2,-4]]})",
        ),
        (
            (matrix_algebra(2), NAMED_ALGEBRAS["n5"]), 2,
            "fails: x wedge (y wedge z) = (x wedge y) wedge z: inputs (ModernSet({'p': "
            "[[1,-2],[2,1]], 'q': a}), ModernSet({'p': [[1,2],[-2,1]], 'q': b}), ModernSet({'p': "
            "[[1,0],[1,1]], 'q': b})) give ModernSet({'p': [[5,0],[5,5]], 'q': 0}) != "
            "ModernSet({'p': [[1,0],[1,1]], 'q': 0})",
        ),
    ], ids=["chain3-mat2", "mat2-n5"])
    def test_witnesses_found_by_mixed_draws_are_pinned(self, algebras, seed, expected):
        # recorded before the draws were inlined; each witness mixes drawn
        # finite values with drawn matrices
        family = AlgebraFamily(Universe(("p", "q")), dict(zip(("p", "q"), algebras)))
        verdict = check_family_law(family, "associative-wedge", seed=seed).verdict
        assert verdict.describe() == expected


def _altered(alg, name, **ops):
    """``alg`` renamed, with each named operation given its value at one cell instead:
    ``op=((x, y), make)`` gives ``make()`` at (x, y), so ``make`` may also raise."""
    def altered(op, cell, make):
        return lambda x, y: make() if (x, y) == cell else op(x, y)

    return dataclasses.replace(alg, name=name, **{
        field: altered(getattr(alg, field), cell, make) for field, (cell, make) in ops.items()
    })


def _no_meet():
    raise ValueError("no meet of m and m")


def _drifting_interval():
    """The unit interval with vee(1/2, 1) = 1/3, its K3 claim declared again for that vee:
    a deciding point whose tables on K3 do not compile, as 1/3 is not in K3."""
    fz = fuzzy_algebra()
    third = Fraction(1, 3)
    drifting = _altered(fz, "drifting", vee=((Fraction(1, 2), fz.one), lambda: third))
    claim = fz.deciding._replace(ops=(fz.wedge, drifting.vee, fz.complement))
    return dataclasses.replace(drifting, deciding=claim)


# Points whose tables do not compile (m listed twice, a vee leaving the carrier, a
# wedge raising on one cell, a K3 point whose vee leaves K3), beside ones that do.
SCAN_ALGEBRAS = {
    "classical2": classical_algebra(),
    "chain3": chain_algebra(3),
    "pow2": pow2_algebra(),
    "m-first": KERNEL_ALGEBRAS["m-first"],
    "doubled": dataclasses.replace(chain_algebra(3), name="doubled", elements=("O", "m", "m", "I")),
    "leaving": _altered(chain_algebra(3), "leaving", vee=(("m", "m"), lambda: "z")),
    "raising": _altered(chain_algebra(3), "raising", wedge=(("m", "m"), _no_meet)),
    "drifting": _drifting_interval(),
}


def family_scan_outcome(scan):
    """``scan()``'s verdict and its description, or its error's type and message."""
    try:
        verdict = scan()
    except Exception as error:
        return type(error), str(error)
    return verdict, verdict.describe()


def assert_family_scan_matches_sets(family, law):
    """The exhaustive family scan gives what a scan of every tuple of sets through the set
    operations gives: the same verdict, witness and description, or the same error."""
    ops = _SetOps(family)
    if law.needs_complement and ops.complement is None:
        return None  # not applicable
    expected = family_scan_outcome(lambda: _verdict(ops, law, product(all_sets(family), repeat=law.arity)))
    scan = partial(laws._exhaustive_verdict, family, ops, law, laws._carriers(family))
    assert family_scan_outcome(scan) == expected, law.name
    if all(alg.finite for alg in family.handles):  # check_family_law answers with that scan
        assert family_scan_outcome(lambda: check_family_law(family, law).verdict) == expected, law.name
    return expected


class TestFamilyScanReference:
    """Every exhaustive family scan runs on the column kernel, with a point whose tables do
    not compile on its values, and answers as the scan of the sets does."""

    @pytest.mark.parametrize("names", [
        ("classical2",), ("chain3",), ("m-first",), ("doubled",), ("leaving",), ("raising",),
        ("drifting",), ("doubled", "pow2"), ("chain3", "leaving"), ("raising", "classical2"),
        ("classical2", "doubled", "leaving"), ("drifting", "doubled"), ("pow2", "drifting"),
    ], ids="+".join)
    def test_registry_laws_match_the_set_scan(self, names):
        family = family_of([SCAN_ALGEBRAS[name] for name in names])
        outcomes = [assert_family_scan_matches_sets(family, law) for law in LAWS]
        if {"leaving", "raising"} & set(names):  # some scan meets the bad cell
            assert any(o and isinstance(o[0], type) for o in outcomes)

    def test_scans_of_fewer_than_eight_tuples_run_on_the_kernel(self, kernel_scans):
        # 1-point families of 2 to 4 sets, at arity 1 and (classical2) arity 2
        for name in ("classical2", "chain3", "m-first", "doubled"):
            family = family_of([SCAN_ALGEBRAS[name]])
            for law in LAWS:
                if set_count(family) ** law.arity < 8:
                    kernel_scans.clear()
                    assert_family_scan_matches_sets(family, law)
                    assert kernel_scans, (name, law.name)

    @pytest.mark.parametrize("slab", [100, laws._SLAB_TUPLES])
    def test_points_of_more_than_256_elements_run_on_their_values(self, monkeypatch, slab):
        # a byte cannot hold 300 indices; behind a classical2 point, a slab of 100 sets
        # starts past the chain's first 300 digits
        chain = chain_algebra(300)
        monkeypatch.setattr(laws, "_SLAB_TUPLES", slab)
        monkeypatch.setattr(laws, "_MAX_EXHAUSTIVE", 300 ** 2)
        for family in (family_of([chain]), family_of([classical_algebra(), chain])):
            for law in LAWS:
                if set_count(family) ** law.arity <= laws._MAX_EXHAUSTIVE:
                    assert_family_scan_matches_sets(family, law)
        assert "_tables" not in vars(chain)


class TestKernelMemoryBound:
    """Kernel memory follows the slab, not the number of sets.

    Index columns hold one byte lane (one list entry at points of more than
    42 elements) per tuple of a slab at each point, and the tables are each
    point's own, so no table grows with the n sets as n * n row tables
    would.
    """

    @pytest.mark.parametrize("max_exhaustive", [1000, 400_000])
    def test_arity_one_laws_build_no_row_table(self, max_exhaustive, monkeypatch):
        monkeypatch.setattr(laws, "_MAX_EXHAUSTIVE", max_exhaustive)
        family = constant_family(("a", "b", "c", "d"), chain_algebra(5))  # 625 sets
        expected = {
            "idempotent-wedge": "holds (exhaustive)",
            "idempotent-vee": "holds (exhaustive)",
            "excluded-middle": (
                "fails: x vee complement(x) = I: inputs (ModernSet({'a': O, 'b': O, 'c': O, "
                "'d': m1})) give ModernSet({'a': I, 'b': I, 'c': I, 'd': m3}) != "
                "ModernSet({'a': I, 'b': I, 'c': I, 'd': I})"
            ),
            "non-contradiction": (
                "fails: x wedge complement(x) = O: inputs (ModernSet({'a': O, 'b': O, 'c': O, "
                "'d': m1})) give ModernSet({'a': O, 'b': O, 'c': O, 'd': m1}) != "
                "ModernSet({'a': O, 'b': O, 'c': O, 'd': O})"
            ),
        }
        tracemalloc.start()
        try:
            got = {
                law: check_family_law(family, law).verdict.describe()
                for law in expected
            }
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == expected
        # A 625 x 625 row table alone holds 390,625 entries, several MB; at
        # 400,000 it would be within the bound.
        assert peak < 1_000_000

    @pytest.mark.parametrize("law, code, lines", [
        ("idempotent-wedge", 0, ["holds (exhaustive)"] * 7),
        ("excluded-middle", 1, [
            "fails: x vee complement(x) = I: inputs (ModernSet({'x1': O, 'x2': O, 'x3': O, "
            "'x4': O, 'x5': O, 'x6': m1})) give ModernSet({'x1': I, 'x2': I, 'x3': I, "
            "'x4': I, 'x5': I, 'x6': m3}) != ModernSet({'x1': I, 'x2': I, 'x3': I, "
            "'x4': I, 'x5': I, 'x6': I})",
        ] + ["fails: x vee complement(x) = I: inputs (m1) give m3 != I"] * 6),
    ])
    def test_lift_over_fifteen_thousand_sets(self, capsys, law, code, lines):
        # 15,625 sets: the arity-1 scan is exhaustive, a row table would hold 244 M entries
        assert run_command(["lift", "chain5@6", law]) == code
        family_line, *point_lines = lines
        expected = [f"law {law}:", f"  family of sets: {family_line}"]
        expected += [f"  at point 'x{i}': {line}" for i, line in enumerate(point_lines, 1)]
        expected.append("  levels agree: yes")
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_pow6_certificate_stays_within_a_megabyte(self):
        # A lattice scan's slab holds every (x, y) of one first argument z:
        # 4,096 tuples on pow6. The lattice is rebuilt so that compiling its
        # tables is counted too.
        pow6 = powerset_lattice(6)
        lat = lattice_from_hasse("pow6", pow6.elements, pow6.covers)
        tracemalloc.start()
        try:
            cert = check_lattice_laws(lat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(verdict.holds for _, verdict in cert.entries)
        assert peak < 1_000_000

    def test_two_million_looked_up_tuples_stay_within_a_megabyte(self, monkeypatch, fresh_copy):
        # chain5@3 distributive, under a cap raised to take its 1.95 M triples: each
        # point's index blocks hold 5 x 125 ** 2 bytes, a slab's columns 125 ** 2
        monkeypatch.setattr(laws, "_MAX_EXHAUSTIVE", 2_000_000)
        laws._index_blocks.cache_clear()
        family = constant_family(("a", "b", "c"), fresh_copy(chain_algebra(5)))
        tracemalloc.start()
        try:
            verdict = check_family_law(family, "distributive").verdict
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict == Verdict.holds_exhaustive()
        assert peak < 1_000_000


class TestScanRecordMemory:
    def test_throwaway_laws_leave_no_entry(self, fresh_copy):
        # A table's record holds each equation function weakly, so laws
        # checked once and dropped leave nothing behind.
        pow3 = lattice_algebra(fresh_copy(powerset_lattice(3)))
        record = pow3._tables.scanned
        for i in range(10_000):
            if i % 2:
                fn = lambda o, x, y: (o.wedge(x, y), x)  # noqa: E731
            else:
                fn = lambda o, x, y: (o.wedge(x, y), o.wedge(y, x))  # noqa: E731
            verdict = check_law(pow3, Law(f"throwaway{i}", 2, False, ((f"equation {i}", fn),))).verdict
            assert verdict.failed == bool(i % 2)
            # all 64 pairs pass, or the first with x wedge y != x: (a, 0), pair 8
            assert record[fn] == ((2, 8, True) if i % 2 else (2, 64, False))
        del fn
        gc.collect()
        assert len(record) == 0


class TestSlabPlans:
    """The slabs of a scan are kept by shape: the radices, the arity, the
    column kinds and the slab size. Every later scan of that shape reads
    them, whatever its carriers; O and I columns, which tell carriers of
    one shape apart, are built per scan."""

    @pytest.mark.parametrize("groups", [
        # 5-element carriers: certificates, laws and one-point families
        (("m3",), ("n5",), ("chain5",)),
        # 3 x 3 families with O and I at other indices (m-first's O is at 1)
        (("m-first", "m-first"), ("squashed-first", "squashed-first"),
         ("squashed-last", "squashed-last")),
        # 5 x 5 families of other handles
        (("m3", "chain5"), ("chain5", "n5"), ("n5", "m3")),
    ])
    def test_carriers_of_one_shape_scan_as_with_a_cleared_cache(self, groups, carrier_reference):
        def scan(names):
            family = family_of([KERNEL_ALGEBRAS[name] for name in names])
            for law in LAWS:
                assert_kernel_matches_object_path(family, law)
            if len(names) == 1:
                lattices = {"m3": m3_lattice(), "n5": n5_lattice()}
                carrier_reference(lattices.get(names[0]) or KERNEL_ALGEBRAS[names[0]])

        laws._slab_plan.cache_clear()
        first, *later = groups
        scan(first)
        built = laws._slab_plan.cache_info().misses
        for names in later:  # back to back, on the plans the first one built
            scan(names)
        assert laws._slab_plan.cache_info().misses == built > 0
        for names in groups:
            laws._slab_plan.cache_clear()
            scan(names)

    def test_kept_plans_follow_the_slab_size(self, monkeypatch):
        chain5 = chain_algebra(5)
        kinds = (laws._compiled(5, chain5._tables)[0],)

        def slabs():
            got = list(laws._slab_plan((5,), kinds, 3, laws._SLAB_TUPLES))
            for i, divisor in enumerate((25, 5, 1)):  # argument i's column runs through its digits
                column = b"".join(slab[i][0] for slab in got)
                assert column == bytes(t // divisor % 5 for t in range(125))
            return [len(slab[0][0]) for slab in got]

        assert slabs() == [125]
        for size in SLAB_SIZES:
            monkeypatch.setattr(laws, "_SLAB_TUPLES", size)
            step = -(-size // 25)  # whole first arguments, 25 triples each
            expected = [min(step, 5 - first) * 25 for first in range(0, 5, step)]
            assert slabs() == expected == slabs(), size  # built, then kept

    def test_kept_plans_stay_within_their_bound(self, fresh_copy):
        workspace = builtin_workspace()
        shipped = [workspace.resolve_algebra(name) for name in (
            "classical2", "chain3", "chain5", "m3", "n5", "pow1", "pow2", "pow3")]
        kernel = [[KERNEL_ALGEBRAS[name] for name in names]
                  for names in (("m-first", "chain5"), ("pow4",), ("proj17", "classical2"))]
        chains = [chain_algebra(k) for k in range(4, 43)]

        def sweep():
            # New handles, lattices and families of the same shapes each time: the
            # record of a table's scans would answer a second sweep of the same ones.
            finite = [fresh_copy(alg) for alg in shipped]
            families = [constant_family(("p", "q"), alg) for alg in finite]
            families += [family_of([fresh_copy(alg) for alg in algs]) for algs in kernel]
            for alg in finite:
                check_all_laws(alg)
            for lat in workspace.lattices.values():
                check_lattice_laws(fresh_copy(lat))
            for family in families:
                for law in LAWS:
                    check_family_law(family, law)
            # more shapes than are kept: pairs up to 42 elements, triples up to 22
            for k, chain_k in enumerate(map(fresh_copy, chains), 4):
                check_law(chain_k, "commutative-wedge")
                check_law(chain_k, "distributive" if k <= 22 else "commutative-vee")
                check_family_law(family_of([chain_k, finite[0]]), "idempotent-wedge")

        sweep()  # fills every other cache
        laws._slab_plan.cache_clear()
        tracemalloc.start()
        try:
            sweep()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        info = laws._slab_plan.cache_info()
        assert info.misses > info.maxsize == info.currsize
        assert held <= info.maxsize * laws._PLAN_BYTES

    def test_list_columns_and_large_scans_keep_nothing(self):
        laws._slab_plan.cache_clear()
        check_law(KERNEL_ALGEBRAS["proj43"], "commutative-wedge")  # list columns
        check_law(lattice_algebra(powerset_lattice(6)), "commutative-wedge")
        # 32 elements, 3 x 32,768 argument bytes
        assert check_law(KERNEL_ALGEBRAS["pow5"], "distributive").verdict.holds
        # three chain5 points, 2 x 15,625 pairs x 3 bytes
        check_family_law(constant_family(("p", "q", "r"), chain_algebra(5)), "commutative-vee")
        assert laws._slab_plan.cache_info().currsize == 0


TABLE_ALGEBRAS = {
    **{name: NAMED_ALGEBRAS[name] for name in ("classical2", "chain3", "pow2", "m3", "n5", "chain5")},
    "fuzzy": fuzzy_algebra(),  # decided on K3
    "chain3id": load_file(str(Path(__file__).parent / "golden" / "identity-complement.def")).algebras["chain3id"],
}
TABLE_FAMILIES = [*product(TABLE_ALGEBRAS, repeat=2), *combinations(TABLE_ALGEBRAS, 3)]


def memo_set_ops(family, sets):
    """The set operations of ``_SetOps`` over ``sets``, every set of ``family``, each
    result computed once by ``intersection``, ``union`` or ``complement`` and given as
    the set of ``sets`` it equals, so a set-by-set scan of many tuples stays quick."""
    at = {id(s): i for i, s in enumerate(sets)}
    same = {s: s for s in sets}
    ops = _SetOps(family)

    def table(op):
        rows = [[same[op(a, b)] for b in sets] for a in sets]
        return lambda a, b: rows[at[id(a)]][at[id(b)]]

    complements = ops.complement and [same[ops.complement(a)] for a in sets]
    return SimpleNamespace(
        wedge=table(intersection), vee=table(union), zero=same[ops.zero], one=same[ops.one],
        complement=complements and (lambda a: complements[at[id(a)]]),
    )


def law_tables(family, law):
    """Each point's compiled tables for ``law``."""
    return [a._tables_with_complement if law.needs_complement else a._tables for a in family.handles]


class TestLawTables:
    """A family scan of two points or more looks each point's tuples up in its law
    tables (``laws._law_table``) and finds the same lanes, witness for witness, as a
    scan of the sets."""

    @pytest.mark.parametrize("names", TABLE_FAMILIES, ids="+".join)
    def test_registry_laws_match_the_object_path(self, names):
        family = family_of([TABLE_ALGEBRAS[name] for name in names])
        ops, sets = _SetOps(family), list(all_sets(family))
        memo = memo_set_ops(family, sets)
        for law in LAWS:
            if law.needs_complement and ops.complement is None:
                continue  # not applicable
            if len(sets) ** law.arity > laws._MAX_EXHAUSTIVE:
                continue  # sampled
            # the scan check_family_law runs; with K3 it adds details to a pass and may
            # report the forced stage's witness instead, so the scan is compared itself
            got = laws._exhaustive_verdict(family, ops, law, laws._carriers(family))
            assert got == _verdict(memo, law, product(sets, repeat=law.arity)), law.name
            if law.arity > 1:  # every point was looked up
                assert all(fn in tables.lookup for tables in law_tables(family, law) for _, fn in law.equations)

    def test_the_first_equation_to_fail_at_the_first_lane_is_noted(self, monkeypatch):
        # an exhaustive scan looks its tuples up by their numbers; a sampled one of an
        # all-finite family looks them up in ``failing``, which notes the equation
        noted = []
        failing = laws._ColumnOps.failing

        def noting(columns, law, slab):
            at = failing(columns, law, slab)
            noted.append(columns.equation if at < columns.lanes else None)
            return at

        monkeypatch.setattr(laws._ColumnOps, "failing", noting)
        family = family_of([chain_algebra(3), pow2_algebra()])
        ops, sets = _SetOps(family), list(all_sets(family))
        sampled = family_of([pow2_algebra()] * 4)  # 65,536 pairs of sets
        for equations, note, equation in [
            # the second equation alone fails
            ((r"x /\ y = y /\ x", r"x \/ y = x"), "x vee y = x", 1),
            # both fail at the first failing pair, the first is noted
            ((r"x \/ y = x", r"x \/ y = x /\ x"), "x vee y = x", 0),
            # the second fails at an earlier pair than the first
            ((r"x /\ y = x", r"x \/ y = x"), "x vee y = x", 1),
        ]:
            law = laws._law("two-equations", *equations)
            verdict = check_family_law(family, law).verdict
            assert verdict == _verdict(ops, law, product(sets, repeat=2))
            assert verdict.witness.note == note
            assert all(fn in tables.lookup for tables in law_tables(family, law) for _, fn in law.equations)
            noted.clear()
            verdict = check_family_law(sampled, law, samples=40).verdict
            tuples = sampled_tuples(sampled, 2, 40, 0)
            assert verdict == reference_verdict(_SetOps(sampled), law, tuples, 0)
            assert verdict.witness.note == note
            assert noted[-1] == equation, equations
            assert all(fn in tables.lookup for tables in law_tables(sampled, law) for _, fn in law.equations)

    def test_an_equation_that_raises_on_the_law_tables_answers_as_a_set_scan(self):
        # no law table can be built, so each slab is scanned through the set operations
        def refusing(equation):
            def fn(o, x, y):
                if isinstance(o, laws._ColumnOps):
                    raise ArithmeticError("no columns")
                return equation(o, x, y)
            return fn

        family = family_of([chain_algebra(3), pow2_algebra()])
        ops, sets = _SetOps(family), list(all_sets(family))
        for label, equation, fails in [
            ("x wedge y = y wedge x", lambda o, x, y: (o.wedge(x, y), o.wedge(y, x)), False),
            ("x vee y = x", lambda o, x, y: (o.vee(x, y), x), True),
        ]:
            law = Law("refusing", 2, False, ((label, refusing(equation)),))
            verdict = check_family_law(family, law).verdict
            assert verdict == _verdict(ops, law, product(sets, repeat=2))
            assert verdict.failed == fails

    def test_complement_laws_read_the_complement_on_lattice_backed_points(self):
        # a lattice's own tables hold no complement; the identity complement breaks
        # de Morgan, which the bottom everywhere would not
        chain3 = chain_algebra(3)
        identity = lattice_algebra(chain3.lattice, complement={x: x for x in chain3.elements}, name="chain3lid")
        for names in ((identity, classical_algebra()), (pow2_algebra(), identity)):
            family = family_of(names)
            sets = list(all_sets(family))
            law = get_law("de-morgan")
            verdict = check_family_law(family, law).verdict
            assert verdict.failed
            assert verdict == _verdict(_SetOps(family), law, product(sets, repeat=2))

    @pytest.mark.parametrize("names", [("chain5", "m3", "n5"), ("pow2", "chain5", "chain5")], ids="+".join)
    def test_a_sampled_finite_family_matches_a_set_scan(self, names):
        family = family_of([NAMED_ALGEBRAS[name] for name in names])
        assert set_count(family) ** 3 > laws._MAX_EXHAUSTIVE
        for seed in range(2):
            for law in LAWS:
                if law.arity < 3 or (law.needs_complement and _SetOps(family).complement is None):
                    continue
                verdict = check_family_law(family, law, samples=100, seed=seed).verdict
                assert verdict.mode == "sampled" or verdict.failed, law.name
                tuples = sampled_tuples(family, law.arity, 100, seed)
                assert verdict == reference_verdict(_SetOps(family), law, tuples, seed), (seed, law.name)
                assert all(fn in tables.lookup for tables in law_tables(family, law) for _, fn in law.equations)

    def test_throwaway_laws_leave_no_table(self, fresh_copy):
        # Each point's law tables hold each equation function weakly, as the record of
        # a table's scans does, so laws checked once and dropped leave nothing behind.
        family = family_of([fresh_copy(chain_algebra(3)), fresh_copy(pow2_algebra())])
        lookups = [tables.lookup for tables in law_tables(family, get_law("commutative-wedge"))]
        for i in range(10_000):
            if i % 2:
                fn = lambda o, x, y: (o.wedge(x, y), x)  # noqa: E731
            else:
                fn = lambda o, x, y: (o.wedge(x, y), o.wedge(y, x))  # noqa: E731
            verdict = check_family_law(family, Law(f"throwaway{i}", 2, False, ((f"equation {i}", fn),))).verdict
            assert verdict.failed == bool(i % 2)
            assert all(fn in lookup for lookup in lookups)
        del fn
        gc.collect()
        assert [len(lookup) for lookup in lookups] == [0, 0]


def reference_draws(draw, arity, samples, seed):
    """``samples`` seeded random tuples of ``draw(rng)`` values, each drawn afresh: the
    draws as they were before sampled scans shared one stream per seed and read it a
    slab at a time. Kept as the oracle of the shared streams."""
    rng = Random(seed)
    for _ in range(samples):
        yield tuple([draw(rng) for _ in range(arity)])


def reference_draw(family, rng):
    """One random set's values by point: ``rng.randrange`` over a finite point's
    elements, else the point's ``sample``."""
    values = {}
    for x in family.universe.points:
        alg = family.algebra_at(x)
        if alg.elements is not None:
            values[x] = alg.elements[rng.randrange(len(alg.elements))]
        else:
            values[x] = alg.sample(rng)
    return values


def set_count(family):
    """How many sets the family's deciding carriers make (``laws._set_count``)."""
    return laws._set_count(laws._carriers(family))


def decoded_draw(family, drawn):
    """The values of one family draw (``laws._point_draws``), one per point: an element's
    index at a finite point, a code where the point has codes, else the value itself."""
    values = {}
    for x, alg, d in zip(family.universe.points, family.handles, drawn):
        codes = _bound_codes(alg)
        values[x] = alg.elements[d] if alg.finite else codes.decode(d) if codes else d
    return values


def sampled_tuples(family, arity, samples, seed):
    """The sampled stage's tuples of sets: forced tuples, then seeded draws."""
    sets = []
    forced = islice(laws._forced_tuples(family, arity, sets), laws._FORCED_CAP)
    return chain(
        (tuple(ModernSet(family, sets[n]) for n in args) for args in forced),
        reference_draws(lambda rng: modern_set(family, reference_draw(family, rng)), arity, samples, seed),
    )


def values_of(tuples):
    """``tuples`` of sets as the tuples of their values that ``_sampled_verdict`` scans."""
    return [tuple(s._values for s in args) for args in tuples]


def numbered(tuples, sets):
    """``tuples`` of sets as ``_forced_tuples`` gives them: each set's values appended to
    ``sets`` as its tuple is reached, and each tuple given as its sets' numbers there."""
    for args in values_of(tuples):
        sets += args
        yield tuple(range(len(sets) - len(args), len(sets)))


def scan_of_sets(family, law, tuples, monkeypatch):
    """The sampled family scan (``laws._sampled_verdict``) of ``tuples`` of sets alone: the
    forced stage patched to give them, no draws, and no seed, so nothing is kept."""
    with monkeypatch.context() as patch:
        patch.setattr(laws, "_forced_tuples", lambda family, arity, sets: numbered(tuples, sets))
        return laws._sampled_verdict(family, _SetOps(family), law, 0, None)


def outcome(scan):
    """A scan's verdict, or the type and text of what it raised."""
    try:
        return scan()
    except Exception as error:
        return type(error), str(error)


class TestPointwiseSampledScan:
    """The sampled family stage, evaluated point by point, against a scan of the
    same tuples of sets through ``_SetOps``."""

    @pytest.mark.parametrize("names", [
        ("chain5", "mat2"),
        ("mat2", "fuzzy", "mat2"),
        ("m3", "mat2", "m3"),
        ("classical2", "fuzzy", "mat2", "pow2"),
        ("mat3", "n5"),
        ("chain5", "chain5", "chain5", "fuzzy"),
        ("m3", "fuzzy", "n5"),
        # all finite, past the cap: sampled scans look their tuples up in law tables
        ("chain5", "m3", "n5"),  # arity 3
        ("pow2", "pow2", "pow2", "pow2"),  # 256 sets: arity 2 and 3
        # distributive fails only at the last point, and at (x, y, z) but not (z, y, x)
        ("chain5", "chain5", "n5"),
    ])
    def test_mixed_families_match_a_set_scan(self, names):
        infinite = {"fuzzy": fuzzy_algebra(), "mat2": matrix_algebra(2), "mat3": matrix_algebra(3)}
        algebras = {**NAMED_ALGEBRAS, **infinite}
        family = family_of([algebras[name] for name in names])
        sampled = 0
        for seed in range(3):
            for law in LAWS:
                verdict = check_family_law(family, law, samples=40, seed=seed).verdict
                if not verdict.applicable or verdict.mode == "exhaustive":
                    continue
                tuples = sampled_tuples(family, law.arity, 40, seed)
                assert verdict == reference_verdict(_SetOps(family), law, tuples, seed), (seed, law.name)
                sampled += 1
        assert sampled >= 6

    def test_escape_at_a_later_point_raises_the_set_scans_error(self, monkeypatch):
        chain3 = chain_algebra(3)
        # both orders escape alike, so only the carrier check can see it
        leaky = dataclasses.replace(
            chain3, name="leaky", vee=lambda x, y: "Z" if {x, y} == {"m", "I"} else chain3.vee(x, y)
        )
        family = family_of([matrix_algebra(2), chain3, leaky])
        message = "operation of algebra 'leaky' left the carrier at point 'x3': Z"
        raised = []
        for law in LAWS:
            if law.needs_complement:
                continue  # not applicable: mat2 declares no complement
            tuples = sampled_tuples(family, law.arity, 40, 0)
            expected = outcome(lambda: reference_verdict(_SetOps(family), law, tuples, 0))
            assert outcome(lambda: check_family_law(family, law, samples=40).verdict) == expected, law.name
            raised += [law.name] if expected == (StructuralError, message) else []
        assert "commutative-vee" in raised
        # the escaping pair sits at the last point, after two points that pass
        A, B = (modern_set(family, {"x1": I2, "x2": "O", "x3": v}) for v in ("m", "I"))
        law = get_law("commutative-vee")
        assert outcome(lambda: scan_of_sets(family, law, [(A, B)], monkeypatch)) == (StructuralError, message)

    def test_a_failure_at_a_later_point_wins_over_an_error_in_a_later_equation(self, monkeypatch):
        def vee(x, y):
            raise ArithmeticError("vee is undefined here")

        raising = dataclasses.replace(classical_algebra(), name="raising", vee=vee)
        family = family_of([raising, matrix_algebra(2)])
        law = laws._law("both-commute", r"x /\ y = y /\ x", r"x \/ y = y \/ x")
        ops = _SetOps(family)
        # at point 1 the first equation holds and the second raises; at point 2
        # the first fails, and a scan of the sets reports that failure
        A, B = (modern_set(family, {"x1": "O", "x2": m}) for m in (E01, E10))
        expected = reference_verdict(ops, law, [(A, B)], 0)
        assert expected.failed and expected.witness.note == "x wedge y = y wedge x"
        assert scan_of_sets(family, law, [(A, B)], monkeypatch) == expected
        # the whole scan meets the error first, at the empty sets
        expected = outcome(lambda: reference_verdict(ops, law, sampled_tuples(family, 2, 40, 0), 0))
        assert expected == (ArithmeticError, "vee is undefined here")
        assert outcome(lambda: check_family_law(family, law, samples=40)) == expected

    def test_a_point_failure_the_sets_do_not_repeat_is_an_error(self):
        classical = classical_algebra()
        calls = []

        def drifting_vee(x, y):
            # vee(O, I) = O the first time it is asked, a join afterwards
            calls.append((x, y))
            if (x, y) == ("O", "I") and calls.count((x, y)) == 1:
                return "O"
            return classical.vee(x, y)

        drifting = dataclasses.replace(classical, name="drifting", vee=drifting_vee)
        family = family_of([drifting, matrix_algebra(2)])
        message = "fails on the points of .* do not give the same result twice"
        with pytest.raises(StructuralError, match=message):
            check_family_law(family, "commutative-vee")


class TestSampleCounts:
    def test_negative_counts_are_rejected(self):
        fam = constant_family(("p", "q"), classical_algebra())
        calls = [
            lambda: check_law(fuzzy_algebra(), "absorption", samples=-5),
            lambda: check_law(classical_algebra(), "absorption", samples=-1),
            lambda: check_family_law(fam, "absorption", samples=-1),
            lambda: lift_check(fam, "absorption", samples=-1),
            lambda: check_gf_ring_conditions(fam, samples=-1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="samples must be non-negative, got -"):
                call()

    def test_zero_samples_still_checks_boundary(self):
        verdict = check_law(fuzzy_algebra(), "absorption", samples=0).verdict
        assert verdict.describe() == "holds (sampled, samples=9, seed=0)"


class TestLifting:
    def test_lift_point_witness_builds_spikes(self):
        fam = constant_family(("p", "q"), fuzzy_algebra())
        point_verdict = check_law(fuzzy_algebra(), "excluded-middle").verdict
        lifted = lift_point_witness(fam, "p", point_verdict.witness)
        (a,) = lifted
        assert a.value_at("p") == Fraction(1, 2)
        assert a.value_at("q") == Fraction(0)
        # the lifted set violates the law at the set level
        assert not equals(union(a, set_complement(a)), full_set(fam))

    def test_lift_check_is_consistent_fuzzy(self):
        fam = constant_family(("p", "q"), fuzzy_algebra())
        report = lift_check(fam, "excluded-middle", samples=100, seed=0)
        assert report.family_verdict.failed
        assert all(v.failed for v in report.per_point.values())
        assert report.consistent
        text = report.describe()
        assert "family of sets:" in text
        assert "levels agree: yes" in text

    def test_lift_check_is_consistent_classical(self):
        fam = constant_family(("x", "y", "z"), classical_algebra())
        report = lift_check(fam, "distributive")
        assert report.family_verdict.holds
        assert all(v.holds for v in report.per_point.values())
        assert report.consistent

    def test_lift_check_mixed_family(self):
        u = Universe(("x1", "x2"))
        fam = AlgebraFamily(u, {"x1": classical_algebra(), "x2": matrix_algebra(2)})
        report = lift_check(fam, "commutative-wedge", samples=100, seed=0)
        assert report.family_verdict.failed
        assert report.per_point["x1"].holds
        assert report.per_point["x2"].failed
        assert report.consistent

    def test_lift_check_not_applicable_family(self):
        u = Universe(("x1", "x2"))
        fam = AlgebraFamily(u, {"x1": classical_algebra(), "x2": matrix_algebra(2)})
        report = lift_check(fam, "de-morgan")
        assert report.family_verdict.status == "not-applicable"
        assert report.consistent

    @pytest.mark.parametrize("samples,seed", [(40, 1), (60, 10)])
    def test_sampling_misses_are_reconciled_by_witness_transport(self, samples, seed):
        # at these seeds the raw sampled verdicts disagree between levels:
        # one level finds an associative-wedge counterexample, the other
        # misses it; lift_check must carry the witness across instead of
        # reporting a false inconsistency
        u = Universe(("a", "b"))
        fam = AlgebraFamily(u, {"a": classical_algebra(), "b": matrix_algebra(2)})
        report = lift_check(fam, "associative-wedge", samples=samples, seed=seed)
        assert report.consistent
        assert report.family_verdict.failed
        assert report.per_point["b"].failed
        # both witnesses re-evaluate
        m = matrix_algebra(2)
        x, y, z = report.per_point["b"].witness.inputs
        assert m.wedge(m.wedge(x, y), z) != m.wedge(x, m.wedge(y, z))
        a, b, c = report.family_verdict.witness.inputs
        assert not equals(
            intersection(intersection(a, b), c), intersection(a, intersection(b, c))
        )


class TestGfRingConditions:
    def test_interval_broken_on_k3_is_not_lattice_backed(self, broken_interval):
        fam = constant_family(("x", "y"), broken_interval)
        with pytest.raises(PreconditionError, match="'fuzzy' at point 'x' is not lattice-backed"):
            check_gf_ring_conditions(fam)

    def test_crisp_powerset_family_passes(self):
        fam = constant_family(("u", "v"), pow2_algebra())
        report = check_gf_ring_conditions(fam, samples=50, seed=0)
        assert report.passed
        assert all(v.holds for v in report.cha_per_point.values())
        assert report.powerset_embeds.holds
        assert report.crisp_ops_coincide.holds
        assert report.bounds_absorb.holds
        assert report.cross_validated.holds
        assert report.routes_agree is True
        text = report.describe()
        assert "1. complete Heyting" in text
        assert "4. bounds absorb" in text
        assert "overall: passed" in text

    @pytest.mark.parametrize("degenerate", [(), (0,), (1,), (3,), (1, 2), (0, 3), (2, 3), (0, 1, 2, 3)])
    def test_powerset_embeds_matches_subset_enumeration(self, degenerate):
        # A one-element handle has O = I, so subsets that differ only there
        # embed to the same set.
        one = AlgebraHandle(
            "one", "O", "O", lambda x, y: "O", lambda x, y: "O",
            lambda x: x == "O", complement=lambda x: "O", elements=("O",),
        )
        points = ("p", "q", "r", "s")
        handles = [one if i in degenerate else chain_algebra(3) for i in range(len(points))]
        fam = AlgebraFamily(Universe(points), dict(zip(points, handles)))
        # the old route: embed all 2^n subsets, first collision in mask order
        expected = Verdict.holds_exhaustive(details=(("subsets", 16),))
        seen = {}
        for mask in range(16):
            embedded = embed_crisp(fam, [points[i] for i in range(4) if mask & (1 << i)])
            if embedded in seen:
                expected = Verdict.fails(Witness(
                    inputs=(seen[embedded], mask),
                    lhs="equal embeddings",
                    rhs="distinct embeddings",
                    note="two different subsets embed to the same set",
                ))
                break
            seen[embedded] = mask
        report = check_gf_ring_conditions(fam, samples=10, seed=0)
        assert report.powerset_embeds == expected
        assert report.powerset_embeds.holds == (not degenerate)

    def test_m3_point_fails_heyting_condition(self):
        fam = constant_family(("u",), lattice_algebra(m3_lattice()))
        report = check_gf_ring_conditions(fam, samples=50, seed=0)
        assert not report.passed
        assert report.cha_per_point["u"].failed
        assert report.cha_per_point["u"].witness is not None

    def test_fuzzy_points_count_as_heyting(self):
        fam = constant_family(("u",), fuzzy_algebra())
        report = check_gf_ring_conditions(fam, samples=50, seed=0)
        assert report.cha_per_point["u"].holds
        assert report.passed

    def test_orderless_point_is_a_precondition_failure(self):
        fam = constant_family(("u",), matrix_algebra(2))
        with pytest.raises(PreconditionError):
            check_gf_ring_conditions(fam)

    def test_no_universe_is_refused_for_its_size(self):
        fam = constant_family(tuple(f"x{i}" for i in range(12)), classical_algebra())
        report = check_gf_ring_conditions(fam, samples=10, seed=0)
        assert report.passed
        assert dict(report.crisp_ops_coincide.details)["crisp-sets"] == 2 ** 12

    def test_bounds_absorb_statement(self):
        # condition (4) is exactly A vee X = X and A wedge empty = empty
        fam = constant_family(("u", "v"), chain_algebra(3))
        report = check_gf_ring_conditions(fam, samples=50, seed=0)
        assert report.bounds_absorb.holds
        full = full_set(fam)
        a = modern_set(fam, {"u": "m", "v": "I"})
        assert equals(union(a, full), full)

    def test_bounds_absorb_tries_every_spike_before_sampling(self):
        # The bounds row is a family law. A vee broken only at the boundary
        # value 1/2 is caught by its spike, the forced stage's first failing
        # tuple, though the sampler never draws 1/2. ``replace`` voids the
        # interval's deciding claim, so the broken family is sampled, and
        # gfcheck refuses it (it has no order), so the law is checked
        # directly. Three 17-element chains and the intact unit interval make
        # 17**3 * 3 = 14,739 sets over the deciding carriers, all scanned.
        fz, half, c17 = fuzzy_algebra(), Fraction(1, 2), chain_algebra(17)
        broken = dataclasses.replace(
            fz,
            vee=lambda x, y: half if (x, y) == (half, fz.one) else fz.vee(x, y),
            sample=lambda rng: fz.zero,
        )
        u = Universe(("p", "q", "r", "s"))
        fam = AlgebraFamily(u, {"p": c17, "q": c17, "r": c17, "s": broken})
        verdict = check_family_law(fam, laws._BOUNDS_LAW, samples=10, seed=0).verdict
        assert verdict.witness.inputs == (lift_point_value(fam, "s", half),)
        assert verdict.witness.note == "A vee X = X"
        fam = AlgebraFamily(u, {"p": c17, "q": c17, "r": c17, "s": fz})
        verdict = check_gf_ring_conditions(fam, samples=10, seed=0).bounds_absorb
        assert verdict.describe() == "holds (exhaustive)"

    def test_bounds_absorb_is_decided_on_k3(self, broken_interval):
        # With few enough sets over K3 the pool is every set, so the broken
        # vee fails at the first set that holds 1/2 at q.
        u = Universe(("p", "q"))
        fam = AlgebraFamily(u, {"p": chain_algebra(3), "q": broken_interval})
        verdict = check_family_law(fam, laws._BOUNDS_LAW, samples=10, seed=0).verdict
        assert verdict.witness.inputs == (lift_point_value(fam, "q", Fraction(1, 2)),)
        fam = AlgebraFamily(u, {"p": chain_algebra(3), "q": fuzzy_algebra()})
        verdict = check_gf_ring_conditions(fam, samples=10, seed=0).bounds_absorb
        assert verdict.describe() == "holds (exhaustive)"

    @pytest.mark.parametrize(
        "assignment",
        [
            ("m3", "m3"),
            ("n5", "n5"),
            ("pow2", "pow2"),
            ("chain3", "chain3"),
            ("chain3", "m3"),
            ("pow2", "n5"),
            ("m3",),
            ("pow2",),
        ],
        ids="-".join,
    )
    def test_direct_frame_law_pairs_match_collections_up_to_three(self, assignment):
        algebras = {
            "m3": lattice_algebra(m3_lattice()),
            "n5": lattice_algebra(n5_lattice()),
            "pow2": pow2_algebra(),
            "chain3": chain_algebra(3),
        }
        points = tuple(f"x{i}" for i in range(len(assignment)))
        fam = AlgebraFamily(
            Universe(points), {x: algebras[name] for x, name in zip(points, assignment)}
        )
        expected = self._frame_law_by_collections(fam, max_size=3)
        got = _direct_frame_law(fam)
        assert got.status == expected.status
        assert got.witness == expected.witness
        assert got.holds == all(name in ("pow2", "chain3") for name in assignment)

    FRAME_ALGEBRAS = {
        "classical2": classical_algebra(), "chain3": chain_algebra(3), "chain4": chain_algebra(4),
        "pow2": pow2_algebra(), "m3": lattice_algebra(m3_lattice()), "n5": lattice_algebra(n5_lattice()),
    }

    @pytest.mark.parametrize(
        "names", [*product(FRAME_ALGEBRAS, repeat=1), *product(FRAME_ALGEBRAS, repeat=2)], ids="+".join
    )
    def test_direct_frame_law_matches_the_pair_scan(self, names):
        # the reference scans each pair of distinct sets against each set, in pair order
        fam = family_of([self.FRAME_ALGEBRAS[name] for name in names])
        sets = list(all_sets(fam))
        expected = _verdict(_SetOps(fam), SET_FRAME_PAIR_LAW, product(combinations(sets, 2), sets))
        assert _direct_frame_law(fam) == expected
        assert expected.holds == all(name not in ("m3", "n5") for name in names)

    @staticmethod
    def _frame_law_by_collections(fam, max_size):
        """The frame law over every collection of up to max_size sets."""
        sets_list = list(all_sets(fam))
        empty = empty_set(fam)
        for size in range(max_size + 1):
            for collection in combinations(sets_list, size):
                joined = reduce(union, collection, empty)
                for b in sets_list:
                    lhs = intersection(joined, b)
                    rhs = reduce(union, (intersection(a, b) for a in collection), empty)
                    if lhs != rhs:
                        return Verdict.fails(Witness(
                            inputs=(tuple(collection), b),
                            lhs=lhs,
                            rhs=rhs,
                            note="(vee of collection) wedge B = vee of pairwise wedges",
                        ))
        return Verdict.holds_exhaustive()

    @pytest.mark.parametrize("size", [1, 2])
    def test_frame_law_on_sets_holds_iff_every_point_is_a_frame(self, size):
        algebras = [
            classical_algebra(),
            chain_algebra(3),
            chain_algebra(4),
            pow2_algebra(),
            lattice_algebra(m3_lattice()),
            lattice_algebra(n5_lattice()),
        ]
        points = tuple(f"x{i}" for i in range(size))
        outcomes = set()
        for assignment in product(algebras, repeat=size):
            fam = AlgebraFamily(Universe(points), dict(zip(points, assignment)))
            expected = all(check_cha(alg.lattice).holds for alg in assignment)
            assert self._frame_law_on_sets(fam) == expected, [alg.name for alg in assignment]
            outcomes.add(expected)
        # m3 and n5 give failing families, which small distributive carriers never do
        assert outcomes == {False, True}

    @staticmethod
    def _frame_law_on_sets(fam):
        """Whether (A1 | A2) & B = (A1 & B) | (A2 & B) for all sets A1, A2, B.

        A reference that uses only the set operations. Collections of two
        sets decide every finite collection: the empty and one-set ones
        cannot fail, and larger ones follow from pairs by induction.
        """
        points = fam.universe.points
        carriers = [fam.algebra_at(x).elements for x in points]
        sets = [modern_set(fam, dict(zip(points, values))) for values in product(*carriers)]
        for a1 in sets:
            for a2 in sets:
                for b in sets:
                    lhs = intersection(union(a1, a2), b)
                    if lhs != union(intersection(a1, b), intersection(a2, b)):
                        return False
        return True

    def test_no_direct_route_for_larger_carriers(self):
        fam = constant_family(("u",), chain_algebra(5))
        report = check_gf_ring_conditions(fam, samples=50, seed=0)
        assert report.routes_agree is None
        assert report.cross_validated.status == "not-applicable"
        assert report.passed


class TestClassification:
    def test_interval_broken_on_k3_is_modern(self, broken_interval):
        # its vee does not commute on K3, so its tables there are no lattice
        got = classify_family(constant_family(("x", "y"), broken_interval))
        assert got.level == "modern"
        assert got.per_point["x"] == "algebra 'fuzzy' (no backing order)"

    def test_ladder(self):
        cases = [
            (classical_algebra(), "classical"),
            (chain_algebra(2), "classical"),
            (fuzzy_algebra(), "fuzzy-like"),
            (chain_algebra(3), "generalized-fuzzy"),
            (lattice_algebra(m3_lattice()), "L-fuzzy"),
            (matrix_algebra(2), "modern"),
        ]
        for algebra, expected in cases:
            fam = constant_family(("x", "y"), algebra)
            got = classify_family(fam)
            assert got.level == expected, algebra.name
            assert expected in got.describe()

    def test_mixed_families_take_the_most_general_level(self):
        u = Universe(("x", "y"))

        def level_of(a, b):
            return classify_family(AlgebraFamily(u, {"x": a, "y": b})).level

        # a classical point is Heyting-backed but not the unit interval,
        # so mixing it with fuzzy points lands one level up
        assert level_of(classical_algebra(), fuzzy_algebra()) == "generalized-fuzzy"
        assert level_of(classical_algebra(), chain_algebra(3)) == "generalized-fuzzy"
        assert level_of(classical_algebra(), lattice_algebra(m3_lattice())) == "L-fuzzy"
        assert level_of(classical_algebra(), matrix_algebra(2)) == "modern"
        assert level_of(fuzzy_algebra(), lattice_algebra(m3_lattice())) == "L-fuzzy"

    def test_rank_is_monotone(self):
        representatives = [
            classical_algebra(),
            fuzzy_algebra(),
            chain_algebra(3),
            lattice_algebra(m3_lattice()),
            matrix_algebra(2),
        ]
        u = Universe(("x", "y"))

        def rank(a, b):
            level = classify_family(AlgebraFamily(u, {"x": a, "y": b})).level
            return laws.LEVELS.index(level)

        for a in representatives:
            base = rank(a, a)
            for b in representatives:
                if rank(b, b) <= base:
                    assert rank(a, b) <= base

    def test_per_point_evidence(self):
        fam = constant_family(("x",), lattice_algebra(m3_lattice()))
        got = classify_family(fam)
        assert "x" in got.per_point
        assert "m3" in got.per_point["x"]


# ---------------------------------------------------------------------------
# One per-point verdict per handle


LIFT_FAMILIES = {
    "mat3@4": constant_family(("p", "q", "r", "s"), matrix_algebra(3)),
    "fuzzy@3": constant_family(("p", "q", "r"), fuzzy_algebra()),
    "mixed": AlgebraFamily(
        Universe(("a", "b", "c", "d", "e")),
        {
            "a": chain_algebra(3),
            "b": matrix_algebra(2),
            "c": chain_algebra(3),
            "d": fuzzy_algebra(),
            "e": matrix_algebra(2),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(LIFT_FAMILIES))
def test_lift_check_scans_each_handle_once(name, monkeypatch):
    from modernsets import laws

    fam = LIFT_FAMILIES[name]
    handles = {id(fam.algebra_at(x)) for x in fam.universe.points}
    check = laws.check_law
    scanned = []

    def counted(a, *args, **kwargs):
        scanned.append(a)
        return check(a, *args, **kwargs)

    monkeypatch.setattr(laws, "check_law", counted)
    for law in LAW_NAMES:
        scanned.clear()
        report = lift_check(fam, law, samples=30, seed=3)
        assert len(scanned) == len(handles), law
        # the same verdicts as scanning point by point
        per_point = {
            x: check(fam.algebra_at(x), law, samples=30, seed=3).verdict
            for x in fam.universe.points
        }
        assert report.per_point == per_point, law
        assert report.family_verdict == check_family_law(fam, law, samples=30, seed=3).verdict
        assert report.consistent, law


RING_FAMILIES = {
    "chain3@2": constant_family(("p", "q"), chain_algebra(3)),
    "m3@3": constant_family(("p", "q", "r"), lattice_algebra(m3_lattice())),
    "mixed": AlgebraFamily(
        Universe(("a", "b", "c", "d")),
        {"a": chain_algebra(3), "b": fuzzy_algebra(), "c": chain_algebra(3), "d": pow2_algebra()},
    ),
}


@pytest.mark.parametrize("name", sorted(RING_FAMILIES))
def test_ring_and_classification_scan_each_handle_once(name, monkeypatch):
    fam = RING_FAMILIES[name]
    points = fam.universe.points
    handles = {fam.algebra_at(x) for x in points}
    cha, point_level = laws.check_cha, laws._point_level
    scanned, levelled = [], []
    monkeypatch.setattr(laws, "check_cha", lambda lat: scanned.append(lat) or cha(lat))
    monkeypatch.setattr(laws, "_point_level", lambda a: levelled.append(a) or point_level(a))

    report = check_gf_ring_conditions(fam)
    assert len(scanned) == len(handles)
    assert report.cha_per_point == {x: cha(fam.algebra_at(x).lattice) for x in points}

    classified = classify_family(fam)
    assert len(levelled) == len(handles)
    assert classified.per_point == {x: point_level(fam.algebra_at(x))[1] for x in points}


def reference_verdict(ops, law, tuples, seed=None):
    """The scan with its equation loop in a helper called once per tuple,
    as it was written before the loop moved into ``_verdict``."""

    def first_failure(args):
        for label, fn in law.equations:
            lhs, rhs = fn(ops, *args)
            if lhs != rhs:
                return Witness(inputs=args, lhs=lhs, rhs=rhs, note=label)
        return None

    checked = 0
    for checked, args in enumerate(tuples, 1):
        witness = first_failure(args)
        if witness is not None:
            return Verdict.fails(witness)
    if seed is None:
        return Verdict.holds_exhaustive()
    return Verdict.holds_sampled(samples=checked, seed=seed)


def assert_same_verdict(ops, law, tuples):
    tuples = list(tuples)
    got = _verdict(ops, law, tuples)
    # status, mode and the witness's inputs, sides and note
    assert got == reference_verdict(ops, law, tuples), law.name
    return got


def test_verdict_matches_reference_scan_on_census_tables(census_table):
    complements = ({"O": "I", "m": "m", "I": "O"}, {"O": "I", "m": "O", "I": "m"})
    statuses = {law.name: set() for law in LAWS}
    # chain3 (census 55764) with its order-reversing complement satisfies
    # distributivity and De Morgan, which the seeded draw rarely does
    sample = [55764, *Random(29).sample(range(3 ** 10), 200)]
    for k, index in enumerate(sample):
        h = census_table(index, complements[k % 2]).as_handle()
        for law in LAWS:
            verdict = assert_same_verdict(h, law, product(h.elements, repeat=law.arity))
            statuses[law.name].add(verdict.status)
    # every law both holds and fails somewhere in the sample
    assert all(seen == {"holds", "fails"} for seen in statuses.values()), statuses
    # the sampled path: boundary tuples, then seeded draws
    fz = fuzzy_algebra()
    for law in LAWS:
        draws = reference_draws(fz.sample, law.arity, 50, 4)
        assert_same_verdict(fz, law, chain(product(fz.boundary, repeat=law.arity), draws))


@pytest.mark.parametrize(
    "lat", [m3_lattice(), n5_lattice(), powerset_lattice(3)], ids=["m3", "n5", "pow3"]
)
def test_verdict_matches_reference_scan_on_certificate_rows(lat):
    rows = [
        laws._COMMUTATIVE_LAW,
        laws._ASSOCIATIVE_LAW,
        get_law("absorption"),
        get_law("distributive"),
        MIXED_LAW,
    ]
    for law in rows:
        assert_same_verdict(lat, law, product(lat.elements, repeat=law.arity))
    pairs = product(combinations(lat.elements, 2), lat.elements)
    assert_same_verdict(lat, CHA_PAIR_LAW, pairs)


@pytest.mark.parametrize(
    "name",
    ["m3", "n5", "pow3", "pow4", "pow5", "proj16", "proj17", "proj32", "proj33", "proj42", "proj43"],
)
def test_single_carrier_kernel_matches_element_scan(name, carrier_reference):
    # pow4 and proj16 run in one lane lookup, pow5, proj17, proj32, proj33
    # and proj42 in grouped lanes and proj43 by row lookup; the proj tables
    # do not commute, so a transposed cell shows
    lattices = {"m3": m3_lattice(), "n5": n5_lattice()}
    lattices.update((f"pow{n}", powerset_lattice(n)) for n in (3, 4, 5))
    carrier_reference(lattices.get(name) or KERNEL_ALGEBRAS[name])


def test_three_element_algebras_never_compile(census_table):
    # a 3-element carrier's scans have at most 27 tuples, under the
    # kernel's 64, so its own laws never compile its tables
    for index, complement in ((55764, {"O": "I", "m": "m", "I": "O"}), (12345, None)):
        h = census_table(index, complement).as_handle()
        check_wba_axioms(h)
        check_all_laws(h)
        assert "_tables" not in vars(h) and "_tables_with_complement" not in vars(h)


# ---------------------------------------------------------------------------
# Order by evaluation: a lattice written as tables is the lattice


def written_as_table(alg):
    """The same algebra as an operation table, under the same name."""
    elements = alg.elements
    pairs = list(product(elements, repeat=2))
    complement = None if alg.complement is None else {x: alg.complement(x) for x in elements}
    return FiniteAlgebraTable(
        alg.name, elements, alg.zero, alg.one,
        {p: alg.wedge(*p) for p in pairs}, {p: alg.vee(*p) for p in pairs}, complement,
    ).as_handle()


@pytest.mark.parametrize(
    "builtin",
    [chain_algebra(3), pow2_algebra(), lattice_algebra(n5_lattice())],
    ids=["chain3", "pow2", "n5"],
)
def test_table_written_lattices_act_like_builtins(builtin):
    table = written_as_table(builtin)
    assert table is not builtin
    points = ("x", "y")
    families = [constant_family(points, a) for a in (builtin, table)]
    classified = [classify_family(f).describe() for f in families]
    assert classified[0] == classified[1]
    assert "no backing order" not in classified[1]
    ring = [check_gf_ring_conditions(f) for f in families]
    assert ring[0].describe() == ring[1].describe()
    values = list(product(builtin.elements, repeat=len(points)))
    for a, b in product(values, repeat=2):
        answers = {
            contains(modern_set(f, dict(zip(points, a))), modern_set(f, dict(zip(points, b))))
            for f in families
        }
        assert len(answers) == 1, (a, b)


def test_lattice_laws_with_misplaced_bottom_give_no_order():
    # m < O < I: wedge and vee are a chain's min and max, and the eight
    # identities hold, but O is not the bottom, so there is no backing order
    rank = {"m": 0, "O": 1, "I": 2}
    elements = ("O", "m", "I")
    pairs = list(product(elements, repeat=2))
    alg = FiniteAlgebraTable(
        "mOI", elements, "O", "I",
        {(x, y): min(x, y, key=rank.get) for x, y in pairs},
        {(x, y): max(x, y, key=rank.get) for x, y in pairs},
    ).as_handle()
    assert alg.lattice is None
    fam = constant_family(("x",), alg)
    assert classify_family(fam).level == "modern"
    assert "no backing order" in classify_family(fam).describe()
    with pytest.raises(PreconditionError, match="not lattice-backed"):
        check_gf_ring_conditions(fam)
    with pytest.raises(UnsupportedOperationError, match="containment needs a per-point order"):
        contains(empty_set(fam), empty_set(fam))


# ---------------------------------------------------------------------------
# Unit-interval families, decided on K3 = {0, 1/2, 1}

REFERENCE_BY_NAME = {law.name: law for law in REFERENCE_LAWS}


class Tables:
    """One point's operations as plain dicts, read off an order by brute
    force: meet is the greatest lower bound and join the least upper bound.
    The elements run from the bottom (O) to the top (I)."""

    def __init__(self, elements, leq, complement=None):
        def bound(x, y, below):
            def under(u, v):
                return leq(u, v) if below else leq(v, u)

            common = [z for z in elements if under(z, x) and under(z, y)]
            return next(z for z in common if all(under(w, z) for w in common))

        self.elements, self.zero, self.one = elements, elements[0], elements[-1]
        self._wedge = {(x, y): bound(x, y, True) for x in elements for y in elements}
        self._vee = {(x, y): bound(x, y, False) for x in elements for y in elements}
        self.complement = None if complement is None else complement.__getitem__

    def wedge(self, x, y):
        return self._wedge[x, y]

    def vee(self, x, y):
        return self._vee[x, y]

    def truth(self, law):
        """Does ``law`` hold on every tuple of elements? None without a complement."""
        if law.needs_complement and self.complement is None:
            return None
        return all(
            lhs == rhs
            for args in product(self.elements, repeat=law.arity)
            for _, fn in law.equations
            for lhs, rhs in (fn(self, *args),)
        )


def _chain(*elements):
    return lambda x, y: elements.index(x) <= elements.index(y)


_K3 = (Fraction(0), Fraction(1, 2), Fraction(1))
# Each point: its handle, and its tables written here from the order. The
# unit interval's tables are K3 under min, max and 1 - x.
ORACLE_POINTS = {
    "classical2": (classical_algebra(), Tables(("O", "I"), _chain("O", "I"), {"O": "I", "I": "O"})),
    "chain3": (
        chain_algebra(3),
        Tables(("O", "m", "I"), _chain("O", "m", "I"), {"O": "I", "m": "m", "I": "O"}),
    ),
    "pow2": (
        pow2_algebra(),
        Tables(
            ("0", "a", "b", "ab"),
            lambda x, y: set(x) - {"0"} <= set(y),
            {"0": "ab", "a": "b", "b": "a", "ab": "0"},
        ),
    ),
    "m3": (
        lattice_algebra(m3_lattice()),
        Tables(("0", "a", "b", "c", "1"), lambda x, y: x in (y, "0") or y == "1"),
    ),
    "n5": (
        lattice_algebra(n5_lattice()),
        Tables(
            ("0", "a", "b", "c", "1"),
            lambda x, y: x in (y, "0") or y == "1" or (x, y) == ("b", "c"),
        ),
    ),
    "fuzzy": (fuzzy_algebra(), Tables(_K3, lambda x, y: x <= y, {v: 1 - v for v in _K3})),
}
ORACLE_FAMILIES = [(name,) for name in ORACLE_POINTS] + list(product(ORACLE_POINTS, repeat=2))


def test_oracle_tables_match_the_handles_on_their_carriers():
    for handle, tables in ORACLE_POINTS.values():
        assert (handle.zero, handle.one) == (tables.zero, tables.one)
        for x, y in product(tables.elements, repeat=2):
            assert (handle.wedge(x, y), handle.vee(x, y)) == (tables.wedge(x, y), tables.vee(x, y))


@pytest.mark.parametrize("names", ORACLE_FAMILIES, ids=["+".join(n) for n in ORACLE_FAMILIES])
def test_lift_biconditional_against_table_oracle(names):
    """The family level of every law is the conjunction of the points'
    truths (Birkhoff), a pass is exhaustive, and a failing witness
    re-evaluates point by point on the test's own tables."""
    family = family_of([ORACLE_POINTS[name][0] for name in names])
    tables = [ORACLE_POINTS[name][1] for name in names]
    points = family.universe.points
    for name in LAW_NAMES:
        reference = REFERENCE_BY_NAME[name]
        truths = [t.truth(reference) for t in tables]
        report = lift_check(family, name)
        verdict = report.family_verdict
        if None in truths:
            assert not verdict.applicable, name
            continue
        assert [v.holds for v in report.per_point.values()] == truths, name
        assert verdict.holds == all(truths), name
        assert report.consistent, name
        if verdict.holds:
            assert verdict.mode == "exhaustive", name
            continue
        equation = dict(reference.equations)[verdict.witness.note]
        sides = [
            equation(t, *(s.membership[x] for s in verdict.witness.inputs))
            for x, t in zip(points, tables)
        ]
        assert [lhs for lhs, _ in sides] == [verdict.witness.lhs.membership[x] for x in points]
        assert [rhs for _, rhs in sides] == [verdict.witness.rhs.membership[x] for x in points]
        assert any(lhs != rhs for lhs, rhs in sides), name


K3_FAMILIES = [
    ("fuzzy",), ("fuzzy", "fuzzy"), ("fuzzy", "fuzzy", "fuzzy"), ("fuzzy", "classical2"),
    ("chain3", "fuzzy"), ("fuzzy", "pow2"), ("m3", "fuzzy"), ("fuzzy", "n5"), ("fuzzy", "chain5"),
    ("classical2", "fuzzy", "chain3"), ("n5", "fuzzy", "fuzzy"),
]


@pytest.mark.parametrize("names", K3_FAMILIES, ids=["+".join(n) for n in K3_FAMILIES])
def test_k3_verdicts_match_the_sampled_route(names):
    """Deciding on K3 changes no status and no witness: a failure is the
    sampled route's own (forced stage) witness, and a pass differs from the
    sampled pass only in its mode and the reduction in its details."""
    algebras = {**NAMED_ALGEBRAS, "fuzzy": fuzzy_algebra()}
    family = family_of([algebras[name] for name in names])
    for law in LAWS:
        decided = check_family_law(family, law).verdict
        # _MAX_EXHAUSTIVE = 0 sends every family down the sampled route
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laws, "_MAX_EXHAUSTIVE", 0)
            sampled = check_family_law(family, law).verdict
        if decided.mode == "sampled":
            # 45 sets over K3 make more than 50,000 triples: sampled as before
            assert names == ("n5", "fuzzy", "fuzzy") and law.arity == 3, law.name
            assert decided == sampled, law.name
        elif decided.holds:
            assert decided.describe() == "holds (exhaustive)", law.name
            assert "Kalman 1958" in dict(decided.details)["deciding-carrier"]
            assert sampled.mode == "sampled", law.name
            unmoded = dataclasses.replace(decided, mode="sampled", samples=sampled.samples,
                                          seed=sampled.seed, details=())
            assert unmoded == sampled, law.name
        else:
            assert decided == sampled, law.name
            assert decided.describe() == sampled.describe(), law.name


def test_scan_witness_stands_when_a_cap_cuts_the_forced_stage_short(monkeypatch):
    # With one forced tuple (the empty set) nothing fails before the draws,
    # so the witness is the scan's first failing set in K3 order (0, 1, 1/2),
    # rebuilt over the family and re-checked on it.
    fz = fuzzy_algebra()
    family = constant_family(("p", "q"), fz)
    with monkeypatch.context() as mp:
        mp.setattr(laws, "_FORCED_CAP", 1)
        verdict = check_family_law(family, "excluded-middle").verdict
    (s,) = verdict.witness.inputs
    assert s == modern_set(family, {"p": Fraction(0), "q": Fraction(1, 2)})
    assert s.family is family
    assert _scan(_SetOps(family), get_law("excluded-middle"), ((s,),)) == verdict.witness
    # the uncapped forced stage reports the spike at the first point instead
    (s,) = check_family_law(family, "excluded-middle").verdict.witness.inputs
    assert s == lift_point_value(family, "p", Fraction(1, 2))


def test_the_forced_stage_tries_the_bounds_before_the_spikes():
    # with complement(I) = m at the chain point, non-contradiction fails at the full
    # set, and later at the spike of 1/2 at the fuzzy point
    chain3 = chain_algebra(3)
    skewed = dataclasses.replace(chain3, name="skewed", complement={"O": "I", "m": "m", "I": "m"}.__getitem__)
    family = family_of([fuzzy_algebra(), skewed])
    verdict = check_family_law(family, "non-contradiction").verdict
    assert verdict.witness.inputs == (full_set(family),)


def reference_forced_sets(family, arity):
    """The forced stage as tuples of sets, built set by set as the stage once yielded them."""
    yield from product((empty_set(family), full_set(family)), repeat=arity)
    for x in family.universe.points:
        alg = family.algebra_at(x)
        values = alg.elements if alg.elements is not None else alg.boundary
        spikes = [lift_point_value(family, x, v) for v in values]
        yield from islice(product(spikes, repeat=arity), laws._PER_POINT_CAP)


FORCED_MIX = [
    names for size in (1, 2, 3) for names in product(("fuzzy", "classical2", "chain3", "m3", "n5"), repeat=size)
    if "fuzzy" in names
]


def test_a_failing_forced_stage_is_the_family_verdict():
    """Whenever a scan of the forced stage's sets fails, its failure is the family verdict:
    the sampled route scans that stage first, and a failing scan of deciding carriers
    gives way to it."""
    algebras = {**NAMED_ALGEBRAS, "fuzzy": fuzzy_algebra()}
    routes = {"decided": 0, "sampled": 0, "moved": 0}
    for names in FORCED_MIX:
        family = family_of([algebras[name] for name in names])
        ops = _SetOps(family)
        for law in LAWS:
            if law.needs_complement and ops.complement is None:
                continue
            expected = _verdict(ops, law, islice(reference_forced_sets(family, law.arity), laws._FORCED_CAP))
            if not expected.failed:
                continue
            assert check_family_law(family, law).verdict == expected, (names, law.name)
            if set_count(family) ** law.arity > laws._MAX_EXHAUSTIVE:
                routes["sampled"] += 1
            else:
                routes["decided"] += 1
                routes["moved"] += laws._exhaustive_verdict(family, ops, law, laws._carriers(family)) != expected
    # some deciding-carrier scans fail first at another tuple than the forced stage does
    assert all(routes.values()), routes


def test_matrix_families_stay_sampled(monkeypatch):
    u = Universe(("p", "q"))
    family = AlgebraFamily(u, {"p": fuzzy_algebra(), "q": matrix_algebra(2)})
    verdict = check_family_law(family, "commutative-vee").verdict
    assert verdict.mode == "sampled"
    monkeypatch.setattr(laws, "_MAX_EXHAUSTIVE", 0)
    assert verdict == check_family_law(family, "commutative-vee").verdict


def _random_side(rng, depth):
    """A random expression in x, y, z, O and I, nested at most ``depth`` deep."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice("xyzxyzOI")
    op = rng.choice(("/\\", "\\/", "~"))
    if op == "~":
        return f"~({_random_side(rng, depth - 1)})"
    return f"({_random_side(rng, depth - 1)} {op} {_random_side(rng, depth - 1)})"


def test_random_equations_decided_on_k3_match_unit_interval_sampling():
    """Kalman 1958 in practice: for 300 seeded equations of depth at most 4,
    the verdict decided on K3 is the verdict of 400 draws from the unit
    interval (after its boundary pool)."""
    fz = fuzzy_algebra()
    family = constant_family(("p",), fz)
    rng = Random(12)
    checked = held = 0
    while checked < 300:
        law = laws._law("random", f"{_random_side(rng, 4)} = {_random_side(rng, 4)}")
        decided = check_family_law(family, law).verdict
        sampled = check_law(fz, law, samples=400, seed=checked).verdict
        assert decided.status == sampled.status, law.equations[0][0]
        assert decided.failed or decided.mode == "exhaustive"
        checked += 1
        held += decided.holds
    assert held >= 20


@pytest.mark.parametrize(
    "algebra", [chain_algebra(3), fuzzy_algebra(), matrix_algebra(2)], ids=["chain3", "fuzzy", "mat2"]
)
def test_closed_laws_are_decided_by_one_evaluation(algebra):
    """A law with no variables reads no set: the empty tuple decides it on
    every carrier, finite, unit interval or matrix, at both levels."""
    family = constant_family(("p", "q"), algebra)
    holds = laws._law("closed", r"O /\ I = O", r"I \/ O = I")
    verdict = check_family_law(family, holds).verdict
    assert verdict.describe() == "holds (exhaustive)"
    assert check_law(algebra, holds).verdict.describe() == "holds (exhaustive)"
    report = lift_check(family, holds)
    assert report.family_verdict == verdict
    assert [v.describe() for v in report.per_point.values()] == ["holds (exhaustive)"] * 2
    assert report.consistent

    fails = laws._law("closed", "O = I")
    verdict = check_family_law(family, fails).verdict
    assert verdict.failed and verdict.witness.inputs == ()
    assert (verdict.witness.lhs, verdict.witness.rhs) == (empty_set(family), full_set(family))
    report = lift_check(family, fails)
    assert report.family_verdict == verdict
    assert all(v.failed and v.witness.inputs == () for v in report.per_point.values())
    assert report.consistent


class TestDecidingClaim:
    """The deciding sub-carrier is a claim about the operations it names."""

    def test_a_replaced_operation_voids_the_claim(self, replaced_interval):
        third, two_thirds = Fraction(1, 3), Fraction(2, 3)
        assert check_law(replaced_interval, "commutative-vee").verdict.witness.inputs == (
            two_thirds, third,
        )
        fam = constant_family(("x", "y"), replaced_interval)
        verdict = check_family_law(fam, "commutative-vee").verdict
        assert verdict.mode == "sampled"
        assert "deciding-carrier" not in dict(verdict.details)
        got = classify_family(fam)
        assert got.level == "modern"
        assert got.per_point["x"] == "algebra 'fuzzy' (no backing order)"
        with pytest.raises(PreconditionError, match="'fuzzy' at point 'x' is not lattice-backed"):
            check_gf_ring_conditions(fam)

    def test_the_claim_binds_to_operations_not_to_the_handle(self):
        renamed = dataclasses.replace(fuzzy_algebra(), name="f")
        fam = constant_family(("x", "y"), renamed)
        verdict = check_family_law(fam, "commutative-vee").verdict
        assert verdict.describe() == "holds (exhaustive)"
        assert dict(verdict.details)["deciding-carrier"] == (
            "K3 = {0, 1/2, 1} at each unit-interval point (Kalman 1958)"
        )
        assert classify_family(fam).level == "fuzzy-like"

    def test_a_second_claim_speaks_for_itself(self):
        # Without complement the interval is a bounded distributive lattice,
        # and the 2-element chain decides those (Birkhoff), so a claim on
        # {0, 1} is sound; its reason and evidence are its own.
        fz = fuzzy_algebra()
        claim = Deciding(
            (fz.zero, fz.one),
            "the 2-element chain decides bounded distributive lattices",
            "unit interval lattice, decided on {0, 1}",
            (fz.wedge, fz.vee, None),
        )
        lat = dataclasses.replace(fz, name="lat", complement=None, deciding=claim)
        fam = constant_family(("x", "y"), lat)
        verdict = check_family_law(fam, "distributive").verdict
        assert verdict.describe() == "holds (exhaustive)"
        assert verdict.details == (("deciding-carrier", claim.reason),)
        assert lat.lattice.elements == (fz.zero, fz.one)
        got = classify_family(fam)
        assert got.level == "fuzzy-like"
        assert got.per_point == {"x": claim.evidence, "y": claim.evidence}
        # a family with both claims names both reasons, each once
        mixed = AlgebraFamily(Universe(("p", "q", "r")), {"p": lat, "q": fz, "r": lat})
        reasons = dict(check_family_law(mixed, "distributive").verdict.details)
        assert reasons["deciding-carrier"] == "; ".join(
            (claim.reason, fz.deciding.reason)
        )


def on_values(alg):
    """``alg`` with each operation wrapped, so its codes are void and its scans run
    on values; a deciding claim is declared again for the wrapped operations."""
    def wrapped(op):
        return op and (lambda *args: op(*args))

    ops = wedge, vee, complement = wrapped(alg.wedge), wrapped(alg.vee), wrapped(alg.complement)
    claim = alg.deciding and alg.deciding._replace(ops=ops)
    return dataclasses.replace(alg, wedge=wedge, vee=vee, complement=complement, deciding=claim)


CODED = {"fuzzy": fuzzy_algebra(), "mat2": matrix_algebra(2), "mat3": matrix_algebra(3)}

# Handles that share a coded carrier's sampler, and so its streams, with other boundaries.
SHARED_SAMPLERS = {
    "fuzzy-thirds": dataclasses.replace(fuzzy_algebra(), boundary=(Fraction(1, 3), Fraction(2, 3), Fraction(0))),
    "mat2-reversed": dataclasses.replace(matrix_algebra(2), boundary=matrix_algebra(2).boundary[::-1]),
}


class TestCodeRoute:
    """Scans of the infinite carriers on their integer codes (``algebra._Codes``)."""

    def test_wrapped_operations_void_the_codes(self):
        for alg in CODED.values():
            assert _bound_codes(alg) is alg._codes
            assert _bound_codes(on_values(alg)) is None
            assert _bound_codes(dataclasses.replace(alg, sample=alg.sample)) is alg._codes
            assert _bound_codes(dataclasses.replace(alg, is_member=lambda x: True)) is None

    @pytest.mark.parametrize("name", sorted(CODED))
    def test_check_law_matches_the_value_route(self, name):
        alg = CODED[name]
        values = on_values(alg)
        for scanned in (alg, values):
            for seed in range(3):
                for law in (*LAWS, laws._COMMUTATIVE_LAW, laws._ASSOCIATIVE_LAW):
                    got = check_law(scanned, law, samples=150, seed=seed).verdict
                    if got.applicable:
                        assert got == reference_check_law(scanned, law, 150, seed), (seed, law.name)

    @pytest.mark.parametrize("boundary", [
        (Fraction(1, 3), Fraction(2, 3), Fraction(0)),  # coded: scanned on codes
        (Fraction(0), Fraction(1, 67), Fraction(1)),  # 1/67 has no code: scanned on values
    ])
    def test_the_boundary_is_encoded_when_scanned(self, boundary):
        alg = dataclasses.replace(fuzzy_algebra(), boundary=boundary)
        values = on_values(alg)
        for scanned in (alg, values):
            for law in LAWS:
                got = check_law(scanned, law, samples=50).verdict
                assert got == reference_check_law(scanned, law, 50, 0), law.name

    @pytest.mark.parametrize("names", [
        ("fuzzy", "mat2"),
        ("mat2", "chain3", "fuzzy"),
        ("mat2", "mat2"),
        ("m3", "mat3", "fuzzy", "pow2"),
        ("fuzzy", "fuzzy", "fuzzy", "fuzzy"),
    ])
    def test_family_verdicts_match_the_value_route(self, names):
        algebras = {**NAMED_ALGEBRAS, **CODED}
        coded = family_of([algebras[name] for name in names])
        values = family_of([on_values(algebras[name]) for name in names])
        for seed in range(3):
            for law in LAWS:
                for family in (coded, values):
                    got = check_family_law(family, law, samples=40, seed=seed).verdict
                    if got.applicable and set_count(family) ** law.arity > laws._MAX_EXHAUSTIVE:
                        expected = reference_family_verdict(family, law, 40, seed)
                        assert got == expected, (seed, law.name)
                        assert got.describe() == expected.describe(), (seed, law.name)
                got, expected = (check_family_law(f, law, samples=40, seed=seed).verdict for f in (coded, values))
                assert got.describe() == expected.describe(), (seed, law.name)

    def test_a_value_with_no_code_is_scanned_on_values(self):
        fz, mat2 = fuzzy_algebra(), matrix_algebra(2)
        # a boundary value with no code puts the point on its values for the whole scan
        odd_fz = dataclasses.replace(fz, boundary=(*fz.boundary, Fraction(1, 67)))
        family = family_of([odd_fz, mat2])
        for law in LAWS:
            if not law.needs_complement:
                got = check_family_law(family, law, samples=40).verdict
                assert got == reference_family_verdict(family, law, 40, 0), law.name

    def test_a_passing_scan_never_calls_the_handles_vee(self):
        calls = []

        def spied(alg):
            def vee(x, y):
                calls.append((x, y))
                return alg.vee(x, y)

            handle = dataclasses.replace(alg, vee=vee)
            return dataclasses.replace(handle, _codes=alg._codes._replace(bound=_coded_attributes(handle)))

        fz = spied(fuzzy_algebra())
        verdict = check_law(fz, "commutative-vee").verdict
        assert verdict.describe() == "holds (sampled, samples=1009, seed=0)"
        assert calls == []
        family = family_of([spied(matrix_algebra(2)), fz])
        assert check_family_law(family, "commutative-vee").verdict.mode == "sampled"
        assert calls == []
        # the same handle without its codes calls its vee at every tuple
        assert check_law(dataclasses.replace(fz, _codes=None), "commutative-vee").verdict == verdict
        assert len(calls) == 2 * 1009

    def test_codes_that_disagree_with_the_values_are_an_error(self):
        fz = fuzzy_algebra()
        ops = SimpleNamespace(**{**vars(fz._codes.ops), "vee": fz._codes.ops.wedge})
        bad = dataclasses.replace(fz, _codes=fz._codes._replace(ops=ops))
        # on codes absorption fails at (1, 0): min(1, min(1, 0)) = 0; on values it holds
        message = "fails on the codes of AlgebraHandle.*do not give the same result twice"
        with pytest.raises(StructuralError, match=message):
            check_law(bad, "absorption")
        family = family_of([bad, matrix_algebra(2)])
        message = "fails on the points of AlgebraFamily.*do not give the same result twice"
        with pytest.raises(StructuralError, match=message):
            check_family_law(family, "absorption")


class TestCompiledColumnOps:
    def test_each_table_compiles_once(self, monkeypatch):
        compiled = []
        point_ops = laws._point_ops
        monkeypatch.setattr(laws, "_point_ops", lambda k, t: compiled.append(t) or point_ops(k, t))
        lat = lattice_from_hasse("diamond", ("0", "a", "b", "c", "1"), (
            ("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1"),
        ))
        check_lattice_laws(lat)
        assert compiled == [lat._tables]
        check_lattice_laws(lat)
        alg = lattice_algebra(lat, complement={"0": "1", "a": "a", "b": "b", "c": "c", "1": "0"})
        check_all_laws(alg)
        check_all_laws(alg)
        family = family_of([alg, alg])
        for law in LAWS:
            check_family_law(family, law)
        # the algebra wraps the lattice, so it reads the lattice's tables and lane ops,
        # and its complement compiles only the complement column
        assert alg._tables is lat._tables
        assert compiled == [lat._tables]
        kind, wedge, vee, complement = alg._tables_with_complement.columns
        assert (kind, wedge, vee) == lat._tables.columns[:3]
        assert complement(bytes(range(5))) == bytes([4, 1, 2, 3, 0])


# ---------------------------------------------------------------------------
# Shared seeded streams, scanned a slab at a time


def reference_check_law(alg, law, samples, seed):
    """``check_law``'s sampled scan of an infinite carrier, on its values, with the
    draws of ``reference_draws``."""
    tuples = chain(product(alg.boundary, repeat=law.arity), reference_draws(alg.sample, law.arity, samples, seed))
    return reference_verdict(alg, law, tuples, seed)


def reference_family_verdict(family, law, samples, seed):
    """The sampled family stage, scanned as sets, with the draws of ``reference_draws``."""
    return reference_verdict(_SetOps(family), law, sampled_tuples(family, law.arity, samples, seed), seed)


def marked_carrier(bad, refused):
    """Integers, drawn as ``getrandbits(32)`` and coded as themselves. ``wedge(x, x)`` is
    ``x + 1`` at the values in ``bad``, so idempotence fails exactly there, and a draw
    of a value in ``refused`` raises. The two sets may be filled after the carrier is
    built, once the values it will draw are known."""
    def sample(rng):
        value = rng.getrandbits(32)
        if value in refused:
            raise ArithmeticError(f"draw {value} refused")
        return value

    def wedge(x, y):
        return x + 1 if x == y and x in bad else min(x, y)

    top = 1 << 33
    handle = AlgebraHandle(
        name="marked", zero=0, one=top, wedge=wedge, vee=max,
        is_member=lambda x: type(x) is int, sample=sample,
    )
    ops = SimpleNamespace(
        wedge=lambda x, y: [*map(wedge, x, y)], vee=lambda x, y: [*map(max, x, y)],
        complement=None, zero=0, one=top,
    )
    encode = lambda x: x if type(x) is int else None  # noqa: E731
    return dataclasses.replace(handle, _codes=_Codes(ops, encode, int, sample, _coded_attributes(handle)))


def marked_values(scan, seed, count):
    """The marked carrier's first ``count`` draws at ``seed``, in the order ``scan`` (the
    carrier itself, or a family whose last point it is) draws them."""
    if isinstance(scan, AlgebraHandle):
        return [v for (v,) in reference_draws(scan.sample, 1, count, seed)]
    point = scan.universe.points[-1]
    return [values[point] for (values,) in reference_draws(partial(reference_draw, scan), 1, count, seed)]


# Both laws fail only where a marked value meets itself: the first at tuple i when draw i
# is marked, the second when draw 2i or 2i + 1 is.
IDEMPOTENT = get_law("idempotent-wedge")
IDEMPOTENT_PAIR = laws._law("idempotent-pair", r"x /\ x = x", r"y /\ y = y")


def marked_scans():
    """The mark and refusal sets of a new marked carrier, and each way of scanning it:
    on codes, on values, and as the last point of families whose other point, if any,
    is scanned tuple by tuple (chain3) or on codes (fuzzy)."""
    bad, refused = set(), set()
    marked = marked_carrier(bad, refused)
    scans = {
        "codes": marked,
        "values": dataclasses.replace(marked, _codes=None),
        "marked@1": family_of([marked]),
        "chain3+marked": family_of([chain_algebra(3), marked]),
        "fuzzy+marked": family_of([fuzzy_algebra(), marked]),
    }
    return bad, refused, scans


def scan_outcome(scan, law, samples, seed):
    """What the checker gives for ``scan``, and what the reference scan gives."""
    if isinstance(scan, AlgebraHandle):
        got = outcome(lambda: check_law(scan, law, samples=samples, seed=seed).verdict)
        expected = outcome(lambda: reference_check_law(scan, law, samples, seed))
    else:
        got = outcome(lambda: check_family_law(scan, law, samples=samples, seed=seed).verdict)
        expected = outcome(lambda: reference_family_verdict(scan, law, samples, seed))
    return got, expected


def assert_batteries_match_fresh_draws(scanned):
    """Every law at seeds 0-2, over a family or each of a list of handles in turn, gives
    what the reference scan of fresh draws gives, with the laws in registry order, in
    reverse, and with the kept slabs, then the streams too, cleared before each scan.
    Failing verdicts are compared too: every family here has a matrix point, so none of
    its verdicts is exhaustive."""
    if isinstance(scanned, list):
        scans = [(
            lambda law, seed, alg=alg: check_law(alg, law, samples=150, seed=seed).verdict,
            lambda law, seed, alg=alg: reference_check_law(alg, law, 150, seed),
        ) for alg in scanned]
    else:
        scans = [(
            lambda law, seed: check_family_law(scanned, law, samples=100, seed=seed).verdict,
            lambda law, seed: reference_family_verdict(scanned, law, 100, seed),
        )]
    battery = [law for law in LAWS if scans[0][0](law, 0).applicable]
    expected = {
        (i, law.name, seed): reference(law, seed)
        for i, (_, reference) in enumerate(scans) for law in battery for seed in range(3)
    }
    sampled = {key for key, verdict in expected.items() if verdict.mode == "sampled"}
    for order in ("registry", "reversed", "slabs cleared", "cleared"):
        for seed in range(3):
            for law in battery[::-1] if order == "reversed" else battery:
                for i, (scan, _) in enumerate(scans):
                    if order in ("slabs cleared", "cleared"):
                        for stream in laws._streams.values():
                            stream.slabs.clear()
                    if order == "cleared":
                        laws._streams.clear()
                    got = scan(law, seed)
                    if got.mode != "exhaustive":
                        assert got == expected[i, law.name, seed], (order, seed, law.name, i)
                        sampled.discard((i, law.name, seed))
    assert not sampled  # every sampled reference verdict was met
    assert len(laws._streams) <= laws._STREAMS


class TestSharedStreams:
    """Every law of a battery at one seed reads one kept stream of draws, a slab of
    ``_DRAW_SLAB`` tuples at a time; verdicts, witnesses and counts are those of the
    draws each scan once made afresh (``reference_draws``)."""

    @pytest.mark.parametrize("names", [
        ("fuzzy",), ("mat2",), ("mat3",),
        ("chain3", "fuzzy", "mat2"), ("mat2", "pow2"), ("fuzzy", "mat2", "m3"), ("mat2", "mat2"),
    ])
    def test_batteries_in_any_order_match_fresh_draws(self, names):
        algebras = {**NAMED_ALGEBRAS, **CODED}
        if len(names) == 1:
            assert_batteries_match_fresh_draws([algebras[names[0]]])
        else:
            assert_batteries_match_fresh_draws(family_of([algebras[name] for name in names]))

    @pytest.mark.parametrize("names", [("fuzzy", "fuzzy-thirds"), ("mat2-reversed", "mat2")])
    def test_handles_of_one_sampler_match_fresh_draws(self, names):
        # the handles read one stream, and their boundaries differ
        assert_batteries_match_fresh_draws([{**CODED, **SHARED_SAMPLERS}[name] for name in names])

    def test_the_slab_key_names_everything_a_slab_depends_on(self, monkeypatch):
        fz, thirds = fuzzy_algebra(), SHARED_SAMPLERS["fuzzy-thirds"]
        # the handle and the sample count, at one sampler and seed: excluded middle fails
        # at the boundary values 1/2 and 1/3, and non-contradiction too
        for alg, samples in ((fz, 100), (fz, 150), (thirds, 150), (fz, 100), (thirds, 150)):
            for law in map(get_law, ("distributive", "excluded-middle", "de-morgan", "non-contradiction")):
                got = check_law(alg, law, samples=samples, seed=11).verdict
                assert got == reference_check_law(alg, law, samples, 11), (alg.boundary, samples, law.name)
        # the caps of the forced stage, at one family and seed
        family = family_of([matrix_algebra(2), NAMED_ALGEBRAS["n5"], matrix_algebra(2)])
        commutative = get_law("commutative-vee")
        for forced, per_point in ((20_000, 1000), (3, 1000), (20_000, 5), (20_000, 1000)):
            monkeypatch.setattr(laws, "_FORCED_CAP", forced)
            monkeypatch.setattr(laws, "_PER_POINT_CAP", per_point)
            got = check_family_law(family, commutative, samples=40, seed=11).verdict
            assert got == reference_family_verdict(family, commutative, 40, 11), (forced, per_point)
        # each point's lane route: chain3's complement leaves its carrier, so a complement
        # law holds it as values where the other laws of its arity hold element indices
        chain3 = chain_algebra(3)
        escaping = dataclasses.replace(chain3, name="escaping", complement=lambda x: "z" if x == "m" else "m")
        assert escaping._tables is not None and escaping._tables_with_complement is None
        family = family_of([escaping, dataclasses.replace(fz, deciding=None)])
        for law in ("idempotent-wedge", "non-contradiction", "commutative-wedge", "de-morgan", "idempotent-vee"):
            got, expected = scan_outcome(family, get_law(law), 60, 11)
            assert got == expected, law
    @pytest.mark.parametrize("at", [0, 63, 64, 65, 127, 128, 149])
    @pytest.mark.parametrize("law", [IDEMPOTENT, IDEMPOTENT_PAIR], ids=["arity1", "arity2"])
    def test_a_failure_at_each_slab_edge(self, at, law):
        bad, _, scans = marked_scans()
        for name, scan in scans.items():
            for seed in range(2):
                values = marked_values(scan, seed, law.arity * (at + 1))
                bad.clear()
                bad.add(values[-1])
                got, expected = scan_outcome(scan, law, 150, seed)
                assert got == expected and expected.failed, (name, seed)
                inputs = expected.witness.inputs
                if not isinstance(scan, AlgebraHandle):
                    inputs = [s._values[-1] for s in inputs]
                assert values[-1] in inputs, (name, seed)

    @pytest.mark.parametrize("samples", [0, 1, 63, 64, 65, 100, 150])
    def test_sample_counts_off_the_slab_size(self, samples):
        _, _, scans = marked_scans()
        for name, scan in scans.items():
            for law in (IDEMPOTENT, IDEMPOTENT_PAIR):
                got, expected = scan_outcome(scan, law, samples, 3)
                assert got == expected and expected.holds, (name, law.name)
                forced = 0 if isinstance(scan, AlgebraHandle) else expected.samples - samples
                assert got.samples == forced + samples

    @pytest.mark.parametrize("name", ["codes", "values", "marked@1", "chain3+marked", "fuzzy+marked"])
    def test_a_draw_that_raises_is_met_after_the_tuples_before_it(self, name):
        bad, refused, scans = marked_scans()
        scan, k = scans[name], 100  # draw 100: the second slab of arity 1, the fourth of arity 2
        values = marked_values(scan, 0, k + 40)
        for law in (IDEMPOTENT, IDEMPOTENT_PAIR):
            for mark in (None, 10, 70, 99, 101, 130):  # before the refused draw, in its slab, after
                bad.clear()
                refused.clear()
                bad.update(() if mark is None else [values[mark]])
                refused.add(values[k])
                # the tuple holding draw k is reached unless a failure comes before it
                wins = mark is not None and mark // law.arity < k // law.arity
                for _ in range(2):  # the second call meets the same error, not a shorter stream
                    got, expected = scan_outcome(scan, law, 150, 0)
                    assert got == expected, (law.name, mark)
                    if wins:
                        assert expected.failed
                    else:
                        assert expected == (ArithmeticError, f"draw {values[k]} refused")

    def test_the_first_failing_tuple_is_the_lowest_over_the_equations(self):
        # draw 13 is tuple 6's x and draw 7 tuple 3's y: the second equation fails first
        bad, _, scans = marked_scans()
        for name, scan in scans.items():
            values = marked_values(scan, 0, 14)
            bad.clear()
            bad.update((values[12], values[7]))
            got, expected = scan_outcome(scan, IDEMPOTENT_PAIR, 100, 0)
            assert got == expected and expected.witness.note == "y wedge y = y", name

    def test_a_slab_whose_operations_raise_is_scanned_again(self):
        # on values the wedge raises at one drawn value, and idempotence fails at another
        # in the same slab: whichever comes first is met, as a scan of values or sets meets it
        bad, _, scans = marked_scans()
        refused, values_of = set(), scans["values"]

        def wedge(x, y):
            if x in refused:
                raise ArithmeticError(f"wedge of {x} refused")
            return values_of.wedge(x, y)

        raising = dataclasses.replace(values_of, wedge=wedge)
        for scan in (raising, family_of([chain_algebra(3), raising])):
            values = marked_values(scan, 0, 20)
            for mark, refuse in ((5, 10), (10, 5)):
                bad.clear()
                refused.clear()
                bad.add(values[mark])
                refused.add(values[refuse])
                got, expected = scan_outcome(scan, IDEMPOTENT, 50, 0)
                assert got == expected, (scan, mark)
                if mark < refuse:
                    assert expected.failed, scan
                else:
                    assert expected == (ArithmeticError, f"wedge of {values[refuse]} refused"), scan

    def test_a_forced_tuple_that_cannot_be_built_is_met_after_the_tuples_before_it(self):
        bad, _, scans = marked_scans()
        bad.add(7)
        spiked = dataclasses.replace(scans["codes"], boundary=(7,))  # its spike fails
        outside = dataclasses.replace(fuzzy_algebra(), name="outside", boundary=(Fraction(3, 2),))
        family = family_of([spiked, outside])
        got, expected = scan_outcome(family, IDEMPOTENT, 50, 0)
        assert got == expected and expected.failed
        # without the failing spike, building the next point's spikes raises
        bad.clear()
        got, expected = scan_outcome(family, IDEMPOTENT, 50, 0)
        assert got == expected and expected[0] is DomainError

    def test_an_error_building_a_slab_is_kept_in_its_place(self, monkeypatch):
        # The first slab holds the bounds and the marked point's spike; building the
        # second raises, as the other point's spike 3/2 is outside its carrier. Every later
        # scan replays the first slab and then the error, and builds nothing again.
        bad, _, scans = marked_scans()
        spiked = dataclasses.replace(scans["codes"], boundary=(7,))
        outside = dataclasses.replace(fuzzy_algebra(), name="outside", boundary=(Fraction(3, 2),))
        family, forced, built = family_of([spiked, outside]), laws._forced_tuples, []
        monkeypatch.setattr(laws, "_forced_tuples", lambda *args: built.append(args) or forced(*args))
        for scan, mark in enumerate((None, 7, None, 7, None)):
            bad.clear()
            bad.update([mark] if mark else [])
            built.clear()
            got = outcome(lambda: check_family_law(family, IDEMPOTENT, samples=50).verdict)
            assert len(built) == (scan == 0), scan
            assert got == outcome(lambda: reference_family_verdict(family, IDEMPOTENT, 50, 0)), scan
            assert (got[0] is DomainError) if mark is None else got.failed, scan

    def test_an_interrupted_build_leaves_no_slab_behind(self, monkeypatch):
        # the first spike of the forced stage is interrupted once, after the bounds
        lift, interrupted = laws.lift_point_value, []

        def interrupting(*args):
            if not interrupted:
                interrupted.append(args)
                raise KeyboardInterrupt
            return lift(*args)

        monkeypatch.setattr(laws, "lift_point_value", interrupting)
        family = family_of([matrix_algebra(2), chain_algebra(3)])
        law = get_law("commutative-vee")
        with pytest.raises(KeyboardInterrupt):
            check_family_law(family, law, samples=40, seed=12)
        assert not any(key[0] is family for stream in laws._streams.values() for key in stream.slabs)
        got, expected = scan_outcome(family, law, 40, 12)
        assert got == expected and expected.mode == "sampled"

    def test_an_interrupted_draw_leaves_no_stream_behind(self):
        # The 40th draw is interrupted once, after taking its random bits. The scan stops
        # there; the next one draws afresh, not on from the generator's state.
        bad, _, scans = marked_scans()
        marked, calls = scans["codes"], []

        def sample(rng):
            value = marked.sample(rng)
            calls.append(value)
            if len(calls) == 40:
                raise KeyboardInterrupt
            return value

        values = dataclasses.replace(marked, sample=sample)
        codes = dataclasses.replace(values, _codes=marked._codes._replace(
            sample=sample, bound=_coded_attributes(values)))
        bad.add(marked_values(marked, 0, 100)[-1])  # a one-point family draws the same values
        for scan in (codes, values, family_of([values])):
            calls.clear()
            with pytest.raises(KeyboardInterrupt):
                scan_outcome(scan, IDEMPOTENT, 150, 0)
            got, expected = scan_outcome(scan, IDEMPOTENT, 150, 0)
            assert got == expected and expected.failed, scan

    def test_a_float_seed_equal_to_an_int_draws_its_own_stream(self):
        # -1.0 == -1 as a key, but Random(-1.0) draws other values than Random(-1)
        bad, _, scans = marked_scans()
        for name, scan in scans.items():
            bad.clear()
            bad.add(marked_values(scan, -1.0, 6)[-1])
            for seed in (-1, -1.0):
                got, expected = scan_outcome(scan, IDEMPOTENT, 20, seed)
                assert got == expected, (name, seed)
            assert expected.failed, name


class TestStreamMemoryBound:
    """The kept streams are few and short; a scan that reads more than a kept stream
    holds draws its own and keeps only the slab it reads, so its memory does not grow
    with the sample count."""

    @staticmethod
    def peak(scan) -> int:
        tracemalloc.start()
        try:
            scan()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_long_scans_keep_no_draws(self):
        fz = fuzzy_algebra()
        mat2_3 = constant_family(("p", "q", "r"), matrix_algebra(2))

        def fuzzy(samples):
            verdict = check_law(fz, "commutative-wedge", samples=samples).verdict
            assert verdict.describe() == f"holds (sampled, samples={9 + samples}, seed=0)"

        def family(samples):
            verdict = check_family_law(mat2_3, "commutative-vee", samples=samples).verdict
            assert verdict.mode == "sampled" and verdict.holds

        # Kept, 200,000 fuzzy pairs would hold 400,000 codes (over 3 MB) and 10,000
        # pairs of mat2@3 sets 20,000 sets (over 5 MB). A traced scan of 200,000 such
        # pairs takes 20 s, so the family is measured at fewer.
        for scan, small, large in ((fuzzy, 20_000, 200_000), (family, 2_000, 10_000)):
            scan(100)  # pools, tables and code records are built before the measurement
            low, high = self.peak(lambda: scan(small)), self.peak(lambda: scan(large))
            # the tuple free lists alone move the peak by some 15 KB between runs
            assert high < low + 64 * 1024, (scan.__name__, low, high)

    def test_unkept_streams_keep_no_slabs(self, monkeypatch):
        made = []

        class Recorded(laws._Stream):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(laws, "_Stream", Recorded)
        fz, mat2 = fuzzy_algebra(), matrix_algebra(2)
        check_law(fz, "distributive", samples=1001, seed=13)  # 3,003 values
        check_law(mat2, "commutative-vee", samples=100, seed=13.0)  # a seed that is not an int
        check_family_law(family_of([mat2, fz]), "associative-vee", samples=1001, seed=13)
        assert len(made) == 3
        assert all(not stream.keep and not stream.slabs for stream in made)

    def test_a_stream_evicted_or_drawn_again_drops_its_slabs(self):
        fz = fuzzy_algebra()
        check_law(fz, "distributive", samples=50, seed=1400)
        first = laws._streams[fz._codes.sample, 1400]
        assert first.slabs
        for seed in range(1401, 1401 + laws._STREAMS):
            check_law(fz, "distributive", samples=50, seed=seed)
        assert (fz._codes.sample, 1400) not in laws._streams
        assert not first.slabs  # else the slabs' builds, which hold the stream, hold it in a cycle
        # a stream whose draw raised is drawn again by the next scan
        _, refused, scans = marked_scans()
        marked = scans["codes"]
        refused.add(marked_values(marked, 1400, 70)[-1])
        ended = None
        for _ in range(2):
            assert outcome(lambda: check_law(marked, IDEMPOTENT, samples=100, seed=1400))[0] is ArithmeticError
            assert ended is None or not ended.slabs
            ended = laws._streams[marked._codes.sample, 1400]
            assert ended.error is not None and ended.slabs
        refused.clear()
        assert check_law(marked, IDEMPOTENT, samples=100, seed=1400).verdict.holds
        assert laws._streams[marked._codes.sample, 1400] is not ended and not ended.slabs

    def test_a_stream_keeps_the_slabs_of_few_small_scans(self):
        # chain10 at 5 points tries 52 forced sets and 504 forced pairs, kept, and 5,008
        # forced triples, not kept
        family = constant_family(("p", "q", "r", "s", "t"), chain_algebra(10))
        for other in (family, family_of([matrix_algebra(2), chain_algebra(3), fuzzy_algebra()])):
            for arity in (1, 2, 3):
                forced = islice(laws._forced_tuples(other, arity), laws._FORCED_CAP)
                assert laws._forced_count(other, arity) == sum(1 for _ in forced)
        for law in ("idempotent-wedge", "commutative-wedge", "associative-wedge"):
            check_family_law(family, law, samples=100, seed=1500)
        assert sorted(key[1] for key in laws._streams[family, 1500].slabs) == [1, 2]
        # the newest keys of one stream
        fz = fuzzy_algebra()
        for samples in range(10, 10 + 2 * laws._SLAB_KEYS):
            check_law(fz, "commutative-wedge", samples=samples, seed=1500)
        keys = laws._streams[fz._codes.sample, 1500].slabs
        assert [key[2] for key in keys] == [*range(10 + laws._SLAB_KEYS, 10 + 2 * laws._SLAB_KEYS)]

    def test_the_memo_keeps_at_most_its_streams_and_values(self):
        fz, mat2 = fuzzy_algebra(), matrix_algebra(2)
        for seed in range(8):
            check_law(fz, "distributive", samples=1000, seed=seed)
            check_law(mat2, "associative-vee", samples=2000, seed=seed)  # 6,000 values: not kept
            check_family_law(family_of([mat2, fz]), "commutative-vee", samples=300, seed=seed)
        assert len(laws._streams) == laws._STREAMS
        assert all(len(stream.values) <= laws._STREAM_VALUES for stream in laws._streams.values())
        assert all(stream.keep for stream in laws._streams.values())
        assert mat2._codes.sample not in {key for key, _ in laws._streams}


# ---------------------------------------------------------------------------
# Generated scan loops


def reference_loop(ops, law, tuples):
    """``_verdict`` as it read before each law had a generated loop: at each tuple every
    equation's function is called in turn, and the first whose sides differ is the witness."""
    equations = law.equations
    for args in tuples:
        for label, fn in equations:
            lhs, rhs = fn(ops, *args)
            if lhs != rhs:
                return Verdict.fails(Witness(inputs=args, lhs=lhs, rhs=rhs, note=label))
    return Verdict.holds_exhaustive()


def hand_built(law):
    """``law`` as a hand-built ``Law`` of the same equations, which has no trees and so
    runs the loop of its shape."""
    return Law(law.name, law.arity, law.needs_complement, law.equations)


INVOLUTION = {"O": "I", "m": "m", "I": "O"}
# Every law with trees, and so a loop of its own: the registry, the certificate's joined
# rows, the frame law's triples, the defining identities (no variables) and a law that
# is not distributivity
LOOP_LAWS = (
    *LAWS, laws._COMMUTATIVE_LAW, laws._ASSOCIATIVE_LAW, laws._CHA_TRIPLE_LAW, laws._WBA_LAW, MIXED_LAW,
)


def assert_loops_match_reference(ops, law, tuples):
    """The law's own loop and its shape's loop each give the reference loop's verdict,
    witness and equation label, or raise what it raises; the reference's outcome."""
    tuples = list(tuples)
    expected = outcome(lambda: reference_loop(ops, law, tuples))
    assert outcome(lambda: _verdict(ops, law, tuples)) == expected, law.name
    assert outcome(lambda: _verdict(ops, hand_built(law), tuples)) == expected, law.name
    return expected


def random_law(rng, arity, count):
    """A law of ``count`` random equations whose variables are the first ``arity`` of x, y, z."""
    variables = "xyz"[:arity]

    def side(depth):
        if depth == 0 or rng.random() < 0.25:
            return rng.choice([*variables, "O", "I"])
        if rng.random() < 0.2:
            return f"~{side(depth - 1)}"
        operator = rng.choice(("/\\", "\\/"))
        return f"({side(depth - 1)} {operator} {side(depth - 1)})"

    while True:
        law = laws._law(f"random-{arity}-{count}", *(f"{side(3)} = {side(3)}" for _ in range(count)))
        if law.arity == arity:
            return law


class TestScanLoops:
    """Each law's generated loop (``Law._loop``), and the loop a hand-built law of its shape
    shares, against the reference loop: the same witness, equation label and error."""

    def test_census_tables_with_and_without_the_complement(self, census_table):
        statuses = {law.name: set() for law in LOOP_LAWS}
        for index in Random(38).sample(range(3 ** 10), 5000):
            for complement in (INVOLUTION, None):
                h = census_table(index, complement).as_handle()
                for law in LOOP_LAWS:
                    tuples = product(h.elements, repeat=law.arity)
                    found = assert_loops_match_reference(h, law, tuples)
                    statuses[law.name].add(found.status if isinstance(found, Verdict) else found[0])
        # every census table keeps the defining identities; each registry law holds and
        # fails, and a complement law without a complement raises
        assert statuses[laws._WBA_LAW.name] == {"holds"}
        assert all({"holds", "fails"} <= statuses[law.name] for law in LAWS), statuses
        assert all(TypeError in statuses[law.name] for law in LAWS if law.needs_complement)

    def test_every_census_table_failing_a_second_equation_first(self, census_table):
        # census 31707 with the involutive complement: absorption, distributive and de-morgan
        # fail on their second equation (the golden laws-c31707n.out)
        two = [law for law in LOOP_LAWS if len(law.equations) == 2]
        seen = {law.name: [] for law in two}
        for index in range(3 ** 10):
            h = census_table(index, INVOLUTION).as_handle()
            for law in two:
                tuples = list(product(h.elements, repeat=law.arity))
                expected = reference_loop(h, law, tuples)
                if expected.failed and expected.witness.note == law.equations[1][0]:
                    seen[law.name].append(index)
                    assert _verdict(h, law, tuples) == expected, (index, law.name)
                    assert _verdict(h, hand_built(law), tuples) == expected, (index, law.name)
        for name in ("absorption", "distributive", "de-morgan"):
            assert 31707 in seen[name], name
        assert all(len(indices) >= 100 for indices in seen.values()), {k: len(v) for k, v in seen.items()}

    def test_shipped_algebras_and_lattices(self):
        workspace = builtin_workspace()
        lattices = list(workspace.lattices.values())
        carriers = [a for a in workspace.algebras.values() if a.elements is not None]
        carriers += [pow2_algebra(), *lattices, *map(lattice_algebra, lattices)]
        for ops in carriers:
            for law in LOOP_LAWS:
                # a lattice has no complement, so a complement law raises on it
                assert_loops_match_reference(ops, law, product(ops.elements, repeat=law.arity))
        for lat in lattices:
            assert_loops_match_reference(lat, laws._BOOLEAN_LAW, zip(lat.elements))
            assert_loops_match_reference(lat, CHA_PAIR_LAW, product(combinations(lat.elements, 2), lat.elements))

    @pytest.mark.parametrize("arity", [0, 1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_hand_built_laws_of_each_shape(self, arity, count, census_table):
        rng = Random(arity * 10 + count)
        carriers = [pow2_algebra(), census_table(31707, INVOLUTION).as_handle(), census_table(12345).as_handle()]
        found = set()
        for _ in range(40):
            law = random_law(rng, arity, count)
            for ops in carriers:
                for tuples in (product(ops.elements, repeat=arity), []):
                    verdict = assert_loops_match_reference(ops, law, tuples)
                    found.add(verdict.witness.note if isinstance(verdict, Verdict) and verdict.failed else None)
        assert len(found - {None}) >= count
        # the hand-written reference laws are hand-built laws of arity 1 to 3
        for law in REFERENCE_LAWS:
            for ops in carriers:
                tuples = list(product(ops.elements, repeat=law.arity))
                assert outcome(lambda: _verdict(ops, law, tuples)) == outcome(lambda: reference_loop(ops, law, tuples))

    def test_a_raising_operation_raises_at_the_same_tuple_and_call(self, census_table):
        class Counting:
            """A carrier's operations, logging each call; call number ``fail`` raises."""

            def __init__(self, base, fail):
                self.base, self.fail, self.calls = base, fail, []
                self.zero, self.one = base.zero, base.one

            def call(self, name, *args):
                self.calls.append((name, args))
                if len(self.calls) == self.fail:
                    raise ArithmeticError(f"call {len(self.calls)}: {name}{args}")
                return getattr(self.base, name)(*args)

            def wedge(self, x, y):
                return self.call("wedge", x, y)

            def vee(self, x, y):
                return self.call("vee", x, y)

            def complement(self, x):
                return self.call("complement", x)

        rng = Random(5)
        for base in (pow2_algebra(), census_table(31707, INVOLUTION).as_handle()):
            for law in (*LOOP_LAWS, *map(hand_built, LOOP_LAWS)):
                tuples = list(product(base.elements, repeat=law.arity))
                total = Counting(base, None)
                reference_loop(total, law, tuples)
                calls = len(total.calls)
                for fail in sorted({*range(1, min(calls, 12) + 1), *rng.sample(range(1, calls + 1), min(calls, 8))}):
                    got, expected = Counting(base, fail), Counting(base, fail)
                    outcome_got = outcome(lambda: _verdict(got, law, tuples))
                    assert outcome_got == outcome(lambda: reference_loop(expected, law, tuples)), (law.name, fail)
                    assert outcome_got[0] is ArithmeticError and got.calls == expected.calls, (law.name, fail)

    def test_a_scan_of_no_tuples_reads_no_operation(self):
        class Unreadable:
            def __init__(self):
                self.read = []

            def __getattr__(self, name):
                self.read.append(name)
                raise AttributeError(name)

        for law in (*LOOP_LAWS, *map(hand_built, LOOP_LAWS), laws._BOOLEAN_LAW, CHA_PAIR_LAW):
            for tuples in ([], (), iter(()), (args for args in ())):
                ops = Unreadable()
                assert _verdict(ops, law, tuples) == Verdict.holds_exhaustive(), law.name
                assert ops.read == [], law.name

    def test_a_replaced_law_scans_its_own_equations(self, census_table):
        # replace drops the trees, so a law with other equations is not scanned by the
        # loop of the law it was made from
        absorption = get_law("absorption")
        swapped = dataclasses.replace(absorption, equations=absorption.equations[::-1])
        assert swapped._trees is None and absorption._trees is not None
        assert swapped._loop is laws._shape_loop(2, 2)
        h = census_table(31707, INVOLUTION).as_handle()
        tuples = list(product(h.elements, repeat=2))
        verdict = _verdict(h, swapped, tuples)
        assert verdict == reference_loop(h, swapped, tuples)
        assert verdict.witness.note == swapped.equations[0][0] == absorption.equations[1][0]
        # the trees take no part in equality or repr
        assert hand_built(absorption) == absorption and repr(hand_built(absorption)) == repr(absorption)

    def test_laws_built_on_every_call_share_the_loop_of_their_shape(self, monkeypatch):
        families = [
            constant_family(("p", "q"), classical_algebra()),
            constant_family(("p", "q", "r"), chain_algebra(3)),
            family_of([pow2_algebra(), classical_algebra()]),
        ]
        verify_crisp_restriction(families[0])  # from here on, both crisp laws' shapes have loops
        generated, generate = [], laws._generated_loop
        monkeypatch.setattr(laws, "_generated_loop", lambda *args: generated.append(args) or generate(*args))
        for family in families * 2:
            assert verify_crisp_restriction(family).verdict.holds
        assert generated == []
        # laws of one shape share one loop; another count of equations is another shape
        eq = ("x", lambda o, a, b: (a, b))
        assert Law("a", 2, False, (eq, eq))._loop is Law("b", 2, True, (eq, eq))._loop
        assert Law("a", 2, False, (eq,))._loop is not Law("a", 2, False, (eq, eq))._loop
        assert Law("a", 2, False, (eq,))._loop is not Law("a", 3, False, (eq,))._loop

    def test_importing_the_package_generates_no_loop(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "from modernsets import laws\n"
            "made = [law.name for law in vars(laws).values() if isinstance(law, laws.Law) and '_loop' in vars(law)]\n"
            "made += [law.name for law in laws.LAWS if '_loop' in vars(law)]\n"
            "assert not made and laws._shape_loop.cache_info().currsize == 0, made\n"
            "assert all(law._trees is not None for law in laws.LAWS)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env={**os.environ, "PYTHONPATH": src},
            timeout=60, check=False,
        )
        assert result.returncode == 0, result.stderr.decode()
