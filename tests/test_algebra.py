from fractions import Fraction
from itertools import product
from random import Random

import pytest

from modernsets import (
    AlgebraHandle,
    DomainError,
    FiniteAlgebraTable,
    IdentityViolation,
    RationalMatrix,
    StructuralError,
    UnsupportedOperationError,
    apply_complement,
    apply_vee,
    apply_wedge,
    check_wba_axioms,
    classical_algebra,
    enumerate_elements,
    fuzzy_algebra,
    matrix_algebra,
)

BOOL_WEDGE = {
    ("O", "O"): "O", ("O", "I"): "O", ("I", "O"): "O", ("I", "I"): "I",
}
BOOL_VEE = {
    ("O", "O"): "O", ("O", "I"): "I", ("I", "O"): "I", ("I", "I"): "I",
}


def bool_table(name="bool2", wedge=None, vee=None):
    return FiniteAlgebraTable(
        name=name,
        elements=("O", "I"),
        zero_token="O",
        one_token="I",
        wedge_table=wedge or BOOL_WEDGE,
        vee_table=vee or BOOL_VEE,
        complement_table={"O": "I", "I": "O"},
    )


def test_boolean_truth_tables_pass_axioms():
    report = check_wba_axioms(bool_table().as_handle())
    assert report.passed
    assert report.violations == ()
    assert "hold" in report.describe()


def test_corrupted_table_names_the_identity():
    vee = dict(BOOL_VEE)
    vee[("O", "I")] = "O"
    report = check_wba_axioms(bool_table(vee=vee).as_handle())
    assert not report.passed
    assert [v.identity for v in report.violations] == ["O vee I = I"]
    v = report.violations[0]
    assert v.inputs == ("O", "I")
    assert v.expected == "I"
    assert v.actual == "O"
    assert "O vee I = I" in report.describe()


def test_every_identity_checked():
    # corrupt each of the eight cells that the identities read
    cases = [
        ("wedge", ("O", "I"), "O wedge I = O"),
        ("wedge", ("I", "O"), "I wedge O = O"),
        ("wedge", ("O", "O"), "O wedge O = O"),
        ("wedge", ("I", "I"), "I wedge I = I"),
        ("vee", ("O", "I"), "O vee I = I"),
        ("vee", ("I", "O"), "I vee O = I"),
        ("vee", ("O", "O"), "O vee O = O"),
        ("vee", ("I", "I"), "I vee I = I"),
    ]
    for which, cell, identity in cases:
        wedge, vee = dict(BOOL_WEDGE), dict(BOOL_VEE)
        table = wedge if which == "wedge" else vee
        table[cell] = "I" if table[cell] == "O" else "O"
        expected = "I" if table[cell] == "O" else "O"
        report = check_wba_axioms(bool_table(wedge=wedge, vee=vee).as_handle())
        # each identity reads its own cell, so exactly one is violated
        assert report.violations == (IdentityViolation(identity, cell, expected, table[cell]),)


def test_zero_equal_one_is_reported():
    a = AlgebraHandle(
        name="degenerate",
        zero="e",
        one="e",
        wedge=lambda x, y: "e",
        vee=lambda x, y: "e",
        is_member=lambda x: x == "e",
        elements=("e",),
    )
    report = check_wba_axioms(a)
    assert not report.passed
    assert "O != I" in [v.identity for v in report.violations]


def test_result_outside_carrier_is_structural():
    a = AlgebraHandle(
        name="leaky",
        zero="O",
        one="I",
        wedge=lambda x, y: "junk",
        vee=lambda x, y: "I",
        is_member=lambda x: x in ("O", "I"),
        elements=("O", "I"),
    )
    with pytest.raises(StructuralError):
        check_wba_axioms(a)


def test_shipped_algebras_pass_axioms():
    for a in (classical_algebra(), fuzzy_algebra(), matrix_algebra(2), matrix_algebra(3)):
        assert check_wba_axioms(a).passed, a.name


def test_table_validation():
    with pytest.raises(StructuralError):
        FiniteAlgebraTable("t", ("O", "O"), "O", "O", BOOL_WEDGE, BOOL_VEE)
    with pytest.raises(StructuralError):
        FiniteAlgebraTable("t", (), "O", "I", {}, {})
    with pytest.raises(StructuralError):
        FiniteAlgebraTable("t", ("O", "I"), "O", "X", BOOL_WEDGE, BOOL_VEE)
    with pytest.raises(StructuralError):
        FiniteAlgebraTable("t", ("O", "I"), "O", "O", BOOL_WEDGE, BOOL_VEE)
    partial = dict(BOOL_WEDGE)
    del partial[("I", "I")]
    with pytest.raises(StructuralError):
        FiniteAlgebraTable("t", ("O", "I"), "O", "I", partial, BOOL_VEE)
    escaped = dict(BOOL_WEDGE)
    escaped[("I", "I")] = "Z"
    with pytest.raises(StructuralError):
        FiniteAlgebraTable("t", ("O", "I"), "O", "I", escaped, BOOL_VEE)
    with pytest.raises(StructuralError):
        FiniteAlgebraTable(
            "t", ("O", "I"), "O", "I", BOOL_WEDGE, BOOL_VEE, complement_table={"O": "I"}
        )
    with pytest.raises(StructuralError):
        FiniteAlgebraTable(
            "t", ("O", "I"), "O", "I", BOOL_WEDGE, BOOL_VEE,
            complement_table={"O": "I", "I": "Z"},
        )


def test_apply_ops_check_membership():
    a = classical_algebra()
    assert apply_wedge(a, "O", "I") == "O"
    assert apply_vee(a, "O", "I") == "I"
    with pytest.raises(DomainError):
        apply_wedge(a, "O", "Z")
    with pytest.raises(DomainError):
        apply_vee(a, 1, "I")


def test_apply_ops_preserve_operand_order():
    m = matrix_algebra(2)
    m1 = RationalMatrix([[0, 1], [0, 0]])
    m2 = RationalMatrix([[0, 0], [1, 0]])
    # hand-multiplied products
    assert apply_wedge(m, m1, m2) == RationalMatrix([[1, 0], [0, 0]])
    assert apply_wedge(m, m2, m1) == RationalMatrix([[0, 0], [0, 1]])


def test_vee_of_identity_with_itself_normalizes():
    m = matrix_algebra(2)
    assert apply_vee(m, m.one, m.one) == m.one


def test_complement():
    assert apply_complement(classical_algebra(), "O") == "I"
    assert apply_complement(fuzzy_algebra(), Fraction(3, 10)) == Fraction(7, 10)
    with pytest.raises(UnsupportedOperationError):
        apply_complement(matrix_algebra(2), matrix_algebra(2).zero)
    with pytest.raises(DomainError):
        apply_complement(fuzzy_algebra(), Fraction(3, 2))


def test_enumerate_elements():
    assert enumerate_elements(classical_algebra()) == ["O", "I"]
    with pytest.raises(UnsupportedOperationError):
        enumerate_elements(fuzzy_algebra())


def test_handle_repr_and_finite_flag():
    assert "classical2" in repr(classical_algebra())
    assert classical_algebra().finite
    assert not fuzzy_algebra().finite


def test_table_handle_ops_equal_the_given_tables(census_table):
    complements = ({"O": "I", "m": "m", "I": "O"}, {"O": "I", "m": "O", "I": "O"}, None)
    for k, index in enumerate(Random(23).sample(range(3 ** 10), 300)):
        table = census_table(index, complements[k % 3])
        h = table.as_handle()
        assert h.elements == table.elements
        for x, y in product(table.elements, repeat=2):
            assert h.wedge(x, y) == table.wedge_table[x, y], (index, x, y)
            assert h.vee(x, y) == table.vee_table[x, y], (index, x, y)
        if table.complement_table is None:
            assert h.complement is None
        else:
            assert {x: h.complement(x) for x in h.elements} == table.complement_table
