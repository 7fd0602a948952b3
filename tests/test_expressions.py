from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from modernsets import (
    ComplementExpr,
    EvalError,
    ExpressionSyntaxError,
    Ident,
    IncompatibleFamilyError,
    IntersectionExpr,
    RationalMatrix,
    UnionExpr,
    UnsupportedOperationError,
    classical_algebra,
    complement as set_complement,
    constant_family,
    equals,
    eval_expression,
    format_expression,
    fuzzy_algebra,
    intersection,
    matrix_algebra,
    modern_set,
    parse_expression,
    union,
)
from modernsets.expressions import MAX_DEPTH

A, B, C, D = Ident("A"), Ident("B"), Ident("C"), Ident("D")


PARSE_CASES = [
    ("A", A),
    ("  A  ", A),
    ("~A", ComplementExpr(A)),
    ("~~A", ComplementExpr(ComplementExpr(A))),
    ("A /\\ B", IntersectionExpr(A, B)),
    ("A \\/ B", UnionExpr(A, B)),
    # intersection binds tighter than union
    ("A \\/ B /\\ C", UnionExpr(A, IntersectionExpr(B, C))),
    ("A /\\ B \\/ C", UnionExpr(IntersectionExpr(A, B), C)),
    # complement binds tighter than intersection
    ("~A /\\ B", IntersectionExpr(ComplementExpr(A), B)),
    ("A /\\ ~B", IntersectionExpr(A, ComplementExpr(B))),
    ("~A \\/ ~B", UnionExpr(ComplementExpr(A), ComplementExpr(B))),
    # both operators associate to the left
    ("A /\\ B /\\ C", IntersectionExpr(IntersectionExpr(A, B), C)),
    ("A \\/ B \\/ C", UnionExpr(UnionExpr(A, B), C)),
    ("A \\/ B \\/ C \\/ D", UnionExpr(UnionExpr(UnionExpr(A, B), C), D)),
    # parentheses override all of it
    ("(A)", A),
    ("((A))", A),
    ("A /\\ (B \\/ C)", IntersectionExpr(A, UnionExpr(B, C))),
    ("(A \\/ B) /\\ C", IntersectionExpr(UnionExpr(A, B), C)),
    ("A \\/ (B \\/ C)", UnionExpr(A, UnionExpr(B, C))),
    ("~(A \\/ B)", ComplementExpr(UnionExpr(A, B))),
    ("~(A) /\\ (B)", IntersectionExpr(ComplementExpr(A), B)),
    ("A /\\ (B /\\ C)", IntersectionExpr(A, IntersectionExpr(B, C))),
    # multi-character identifiers
    ("left \\/ right2", UnionExpr(Ident("left"), Ident("right2"))),
    # unicode spellings
    ("A ∧ B", IntersectionExpr(A, B)),
    ("A ∨ B", UnionExpr(A, B)),
    ("¬A ∧ (B ∨ C)", IntersectionExpr(ComplementExpr(A), UnionExpr(B, C))),
]


@pytest.mark.parametrize("source,tree", PARSE_CASES, ids=[c[0] for c in PARSE_CASES])
def test_parse(source, tree):
    assert parse_expression(source) == tree


def test_operand_order_is_preserved():
    assert parse_expression("A /\\ B") != parse_expression("B /\\ A")
    assert parse_expression("A \\/ B") != parse_expression("B \\/ A")


ERROR_CASES = [
    ("", 1),
    ("~", 1),  # input ends where the operand should start
    ("A \\/", 4),
    ("~(A \\/ B", 8),
    ("(A", 2),
    ("A ) B", 3),
    ("A $ B", 3),
    ("/\\ A", 1),
    ("A /\\ /\\ B", 6),
]


@pytest.mark.parametrize("source,column", ERROR_CASES, ids=[repr(c[0]) for c in ERROR_CASES])
def test_syntax_errors_carry_columns(source, column):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(source)
    assert err.value.column == column
    assert f"(column {column})" in str(err.value)


@pytest.mark.parametrize(
    "source,column",
    [
        ("~" * 5000 + "A", MAX_DEPTH + 1),
        ("(" * 5000 + "A" + ")" * 5000, MAX_DEPTH + 1),
        (" \\/ ".join(["A"] * 5000), 5 * MAX_DEPTH + 3),
        ("~(" + " /\\ ".join(["A"] * (MAX_DEPTH + 1)) + ")", 1),
    ],
    ids=["complements", "parentheses", "union-chain", "complement-over-chain"],
)
def test_deep_nesting_is_a_syntax_error(source, column):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(source)
    assert err.value.column == column
    assert f"nests deeper than {MAX_DEPTH} levels" in str(err.value)


def test_nesting_up_to_the_limit_round_trips():
    for source in ("~" * MAX_DEPTH + "A", " \\/ ".join(["A"] * (MAX_DEPTH + 1))):
        tree = parse_expression(source)
        assert parse_expression(format_expression(tree)) == tree


FORMAT_CASES = [
    (A, "A"),
    (ComplementExpr(A), "~A"),
    (ComplementExpr(ComplementExpr(A)), "~~A"),
    (UnionExpr(A, IntersectionExpr(B, C)), "A \\/ B /\\ C"),
    (IntersectionExpr(A, UnionExpr(B, C)), "A /\\ (B \\/ C)"),
    (UnionExpr(UnionExpr(A, B), C), "A \\/ B \\/ C"),
    (UnionExpr(A, UnionExpr(B, C)), "A \\/ (B \\/ C)"),
    (IntersectionExpr(IntersectionExpr(A, B), C), "A /\\ B /\\ C"),
    (IntersectionExpr(A, IntersectionExpr(B, C)), "A /\\ (B /\\ C)"),
    (ComplementExpr(UnionExpr(A, B)), "~(A \\/ B)"),
    (ComplementExpr(IntersectionExpr(A, B)), "~(A /\\ B)"),
    (IntersectionExpr(ComplementExpr(A), ComplementExpr(B)), "~A /\\ ~B"),
]


@pytest.mark.parametrize("tree,rendered", FORMAT_CASES, ids=[c[1] for c in FORMAT_CASES])
def test_format_is_minimal(tree, rendered):
    assert format_expression(tree) == rendered
    assert parse_expression(rendered) == tree


_trees = st.recursive(
    st.sampled_from([A, B, C, Ident("xy2")]),
    lambda inner: st.one_of(
        inner.map(ComplementExpr),
        st.tuples(inner, inner).map(lambda p: IntersectionExpr(*p)),
        st.tuples(inner, inner).map(lambda p: UnionExpr(*p)),
    ),
    max_leaves=12,
)


@given(_trees)
def test_format_parse_round_trip(tree):
    assert parse_expression(format_expression(tree)) == tree


def test_unicode_formats_as_ascii():
    tree = parse_expression("¬A ∧ (B ∨ C)")
    assert format_expression(tree) == "~A /\\ (B \\/ C)"


class TestEval:
    def fuzzy_sets(self):
        fam = constant_family(("p", "q"), fuzzy_algebra())
        a = modern_set(fam, {"p": Fraction(1, 2), "q": Fraction(3, 10)})
        b = modern_set(fam, {"p": Fraction(1, 4), "q": Fraction(7, 10)})
        return fam, a, b

    def test_matches_direct_operations(self):
        fam, a, b = self.fuzzy_sets()
        got = eval_expression({"A": a, "B": b}, parse_expression("~(A \\/ B) /\\ A"))
        want = intersection(set_complement(union(a, b)), a)
        assert equals(got, want)

    def test_precedence_in_evaluation(self):
        fam, a, b = self.fuzzy_sets()
        c = modern_set(fam, {"p": Fraction(1), "q": Fraction(0)})
        env = {"A": a, "B": b, "C": c}
        got = eval_expression(env, parse_expression("A \\/ B /\\ C"))
        want = union(a, intersection(b, c))
        assert equals(got, want)

    def test_accepts_string_source(self):
        fam, a, b = self.fuzzy_sets()
        assert equals(
            eval_expression({"A": a, "B": b}, parse_expression("A /\\ B")),
            intersection(a, b),
        )

    def test_unbound_identifier(self):
        fam, a, _ = self.fuzzy_sets()
        with pytest.raises(EvalError) as err:
            eval_expression({"A": a}, parse_expression("A \\/ Missing"))
        assert "'Missing'" in str(err.value)

    def test_matrix_intersection_order_matters_in_eval(self):
        fam = constant_family(("x",), matrix_algebra(2))
        a = modern_set(fam, {"x": RationalMatrix([[0, 1], [0, 0]])})
        b = modern_set(fam, {"x": RationalMatrix([[0, 0], [1, 0]])})
        env = {"A": a, "B": b}
        ab = eval_expression(env, parse_expression("A /\\ B"))
        ba = eval_expression(env, parse_expression("B /\\ A"))
        assert ab.value_at("x") == RationalMatrix([[1, 0], [0, 0]])
        assert ba.value_at("x") == RationalMatrix([[0, 0], [0, 1]])

    def test_family_errors_bubble_up(self):
        _, a, _ = self.fuzzy_sets()
        other = modern_set(
            constant_family(("z",), classical_algebra()), {"z": "O"}
        )
        with pytest.raises(IncompatibleFamilyError):
            eval_expression({"A": a, "B": other}, parse_expression("A \\/ B"))
        m = modern_set(
            constant_family(("x",), matrix_algebra(2)),
            {"x": RationalMatrix.zeros(2)},
        )
        with pytest.raises(UnsupportedOperationError):
            eval_expression({"M": m}, parse_expression("~M"))


def reference_eval(table, node):
    """The recursive walker ``eval_expression`` ran before it used compiled
    code, kept as the reference the compiled evaluation must reproduce."""
    if isinstance(node, Ident):
        if node.name not in table:
            raise EvalError(f"identifier {node.name!r} is not bound to a set")
        return table[node.name]
    if isinstance(node, ComplementExpr):
        return set_complement(reference_eval(table, node.operand))
    if isinstance(node, IntersectionExpr):
        return intersection(reference_eval(table, node.left), reference_eval(table, node.right))
    return union(reference_eval(table, node.left), reference_eval(table, node.right))


def random_tree(rng, height, kinds):
    """A tree exactly ``height`` operators tall: a spine of random operators,
    each binary one with a shallow random branch on a random side."""
    if height == 0:
        return rng.choice((A, B, C))
    spine = random_tree(rng, height - 1, kinds)
    kind = rng.choice(kinds)
    if kind is ComplementExpr:
        return kind(spine)
    branch = random_tree(rng, rng.randrange(min(height, 3)), kinds)
    return kind(spine, branch) if rng.random() < 0.5 else kind(branch, spine)


@pytest.mark.parametrize(
    "algebra,points,kinds",
    [
        (fuzzy_algebra(), ("p", "q"), (ComplementExpr, IntersectionExpr, UnionExpr)),
        (matrix_algebra(2), ("x",), (IntersectionExpr, UnionExpr)),
    ],
    ids=["fuzzy", "mat2"],
)
def test_compiled_evaluation_matches_reference_walker(algebra, points, kinds):
    rng = Random(29)
    fam = constant_family(points, algebra)
    table = {
        name: modern_set(fam, {x: algebra.sample(rng) for x in points}) for name in "ABC"
    }
    for height in (0, 1, 2, 3, 5, 8, 13, MAX_DEPTH - 1, MAX_DEPTH):
        for _ in range(6):
            tree = random_tree(rng, height, kinds)
            assert parse_expression(format_expression(tree)) == tree
            assert eval_expression(table, tree) == reference_eval(table, tree), format_expression(tree)


def test_evaluation_errors_arrive_in_walk_order():
    fuzzy = modern_set(constant_family(("p",), fuzzy_algebra()), {"p": Fraction(1, 2)})
    crisp = modern_set(constant_family(("z",), classical_algebra()), {"z": "O"})
    table = {"A": fuzzy, "B": crisp}
    for source, error in (
        ("(A /\\ B) \\/ Missing", IncompatibleFamilyError),
        ("Missing \\/ (A /\\ B)", EvalError),
    ):
        tree = parse_expression(source)
        with pytest.raises(error) as got:
            eval_expression(table, tree)
        with pytest.raises(error) as want:
            reference_eval(table, tree)
        assert str(got.value) == str(want.value)
    assert "'Missing'" in str(got.value)
