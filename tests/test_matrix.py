from fractions import Fraction
from operator import mul
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modernsets import RationalMatrix, ShapeError, matrix_algebra, normalize_matrix


def test_construction_converts_entries_to_fractions():
    m = RationalMatrix([[1, "1/2"], [Fraction(3, 4), 0]])
    assert m.rows == ((Fraction(1), Fraction(1, 2)), (Fraction(3, 4), Fraction(0)))


def test_construction_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        RationalMatrix([])
    with pytest.raises(ShapeError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(ShapeError):
        RationalMatrix([[1, 2]])


def test_zeros_and_identity():
    assert RationalMatrix.zeros(2) == RationalMatrix([[0, 0], [0, 0]])
    assert RationalMatrix.identity(3) == RationalMatrix(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )
    assert RationalMatrix.identity(2).dimension == 2


def test_addition_and_multiplication_frozen_cases():
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[5, 6], [7, 8]])
    assert a + b == RationalMatrix([[6, 8], [10, 12]])
    # hand-computed product
    assert a * b == RationalMatrix([[19, 22], [43, 50]])
    assert b * a == RationalMatrix([[23, 34], [31, 46]])


def test_multiplication_exact_rationals():
    a = RationalMatrix([["1/3", 0], [0, "1/3"]])
    b = RationalMatrix([[3, 0], [0, 3]])
    assert a * b == RationalMatrix.identity(2)


def test_dimension_mismatch():
    a = RationalMatrix([[1, 0], [0, 1]])
    b = RationalMatrix.identity(3)
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        a * b


def test_arithmetic_with_non_matrix_is_rejected():
    a = RationalMatrix.identity(2)
    with pytest.raises(TypeError):
        a + 1
    with pytest.raises(TypeError):
        a * 2


def test_scale():
    a = RationalMatrix([[1, 2], [3, 4]])
    assert a.scale(Fraction(1, 2)) == RationalMatrix([["1/2", 1], ["3/2", 2]])


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[0, 0], [0, 0]], Fraction(0)),
        ([[1, 0], [0, 1]], Fraction(1)),
        ([[2, 0], [0, 2]], Fraction(2)),
        ([["1/2", 0], [0, "1/2"]], Fraction(1, 2)),
        ([[-3, 0], [0, -3]], Fraction(-3)),
        ([[1, 0], [0, 2]], None),
        ([[0, 1], [0, 0]], None),
        ([[2, 1], [0, 2]], None),
    ],
)
def test_scalar_identity_multiple(rows, expected):
    # pins the reference criterion on matrices whose multiple is known
    assert ref_scalar_multiple(RationalMatrix(rows).rows) == expected


def test_equality_and_hash_are_structural():
    a = RationalMatrix([[1, 0], [0, 1]])
    b = RationalMatrix([["1/1", 0], [0, 1]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != RationalMatrix([[1, 0], [0, 2]])
    assert a != "not a matrix"


def test_rendering():
    m = RationalMatrix([[0, "1/2"], [-1, 3]])
    assert str(m) == "[[0,1/2],[-1,3]]"
    assert repr(m) == "RationalMatrix([[0,1/2],[-1,3]])"


def test_immutable():
    m = RationalMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = ()


_entries = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def _matrices(draw, n=2):
    rows = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    return RationalMatrix(rows)


@given(_matrices(), _matrices(), _matrices())
def test_matrix_arithmetic_laws(a, b, c):
    # plain matrix arithmetic (before any normalization) is well behaved
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# ---------------------------------------------------------------------------
# Differential tests against a naive reference on Fraction rows


def ref_rows(written):
    return tuple(tuple(Fraction(e) for e in row) for row in written)


def ref_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def ref_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def ref_scale(a, q):
    return tuple(tuple(q * e for e in row) for row in a)


def ref_scalar_multiple(a):
    n = len(a)
    diag = a[0][0]
    for i in range(n):
        for j in range(n):
            if a[i][j] != (diag if i == j else 0):
                return None
    return diag


def ref_normalize(a):
    q = ref_scalar_multiple(a)
    if q is not None and q.denominator == 1 and q >= 1:
        n = len(a)
        return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    return a


def ref_str(a):
    def fmt(e):
        return str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"

    return "[" + ",".join("[" + ",".join(fmt(e) for e in row) + "]" for row in a) + "]"


_values = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _written(draw, value):
    """One way of writing value: an int, a Fraction, or an unreduced string."""
    k = draw(st.integers(min_value=1, max_value=4))
    forms = [value, f"{value.numerator * k}/{value.denominator * k}"]
    if value.denominator == 1:
        forms.append(int(value))
    return draw(st.sampled_from(forms))


@st.composite
def _square(draw, n):
    """(written rows, reference rows) for an n-by-n matrix."""
    values = [[draw(_values) for _ in range(n)] for _ in range(n)]
    written = [[draw(_written(v)) for v in row] for row in values]
    return written, ref_rows(values)


_dims = st.integers(min_value=1, max_value=3)


@st.composite
def _pair(draw):
    n = draw(_dims)
    return draw(_square(n)), draw(_square(n))


@given(_pair())
def test_kernel_matches_reference(pair):
    (wa, ra), (wb, rb) = pair
    a, b = RationalMatrix(wa), RationalMatrix(wb)
    assert a.rows == ra
    assert str(a) == ref_str(ra)
    assert repr(a) == f"RationalMatrix({ref_str(ra)})"
    assert (a + b).rows == ref_add(ra, rb)
    assert (a * b).rows == ref_mul(ra, rb)
    assert (b * a).rows == ref_mul(rb, ra)
    assert str(a * b) == ref_str(ref_mul(ra, rb))
    assert (a == b) == (ra == rb)


def slicing_product(a, b):
    """The product as it was computed before the index loop: row slices of
    the flat numerators against column slices, over the product of the
    denominators."""
    n, x, y = a.dimension, a._nums, b._nums
    rows = [x[i * n:(i + 1) * n] for i in range(n)]
    cols = [y[j::n] for j in range(n)]
    nums = tuple(sum(map(mul, r, c)) for r in rows for c in cols)
    return RationalMatrix._reduced(n, nums, a._den * b._den)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_keeps_the_slicing_products_canonical_form(n):
    rng = Random(n)

    def draw():
        return RationalMatrix(
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        )

    for _ in range(500):
        a, b = draw(), draw()
        expected, got = slicing_product(a, b), a * b
        assert (got._nums, got._den) == (expected._nums, expected._den)
        public = RationalMatrix(got.rows)
        assert got == public and hash(got) == hash(public)
        for attribute in ("_n", "_nums", "_den"):
            with pytest.raises(AttributeError):
                setattr(got, attribute, None)
        assert (got._n, got._nums, got._den) == (public._n, public._nums, public._den)


@given(_dims.flatmap(_square), _values, st.integers(min_value=1, max_value=4))
def test_scale_matches_reference(square, q, k):
    written, ref = square
    a = RationalMatrix(written)
    assert a.scale(q).rows == ref_scale(ref, q)
    assert a.scale(f"{q.numerator * k}/{q.denominator * k}") == a.scale(q)
    if q.denominator == 1:
        assert a.scale(int(q)) == a.scale(q)


@given(_dims.flatmap(lambda n: st.tuples(_square(n), _square(n))))
def test_equal_values_written_differently_are_equal(squares):
    (w1, r1), (w2, _) = squares
    # the same values, written a second way
    again = [[f"{2 * e.numerator}/{2 * e.denominator}" for e in row] for row in r1]
    a, b = RationalMatrix(w1), RationalMatrix(again)
    assert a == b
    assert hash(a) == hash(b)
    assert str(a) == str(b)
    # sums and products that land on the same values compare equal too
    c = RationalMatrix(w2)
    assert (a + c) + c == a + (c + c)
    assert hash((a + c) + c) == hash(a + (c + c))


@given(_pair())
def test_normalize_and_membership_match_reference(pair):
    (wa, ra), (wb, rb) = pair
    alg = matrix_algebra(len(ra))
    for m, ref in ((RationalMatrix(wa) * RationalMatrix(wb), ref_mul(ra, rb)),
                   (RationalMatrix(wa) + RationalMatrix(wb), ref_add(ra, rb))):
        assert normalize_matrix(m).rows == ref_normalize(ref)
        assert alg.is_member(m) == (ref_normalize(ref) == ref)


def test_equal_written_differently_against_identity():
    a = RationalMatrix([["2/2", 0], [0, 1]])
    assert a == RationalMatrix.identity(2)
    assert hash(a) == hash(RationalMatrix.identity(2))
    assert RationalMatrix([["-4/6", "3/9"], [0, "10/5"]]) == RationalMatrix(
        [[Fraction(-2, 3), Fraction(1, 3)], [0, 2]]
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normalize_and_is_member_on_non_normalized_inputs(n):
    alg = matrix_algebra(n)
    identity = RationalMatrix.identity(n)
    two = identity.scale(2)
    half = identity.scale("1/2")
    zero = RationalMatrix.zeros(n)
    assert normalize_matrix(two) == identity
    # every collapse returns the one shared identity of the dimension
    assert normalize_matrix(two) is normalize_matrix(identity.scale(3)) is alg.one
    assert not alg.is_member(two)
    assert normalize_matrix(half) is half
    assert alg.is_member(half)
    assert normalize_matrix(zero) is zero
    assert alg.is_member(zero)
    assert normalize_matrix(identity.scale(-1)) == identity.scale(-1)
    assert alg.is_member(identity)
    assert alg.vee(identity, identity) is alg.one
    assert alg.wedge(two.scale("1/2"), identity) is alg.one


@pytest.mark.parametrize("attribute", ["_n", "_nums", "_den", "rows"])
def test_internal_attributes_cannot_be_set(attribute):
    m = RationalMatrix([[1, "1/2"], [0, 1]])
    with pytest.raises(AttributeError):
        setattr(m, attribute, None)
    with pytest.raises(AttributeError):
        delattr(m, attribute)
    assert m == RationalMatrix([[1, "1/2"], [0, 1]])
