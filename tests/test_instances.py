import itertools
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, strategies as st

from modernsets import (
    AlgebraHandle,
    DomainError,
    RationalMatrix,
    ShapeError,
    StructuralError,
    chain_algebra,
    classical_algebra,
    constant_family,
    contains,
    find_noncommuting_witness,
    fuzzy_algebra,
    lattice_algebra,
    m3_lattice,
    matrix_algebra,
    matrix_vee,
    matrix_wedge,
    modern_set,
    normalize_matrix,
    powerset_lattice,
)
from modernsets.instances import _normal
from modernsets.matrix import _product

E01 = RationalMatrix([[0, 1], [0, 0]])
E10 = RationalMatrix([[0, 0], [1, 0]])
I2 = RationalMatrix.identity(2)
Z2 = RationalMatrix.zeros(2)


class TestNormalize:
    def test_identity_multiples_collapse(self):
        assert normalize_matrix(I2.scale(2)) == I2
        assert normalize_matrix(I2.scale(5)) == I2
        assert normalize_matrix(I2) == I2

    def test_non_multiples_pass_through(self):
        half = I2.scale(Fraction(1, 2))
        assert normalize_matrix(half) == half
        assert normalize_matrix(Z2) == Z2
        assert normalize_matrix(E01) == E01
        neg = I2.scale(-3)
        assert normalize_matrix(neg) == neg

    def test_fractional_multiple_passes_through(self):
        m = I2.scale(Fraction(3, 2))
        assert normalize_matrix(m) == m

    @staticmethod
    def scalar_multiple_criterion(m):
        # k * identity for an integer k >= 1, read off the entries
        rows = m.rows
        k = rows[0][0]
        if k.denominator == 1 and k >= 1 and all(
            e == (k if i == j else 0) for i, row in enumerate(rows) for j, e in enumerate(row)
        ):
            return matrix_algebra(m.dimension).one
        return m

    @pytest.mark.parametrize("den", [1, 2])
    def test_returns_the_object_of_the_scalar_multiple_criterion_2x2(self, den):
        entries = [Fraction(k, den) for k in range(-2, 3)]
        for a, b, c, d in itertools.product(entries, repeat=4):
            m = RationalMatrix([[a, b], [c, d]])
            assert normalize_matrix(m) is self.scalar_multiple_criterion(m)

    def test_returns_the_object_of_the_scalar_multiple_criterion_1x1(self):
        for k in range(-3, 4):
            m = RationalMatrix([[k]])
            assert normalize_matrix(m) is self.scalar_multiple_criterion(m)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_returns_the_object_of_the_scalar_multiple_criterion_on_scaled_identities(self, n):
        for k in (-1, 0, Fraction(1, 2), 1, 2, 3):
            m = RationalMatrix.identity(n).scale(k)
            assert normalize_matrix(m) is self.scalar_multiple_criterion(m)

    @given(
        st.lists(
            st.lists(
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=2, max_size=2,
            ),
            min_size=2, max_size=2,
        )
    )
    def test_idempotent(self, rows):
        once = normalize_matrix(RationalMatrix(rows))
        assert normalize_matrix(once) == once


class TestMatrixOps:
    def test_wedge_is_normalized_product(self):
        assert matrix_wedge(E01, E10) == RationalMatrix([[1, 0], [0, 0]])
        assert matrix_wedge(E10, E01) == RationalMatrix([[0, 0], [0, 1]])

    def test_vee_is_normalized_sum(self):
        assert matrix_vee(I2, I2) == I2
        assert matrix_vee(I2, E01) == RationalMatrix([[1, 1], [0, 1]])

    def test_rejects_non_matrices(self):
        with pytest.raises(DomainError):
            matrix_wedge(I2, 1)
        with pytest.raises(DomainError):
            matrix_vee("x", I2)

    def test_rejects_unnormalized_inputs(self):
        with pytest.raises(DomainError):
            matrix_wedge(I2.scale(2), I2)
        with pytest.raises(DomainError):
            matrix_vee(I2, I2.scale(3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matrix_wedge(I2, RationalMatrix.identity(3))


class TestMatrixAlgebra:
    def test_membership(self):
        m = matrix_algebra(2)
        assert m.is_member(I2)
        assert m.is_member(Z2)
        assert m.is_member(E01)
        assert m.is_member(I2.scale(Fraction(1, 2)))
        assert not m.is_member(I2.scale(2))
        assert not m.is_member(RationalMatrix.identity(3))
        assert not m.is_member("I")

    def test_bounds_and_boundary(self):
        m = matrix_algebra(2)
        assert m.zero == Z2
        assert m.one == I2
        assert E01 in m.boundary and E10 in m.boundary

    def test_sampler_yields_members(self):
        m = matrix_algebra(3)
        rng = random.Random(7)
        for _ in range(50):
            assert m.is_member(m.sample(rng))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sampler_draws_what_the_public_constructor_builds(self, n):
        sample = matrix_algebra(n).sample
        for seed in range(5):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(40):
                got = sample(rng)
                rows = [[reference.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                expected = normalize_matrix(RationalMatrix(rows))
                assert got == expected
                assert hash(got) == hash(expected)
                assert str(got) == str(expected)
                # the sampler consumes the stream exactly as randint does
                assert rng.getstate() == reference.getstate()

    def test_no_order_no_complement(self):
        m = matrix_algebra(2)
        assert m.complement is None
        assert not hasattr(m, "leq")
        assert m.lattice is None

    def test_size_validation(self):
        with pytest.raises(ValueError):
            matrix_algebra(0)

    def test_cached(self):
        assert matrix_algebra(2) is matrix_algebra(2)


class TestNoncommutingWitness:
    def test_mat2_wedge_witness_is_deterministic(self):
        w = find_noncommuting_witness(matrix_algebra(2), op="wedge")
        assert w is not None
        assert w.inputs == (E01, E10)
        assert w.lhs == RationalMatrix([[1, 0], [0, 0]])
        assert w.rhs == RationalMatrix([[0, 0], [0, 1]])

    def test_witness_recheck(self):
        m = matrix_algebra(2)
        w = find_noncommuting_witness(m, op="wedge")
        x, y = w.inputs
        assert m.wedge(x, y) == w.lhs
        assert m.wedge(y, x) == w.rhs
        assert w.lhs != w.rhs

    def test_mat3_has_witness(self):
        m = matrix_algebra(3)
        w = find_noncommuting_witness(m, op="wedge")
        assert w is not None
        x, y = w.inputs
        assert m.wedge(x, y) != m.wedge(y, x)

    def test_commutative_algebras_have_none(self):
        assert find_noncommuting_witness(classical_algebra()) is None
        assert find_noncommuting_witness(chain_algebra(3)) is None
        assert find_noncommuting_witness(fuzzy_algebra(), budget=400) is None
        assert find_noncommuting_witness(matrix_algebra(2), op="vee") is None

    def test_bad_op(self):
        with pytest.raises(ValueError):
            find_noncommuting_witness(matrix_algebra(2), op="plus")

    def test_negative_budget(self):
        with pytest.raises(ValueError, match="budget must be non-negative, got -1"):
            find_noncommuting_witness(matrix_algebra(2), budget=-1)

    def test_pool_deduplication_is_linear_in_attempts(self):
        class Counted:
            eq_calls = 0

            def __init__(self, v):
                self.v = v

            def __eq__(self, other):
                Counted.eq_calls += 1
                return self.v == other.v

            def __hash__(self):
                return hash(self.v)

        zero, one = Counted(-1), Counted(-2)
        algebra = AlgebraHandle(
            name="counted",
            zero=zero,
            one=one,
            wedge=lambda x, y: zero,
            vee=lambda x, y: one,
            is_member=lambda x: isinstance(x, Counted),
            boundary=(zero, one),
            sample=lambda rng: Counted(rng.randrange(100)),
        )
        # the 4 boundary pairs and then budget random pairs are compared
        # once each; a deduplicating list scan would cost ~100 each
        budget = 20_000
        assert find_noncommuting_witness(algebra, budget=budget) is None
        assert Counted.eq_calls <= 2 * 4 * budget


class TestChainAlgebras:
    def test_tokens(self):
        assert chain_algebra(2).elements == ("O", "I")
        assert chain_algebra(3).elements == ("O", "m", "I")
        assert chain_algebra(5).elements == ("O", "m1", "m2", "m3", "I")

    def test_ops_are_min_max(self):
        a = chain_algebra(5)
        order = {t: i for i, t in enumerate(a.elements)}
        for x in a.elements:
            for y in a.elements:
                assert order[a.wedge(x, y)] == min(order[x], order[y])
                assert order[a.vee(x, y)] == max(order[x], order[y])

    def test_complement_reverses_order(self):
        a = chain_algebra(5)
        assert a.complement("O") == "I"
        assert a.complement("m1") == "m3"
        assert a.complement("m2") == "m2"

    def test_too_short(self):
        with pytest.raises(ValueError):
            chain_algebra(1)


def test_classical_algebra_truth_tables():
    a = classical_algebra()
    assert a.wedge("I", "I") == "I"
    assert a.wedge("I", "O") == "O"
    assert a.vee("O", "O") == "O"
    assert a.vee("O", "I") == "I"
    assert a.complement("O") == "I"
    assert a.complement("I") == "O"
    assert a.name == "classical2"
    assert a.lattice is not None


class TestFuzzyAlgebra:
    def test_membership(self):
        a = fuzzy_algebra()
        assert a.is_member(Fraction(1, 2))
        assert a.is_member(Fraction(0))
        assert a.is_member(Fraction(1))
        assert not a.is_member(Fraction(3, 2))
        assert not a.is_member(Fraction(-1, 4))
        assert not a.is_member(0.5)

    @given(st.one_of(
        st.fractions(min_value=-2, max_value=2, max_denominator=12),
        st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 10**30), Fraction(10**30 + 1, 10**30)]),
        st.integers(-2, 2),
        st.floats(-2, 2),
        st.text(max_size=2),
        st.none(),
    ))
    def test_membership_matches_fraction_comparison(self, x):
        expected = isinstance(x, Fraction) and Fraction(0) <= x <= Fraction(1)
        assert fuzzy_algebra().is_member(x) == expected

    def test_ops(self):
        a = fuzzy_algebra()
        assert a.wedge(Fraction(1, 3), Fraction(2, 3)) == Fraction(1, 3)
        assert a.vee(Fraction(1, 3), Fraction(2, 3)) == Fraction(2, 3)
        assert a.complement(Fraction(3, 10)) == Fraction(7, 10)

    def test_complement_is_involutive(self):
        a = fuzzy_algebra()
        for v in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(1)):
            assert a.complement(a.complement(v)) == v

    def test_boundary_and_order(self):
        a = fuzzy_algebra()
        assert Fraction(0) in a.boundary and Fraction(1) in a.boundary
        fam = constant_family(("p",), a)
        quarter = modern_set(fam, {"p": Fraction(1, 4)})
        half = modern_set(fam, {"p": Fraction(1, 2)})
        assert contains(half, quarter)
        assert not contains(quarter, half)

    def test_lattice_is_the_k3_chain(self):
        # read off the tables over the deciding sub-carrier, in boundary order
        a = fuzzy_algebra()
        k3 = (Fraction(0), Fraction(1), Fraction(1, 2))
        assert a.deciding.carrier == k3
        lat = a.lattice
        assert lat.elements == k3
        assert (lat.bottom, lat.top) == (Fraction(0), Fraction(1))
        for x, y in itertools.product(k3, repeat=2):
            assert lat.meet_table[x][y] == min(x, y)
            assert lat.join_table[x][y] == max(x, y)

    def test_sampler_in_range(self):
        a = fuzzy_algebra()
        rng = random.Random(3)
        for _ in range(100):
            assert a.is_member(a.sample(rng))

    def test_sampler_draws_what_randint_draws(self):
        sample = fuzzy_algebra().sample
        for seed in range(24):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(100):
                got = sample(rng)
                d = reference.randint(1, 64)
                assert got == Fraction(reference.randint(0, d), d)
                assert type(got) is Fraction
                assert rng.getstate() == reference.getstate()

    @staticmethod
    def operand_pool():
        a = fuzzy_algebra()
        rng = random.Random(11)
        draws = [a.sample(rng) for _ in range(40)]
        # equal values in distinct objects, and the ints min/max also accept
        return [*a.boundary, *draws, Fraction(1, 2), Fraction(2, 4), 0, 1]

    def test_wedge_and_vee_return_the_operand_min_and_max_return(self):
        a = fuzzy_algebra()
        pool = self.operand_pool()
        for x, y in itertools.product(pool, repeat=2):
            assert a.wedge(x, y) is min(x, y)
            assert a.vee(x, y) is max(x, y)

    def test_complement_equals_one_minus(self):
        a = fuzzy_algebra()
        for x in self.operand_pool():
            got = a.complement(x)
            assert got == 1 - x
            assert type(got) is Fraction


CODED = [fuzzy_algebra(), *map(matrix_algebra, (1, 2, 3, 4))]


@pytest.mark.parametrize("alg", CODED, ids=lambda a: a.name)
class TestCarrierCodes:
    """The exact integer codes the infinite carriers are scanned on."""

    @staticmethod
    def values(alg):
        """Boundary and drawn values, then the results of the operations on them."""
        rng = random.Random(5)
        drawn = [*alg.boundary, *(alg.sample(rng) for _ in range(20))]
        results = [op(x, y) for x in drawn for y in drawn for op in (alg.wedge, alg.vee)]
        if alg.complement is not None:
            results += [alg.complement(x) for x in drawn]
        return drawn + results

    def test_encoding_is_an_injective_homomorphism(self, alg):
        codes = alg._codes
        ops, encode = codes.ops, codes.encode
        values = self.values(alg)
        assert (encode(alg.zero), encode(alg.one)) == (ops.zero, ops.one)
        for x in values:
            assert codes.decode(encode(x)) == x
        # every pair of the first 60 values, one lane each, in one call per operation
        pairs = [*itertools.product(values[:60], repeat=2)]
        xs, ys = ([encode(v) for v in column] for column in zip(*pairs))
        for op, column in ((alg.wedge, ops.wedge(xs, ys)), (alg.vee, ops.vee(xs, ys))):
            assert len(column) == len(pairs)
            for (x, y), got in zip(pairs, column):
                assert got == encode(op(x, y)), (x, y)
        for x, y in pairs:
            assert (encode(x) == encode(y)) == (x == y)
        if alg.complement is None:
            assert ops.complement is None
        else:
            column = ops.complement([encode(x) for x in values])
            assert column == [encode(alg.complement(x)) for x in values]

    def test_code_draws_follow_the_value_draws(self, alg):
        codes = alg._codes
        for seed in range(8):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(100):
                assert codes.sample(rng) == codes.encode(alg.sample(reference))
            assert rng.getstate() == reference.getstate()

    def test_values_outside_the_coded_carrier_have_no_code(self, alg):
        uncoded = {
            # a denominator that divides no value the sampler draws, and other types
            "fuzzy": [Fraction(1, 67), Fraction(1, 128), 0, 0.5, "O", I2],
            # a common denominator above 1, and another dimension
            "mat1": [RationalMatrix([[Fraction(1, 2)]]), I2, 1, Fraction(1)],
            "mat2": [I2.scale(Fraction(1, 2)), RationalMatrix.identity(3), Fraction(0), "O"],
            "mat3": [RationalMatrix.identity(3).scale(Fraction(1, 3)), I2, Fraction(0)],
            "mat4": [RationalMatrix.identity(4).scale(Fraction(1, 4)), RationalMatrix.identity(3), "I"],
        }
        for x in uncoded[alg.name]:
            assert alg._codes.encode(x) is None, x


def kernel_references(n):
    """What the n x n matrices' column wedge and vee give at one lane: the normalized
    product and sum of the numerators."""
    return (
        lambda a, b: _normal(n, _product(n)(a, b)),
        lambda a, b: _normal(n, tuple(map(add, a, b))),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
class TestMatrixKernels:
    """The generated column kernels of the matrices' codes (``instances._MatrixCodes``)."""

    @staticmethod
    def assert_kernels_match(n, xs, ys):
        ops = matrix_algebra(n)._codes.ops
        wedge, vee = kernel_references(n)
        assert ops.wedge(xs, ys) == [*map(wedge, xs, ys)]
        assert ops.vee(xs, ys) == [*map(vee, xs, ys)]

    def test_seeded_codes(self, n):
        ops = matrix_algebra(n)._codes.ops
        multiples = [tuple(k * v for v in ops.one) for k in (-1, 1, 2, 3)]
        special = [ops.zero, ops.one, *multiples]
        rng = random.Random(n)
        drawn = [ops.sample(rng) for _ in range(40)]
        pairs = [*itertools.product(special + drawn[:10], repeat=2), *zip(drawn, reversed(drawn))]
        xs, ys = map(list, zip(*pairs))
        self.assert_kernels_match(n, xs, ys)
        # O is no multiple of I: its sums and products with O stay O
        assert ops.wedge([ops.zero], [ops.one]) == ops.vee([ops.zero], [ops.zero]) == [ops.zero]
        assert ops.wedge([], []) == ops.vee([], []) == []

    @given(data=st.data())
    def test_small_integer_codes(self, n, data):
        code = st.tuples(*[st.integers(-3, 3)] * (n * n))
        pairs = data.draw(st.lists(st.tuples(code, code), max_size=8))
        xs, ys = [a for a, _ in pairs], [b for _, b in pairs]
        self.assert_kernels_match(n, xs, ys)

    def test_kernels_compile_on_first_use(self, n):
        ops = matrix_algebra.__wrapped__(n)._codes.ops
        assert not {"wedge", "vee", "_draw"} & vars(ops).keys()
        assert ops.wedge([ops.one], [ops.zero]) == [ops.zero]
        assert vars(ops).keys() >= {"wedge"}


class TestLatticeAlgebra:
    def test_wraps_ops(self):
        a = lattice_algebra(m3_lattice())
        assert a.wedge("a", "b") == "0"
        assert a.vee("a", "b") == "1"
        assert a.zero == "0"
        assert a.one == "1"
        assert a.finite

    def test_complement_mapping(self):
        comp = {"0": "ab", "a": "b", "b": "a", "ab": "0"}
        a = lattice_algebra(powerset_lattice(2), complement=comp)
        assert a.complement("a") == "b"

    def test_incomplete_mapping_rejected(self):
        with pytest.raises(StructuralError):
            lattice_algebra(powerset_lattice(2), complement={"0": "ab"})

    def test_single_element_rejected(self):
        from modernsets import lattice_from_hasse

        trivial = lattice_from_hasse("one", ["e"], [])
        with pytest.raises(StructuralError):
            lattice_algebra(trivial)

    def test_custom_name(self):
        a = lattice_algebra(m3_lattice(), name="diamond")
        assert a.name == "diamond"
