import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_lab.errors import DimensionMismatchError, InvalidMonodromyError
from rigidity_lab.exact_linalg import (
    QMatrix,
    UnitBlockPartition,
    block_diag,
    centralizer_dimension,
    coordinates_in_basis,
    fixed_space_dim,
    format_rational,
    invariant_factors,
    jordan_block,
    matrix_from_json,
    matrix_rank,
    matrix_to_json,
    parse_rational,
    polynomial_to_string,
    restrict_to_image,
    rref_decompose,
    similar,
    split_unit_part,
    unit_block_partition,
    _centralizer_dimension_from_factors,
    _pmul,
)

from support import (
    char_poly,
    conjugate,
    jordan_from_data,
    partition_formula,
    random_invertible,
    random_jordan_data,
)

J2 = QMatrix.from_rows([[1, 1], [0, 1]])

small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(QMatrix.from_rows)

rational_matrices = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5)
).flatmap(
    lambda shape: st.lists(
        st.lists(
            st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4)),
            min_size=shape[1],
            max_size=shape[1],
        ),
        min_size=shape[0],
        max_size=shape[0],
    )
).map(QMatrix.from_rows)


class TestQMatrix:
    def test_arithmetic_roundtrip(self):
        a = QMatrix.from_rows([[1, 2], [3, 4]])
        b = QMatrix.from_rows([["1/2", 0], [1, "-2"]])
        assert (a + b) - b == a
        assert a @ QMatrix.identity(2) == a
        assert (2 * a).entry(1, 1) == 8

    def test_inverse_exact(self):
        a = QMatrix.from_rows([[1, 2], [3, 5]])
        assert a @ a.inverse() == QMatrix.identity(2)
        with pytest.raises(InvalidMonodromyError):
            QMatrix.from_rows([[1, 2], [2, 4]]).inverse()

    def test_shape_errors(self):
        a = QMatrix.from_rows([[1, 2]])
        with pytest.raises(DimensionMismatchError):
            a + QMatrix.identity(2)
        with pytest.raises(DimensionMismatchError):
            a @ a

    def test_power(self):
        assert J2**3 == QMatrix.from_rows([[1, 3], [0, 1]])
        assert J2**0 == QMatrix.identity(2)

    def test_empty_matrix_is_legal(self):
        empty = QMatrix.zeros(0, 0)
        assert empty @ empty == empty
        assert empty.inverse() == empty
        assert matrix_rank(empty) == 0

    def test_serialization_roundtrip(self):
        a = QMatrix.from_rows([["1/2", -3], [0, "7/3"]])
        assert matrix_from_json(matrix_to_json(a)) == a
        assert matrix_to_json(a)[0][0] == "1/2"
        assert format_rational(Fraction(-4)) == "-4"
        assert parse_rational("-3/6") == Fraction(-1, 2)
        assert parse_rational("+4/2") == 2

    def test_matrix_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            matrix_from_json([["1", "2"], ["3"]])
        with pytest.raises(ValueError):
            matrix_from_json("nope")
        with pytest.raises(ValueError):
            matrix_from_json([["1/0"]])


class TestRref:
    def test_identity(self):
        rank, kernel, image = rref_decompose(QMatrix.identity(2))
        assert rank == 2
        assert kernel.cols == 0
        assert image == QMatrix.identity(2)

    def test_zero(self):
        rank, kernel, image = rref_decompose(QMatrix.zeros(2, 2))
        assert rank == 0
        assert kernel == QMatrix.identity(2)
        assert image.cols == 0

    def test_rank_one_example(self):
        # Hand elimination: [[1,2],[2,4]] -> rref [[1,2],[0,0]], free column 1.
        rank, kernel, image = rref_decompose(QMatrix.from_rows([[1, 2], [2, 4]]))
        assert rank == 1
        assert kernel == QMatrix.from_rows([[-2], [1]])
        assert image == QMatrix.from_rows([[1], [2]])

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_rank_nullity_and_annihilation(self, m):
        rank, kernel, image = rref_decompose(m)
        assert rank + kernel.cols == m.cols
        assert m @ kernel == QMatrix.zeros(m.rows, kernel.cols)
        assert image.cols == rank
        # image columns really span the column space
        stacked = QMatrix.from_rows(
            [image.row_list(i) + m.row_list(i) for i in range(m.rows)]
        )
        assert matrix_rank(stacked) == rank

    @settings(max_examples=80, deadline=None)
    @given(rational_matrices)
    def test_kernel_agrees_with_sympy(self, m):
        from sympy import Matrix

        def columns(q):
            return [[q.entry(i, j) for i in range(q.rows)] for j in range(q.cols)]

        oracle = Matrix(m.rows, m.cols, list(m.entries))
        _, pivots = oracle.rref()
        rank, kernel, image = rref_decompose(m)
        assert matrix_rank(m) == rank == oracle.rank() == len(pivots)
        assert columns(image) == [columns(m)[c] for c in pivots]
        assert columns(kernel) == [list(v) for v in oracle.nullspace()]
        if m.is_square:
            if rank == m.rows:
                assert list(m.inverse().entries) == list(oracle.inv())
            else:
                with pytest.raises(InvalidMonodromyError):
                    m.inverse()

    def test_coordinates_in_basis(self):
        basis = QMatrix.from_rows([[1, 0], [1, 1], [0, 2]])
        vectors = basis @ QMatrix.from_rows([[3, "1/2"], [-1, 0]])
        assert coordinates_in_basis(basis, vectors) == QMatrix.from_rows([[3, "1/2"], [-1, 0]])
        outside = QMatrix.from_rows([[0], [0], [1]])
        with pytest.raises(DimensionMismatchError):
            coordinates_in_basis(basis, outside)


class TestCentralizer:
    def test_identity_is_everything(self):
        assert centralizer_dimension(QMatrix.identity(3)) == 9

    def test_distinct_diagonal(self):
        assert centralizer_dimension(QMatrix.diagonal([1, 2])) == 2

    def test_jordan_block(self):
        # Brute force on the 4-unknown system: commutants are a*I + b*N.
        assert centralizer_dimension(J2) == 2

    def test_unit_type_two_one(self):
        m = block_diag([J2, QMatrix.identity(1)])
        assert centralizer_dimension(m) == 5  # partition formula: min-sums over (2,1)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            centralizer_dimension(QMatrix.zeros(2, 3))

    def test_empty(self):
        assert centralizer_dimension(QMatrix.zeros(0, 0)) == 0

    def test_partition_formula_oracle(self):
        rng = random.Random(101)
        for _ in range(25):
            data, partitions = random_jordan_data(rng, 5)
            m = conjugate(jordan_from_data(data), random_invertible(rng, sum(s for _, s in data)))
            assert centralizer_dimension(m) == partition_formula(partitions)

    def test_bounds_and_scalar_characterization(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = random_invertible(rng, n)
            dim = centralizer_dimension(m)
            assert n <= dim <= n * n
            is_scalar = m == m.entry(0, 0) * QMatrix.identity(n)
            assert (dim == n * n) == is_scalar

    def test_conjugation_invariance(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randint(1, 4)
            m = random_invertible(rng, n)
            p = random_invertible(rng, n)
            assert centralizer_dimension(conjugate(m, p)) == centralizer_dimension(m)

    def test_large_matrix_route_matches_commutation_system(self):
        # Sizes straddling the dispatch cutoff: the commutation system reduced
        # by the library's kernel, the invariant-factor route and the dispatch
        # must all match sympy's rank of A (x) I - I (x) A^T.
        from sympy import QQ, Matrix, eye, kronecker_product
        from sympy.polys.matrices import DomainMatrix

        from rigidity_lab.exact_linalg import _commutation_rows

        rng = random.Random(23)
        for n in (7, 8, 9, 10):
            data, _ = random_jordan_data(rng, n)
            while sum(s for _, s in data) != n:
                data, _ = random_jordan_data(rng, n)
            m = conjugate(jordan_from_data(data), random_invertible(rng, n))
            size = m.rows
            a = Matrix(size, size, list(m.entries))
            system = kronecker_product(a, eye(size)) - kronecker_product(eye(size), a.T)
            oracle = size**2 - DomainMatrix.from_Matrix(system).convert_to(QQ).rank()
            kernel_route = size**2 - matrix_rank(QMatrix.from_rows(_commutation_rows(m)))
            assert kernel_route == oracle
            assert _centralizer_dimension_from_factors(invariant_factors(m)) == oracle
            assert centralizer_dimension(m) == oracle


class TestUnitStructure:
    def test_fixed_space_examples(self):
        assert fixed_space_dim(QMatrix.identity(3)) == 3
        assert fixed_space_dim(QMatrix.diagonal([2, 3])) == 0
        assert fixed_space_dim(J2) == 1
        with pytest.raises(InvalidMonodromyError):
            fixed_space_dim(QMatrix.zeros(2, 2))

    def test_partition_examples(self):
        assert unit_block_partition(QMatrix.identity(2)).sizes == (1, 1)
        assert unit_block_partition(QMatrix.diagonal([2, 3])).sizes == ()
        assert unit_block_partition(J2).sizes == (2,)
        with pytest.raises(InvalidMonodromyError):
            unit_block_partition(QMatrix.from_rows([[0, 1], [0, 1]]))

    def test_partition_type_invariants(self):
        with pytest.raises(ValueError):
            UnitBlockPartition((1, 2))
        with pytest.raises(ValueError):
            UnitBlockPartition((0,))

    def test_partition_counts_match_fixed_space(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 5)
            m = random_invertible(rng, n)
            part = unit_block_partition(m)
            assert part.block_count == fixed_space_dim(m)
            nilpotency = (m - QMatrix.identity(n)) ** n
            assert part.total == n - matrix_rank(nilpotency)

    def test_restrict_to_image_examples(self):
        r, basis = restrict_to_image(QMatrix.diagonal([2, 1]))
        assert r == QMatrix.from_rows([[2]])
        assert basis == QMatrix.from_rows([[1], [0]])
        r, _ = restrict_to_image(QMatrix.identity(3))
        assert r.rows == 0
        r, _ = restrict_to_image(J2)
        assert r == QMatrix.from_rows([[1]])

    def test_split_unit_part_examples(self):
        unit, rest = split_unit_part(QMatrix.identity(2))
        assert unit == QMatrix.identity(2)
        assert rest.rows == 0
        unit, rest = split_unit_part(QMatrix.diagonal([2, 3]))
        assert unit.rows == 0
        assert similar(rest, QMatrix.diagonal([2, 3]))
        unit, rest = split_unit_part(QMatrix.diagonal([1, 5]))
        assert unit == QMatrix.from_rows([[1]])
        assert rest == QMatrix.from_rows([[5]])

    def test_split_properties(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 5)
            m = random_invertible(rng, n)
            unit, rest = split_unit_part(m)
            assert unit.rows + rest.rows == n
            d = unit.rows
            assert (unit - QMatrix.identity(d)) ** d == QMatrix.zeros(d, d)
            assert (rest - QMatrix.identity(rest.rows)).is_invertible()

    def test_covariance_under_conjugation(self):
        rng = random.Random(37)
        for _ in range(10):
            n = rng.randint(2, 4)
            m = random_invertible(rng, n)
            p = random_invertible(rng, n)
            mc = conjugate(m, p)
            r1, _ = restrict_to_image(m)
            r2, _ = restrict_to_image(mc)
            assert similar(r1, r2)
            u1, s1 = split_unit_part(m)
            u2, s2 = split_unit_part(mc)
            assert similar(u1, u2) and similar(s1, s2)


class TestSimilarity:
    def test_reflexive(self):
        m = QMatrix.from_rows([[1, 2], [0, 3]])
        assert similar(m, m)

    def test_cyclic_pair(self):
        a = QMatrix.diagonal([1, 2])
        b = QMatrix.from_rows([[1, 1], [0, 2]])
        inv = invariant_factors(a)
        assert inv.invariant_factors == (
            (Fraction(2), Fraction(-3), Fraction(1)),
        )  # (x-1)(x-2)
        assert similar(a, b)

    def test_jordan_vs_identity(self):
        assert not similar(J2, QMatrix.identity(2))
        assert not similar(QMatrix.identity(2), QMatrix.identity(3))

    def test_invariant_factor_chain_and_product(self):
        rng = random.Random(47)
        for _ in range(20):
            n = rng.randint(1, 5)
            m = random_invertible(rng, n)
            factors = invariant_factors(m).invariant_factors
            product = (Fraction(1),)
            for i, f in enumerate(factors):
                assert f[-1] == 1  # monic
                if i + 1 < len(factors):
                    from rigidity_lab.exact_linalg import _pdivmod

                    assert _pdivmod(factors[i + 1], f)[1] == ()
                product = _pmul(product, f)
            assert product == char_poly(m)

    def test_similar_implies_matching_invariants(self):
        rng = random.Random(53)
        for _ in range(10):
            n = rng.randint(1, 4)
            m = random_invertible(rng, n)
            mc = conjugate(m, random_invertible(rng, n))
            assert similar(m, mc)
            assert unit_block_partition(m) == unit_block_partition(mc)
            assert centralizer_dimension(m) == centralizer_dimension(mc)

    def test_empty_matrices_similar(self):
        assert similar(QMatrix.zeros(0, 0), QMatrix.zeros(0, 0))
        assert invariant_factors(QMatrix.zeros(0, 0)).invariant_factors == ()


def test_polynomial_rendering():
    assert polynomial_to_string(()) == "0"
    assert polynomial_to_string((Fraction(2), Fraction(-3), Fraction(1))) == "x^2 - 3*x + 2"
    assert polynomial_to_string((Fraction(-1, 2),)) == "-1/2"
    assert polynomial_to_string((Fraction(0), Fraction(1))) == "x"


def test_jordan_block_layout():
    assert jordan_block(3, 2) == QMatrix.from_rows([[2, 1, 0], [0, 2, 1], [0, 0, 2]])
    assert block_diag([jordan_block(1, 5), QMatrix.identity(1)]) == QMatrix.diagonal([5, 1])
