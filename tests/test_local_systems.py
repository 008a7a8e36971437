import random

import pytest

from rigidity_lab.errors import ValidationError
from rigidity_lab.exact_linalg import QMatrix
from rigidity_lab.local_systems import (
    is_irreducible,
    monodromy_tuple,
    random_tuple,
    rigidity_index,
    rigidity_report,
    tuple_from_json,
    tuple_to_json,
    validate,
)

from support import conjugate, random_invertible


def rank1(*values):
    return monodromy_tuple(
        1, [(i, QMatrix.from_rows([[v]])) for i, v in enumerate(values)]
    )


HYPERGEOMETRIC2 = monodromy_tuple(
    2,
    [
        (0, QMatrix.from_rows([[2, 0], [0, 1]])),
        (1, QMatrix.from_rows([[1, 1], [1, 0]])),
    ],
)

FOURPOINT2 = monodromy_tuple(
    2,
    [
        (0, QMatrix.from_rows([[2, 0], [0, 1]])),
        (1, QMatrix.from_rows([[1, 1], [1, 0]])),
        (2, QMatrix.from_rows([[1, 1], [0, 1]])),
    ],
)


class TestValidate:
    def test_rank_one_product(self):
        t = rank1("2", "3")
        assert t.infinity_matrix == QMatrix.from_rows([["1/6"]])
        validate(t)

    def test_trivial_finite_point_rejected(self):
        t = monodromy_tuple(1, [(0, QMatrix.from_rows([[1]]))])
        with pytest.raises(ValidationError, match="trivial local monodromy at finite point"):
            validate(t)

    def test_product_relation_enforced(self):
        t = monodromy_tuple(
            1,
            [(0, QMatrix.from_rows([[2]]))],
            infinity_matrix=QMatrix.from_rows([[3]]),
        )
        with pytest.raises(ValidationError, match="monodromy relation violated"):
            validate(t)

    def test_duplicate_locations(self):
        t = monodromy_tuple(
            1, [(0, QMatrix.from_rows([[2]])), (0, QMatrix.from_rows([[3]]))]
        )
        with pytest.raises(ValidationError, match="duplicate singular locations"):
            validate(t)

    def test_singular_matrix(self):
        t = monodromy_tuple(
            2,
            [(0, QMatrix.zeros(2, 2))],
            infinity_matrix=QMatrix.identity(2),
        )
        with pytest.raises(ValidationError, match="non-invertible matrix at point 0"):
            validate(t)

    def test_no_finite_points(self):
        t = monodromy_tuple(1, [(0, QMatrix.from_rows([[2]]))])
        t = type(t)(rank=1, finite_points=(), infinity_matrix=QMatrix.identity(1))
        with pytest.raises(ValidationError, match="at least one finite singular point"):
            validate(t)

    def test_shape_mismatch(self):
        t = monodromy_tuple(
            2,
            [(0, QMatrix.from_rows([[2]]))],
            infinity_matrix=QMatrix.identity(2),
        )
        with pytest.raises(ValidationError, match="must be 2x2"):
            validate(t)

    def test_identity_at_infinity_is_legal(self):
        t = rank1("2", "1/2")
        assert t.infinity_matrix == QMatrix.identity(1)
        validate(t)


class TestRigidityIndex:
    def test_rank1_example(self):
        assert rigidity_index(rank1("2", "3")) == 2

    def test_hypergeometric_type(self):
        assert rigidity_index(HYPERGEOMETRIC2) == 2

    def test_four_point_generic(self):
        assert rigidity_index(FOURPOINT2) == 0

    def test_rank1_always_two(self):
        rng = random.Random(61)
        for k in range(1, 6):
            values = []
            while len(values) < k:
                v = rng.choice([-3, -2, 2, 3, 5])
                values.append(v)
            assert rigidity_index(rank1(*values)) == 2

    def test_conjugation_invariance(self):
        rng = random.Random(67)
        for _ in range(10):
            t = random_tuple(rng.randint(1, 3), rng.randint(1, 3), rng.getrandbits(32))
            p = random_invertible(rng, t.rank)
            conjugated = monodromy_tuple(
                t.rank,
                [(loc, conjugate(m, p)) for loc, m in t.finite_points],
                infinity_matrix=conjugate(t.infinity_matrix, p),
            )
            assert rigidity_index(conjugated) == rigidity_index(t)

    def test_report_fields(self):
        report = rigidity_report(HYPERGEOMETRIC2)
        assert report.rank == 2
        assert report.num_points == 3
        assert report.centralizer_dims == (2, 2, 2)
        assert report.index == 2
        assert report.irreducible
        assert report.physically_rigid
        # the defining relation between the fields
        assert report.index == (2 - report.num_points) * report.rank**2 + sum(
            report.centralizer_dims
        )


class TestIrreducibility:
    def test_rank1_always(self):
        assert is_irreducible(rank1("2", "3", "5"))

    def test_simultaneously_diagonal_reducible(self):
        t = monodromy_tuple(
            2,
            [(0, QMatrix.diagonal([2, 3])), (1, QMatrix.diagonal([5, 7]))],
        )
        assert not is_irreducible(t)

    def test_common_eigenvector_reducible(self):
        # diag(2,1) and the lower-unitriangular matrix both fix e2, so the
        # span closure stalls at the lower-triangular algebra (dimension 3).
        t = monodromy_tuple(
            2,
            [(0, QMatrix.diagonal([2, 1])), (1, QMatrix.from_rows([[1, 0], [1, 1]]))],
        )
        assert not is_irreducible(t)

    def test_irreducible_witness(self):
        assert is_irreducible(HYPERGEOMETRIC2)
        assert is_irreducible(FOURPOINT2)

    def test_physical_rigidity(self):
        assert rigidity_report(rank1("2", "3")).physically_rigid
        assert rigidity_report(HYPERGEOMETRIC2).physically_rigid
        assert not rigidity_report(FOURPOINT2).physically_rigid  # index 0
        reducible = monodromy_tuple(
            2, [(0, QMatrix.diagonal([2, 3])), (1, QMatrix.diagonal([5, 7]))]
        )
        assert rigidity_index(reducible) == 2
        assert not rigidity_report(reducible).physically_rigid


class TestRandomTuple:
    def test_validates(self):
        for seed in range(10):
            validate(random_tuple(1, 2, seed))
            validate(random_tuple(3, 3, seed))

    def test_deterministic(self):
        assert random_tuple(2, 3, 99) == random_tuple(2, 3, 99)
        assert random_tuple(2, 3, 99) != random_tuple(2, 3, 100)

    def test_product_exactly_identity(self):
        t = random_tuple(3, 3, 5)
        product = QMatrix.identity(3)
        for m in t.matrices():
            product = product @ m
        assert product == QMatrix.identity(3)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            random_tuple(0, 1, 1)
        with pytest.raises(ValueError):
            random_tuple(1, 0, 1)


class TestJson:
    def test_roundtrip(self):
        t = HYPERGEOMETRIC2
        assert tuple_from_json(tuple_to_json(t)) == t

    def test_infinity_computed_when_absent(self):
        payload = {
            "rank": 1,
            "finite_points": [
                {"location": "0", "matrix": [["2"]]},
                {"location": "1", "matrix": [["3"]]},
            ],
        }
        t = tuple_from_json(payload)
        assert t.infinity_matrix == QMatrix.from_rows([["1/6"]])

    def test_schema_errors(self):
        with pytest.raises(ValueError, match='"rank"'):
            tuple_from_json({"finite_points": []})
        with pytest.raises(ValueError, match="finite_points"):
            tuple_from_json({"rank": 1, "finite_points": []})
        with pytest.raises(ValueError, match="location"):
            tuple_from_json({"rank": 1, "finite_points": [{"matrix": [["2"]]}]})
        with pytest.raises(ValueError, match="rank"):
            tuple_from_json({"rank": True, "finite_points": [{"location": 0, "matrix": [["2"]]}]})
        with pytest.raises(ValueError):
            tuple_from_json([1, 2, 3])
