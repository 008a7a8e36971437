import json
import random
import sys
from fractions import Fraction
from functools import reduce
from operator import matmul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidity_lab import exact_linalg, local_systems
from rigidity_lab.errors import ValidationError
from rigidity_lab.exact_linalg import QMatrix
from rigidity_lab.fourier import TupleAnalysis, is_irreducible, rigidity_index, rigidity_report
from rigidity_lab.local_systems import (
    MonodromyTuple,
    json_document,
    monodromy_tuple,
    random_tuple,
    tuple_from_json,
    tuple_to_json,
    validate,
)

from support import (
    conjugate,
    diagonal,
    forbid_digit_limit_changes,
    random_fixing_subspace,
    random_invertible,
    span_closure_dimension,
    zeros,
)


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
            [(0, zeros(2, 2))],
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

    # Tuples that break several invariants at once, each with the one error
    # that wins: shapes, then invertibility point by point, then duplicate
    # locations, then trivial finite monodromies, then the relation.
    ERROR_ORDER = [
        (
            "singular at a duplicate location",
            [(0, diagonal([2, 1])), (0, QMatrix.from_rows([[1, 2], [2, 4]]))],
            QMatrix.identity(2),
            "non-invertible matrix at point 0",
        ),
        (
            "singular infinity, broken relation",
            [(0, diagonal([2, 1])), (1, QMatrix.identity(2))],
            zeros(2, 2),
            "non-invertible matrix at infinity",
        ),
        (
            "identity, broken relation",
            [(0, diagonal([2, 3])), (1, QMatrix.identity(2))],
            QMatrix.identity(2),
            "trivial local monodromy at finite point 1",
        ),
        (
            "duplicate location, valid relation",
            [(0, diagonal([2, 3])), (0, QMatrix.identity(2))],
            diagonal(["1/2", "1/3"]),
            "duplicate singular locations",
        ),
        (
            "non-square matrix",
            [(0, zeros(2, 3)), (0, zeros(2, 2))],
            zeros(2, 2),
            "matrix at point 0 must be 2x2",
        ),
    ]

    @pytest.mark.parametrize(
        "points, infinity, message",
        [case[1:] for case in ERROR_ORDER],
        ids=[case[0] for case in ERROR_ORDER],
    )
    def test_first_error_wins(self, points, infinity, message):
        t = monodromy_tuple(2, points, infinity_matrix=infinity)
        with pytest.raises(ValidationError) as info:
            validate(t)
        assert str(info.value) == message

    def test_replaced_infinity_is_checked(self):
        # the derived tuple's relation is known; a copy with another A_inf
        # must multiply its matrices out again
        derived = HYPERGEOMETRIC2
        wrong = MonodromyTuple(derived.rank, derived.finite_points, diagonal([2, 1]))
        validate(derived)
        with pytest.raises(ValidationError, match="^monodromy relation violated$"):
            validate(wrong)
        shapes = MonodromyTuple(derived.rank, derived.finite_points, QMatrix.identity(3))
        with pytest.raises(ValidationError, match="^matrix at infinity must be 2x2$"):
            validate(shapes)

    def test_replace_recomputes_the_relation_product(self, monkeypatch):
        # a derived A_inf is the inverse of its own factors: a copy made by
        # _replace with the same fields keeps them and multiplies nothing,
        # while a copy with another A_inf, or that A_inf with other finite
        # matrices, multiplies its matrices and breaks the relation
        derived = HYPERGEOMETRIC2
        products = []
        original = QMatrix.__matmul__
        monkeypatch.setattr(QMatrix, "__matmul__", lambda a, b: products.append(a) or original(a, b))
        copy = derived._replace()
        assert type(copy) is MonodromyTuple and copy == derived
        validate(copy)
        assert products == []
        others = tuple(reversed(derived.finite_points))
        for wrong in (
            derived._replace(infinity_matrix=diagonal([2, 1])),
            MonodromyTuple(derived.rank, others, derived.infinity_matrix),
        ):
            with pytest.raises(ValidationError, match="^monodromy relation violated$"):
                validate(wrong)

    def test_valid_tuple_checks_no_matrix_for_invertibility(self, monkeypatch):
        tuples = [HYPERGEOMETRIC2, FOURPOINT2, rank1("2", "1/2"), random_tuple(4, 3, 5)]
        calls = []
        original = QMatrix.is_invertible
        monkeypatch.setattr(QMatrix, "is_invertible", lambda m: calls.append(m) or original(m))
        for t in tuples:
            TupleAnalysis(t)
        assert calls == []


@st.composite
def relation_cases(draw):
    """k + 1 matrices of side 1-3 with small rational entries, singular ones
    among them: the last is the inverse of the others' product (the
    relation holds), that inverse with one entry moved (broken), or drawn
    like the others."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    square = st.lists(entry, min_size=n * n, max_size=n * n).map(lambda xs: QMatrix(n, n, xs))
    matrices = [draw(square) for _ in range(k)]
    product = reduce(matmul, matrices)
    kind = draw(st.sampled_from(["holds", "broken", "drawn"]))
    if kind == "drawn" or not product.is_invertible():
        last = draw(square)
    else:
        entries = list(product.inverse().entries)
        if kind == "broken":
            entries[draw(st.integers(0, n * n - 1))] += draw(st.sampled_from([1, Fraction(-1, 3)]))
        last = QMatrix(n, n, entries)
    return [*matrices, last]


class TestIntegerRelation:
    """``validate``'s relation check multiplies the stored integers (d_i A_i)
    and compares with D I, D the product of the d_i: it decides as the
    product of ``QMatrix``s compared with 1 does."""

    @settings(max_examples=200, deadline=None)
    @given(relation_cases())
    @example([QMatrix.from_rows([["1/2", 0], [0, 3]]), QMatrix.from_rows([[2, 0], [0, "1/3"]])])
    @example([QMatrix.from_rows([["1/2", 0], [0, 3]]), QMatrix.from_rows([[2, 0], [0, "1/6"]])])
    @example([QMatrix.from_rows([[1, 1], [1, 1]]), QMatrix.from_rows([[1, 0], [0, 1]])])
    @example([QMatrix.from_rows([["2/3"]]), QMatrix.from_rows([["3/4"]]), QMatrix.from_rows([[2]])])
    def test_agrees_with_the_product(self, matrices):
        n = matrices[0].rows
        expected = reduce(matmul, matrices) == QMatrix.identity(n)
        assert local_systems._relation_holds(matrices) == expected

    def test_holds_on_the_catalog_and_drawn_tuples(self):
        drawn = [random_tuple(n, k, 100 * n + k) for n in (1, 2, 4, 6) for k in (1, 2, 3)]
        for t in drawn + [HYPERGEOMETRIC2, FOURPOINT2]:
            assert local_systems._relation_holds(t.matrices())  # A_inf formed on this read


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
            [(0, diagonal([2, 3])), (1, diagonal([5, 7]))],
        )
        assert not is_irreducible(t)

    def test_common_eigenvector_reducible(self):
        # diag(2,1) and the lower-unitriangular matrix both fix e2, so the
        # span closure stalls at the lower-triangular algebra (dimension 3).
        t = monodromy_tuple(
            2,
            [(0, diagonal([2, 1])), (1, QMatrix.from_rows([[1, 0], [1, 1]]))],
        )
        assert not is_irreducible(t)

    def test_irreducible_witness(self):
        assert is_irreducible(HYPERGEOMETRIC2)
        assert is_irreducible(FOURPOINT2)

    def test_reducible_mod_the_certificate_prime(self):
        # B is the identity mod p, so mod p the closure stalls on the algebra
        # of A; over Q, A - 1 and B - 1 already span the off-diagonal units.
        p = exact_linalg._PRIME
        t = monodromy_tuple(
            2,
            [(0, QMatrix.from_rows([[1, 1], [0, 1]])), (1, QMatrix.from_rows([[1, 0], [p, 1]]))],
        )
        rows = [a.numerators for a in t.matrices()]
        assert not exact_linalg._closes_mod_p(rows, 2)
        assert is_irreducible(t)

    def test_denominator_divisible_by_the_certificate_prime(self):
        p = exact_linalg._PRIME
        t = monodromy_tuple(
            2,
            [
                (0, QMatrix.from_rows([[1, Fraction(1, p)], [0, 1]])),
                (1, QMatrix.from_rows([[1, 0], [1, 1]])),
            ],
        )
        assert is_irreducible(t)

    def test_finite_matrices_decide_like_all(self):
        # The analysis closes the span of the finite matrices only; the oracle
        # closes it with A_inf as well.  Odd trials fix span(e_1, ..., e_d).
        rng = random.Random(19)
        reducible = 0
        for trial in range(20):
            n, k = rng.randint(2, 4), rng.randint(1, 3)
            if trial % 2:
                d = rng.randint(1, n - 1)
                finite = [random_fixing_subspace(rng, n, d) for _ in range(k)]
                t = monodromy_tuple(n, list(enumerate(finite)))
            else:
                t = random_tuple(n, k, rng.getrandbits(32))
            full = span_closure_dimension(t.matrices()) == n * n
            assert TupleAnalysis(t).irreducible == full
            reducible += not full
        assert 10 <= reducible < 20

    def test_physical_rigidity(self):
        assert rigidity_report(rank1("2", "3")).physically_rigid
        assert rigidity_report(HYPERGEOMETRIC2).physically_rigid
        assert not rigidity_report(FOURPOINT2).physically_rigid  # index 0
        reducible = monodromy_tuple(
            2, [(0, diagonal([2, 3])), (1, diagonal([5, 7]))]
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

    def test_long_location_written_in_full(self, monkeypatch):
        # 5000 digits: more than str writes by default, and the limit stays
        limit = sys.get_int_max_str_digits()
        forbid_digit_limit_changes(monkeypatch)
        text = "-1" + "0" * 5000 + "/3"
        location = Fraction(-(10**5000), 3)
        t = monodromy_tuple(1, [(location, QMatrix.from_rows([[2]])), (0, QMatrix.from_rows([[3]]))])
        assert tuple_to_json(t)["finite_points"][0]["location"] == text
        trivial = monodromy_tuple(1, [(location, QMatrix.identity(1)), (0, QMatrix.from_rows([[3]]))])
        with pytest.raises(ValidationError) as exc:
            validate(trivial)
        # the message quotes the location's first 60 characters and its length
        quoted = f"{text[:60]}... ({len(text)} characters)"
        assert str(exc.value) == f"trivial local monodromy at finite point {quoted}"
        assert sys.get_int_max_str_digits() == limit

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

    def test_long_rank_quoted_in_short(self):
        with pytest.raises(ValueError) as exc:
            tuple_from_json({"rank": 10**5000, "finite_points": []})
        assert str(exc.value) == (
            '"rank" is 1' + "0" * 59 + "... (5001 characters), more than the maximum 16"
        )

    def test_json_document_reads_as_json_loads(self, tmp_path):
        path = tmp_path / "t.json"
        text = '{"rank": -12, "x": [1.5, "7/2", null, true], "y": {}}'
        path.write_text(text, encoding="utf-8")
        assert json_document(path) == json.loads(text)
        for bad in ("\ufeff{}", "{", "[1,]"):
            path.write_text(bad, encoding="utf-8")
            with pytest.raises(json.JSONDecodeError) as ours:
                json_document(path)
            with pytest.raises(json.JSONDecodeError) as theirs:
                json.loads(bad)
            assert str(ours.value) == str(theirs.value)

    def test_json_document_refuses_a_long_integer_in_its_own_words(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"rank": -' + "1" * 5000 + "}", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            json_document(path)
        assert str(exc.value) == "an integer of 5000 digits is too long to read"
