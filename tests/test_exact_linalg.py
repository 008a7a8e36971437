import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidity_lab import exact_linalg, local_systems
from rigidity_lab.campaign import CampaignConfig, run_campaign
from rigidity_lab.cli import main
from rigidity_lab.errors import (
    DimensionMismatchError,
    GenerationError,
    InvalidMonodromyError,
    InvalidPairError,
)
from rigidity_lab.exact_linalg import (
    Echelon,
    QMatrix,
    block_diag,
    centralizer_dimension,
    fixed_space_dim,
    invariant_factors,
    jordan_block,
    matrix_rank,
    matrix_to_json,
    parse_rational,
    polynomial_to_string,
    rational_pair,
    rational_text,
    restrict_to_image,
    shorten,
    similar,
    spans_full_algebra,
    _echelon,
    _pdivmod,
    _pmul,
    _shift_echelon,
)
from rigidity_lab.local_systems import (
    _bounded_matrix,
    monodromy_tuple,
    random_tuple,
    tuple_to_json,
)
from rigidity_lab.theta_pairs import ThetaPair

from support import (
    campaign_tuples,
    char_poly,
    closes_full_span_mod_p,
    columns,
    commutation_centralizer_dimension,
    companion,
    conjugate,
    diagonal,
    FractionEchelon,
    fraction_inverse,
    fraction_rank,
    fraction_rank_factorization,
    is_pseudo_reflection,
    jordan_from_data,
    levelt_tuple,
    loop_matmul,
    partition_formula,
    primitive,
    random_fixing_subspace,
    read_rows_oracle,
    random_invertible,
    random_jordan_data,
    random_unimodular,
    random_unit_mixed_matrix,
    restrict_power,
    restriction_oracle,
    shift_factorization,
    span_closure_dimension,
    spin_route,
    sympy_invariant_factors,
    sympy_smith_diagonal,
    unit_partition_by_ranks,
    unit_split,
    zeros,
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


# Jordan data of A for ``grow_unit_blocks``: blocks without the eigenvalue 1
# (repeated eigenvalues, -1, non-integer rationals), unit block sizes, padding
jordan_growth_data = st.tuples(
    st.lists(
        st.tuples(
            st.sampled_from([Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)]),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=3,
    ),
    st.lists(st.integers(min_value=1, max_value=4), max_size=3),
    st.integers(min_value=0, max_value=4),
)


# Jordan data with unit blocks and a non-integer eigenvalue, so that d > 1
rational_jordan_data = st.lists(
    st.tuples(st.sampled_from(["1", "1/2", "-2/3", "3"]), st.integers(min_value=1, max_value=3)),
    min_size=1,
    max_size=4,
).filter(lambda data: any("/" in eigenvalue for eigenvalue, _ in data))


def _transpose(m: QMatrix) -> QMatrix:
    return QMatrix.from_rows([m.entries[i :: m.cols] for i in range(m.cols)])


def _rational_block(shape: tuple[int, int]):
    """Matrices of the given shape with small rational entries, some rows zero."""
    rows, cols = shape
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4))
    row = st.one_of(st.just([Fraction(0)] * cols), st.lists(entry, min_size=cols, max_size=cols))
    return st.lists(row, min_size=rows, max_size=rows).map(
        lambda r: QMatrix(rows, cols, tuple(x for line in r for x in line))
    )


# square matrices up to 4x4 with small rational entries, some rows zero
square_rational_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: _rational_block((n, n))
)

# factors up to 4x5 @ 5x3, empty shapes included
product_factors = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
).flatmap(lambda s: st.tuples(_rational_block(s[:2]), _rational_block(s[1:])))


class TestQMatrix:
    def test_arithmetic_roundtrip(self):
        a = QMatrix.from_rows([[1, 2], [3, 4]])
        b = QMatrix.from_rows([["1/2", 0], [1, "-2"]])
        assert (a + b) - b == a
        assert a @ QMatrix.identity(2) == a

    def test_inverse_exact(self):
        a = QMatrix.from_rows([[1, 2], [3, 5]])
        assert a @ a.inverse() == QMatrix.identity(2)
        with pytest.raises(InvalidMonodromyError):
            QMatrix.from_rows([[1, 2], [2, 4]]).inverse()

    def test_entries_from_a_list_are_stored_as_a_tuple(self):
        entries = [Fraction(2), Fraction(3)]
        m = QMatrix(1, 2, entries)
        assert m == QMatrix.from_rows([[2, 3]])
        assert hash(m) == hash(QMatrix.from_rows([[2, 3]]))
        entries[0] = Fraction(5)  # the caller's list is not the matrix's
        assert m.entries == (Fraction(2), Fraction(3))
        assert m @ QMatrix.identity(2) == QMatrix.from_rows([[2, 3]])

    def test_shape_errors(self):
        a = QMatrix.from_rows([[1, 2]])
        with pytest.raises(DimensionMismatchError):
            a + QMatrix.identity(2)
        with pytest.raises(DimensionMismatchError):
            a @ a

    @settings(max_examples=80, deadline=None)
    @given(product_factors)
    @example((zeros(0, 3), zeros(3, 0)))
    @example((zeros(3, 0), zeros(0, 3)))
    def test_product_agrees_with_sympy(self, factors):
        from sympy import Matrix

        a, b = factors
        product = a @ b
        oracle = Matrix(a.rows, a.cols, list(a.entries)) * Matrix(b.rows, b.cols, list(b.entries))
        assert (product.rows, product.cols) == oracle.shape
        assert list(product.entries) == list(oracle)
        assert product == loop_matmul(a, b)

    def test_empty_matrix_is_legal(self):
        empty = zeros(0, 0)
        assert empty @ empty == empty
        assert empty.inverse() == empty
        assert matrix_rank(empty) == 0

    def test_serialization_roundtrip(self):
        a = QMatrix.from_rows([["1/2", -3], [0, "7/3"]])
        assert _bounded_matrix(matrix_to_json(a)) == a
        assert matrix_to_json(a)[0][0] == "1/2"
        assert matrix_to_json(QMatrix.from_rows([[-4]])) == [["-4"]]
        assert parse_rational("-3/6") == Fraction(-1, 2)
        assert parse_rational("+4/2") == 2

    def test_rational_pairs_are_in_lowest_terms(self):
        assert rational_pair("-6/4") == (-3, 2)
        assert rational_pair("+4/2") == (2, 1)
        assert rational_pair("0/7") == (0, 1)
        assert rational_pair(Fraction(3, 6)) == (1, 2)
        assert rational_pair(-5) == (-5, 1)
        with pytest.raises(ValueError, match="^not a p/q rational: True$"):
            rational_pair(True)

    def test_rational_pair_reads_each_type_as_before(self):
        # a plain str is tested first; every other type keeps its result or
        # its message: a str subclass is read as text, a bool, a float and
        # None are refused, an int and a Fraction pass as their ratio
        class Text(str):
            pass

        assert rational_pair(Text("-3/6")) == (-1, 2) and rational_pair(Text("7")) == (7, 1)
        assert rational_pair(12) == (12, 1) and rational_pair(Fraction(-6, 4)) == (-3, 2)
        refused = [(False, "False"), (1.5, "1.5"), (None, "None"), (Text("x"), "'x'")]
        for value, quoted in [*refused, (b"1", "b'1'")]:
            with pytest.raises(ValueError) as caught:
                rational_pair(value)
            assert str(caught.value) == f"not a p/q rational: {quoted}"

    def test_matrix_from_json_rejects_garbage(self):
        with pytest.raises(ValueError, match="^bad matrix entry: ragged rows in matrix literal$"):
            _bounded_matrix([["1", "2"], ["3"]])
        with pytest.raises(ValueError, match="^matrix must be a JSON array of row arrays$"):
            _bounded_matrix("nope")
        with pytest.raises(ValueError, match="^bad matrix entry: zero denominator in '1/0'$"):
            _bounded_matrix([["1/0"]])
        # a bad entry is reported before a later ragged row
        with pytest.raises(ValueError, match="^bad matrix entry: not a p/q rational: 'x'$"):
            _bounded_matrix([["x", "2"], ["3"]])

    def test_quotes_of_input_are_bounded(self):
        # up to 60 characters a quote is repr itself; past them, its start and length
        assert shorten(repr("1/0")) == "'1/0'"
        assert shorten(repr(True)) == "True"
        assert shorten(repr("x" * 58)) == repr("x" * 58)
        assert shorten(repr("x" * 59)) == "'" + "x" * 59 + "... (61 characters)"
        assert shorten(repr([[1, 2]] * 100)) == repr([[1, 2]] * 100)[:60] + "... (800 characters)"
        # an int past the int-to-text digit limit is written all the same
        assert shorten(rational_text(10**5000)) == "1" + "0" * 59 + "... (5001 characters)"
        with pytest.raises(ValueError, match=r"^not a p/q rational: '1/x{57}\.\.\. \(200004 "):
            rational_pair("1/" + "x" * 200000)
        with pytest.raises(ValueError, match=r"^zero denominator in '1/0{57}\.\.\. \(4004 "):
            rational_pair("1/" + "0" * 4000)

    def test_quotes_are_bounded_in_bytes(self):
        # at most 60 UTF-8 bytes, cut on a character boundary; the length in characters
        assert shorten(repr("\u20ac" * 19)) == repr("\u20ac" * 19)
        assert shorten(repr("\u20ac" * 20)) == "'" + "\u20ac" * 19 + "... (22 characters)"
        assert shorten("\u00e9" * 30) == "\u00e9" * 30
        assert shorten("x" + "\u00e9" * 30) == "x" + "\u00e9" * 29 + "... (31 characters)"
        # a lone surrogate, as from an undecodable argument, counts as the escape stderr writes
        assert shorten("\udcff" * 10) == "\udcff" * 10
        assert shorten("\udcff" * 11) == "\\udcff" * 10 + "... (11 characters)"
        assert shorten("x" * 100, 10) == "x" * 10 + "... (100 characters)"


# a shape up to 4 x 4 (0 x 0 and 1 x 1 included) and the entries of two
# matrices A and B of that shape, numerators and denominators up to 2^70
_wide_fractions = st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70))
_canonical_entries = st.one_of(
    st.just(Fraction(0)), st.integers(-3, 3).map(Fraction), _wide_fractions
)


def _entry_lists(shape: tuple[int, int]):
    size = shape[0] * shape[1]
    return st.lists(_canonical_entries, min_size=size, max_size=size)


same_shape_pairs = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda shape: st.tuples(st.just(shape), _entry_lists(shape), _entry_lists(shape))
)


# Entries in lowest terms: zeros, both signs, long numerators, and
# denominators that share factors (4, 6, 12), are coprime (9, 35) or are large.
_lowest_terms_entries = st.builds(
    Fraction,
    st.one_of(st.integers(-30, 30), st.integers(-(2**70), 2**70)),
    st.sampled_from([1, 2, 3, 4, 6, 9, 10, 12, 35, 2**61 - 1, 2**64]),
)
lowest_terms_rows = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(_lowest_terms_entries, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


class TestCanonicalForm:
    """A matrix is stored as dA and d > 0 with gcd(d, content(dA)) = 1, so
    it has one stored form, whatever built it."""

    @settings(max_examples=150, deadline=None)
    @given(same_shape_pairs)
    @example(((0, 0), [], []))
    @example(((1, 1), [Fraction(1, 2**70)], [Fraction(-3)]))
    @example(((1, 1), [Fraction(0)], [Fraction(2**70 - 1, 2**70)]))
    @example(((2, 2), [Fraction(1, 6), Fraction(1, 10), 0, Fraction(1, 15)], [Fraction(0)] * 4))
    def test_one_stored_form(self, case):
        (rows, cols), a_entries, b_entries = case
        a, b = QMatrix(rows, cols, a_entries), QMatrix(rows, cols, b_entries)
        d = a.denominator
        assert d > 0 and gcd(d, *(x for row in a.numerators for x in row)) == 1
        assert [len(row) for row in a.numerators] == [cols] * rows
        assert [x for row in a.numerators for x in row] == [x * d for x in a_entries]
        assert a.entries == tuple(a_entries)
        built = [
            QMatrix(rows, cols, [str(x) for x in a_entries]),
            QMatrix(rows, cols, [x.numerator if x.denominator == 1 else x for x in a_entries]),
            QMatrix(rows, cols, a.entries),
            a @ QMatrix.identity(cols),
            QMatrix.identity(rows) @ a,
            (a + b) - b,
        ]
        if rows == cols:
            built.append(block_diag([a]))
            if (a - QMatrix.identity(rows)).is_invertible():  # im(A - 1) is everything
                built.append(restrict_to_image(a))
            if a.is_invertible():
                built.append(a.inverse().inverse())
        for m in built:
            assert m == a and hash(m) == hash(a)
            assert (m.numerators, m.denominator) == (a.numerators, d)
            assert all(type(x) is int for row in m.numerators for x in row)

    @settings(max_examples=150, deadline=None)
    @given(lowest_terms_rows)
    @example([[Fraction(0)]])
    @example([[Fraction(1, 6), Fraction(-1, 10)], [Fraction(0), Fraction(1, 15)]])
    @example([[Fraction(3, 4), Fraction(-5, 4)], [Fraction(7, 2), Fraction(0)]])
    def test_lowest_terms_over_their_lcm_are_canonical(self, rows):
        # r^a exactly dividing the lcm exactly divides some entry's q, whose
        # p r does not divide: read entries store what one gcd would leave
        scale = lcm(*(x.denominator for row in rows for x in row))
        numerators = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
        divided = QMatrix._integral(len(rows), len(rows[0]), numerators, scale)
        read = QMatrix.from_rows([[str(x) for x in row] for row in rows])
        assert (read.numerators, read.denominator) == (divided.numerators, divided.denominator)

    def test_integer_producers_are_canonical(self):
        half = QMatrix.from_rows([["1/2", 0], [0, "1/2"]])
        assert (half @ half.inverse()).denominator == 1
        assert half - half == zeros(2, 2) and (half - half).denominator == 1
        assert (half + half).numerators == ((1, 0), (0, 1)) and (half + half).denominator == 1
        assert jordan_block(2, "-2/4").numerators == ((-1, 2), (0, -1))
        assert jordan_block(2, "-2/4").denominator == 2


def _outcome(read, rows):
    """What ``read(rows)`` gives: the stored matrix and its recorded height,
    or the class and message of what it raised."""
    try:
        matrix = read(rows)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return matrix.rows, matrix.cols, matrix.numerators, matrix.denominator, matrix._height


def _oracle_height(rows) -> QMatrix:
    """The oracle's matrix with the height of its pairs, the largest |p| or
    q, recorded by hand."""
    matrix, pairs = read_rows_oracle(rows)
    vars(matrix)["_height"] = max((max(abs(p), q) for p, q in pairs), default=1)
    return matrix


def _bounded_oracle(rows) -> QMatrix:
    """``local_systems._bounded_matrix`` on rows of at most 16 x 16 entries,
    read entry by entry: the oracle, then the bound on its pairs."""
    try:
        matrix = _oracle_height(rows)
    except ValueError as exc:
        raise ValueError(f"bad matrix entry: {exc}") from exc
    if matrix._height.bit_length() > 256:
        raise ValueError("a matrix entry has a numerator or denominator of more than 256 bits")
    return matrix


# The near misses of the p/q grammar, each of which int() or a looser reader
# might take, and a 4301-digit integer, one digit past what int() reads.
NEAR_MISSES = (" 3", "1_0", "1,2", "1/0", "1/", "\u0663", "", "-", "+-1", "1/-2", "1/2/3", "3\n")
TOO_LONG = "7" * 4301
_digits = st.integers(0, 10**80).map(str) | st.sampled_from(["0", "007", str(2**256), str(2**257)])
grammar_entries = st.builds(
    lambda sign, p, q: f"{sign}{p}" if q is None else f"{sign}{p}/{q}",
    st.sampled_from(["", "+", "-"]),
    _digits,
    st.none() | _digits,
)
reader_entries = st.one_of(
    grammar_entries,
    st.sampled_from([*NEAR_MISSES, TOO_LONG, f"{2**300}/{2**300}", f"{3 * 2**256}/3"]),
    st.integers(-(2**260), 2**260),
    st.fractions(max_denominator=10**6),
    st.booleans(),
)


@st.composite
def reader_rows(draw, entries=reader_entries):
    """Up to 4 x 4 entries, grammar strings mostly; a row is cut short or
    made longer now and then, so some matrices are ragged."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    strings = draw(st.booleans())
    entry = grammar_entries if strings else entries
    matrix = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows and draw(st.integers(0, 5)) == 0:
        i = draw(st.integers(0, rows - 1))
        matrix[i] = matrix[i][1:] if draw(st.booleans()) else [*matrix[i], draw(entry)]
    row = matrix[draw(st.integers(0, rows - 1))] if rows else []
    if row and draw(st.integers(0, 3)) == 0:
        row[draw(st.integers(0, len(row) - 1))] = draw(entries)
    return matrix


class TestOnePatternReader:
    """``QMatrix.from_rows`` reads a matrix of ``p/q`` strings with one match
    of the grammar over the entries joined by commas; the entry-by-entry
    read (``support.read_rows_oracle``) is its oracle, for the stored matrix
    and for each error's class, message and order."""

    @settings(max_examples=400, deadline=None)
    @given(reader_rows())
    @example([["1,2"]])
    @example([["1", "2,3"], ["4", "5"]])
    @example([["1/2,3"]])
    @example([[TOO_LONG, "1/0"]])
    @example([["1/2", TOO_LONG]])
    @example([["x", "2"], ["3"]])
    @example([["1", "2"], ["3"]])
    @example([["1", "2"], ["3", 4]])
    @example([[True]])
    @example([[Fraction(1, 3), "2/6"]])
    @example([["\u0663"]])
    @example([[" 3"]])
    @example([[""]])
    @example([])
    def test_from_rows_reads_as_the_oracle(self, rows):
        assert _outcome(QMatrix.from_rows, rows) == _outcome(_oracle_height, rows)
        flat = [x for row in rows for x in row]
        assert _outcome(lambda r: QMatrix(1, len(flat), flat), rows) == _outcome(
            _oracle_height, [flat]
        )

    @settings(max_examples=300, deadline=None)
    @given(reader_rows())
    @example([[f"{2**256}/3", "1"]])
    @example([[f"{2**256 - 1}/3", "1"]])
    @example([[f"{2**300}/{2**300}"]])
    @example([[f"-{2**256}"]])
    @example([[2**256]])
    @example([["1/3", "1/5"], ["1/7", TOO_LONG]])
    def test_bounded_matrix_reads_as_the_oracle(self, rows):
        assert _outcome(local_systems._bounded_matrix, rows) == _outcome(_bounded_oracle, rows)

    @settings(max_examples=200, deadline=None)
    @given(reader_rows())
    @example([["1,2"]])
    @example([["1", "2,3"], ["4", "5"]])
    def test_int_reads_only_the_grammar(self, rows):
        # int() takes " 3", "1_0" and "\u0663" as numbers: the one pass hands it
        # only entries that the grammar, joined by commas, matched one by one
        seen, read = [], int

        def recording(value, *args):
            if isinstance(value, str):
                seen.append(value)
            return read(value, *args)

        exact_linalg.int = recording
        try:
            _outcome(QMatrix.from_rows, rows)
        finally:
            del exact_linalg.int
        assert all(re.fullmatch(r"[+-]?[0-9]+", text) for text in seen)

    def test_each_entry_is_read_once(self, monkeypatch):
        # a 256-bit document's entries, all p/q, each through rational_pair
        # once: their height is recorded in the same read
        read, calls = exact_linalg.rational_pair, []
        monkeypatch.setattr(exact_linalg, "rational_pair", lambda v: calls.append(v) or read(v))
        part = 2**255 + 1
        rows = [[f"-{part + i}/{part + 2 * j}" for j in range(4)] for i in range(4)]
        matrix = local_systems._bounded_matrix(rows)
        assert len(calls) == 16 and matrix._height == part + 6
        assert matrix == read_rows_oracle(rows)[0]


P = exact_linalg._PRIME  # 2^19 - 1, the irreducibility certificate's modulus


class TestInvertible:
    """``is_invertible`` against the ``Fraction`` rank, on matrices whose
    determinant, or a denominator, is divisible by the certificate's prime
    P as well as on ordinary ones."""

    CASES = [
        QMatrix.from_rows([[1, 2], [2, 4]]),  # singular over Q
        QMatrix.from_rows([[1, "1/2", 3], [2, 1, 6], [0, 5, "-7/3"]]),  # singular over Q
        zeros(3, 3),
        diagonal([P, 1]),  # invertible over Q, singular mod P
        QMatrix.from_rows([[1, 1], [1, 1 + P]]),  # determinant P
        diagonal([f"1/{P}", 1]),  # denominator divisible by P, invertible
        QMatrix.from_rows([[f"1/{P}", f"2/{P}"], [1, 2]]),  # the same, singular
        QMatrix.from_rows([[f"1/{P}", 3], ["2/5", 1]]),  # the same, invertible
        QMatrix.from_rows([["3/4", -2], [5, "1/3"]]),
        zeros(0, 0),  # rank 0 of 0 rows: invertible, as the rank says
        QMatrix.from_rows([[0]]),
        QMatrix.from_rows([["-2/3"]]),
    ]
    NON_SQUARE = [
        QMatrix.from_rows([[1, 0, 0], [0, 1, 0]]),  # full row rank
        QMatrix.from_rows([[1, 0], [0, 1], [0, 0]]),  # full column rank
        zeros(0, 2),
    ]

    def test_agrees_with_exact_rank(self):
        for m in self.CASES:
            assert m.is_invertible() == (fraction_rank(m) == m.rows), m
        for m in self.NON_SQUARE:
            assert not m.is_invertible()

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(small_matrices, rational_matrices))
    def test_agrees_with_exact_rank_on_small_matrices(self, m):
        assert m.is_invertible() == (m.is_square and fraction_rank(m) == m.rows)


def _sized_matrices(max_rows: int, max_cols: int, square: bool = False):
    """Rational matrices up to max_rows x max_cols (0 x k shapes included),
    whose numerators and denominators have up to 3..256 bits, some rows zero."""

    def block(rows: int, cols: int, bits: int):
        entry = st.one_of(
            st.just(Fraction(0)),
            st.builds(
                Fraction,
                st.integers(-(2**bits) + 1, 2**bits - 1),
                st.integers(1, 2**bits - 1),
            ),
        )
        row = st.one_of(st.just([Fraction(0)] * cols), st.lists(entry, min_size=cols, max_size=cols))
        return st.lists(row, min_size=rows, max_size=rows).map(
            lambda r: QMatrix(rows, cols, tuple(x for line in r for x in line))
        )

    size = st.integers(min_value=0, max_value=max_rows)
    shapes = size.map(lambda n: (n, n)) if square else st.tuples(size, st.integers(0, max_cols))
    bits = st.integers(min_value=3, max_value=256)
    return st.tuples(shapes, bits).flatmap(lambda s: block(*s[0], s[1]))


class TestIntegerEchelon:
    """The fraction-free ``Echelon`` on the integer rows of dA against the
    same elimination on ``Fraction`` rows (``support.FractionEchelon``)."""

    @staticmethod
    def _matches_oracle(rows: list[list[int]], width: int) -> Echelon:
        """The ``Echelon`` of ``rows``, added one by one, after checking each
        answer of ``add``, the rank, the pivots and the reduced rows against
        the oracle and against ``_echelon``, which skips zero rows."""
        basis, oracle = Echelon(), FractionEchelon(width)
        for row in rows:
            assert basis.add(row) == oracle.add(list(map(Fraction, row)))
        common, reduced = basis.reduced_rows()
        assert (len(basis), basis.pivots) == (len(oracle), oracle.pivots)
        assert [[Fraction(x, common) for x in row] for row in reduced] == oracle.reduced_rows()
        skipped = _echelon(rows)
        assert (skipped.pivots, skipped.reduced_rows()) == (basis.pivots, (common, reduced))
        return basis

    def test_zero_vector_leaves_the_basis(self):
        assert len(self._matches_oracle([[0, 0, 0]], 3)) == 0
        basis = self._matches_oracle([[0, 2, 4], [1, 0, 3]], 3)
        before = (list(basis.pivots), basis.reduced_rows())
        assert not basis.add([0, 0, 0])
        assert not basis.add(iter([0, 0, 0]))
        assert (basis.pivots, basis.reduced_rows()) == before

    def test_an_unscaled_step_leaves_a_content_to_insert(self):
        # [1, 3] less the row [1, 1] is [0, 2]: no step scaled it, so its
        # content 2 stays until ``insert`` divides it out
        basis = self._matches_oracle([[1, 1]], 2)
        reduced = basis.reduce([1, 3])
        assert reduced == [0, 2]
        basis.insert(reduced, 1)
        oracle = self._matches_oracle([[1, 1], [1, 3]], 2)
        assert basis.pivots == oracle.pivots == [0, 1]
        assert basis.reduced_rows() == oracle.reduced_rows() == (1, [[1, 0], [0, 1]])
        assert basis._rows == oracle._rows == [[1, 1], [0, 1]]

    def test_zero_rows(self):
        assert len(self._matches_oracle([[0, 0, 0], [0, 0, 0]], 3)) == 0
        rows = [[0, 0, 0], [2, 4, 0], [0, 0, 0], [3, 6, 1], [0, 0, 0], [1, 2, -5], [0, 0, 0]]
        assert self._matches_oracle(rows, 3).pivots == [0, 2]

    def test_width_one(self):
        assert len(self._matches_oracle([[0]], 1)) == 0
        assert self._matches_oracle([[0], [-6], [0], [4]], 1).pivots == [0]
        assert self._matches_oracle([[-6]], 1).reduced_rows() == (1, [[1]])

    def test_shift_of_the_identity_is_empty(self):
        for n in (1, 2, 5):
            basis = _shift_echelon(QMatrix.identity(n))
            assert (len(basis), basis.pivots, basis.reduced_rows()) == (0, [], (1, []))
            assert len(self._matches_oracle([[0] * n] * n, n)) == 0

    @settings(max_examples=150, deadline=None)
    @given(_sized_matrices(5, 6), _sized_matrices(5, 5, square=True))
    def test_rank_pivots_and_reduced_rows_match_oracle(self, m, a):
        assert matrix_rank(m) == fraction_rank(m)
        assert shift_factorization(a) == fraction_rank_factorization(a - QMatrix.identity(a.rows))

    @settings(max_examples=100, deadline=None)
    @given(_sized_matrices(5, 5, square=True))
    def test_inverse_matches_oracle(self, m):
        expected = fraction_inverse(m)
        if expected is None:
            with pytest.raises(InvalidMonodromyError):
                m.inverse()
        else:
            assert m.inverse() == expected


def _kernel(pivots: list[int], w: QMatrix) -> QMatrix:
    """The free-variable kernel basis read off the reduced rows W, one column
    per free column, ascending."""
    free = [c for c in range(w.cols) if c not in pivots]
    rows = [
        [Fraction(row == f) - (w.entries[pivots.index(row) * w.cols + f] if row in pivots else 0)
         for f in free]
        for row in range(w.cols)
    ]
    return QMatrix(w.cols, len(free), tuple(x for row in rows for x in row))


class TestRref:
    """The rank factorization M = M[:, pivots] W of M = A - 1, from
    ``support.shift_factorization`` on A = M + 1."""

    def test_identity(self):
        pivots, w = shift_factorization(diagonal([2, 2]))
        assert pivots == [0, 1]
        assert w == QMatrix.identity(2)

    def test_zero(self):
        pivots, w = shift_factorization(QMatrix.identity(2))
        assert pivots == []
        assert (w.rows, w.cols) == (0, 2)
        assert _kernel(pivots, w) == QMatrix.identity(2)

    def test_rank_one_example(self):
        # Hand elimination: [[1,2],[2,4]] -> rref [[1,2],[0,0]], free column 1.
        m = QMatrix.from_rows([[1, 2], [2, 4]])
        pivots, w = shift_factorization(QMatrix.from_rows([[2, 2], [2, 5]]))
        assert pivots == [0]
        assert w == QMatrix.from_rows([[1, 2]])
        assert columns(m, pivots) == QMatrix.from_rows([[1], [2]])
        assert _kernel(pivots, w) == QMatrix.from_rows([[-2], [1]])

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_rank_nullity_and_annihilation(self, m):
        pivots, w = shift_factorization(m + QMatrix.identity(m.rows))
        kernel = _kernel(pivots, w)
        assert len(pivots) == w.rows == matrix_rank(m)
        assert w.rows + kernel.cols == m.cols
        assert m @ kernel == zeros(m.rows, kernel.cols)
        # the pivot columns are independent and W holds every column's coordinates
        assert matrix_rank(columns(m, pivots)) == len(pivots)
        assert columns(m, pivots) @ w == m

    @settings(max_examples=80, deadline=None)
    @given(square_rational_matrices)
    def test_kernel_agrees_with_sympy(self, m):
        from sympy import Matrix

        oracle = Matrix(m.rows, m.cols, list(m.entries))
        reduced, oracle_pivots = oracle.rref()
        pivots, w = shift_factorization(m + QMatrix.identity(m.rows))
        assert pivots == list(oracle_pivots)
        assert list(w.entries) == list(reduced[: len(pivots), :])
        assert columns(m, pivots) @ w == m
        kernel = _kernel(pivots, w)
        assert [list(columns(kernel, [j]).entries) for j in range(kernel.cols)] == [
            list(v) for v in oracle.nullspace()
        ]
        if len(pivots) == m.rows:
            assert list(m.inverse().entries) == list(oracle.inv())
        else:
            with pytest.raises(InvalidMonodromyError):
                m.inverse()


class TestCentralizer:
    def test_identity_is_everything(self):
        assert centralizer_dimension(QMatrix.identity(3)) == 9

    def test_distinct_diagonal(self):
        assert centralizer_dimension(diagonal([1, 2])) == 2

    def test_jordan_block(self):
        # Brute force on the 4-unknown system: commutants are a*I + b*N.
        assert centralizer_dimension(J2) == 2

    def test_unit_type_two_one(self):
        m = block_diag([J2, QMatrix.identity(1)])
        assert centralizer_dimension(m) == 5  # partition formula: min-sums over (2,1)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            centralizer_dimension(zeros(2, 3))

    def test_empty(self):
        assert centralizer_dimension(zeros(0, 0)) == 0

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
            is_scalar = m == diagonal([m.entries[0]] * n)
            assert (dim == n * n) == is_scalar

    def test_conjugation_invariance(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randint(1, 4)
            m = random_invertible(rng, n)
            p = random_invertible(rng, n)
            assert centralizer_dimension(conjugate(m, p)) == centralizer_dimension(m)

    def test_cyclic_certificate_matches_commutation_system(self, monkeypatch):
        # The spin of the cubes (1, 8, ..., n^3) certifies dimension n
        # without invariant factors; a matrix with rank(A - 1) = 1 that it
        # does not certify takes the closed form (n - 1)^2 + 1, also without
        # them; every other matrix falls back to them.  Derogatory matrices,
        # and cyclic ones for which the cubes are not a cyclic vector, fall
        # back unless they are 1 plus rank one.
        rng = random.Random(29)
        upper = lambda n: QMatrix.from_rows([[int(j >= i) for j in range(n)] for i in range(n)])
        cyclic = [zeros(0, 0), QMatrix.from_rows([[3]]), QMatrix.from_rows([["-1/2"]])]
        cyclic += [conjugate(jordan_block(n, 2), upper(n)) for n in range(2, 7)]
        # where e_n is an eigenvector (distinct diagonal entries, a lower
        # Jordan block) or spins to fewer than n vectors (5 + J_2(2))
        cyclic += [diagonal(range(1, n + 1)) for n in (2, 3, 5)]
        lower_jordan = [[int(i == j + 1) + 2 * (i == j) for j in range(4)] for i in range(4)]
        cyclic += [QMatrix.from_rows(lower_jordan)]
        cyclic += [block_diag([QMatrix.from_rows([[5]]), jordan_block(2, 2)])]
        cyclic += [companion(c) for c in ([1, 0], [-1, 0, 0], [1, 2, 3, 4], [0, 0, 0, 0, 1])]
        cycle = lambda n: QMatrix.from_rows(
            [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
        )
        cyclic += [cycle(n) for n in (2, 3, 4, 6)]
        # cyclic, but the cubes are an eigenvector: P diag(1, ..., n) P^-1,
        # P the identity with the cubes as its first column
        cubes_first = lambda n: QMatrix.from_rows(
            [[(i + 1) ** 3 if j == 0 else int(i == j) for j in range(n)] for i in range(n)]
        )
        blind = [conjugate(diagonal(range(1, n + 1)), cubes_first(n)) for n in (2, 3, 5)]
        # prescribed unit blocks, derogatory in 8 of 30; these and plain
        # draws take either route
        derogatory = [random_unit_mixed_matrix(rng, 6)[0] for _ in range(30)]
        drawn = [random_invertible(rng, n) for n in (2, 3, 4, 5) for _ in range(5)]
        calls = []
        original = exact_linalg.invariant_factors
        monkeypatch.setattr(
            exact_linalg, "invariant_factors", lambda m: calls.append(m) or original(m)
        )
        for m in cyclic + blind + derogatory + drawn:
            calls.clear()
            expected = commutation_centralizer_dimension(m)
            assert centralizer_dimension(m) == expected, m
            if m in cyclic:
                assert expected == m.rows and calls == []
            elif m in blind:  # the n = 2 one, conjugate to diag(1, 2), is 1 plus rank one
                assert expected == m.rows and calls == ([] if m.rows == 2 else [m])
            elif expected > m.rows:  # derogatory: no spin reaches n
                assert calls == ([] if is_pseudo_reflection(m) else [m])
        assert sum(commutation_centralizer_dimension(m) > m.rows for m in derogatory) >= 5
        assert any(m.rows > 2 and is_pseudo_reflection(m) for m in derogatory)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_rank_one_closed_form_matches_commutation_system(self, monkeypatch, n):
        # A - 1 = u w^T: pseudo-reflections diag(1, ..., 1, c), with
        # w^T u = c - 1 != 0 (c = 0 gives w^T u = -1, a singular A), and the
        # transvection J_2(1) + I, with w^T u = 0, each conjugated by random
        # unimodular matrices.  Both classes give (n - 1)^2 + 1, with neither
        # invariant factors nor a relation matrix: at n = 2 the cubes spin
        # or the closed form, from n = 3 on the closed form alone.
        rng = random.Random(n)
        bases = [diagonal([1] * (n - 1) + [c]) for c in (0, 2, -1, Fraction(5, 2))]
        bases.append(block_diag([jordan_block(2, 1), QMatrix.identity(n - 2)]))
        cases = [conjugate(m, random_unimodular(rng, n)) for m in bases for _ in range(2)]
        calls = []
        for name in ("invariant_factors", "_relation_matrix"):
            original = getattr(exact_linalg, name)
            monkeypatch.setattr(
                exact_linalg, name, lambda m, f=original, name=name: calls.append(name) or f(m)
            )
        for m in cases:
            assert is_pseudo_reflection(m)
            expected = commutation_centralizer_dimension(m)
            assert centralizer_dimension(m) == expected == (n - 1) ** 2 + 1
        assert calls == []

    def test_campaign_certificate_rarely_falls_back(self, monkeypatch):
        # The centralizer dimensions of a 100-trial seed-7 campaign are
        # certified by the spin, with at most 3 falling back to invariant
        # factors (e_n as the start fell back 21 times, all on cyclic
        # matrices), and each fallback is still right.
        fallbacks = []
        original = exact_linalg.invariant_factors
        monkeypatch.setattr(
            exact_linalg, "invariant_factors", lambda m: fallbacks.append(m) or original(m)
        )
        run_campaign(CampaignConfig(trials=100, max_rank=4, max_points=4, seed=7))
        assert len(fallbacks) <= 3
        for m in fallbacks:
            assert original(m).centralizer_dimension == commutation_centralizer_dimension(m)

    def test_large_matrix_route_matches_commutation_system(self):
        # The invariant-factor kernel, at every size 1..10, against the
        # nullity of the commutation system, reduced once by the library's
        # echelon kernel and once by sympy as A (x) I - I (x) A^T.  Per size:
        # a Jordan block conjugated by the lower unitriangular matrix of ones
        # (unit pivots), c*I (xI - A has no constant entry: the general
        # pivot), diag(1, ..., n) (the general pivot with a non-divisible
        # trailing entry), random Jordan data, and once a derogatory
        # diag(J2(c), J2(c)).
        from sympy import QQ, Matrix, eye, kronecker_product
        from sympy.polys.matrices import DomainMatrix

        def sympy_dimension(m):
            a = Matrix(m.rows, m.rows, list(m.entries))
            system = kronecker_product(a, eye(m.rows)) - kronecker_product(eye(m.rows), a.T)
            return m.rows**2 - DomainMatrix.from_Matrix(system).convert_to(QQ).rank()

        rng = random.Random(23)
        for n in range(1, 11):
            data, _ = random_jordan_data(rng, n)
            while sum(s for _, s in data) != n:
                data, _ = random_jordan_data(rng, n)
            c = rng.choice((2, -1, 3))
            lower = QMatrix.from_rows([[int(j <= i) for j in range(n)] for i in range(n)])
            cases = [
                conjugate(jordan_block(n, c), lower),
                diagonal([c] * n),
                diagonal(range(1, n + 1)),
                conjugate(jordan_from_data(data), random_invertible(rng, n)),
            ]
            if n == 4:
                cases.append(block_diag([jordan_block(2, c), jordan_block(2, c)]))
            for m in cases:
                dim = centralizer_dimension(m)
                assert dim == commutation_centralizer_dimension(m) == sympy_dimension(m)


class TestUnitStructure:
    def test_fixed_space_examples(self):
        assert fixed_space_dim(QMatrix.identity(3)) == 3
        assert fixed_space_dim(diagonal([2, 3])) == 0
        assert fixed_space_dim(J2) == 1
        with pytest.raises(InvalidMonodromyError):
            fixed_space_dim(zeros(2, 2))

    def test_partition_examples(self):
        assert invariant_factors(QMatrix.identity(2)).unit_block_sizes == (1, 1)
        assert invariant_factors(diagonal([2, 3])).unit_block_sizes == ()
        assert invariant_factors(J2).unit_block_sizes == (2,)
        m = block_diag([jordan_block(3, 1), J2, diagonal([1, 2])])
        assert invariant_factors(m).unit_block_sizes == (3, 2, 1)

    def test_partition_counts_match_fixed_space(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 5)
            m = random_invertible(rng, n)
            sizes = invariant_factors(m).unit_block_sizes
            assert len(sizes) == fixed_space_dim(m)
            shifted = m - QMatrix.identity(n)
            nilpotency = shifted
            for _ in range(n - 1):
                nilpotency = nilpotency @ shifted
            assert sum(sizes) == n - matrix_rank(nilpotency)

    def test_unit_blocks_match_prescribed_data(self):
        rng = random.Random(59)
        for _ in range(40):
            m, sizes = random_unit_mixed_matrix(rng, 6)
            found = invariant_factors(m).unit_block_sizes
            assert found == tuple(sizes) == unit_partition_by_ranks(m)

    def test_grow_unit_blocks_examples(self):
        # A = J_2(1) + diag(2): T = J_3(1) + diag(2) + I_1
        grown = invariant_factors(block_diag([J2, diagonal([2])])).grow_unit_blocks(5)
        assembled = block_diag([jordan_block(3, 1), diagonal([2, 1])])
        assert grown == invariant_factors(assembled)
        assert grown.unit_block_sizes == (3, 1)
        assert invariant_factors(diagonal([2])).grow_unit_blocks(1).invariant_factors == (
            (-2, 1),
        )
        with pytest.raises(ValueError):
            invariant_factors(J2).grow_unit_blocks(2)  # J_3(1) needs 3

    @settings(max_examples=60, deadline=None)
    @given(jordan_growth_data)
    @example(([], [], 0))
    @example(([], [1], 0))
    @example(([(Fraction(-1), 2), (Fraction(-1), 1)], [4, 4, 1], 4))
    @example(([(Fraction(2), 1)] * 3, [1], 0))  # the bottom two factors do not grow
    def test_grow_unit_blocks_matches_the_assembled_matrix(self, data):
        """The composed invariants equal sympy's Smith form of the full
        xI - T, T = non_unit + J_{s+1}(1) for each unit block s + I_padding."""
        non_unit_data, sizes, padding = data
        non_unit = jordan_from_data(non_unit_data)
        source = block_diag([non_unit, *(jordan_block(s, 1) for s in sizes)])
        assembled = block_diag(
            [non_unit, *(jordan_block(s + 1, 1) for s in sizes), QMatrix.identity(padding)]
        )
        invariants = invariant_factors(source)
        grown = invariants.grow_unit_blocks(assembled.rows)
        assert grown == sympy_invariant_factors(assembled)
        assert invariants.unit_block_sizes == tuple(sorted(sizes, reverse=True))
        assert invariants.unit_block_sizes == unit_partition_by_ranks(source)
        assert grown.unit_block_sizes == unit_partition_by_ranks(assembled)
        # the synthetic division against _pdivmod and _pmul: each factor f is
        # (x - 1)^e g, g(1) != 0, the e's are the unit blocks, and growth
        # keeps the g's, int tuples, primitive with a positive lead as f is
        x_minus_1 = (-1, 1)
        for inv in (invariants, grown):
            split = unit_split(inv)
            assert inv.unit_block_sizes == tuple(e for e, _ in reversed(split) if e)
            for (e, g), f in zip(split, inv.invariant_factors):
                power = (1,)
                for _ in range(e):
                    power = _pmul(power, x_minus_1)
                assert _pdivmod(f, power) == (g, ()) and sum(g)
                assert _pmul(g, power) == f
                assert all(type(c) is int for c in (*f, *g))
                assert primitive(g) == g and primitive(f) == f
        padding = len(grown.invariant_factors) - len(invariants.invariant_factors)
        assert [g for _, g in unit_split(grown)] == [(1,)] * padding + [
            g for _, g in unit_split(invariants)
        ]

    def test_restrict_to_image_examples(self):
        assert restrict_to_image(diagonal([2, 1])) == QMatrix.from_rows([[2]])
        assert restrict_to_image(QMatrix.identity(3)).rows == 0
        assert restrict_to_image(J2) == QMatrix.from_rows([[1]])

    def test_non_unit_part_examples(self):
        # A on im((A - 1)^n), the complement of the generalized eigenspace for 1
        assert restrict_power(QMatrix.identity(2), 2).rows == 0
        d = diagonal([2, 3])
        assert similar(restrict_power(d, 2), d)
        assert restrict_power(diagonal([1, 5]), 2) == QMatrix.from_rows([[5]])
        assert restrict_power(d, 0) == d

    def test_split_properties(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 5)
            m = random_invertible(rng, n)
            rest = restrict_power(m, n)
            assert rest.rows == n - sum(invariant_factors(m).unit_block_sizes)
            assert (rest - QMatrix.identity(rest.rows)).is_invertible()

    def test_covariance_under_conjugation(self):
        rng = random.Random(37)
        for _ in range(10):
            n = rng.randint(2, 4)
            m = random_invertible(rng, n)
            p = random_invertible(rng, n)
            mc = conjugate(m, p)
            assert similar(restrict_to_image(m), restrict_to_image(mc))
            assert similar(restrict_power(m, n), restrict_power(mc, n))


def _largest_unit_block(matrix: QMatrix) -> int:
    return max(unit_partition_by_ranks(matrix), default=0)


def _levelt_infinity(n: int) -> QMatrix:
    """C_g^-1 for the companion matrix C_g of g = (x - 1)^n: one unipotent
    Jordan block of size n, as at infinity of a Levelt tuple."""
    g = [(-1) ** (n - k) * comb(n, k) for k in range(n)]
    rows = [[int(j == i - 1) - (g[i] if j == n - 1 else 0) for j in range(n)] for i in range(n)]
    return QMatrix.from_rows(rows).inverse()


def _restriction_cases(rng: random.Random) -> list[QMatrix]:
    """The matrices of seeded tuples of rank 1..7, singular matrices, I_n
    (empty image), J_n(1), matrices with prescribed unit blocks, and 0x0."""
    cases = [zeros(0, 0)]
    for n in range(1, 8):
        cases += random_tuple(n, 2, rng.getrandbits(32)).matrices()
        cases += [QMatrix.identity(n), jordan_block(n, 1), random_unit_mixed_matrix(rng, n)[0]]
        singular = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        singular[-1] = [2 * x - y for x, y in zip(singular[0], singular[-2])] if n > 1 else [0]
        cases += [QMatrix.from_rows(singular), zeros(n, n)]
    return cases


class TestRestriction:
    def test_matches_solve_oracle(self):
        # The product W A[:, pivots] against the old route: the pivot columns
        # B of the image, then the coordinates of A B in B by sympy's solve.
        cases = _restriction_cases(random.Random(71))
        assert sum(matrix_rank(m) < m.rows for m in cases) >= 14
        for m in cases:
            e = _largest_unit_block(m)
            for power in sorted({0, 1, e, m.rows}):
                assert restrict_power(m, power) == restriction_oracle(m, power), (m, power)

    def test_largest_unit_block_power_equals_power_n(self):
        # From the largest unit block e on, the image and the row space of
        # (A - 1)^k stay put, so the RREF, the pivots and the product do too.
        rng = random.Random(79)
        cases = [random_unit_mixed_matrix(rng, 7) for _ in range(60)]
        assert {max(sizes, default=0) for _, sizes in cases} >= {0, 1, 2, 3}
        cases += [(_levelt_infinity(n), [n]) for n in range(1, 8)]
        cases += [(diagonal([2, 3, "1/2"]), []), (jordan_block(4, -1), [])]
        for m, sizes in cases:
            e = max(sizes, default=0)
            assert e == _largest_unit_block(m)
            assert restrict_power(m, e) == restrict_power(m, m.rows), m
            if e:
                assert restrict_power(m, e - 1).rows > m.rows - sum(sizes)
            else:
                assert restrict_power(m, 0) == m

    def test_full_rank_returns_the_argument(self):
        # rank((A - 1)^power) = n: the pivots are every column, W = I, and
        # W A[:, pivots] is A, returned without a product
        rng = random.Random(83)
        cases = [diagonal([2, 3, "1/2"]), jordan_block(4, -1), QMatrix.from_rows([[5]])]
        while len(cases) < 20:
            m = random_invertible(rng, rng.randint(2, 6))
            if (m - QMatrix.identity(m.rows)).is_invertible():
                cases.append(m)
        for m in cases:
            for power in (1, 2, m.rows):
                assert restrict_power(m, power) is m
                assert m == restriction_oracle(m, power)
        # rank(A - 1) < n keeps the product route
        m = block_diag([J2, QMatrix.from_rows([[3]])])
        assert restrict_to_image(m).rows == 2 and restrict_to_image(m) == restriction_oracle(m, 1)

    def test_one_elimination_per_restriction(self, monkeypatch):
        m = random_unit_mixed_matrix(random.Random(73), 6)[0]
        calls = []
        original = exact_linalg._echelon
        monkeypatch.setattr(  # each call's row width
            exact_linalg, "_echelon", lambda rows: calls.append(len(rows[0])) or original(rows)
        )
        restricted = [m]
        for _ in range(m.rows):
            restricted.append(restrict_to_image(restricted[-1]))
        assert calls == [a.rows for a in restricted[:-1]]
        # at power 0 the image is everything and the result is A itself
        assert restrict_power(m, 0) is m
        assert calls == [a.rows for a in restricted[:-1]]


class TestSimilarity:
    def test_reflexive(self):
        m = QMatrix.from_rows([[1, 2], [0, 3]])
        assert similar(m, m)

    def test_cyclic_pair(self):
        a = diagonal([1, 2])
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
            product = (1,)
            for i, f in enumerate(factors):
                assert primitive(f) == f  # primitive, with a positive lead
                if i + 1 < len(factors):
                    assert _pdivmod(factors[i + 1], f)[1] == ()
                product = _pmul(product, f)
            assert product == primitive(char_poly(m))

    def test_similar_implies_matching_invariants(self):
        rng = random.Random(53)
        for _ in range(10):
            n = rng.randint(1, 4)
            m = random_invertible(rng, n)
            mc = conjugate(m, random_invertible(rng, n))
            assert similar(m, mc)
            inv, inv_c = invariant_factors(m), invariant_factors(mc)
            assert inv.unit_block_sizes == inv_c.unit_block_sizes
            assert inv.centralizer_dimension == inv_c.centralizer_dimension

    def test_empty_matrices_similar(self):
        assert similar(zeros(0, 0), zeros(0, 0))
        assert invariant_factors(zeros(0, 0)).invariant_factors == ()


def _dense_rational(rng: random.Random, n: int) -> QMatrix:
    return QMatrix.from_rows(
        [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    )


def _kernel_cases(rng: random.Random, n: int) -> list[QMatrix]:
    """Dense rational, c*I, diag(1, ..., n), Jordan data with a repeated
    eigenvalue, conjugated and transposed, and the zero monodromy's shape: a
    dense block, unit Jordan blocks of sizes at least 2 and identity padding.

    The transpose spins each Jordan block from an eigenvector, so its Krylov
    blocks are coupled through their tails."""
    data: list = []
    while sum(size for _, size in data) != n:
        data, _ = random_jordan_data(rng, n, eigenvalue_pool=(1, 2, Fraction(-1, 2)))
    jordan = jordan_from_data(data)
    c = Fraction(rng.choice((2, -1, 3)), rng.choice((1, 2)))
    dense_size = rng.randint(0, n)
    blocks = [_dense_rational(rng, dense_size)]
    rest = n - dense_size
    while rest > 1 and rng.random() < 0.6:
        size = rng.randint(2, rest)
        blocks.append(jordan_block(size, 1))
        rest -= size
    blocks.append(QMatrix.identity(rest))
    return [
        _dense_rational(rng, n),
        diagonal([c] * n),
        diagonal(range(1, n + 1)),
        conjugate(jordan, random_invertible(rng, n)),
        QMatrix.from_rows([jordan.entries[i::n] for i in range(n)]),
        block_diag(blocks),
    ]


class TestKrylovKernel:
    def test_matches_smith_oracle(self):
        # The Krylov kernel against sympy's Smith form of the full xI - A,
        # made primitive, at every size 0..12; the factors are int tuples,
        # primitive with a positive lead, each divides the next and their
        # product is the Faddeev-LeVerrier characteristic polynomial made
        # primitive.
        rng = random.Random(61)
        for n in range(13):
            for m in _kernel_cases(rng, n) if n else [zeros(0, 0)]:
                factors = invariant_factors(m).invariant_factors
                assert factors == sympy_invariant_factors(m).invariant_factors
                product = (1,)
                for f, g in zip(factors, factors[1:]):
                    assert _pdivmod(g, f)[1] == ()
                for f in factors:
                    assert all(type(c) is int for c in f) and primitive(f) == f
                    product = _pmul(product, f)
                assert product == (primitive(char_poly(m)) if n else (1,))

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            square_rational_matrices,
            rational_jordan_data.map(jordan_from_data),
            rational_jordan_data.map(lambda data: _transpose(jordan_from_data(data))),
        ).filter(lambda m: m.denominator > 1)
    )
    def test_factors_are_primitive_over_z(self, m):
        # d > 1: int tuples with no common factor and a positive lead, each
        # dividing the next over Q, whose product is the characteristic
        # polynomial made primitive, equal to sympy's route made primitive
        factors = invariant_factors(m).invariant_factors
        assert factors and all(type(c) is int for f in factors for c in f)
        assert all(gcd(*f) == 1 and f[-1] > 0 for f in factors)
        for f, g in zip(factors, factors[1:]):
            assert _pdivmod(g, f)[1] == ()
        product = (1,)
        for f in factors:
            product = _pmul(product, f)
        assert product == primitive(char_poly(m))
        assert factors == sympy_invariant_factors(m).invariant_factors

    @staticmethod
    def smith_sizes(monkeypatch) -> list:
        """The sizes r of the relation matrices ``_smith_diagonal`` gets, as
        they come."""
        calls = []
        original = exact_linalg._smith_diagonal
        monkeypatch.setattr(
            exact_linalg, "_smith_diagonal", lambda m: calls.append(len(m)) or original(m)
        )
        return calls

    def test_smith_step_sizes_are_the_block_counts(self, monkeypatch):
        calls = self.smith_sizes(monkeypatch)
        rng = random.Random(67)
        dense = _dense_rational(rng, 8)
        assert len(invariant_factors(dense).invariant_factors) == 1
        assert calls == [1]  # nonderogatory: e_8 spins one block
        assert len(invariant_factors(jordan_block(6, "1/2")).invariant_factors) == 1
        assert calls == [1, 1]  # spun from its last basis vector, a Jordan block is one block
        assert invariant_factors(diagonal([3] * 4)).invariant_factors == ((-3, 1),) * 4
        assert invariant_factors(diagonal(["3/2"] * 4)).invariant_factors == ((-3, 2),) * 4
        assert calls == [1, 1, 4, 4]

    def test_rational_derogatory_matches_sympy(self, monkeypatch):
        # d > 1 and r >= 2: the relations of A itself, coupled through their
        # tails in the conjugate and the transpose, against sympy
        calls = self.smith_sizes(monkeypatch)
        rng = random.Random(71)
        jordan = jordan_from_data([("1/2", 2), ("1/2", 1), ("-2/3", 2), ("-2/3", 2), ("3", 1)])
        n = jordan.rows
        conjugated = conjugate(jordan, random_invertible(rng, n))
        transposed = QMatrix.from_rows([conjugated.entries[i::n] for i in range(n)])
        for m in (jordan, conjugated, transposed):
            assert m.denominator > 1
            factors = invariant_factors(m).invariant_factors
            assert factors == sympy_invariant_factors(m).invariant_factors
            assert len(factors) == 2 and all(type(c) is int for f in factors for c in f)
            assert all(primitive(f) == f for f in factors)
        assert len(calls) == 3 and min(calls) >= 2


def _poly(*coefficients: int) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, coefficients))


X, X2, X3 = _poly(0, 1), _poly(0, 0, 1), _poly(0, 0, 0, 1)


class TestSmithStep:
    """``_smith_diagonal`` on hand-built matrices that take each restart of
    its loop, against sympy's Smith form; the divisions it makes, as
    (dividend, divisor, remainder), show which way it went."""

    @staticmethod
    def divisions(monkeypatch, m: list) -> list:
        calls = []
        original = exact_linalg._pdivmod

        def recorded(a, b):
            q, r = original(a, b)
            calls.append((a, b, r))
            return q, r

        monkeypatch.setattr(exact_linalg, "_pdivmod", recorded)
        diagonal = exact_linalg._smith_diagonal([list(row) for row in m])
        assert list(map(primitive, diagonal)) == list(map(primitive, sympy_smith_diagonal(m)))
        return calls

    def test_remainder_below_the_pivot(self, monkeypatch):
        # pivot x; x^2 + 1 below it leaves 1 and the step restarts on it
        calls = self.divisions(monkeypatch, [[X, X2], [_poly(1, 0, 1), X3]])
        assert calls[0] == (_poly(1, 0, 1), X, _poly(1))

    def test_remainder_right_of_the_pivot(self, monkeypatch):
        # x^2 below the pivot x divides; x^2 + 1 right of it leaves 1
        calls = self.divisions(monkeypatch, [[X, _poly(1, 0, 1)], [X2, X3]])
        assert calls[:2] == [(X2, X, ()), (_poly(1, 0, 1), X, _poly(1))]

    def test_non_divisible_trailing_entry_is_folded(self, monkeypatch):
        # diag(x, x + 1): x does not divide x + 1, whose row is folded into
        # the pivot's, where x + 1 is then a remainder right of the pivot
        calls = self.divisions(monkeypatch, [[X, ()], [(), _poly(1, 1)]])
        assert calls[:2] == [(_poly(1, 1), X, _poly(1))] * 2

    def test_constant_pivot(self, monkeypatch):
        # the pivot 2 clears x below it; its row, x + 3, and the trailing
        # (x^2 - 3x)/2 are never divided by it
        calls = self.divisions(monkeypatch, [[_poly(3, 1), _poly(2)], [X2, X]])
        assert calls == [(X, _poly(2), ())]

    @pytest.mark.parametrize("r", [2, 3, 7])
    @pytest.mark.parametrize("last", [True, False])
    def test_diagonal_relations_divide_only_the_other_entry(self, monkeypatch, r, last):
        # diag(y - 1, ..., y - 1, (y - 1)(y - 2)), the content-free relations
        # of a pseudo-reflection: a trailing y - 1 equal to the pivot y - 1
        # takes no division, so each of the r - 1 steps divides only
        # (y - 1)(y - 2), where dividing every trailing entry took r(r - 1)/2
        entries = [(-1, 1)] * (r - 1)
        entries.insert(r - 1 if last else 0, (2, -3, 1))
        m = [[f if i == j else () for j in range(r)] for i, f in enumerate(entries)]
        calls = self.divisions(monkeypatch, m)
        assert len(calls) <= r - 1
        assert all(call == ((2, -3, 1), (-1, 1), ()) for call in calls)

    def test_relations_of_a_scalar_matrix(self, monkeypatch):
        relations = exact_linalg._relation_matrix(diagonal([3] * 4))
        assert relations == [[_poly(-3, 1) if i == j else () for j in range(4)] for i in range(4)]
        # every trailing entry equals the pivot y - 3: no division at all
        assert self.divisions(monkeypatch, relations) == []

    def test_relations_of_a_rational_scalar_matrix(self):
        # d = 2: the relations are those of A = 3/2 I, not of dA = 3 I, each
        # row the content-free int multiple of y - 3/2
        relations = exact_linalg._relation_matrix(diagonal(["3/2"] * 4))
        minus = (-3, 2)
        assert relations == [[minus if i == j else () for j in range(4)] for i in range(4)]
        assert all(type(c) is int for row in relations for f in row for c in f)


def _record_passes(patch, passes: list) -> None:
    """Append each pass of ``spans_full_algebra`` to ``passes``, as it runs:
    ``_norton_mod_p``, Norton's certificate; ``_closes_mod_p``, the closure
    mod 2^19 - 1; ``_spin`` from a vector; or ``exact_closure``, ``_spin``
    from a matrix of n^2 entries, the closure over Q.  ``patch`` is a
    ``pytest.MonkeyPatch``."""
    norton, certificate, spin = (
        exact_linalg._norton_mod_p, exact_linalg._closes_mod_p, exact_linalg._spin
    )

    def norton_certifies(generators, n):
        passes.append("_norton_mod_p")
        return norton(generators, n)

    def certify(generators, n):
        passes.append("_closes_mod_p")
        return certificate(generators, n)

    def spinning(generators, start):
        passes.append("exact_closure" if len(start) > len(generators[0]) else "_spin")
        return spin(generators, start)

    patch.setattr(exact_linalg, "_norton_mod_p", norton_certifies)
    patch.setattr(exact_linalg, "_closes_mod_p", certify)
    patch.setattr(exact_linalg, "_spin", spinning)


class TestSpanClosure:
    def test_agrees_with_sympy_closure(self, monkeypatch):
        passes = []
        _record_passes(monkeypatch, passes)
        rng = random.Random(4)
        routes = []
        for n in range(1, 9):
            for trial in range(4):
                k = rng.randint(1, 3)
                if trial % 2:
                    finite = [
                        random_fixing_subspace(rng, n, rng.randint(1, max(1, n - 1)))
                        for _ in range(k)
                    ]
                else:
                    finite = [random_invertible(rng, n) for _ in range(k)]
                product = finite[0]
                for m in finite[1:]:
                    product = product @ m
                gens = finite + [product.inverse()]
                if trial >= 2:  # entries with denominators
                    p = random_invertible(rng, n)
                    gens = [conjugate(g, p) for g in gens]
                # sympy's closure takes 17-19 s on a full span at rank 8: above
                # rank 5 support's closure mod P, which proves a full span over
                # Q when it reaches n^2, decides first, and sympy the rest
                rows = [g.numerators for g in gens]
                full = (n > 5 and closes_full_span_mod_p(rows, n, P)) or (
                    span_closure_dimension(gens) == n * n
                )
                passes.clear()
                assert spans_full_algebra(gens) == full
                # the route, from sympy's rank(A - 1): M_1 = Q needs none; a
                # pseudo-reflection decides by the spin of u, then, if that
                # reaches n, of w; otherwise, from rank 5 on, Norton's
                # certificate runs first and settles a full span or falls
                # back; the closure mod p settles every full span, and only
                # the others run exactly
                closure = [("_closes_mod_p",) if full else ("_closes_mod_p", "exact_closure")]
                if n == 1:
                    route, allowed = "none", [()]
                elif spin_route(gens):
                    route = "spin"
                    allowed = [("_spin", "_spin")] if full else [("_spin",), ("_spin", "_spin")]
                elif n < exact_linalg._NORTON_FROM:
                    route, allowed = "closure", closure
                else:
                    route = "norton"
                    allowed = [("_norton_mod_p", *tail) for tail in closure]
                    allowed += [("_norton_mod_p",)] if full else []
                assert tuple(passes) in allowed
                routes.append((route, full, tuple(passes)))
        assert 12 < [full for _, full, _ in routes].count(False) < 20
        counts = {route: [] for route in ("none", "spin", "closure", "norton")}
        for route, full, _ in routes:
            counts[route].append(full)
        assert len(counts["none"]) == 4 and all(counts["none"])
        assert len(counts["spin"]) + len(counts["closure"]) + len(counts["norton"]) == 28
        # every route is taken, and each meets a full span and a reducible set
        assert all(set(fulls) == {True, False} for r, fulls in counts.items() if r != "none")
        # Norton's certificate settles all 11 full spans it meets, at ranks 5
        # to 8; the 5 other sets there fall through to the exact closure
        norton = [passes for route, _, passes in routes if route == "norton"]
        assert norton.count(("_norton_mod_p",)) == counts["norton"].count(True) == 11
        assert len(norton) == 16

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_single_generator_needs_no_closure(self, monkeypatch, n):
        # one matrix generates Q[A], of dimension at most n < n^2 once n > 1
        passes = []
        _record_passes(monkeypatch, passes)
        rng = random.Random(n)
        cases = [QMatrix.identity(n), jordan_block(n, 2)]
        cases += [random_invertible(rng, n) for _ in range(5)]
        for m in cases:
            assert spans_full_algebra([m]) is (n <= 1)
            assert span_closure_dimension([m]) <= n
        assert passes == []


def _generator_sets(entries, reducible: bool = False, max_n: int = 6):
    """(n, the rows of k integer n x n generators) for n = 1..max_n and k = 1..4.
    A reducible set has n >= 2 and maps span(e_1, ..., e_d) into itself, for
    some 0 < d < n: its generators are zero in rows d.. of columns ..d."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2 if reducible else 1, max_n))
        d = draw(st.integers(1, n - 1)) if reducible else 0
        k = draw(st.integers(1, 4))
        generators = [
            [[0 if i >= d > j else draw(entries) for j in range(n)] for i in range(n)]
            for _ in range(k)
        ]
        return n, generators

    return build()


# entries of 2^64 and more, of either sign, and multiples of P, among small ones
wide_entries = st.one_of(
    st.integers(-3, 3),
    st.integers(2**64, 2**80),
    st.integers(-(2**80), -(2**64)),
    st.integers(-4, 4).map(lambda c: c * P),
    st.sampled_from([P - 1, 1 - P, P + 1]),
)


class TestPackedClosure:
    """The certificate, ``_closes_mod_p``, packs each vector mod P into one
    integer; ``support.closes_full_span_mod_p`` is the same closure mod P one
    entry at a time."""

    def test_modulus_is_a_mersenne_prime_of_one_digit(self):
        # the Mersenne fold needs P = 2^bits - 1; one CPython digit per residue
        assert P == 2**exact_linalg._PRIME_BITS - 1
        assert sympy.isprime(P)
        assert P < 2**sys.int_info.bits_per_digit

    @settings(max_examples=250, deadline=None)
    @given(st.one_of(_generator_sets(st.integers(-2, 2)), _generator_sets(wide_entries)))
    def test_agrees_with_the_unpacked_closure(self, case):
        n, generators = case
        assert exact_linalg._closes_mod_p(generators, n) == closes_full_span_mod_p(
            generators, n, P
        )

    @settings(max_examples=60, deadline=None)
    @given(_generator_sets(wide_entries, reducible=True))
    def test_block_triangular_sets_stall(self, case):
        n, generators = case
        assert not exact_linalg._closes_mod_p(generators, n)
        assert not closes_full_span_mod_p(generators, n, P)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_levelt_tuples_are_certified(self, monkeypatch, n):
        # irreducible (f(1) != 0), and decided by the spins alone: C_f^-1 C_g
        # is 1 plus a rank-one matrix, so neither closure runs
        passes = []
        _record_passes(monkeypatch, passes)
        for seed in range(5):
            t = levelt_tuple(n, seed)
            assert spans_full_algebra([a for _, a in t.finite_points])
        assert set(passes) == {"_spin"}

    def test_no_false_stall_in_a_campaign(self, monkeypatch):
        # the certificate stalls only where the span is not full: on the
        # reducible draws of a 100-trial seed-7 campaign, exact says False
        answers, spin = [], exact_linalg._spin

        def spinning(generators, start):
            dimension = spin(generators, start)
            if len(start) > len(generators[0]):  # the exact closure
                answers.append(dimension == len(start))
            return dimension

        monkeypatch.setattr(exact_linalg, "_spin", spinning)
        config = CampaignConfig(trials=100, max_rank=4, max_points=4, seed=7)
        assert sum(1 for _ in campaign_tuples(config)) == 100
        assert answers and not any(answers)

    def test_every_entry_p_minus_1_at_the_largest_shape(self):
        # n = MAX_RANK with 16 generators, all entries P - 1: (P - 1) J with
        # J all ones generates span(1, J).
        generators = [[[P - 1] * 16] * 16] * 16
        assert not exact_linalg._closes_mod_p(generators, 16)
        assert not closes_full_span_mod_p(generators, 16, P)

    def test_no_carry_at_the_largest_shape(self):
        # n = 16 and 16 generators with entries +-(P - 1) that map the span of
        # the odd basis vectors into itself, zero at (even row, odd column):
        # their algebra has dimension 256 - 8 * 8, that zero pattern.  The
        # stored rows' residues are arbitrary, so the largest slot reached is
        # 44 bits wide (about 1.66e13) of the 47 the bound allows, and a carry
        # out of an (even, even) slot lands in a zero one and closes the span:
        # slots 4 bits narrower fail here.
        rng, signs = random.Random(16), [P - 1, 1 - P]
        generators = [
            [[0 if i % 2 < j % 2 else rng.choice(signs) for j in range(16)] for i in range(16)]
            for _ in range(16)
        ]
        assert not exact_linalg._closes_mod_p(generators, 16)



def _reducible_families(rng: random.Random, n: int) -> dict[str, list[QMatrix]]:
    """Generator sets of rank n >= 5 whose algebra is not M_n(Q), each with
    no pseudo-reflection: block triangular (a common invariant subspace)
    conjugated so that the entries have denominators, the transposes of
    those, a direct sum, and three polynomials in the companion matrix of
    x^n - 2, irreducible by Eisenstein, whose algebra is the field
    Q(2^(1/n)), irreducible over Q but not absolutely."""
    d, k = rng.randint(1, n - 1), rng.randint(2, 4)
    p = random_invertible(rng, n)
    triangular = [conjugate(random_fixing_subspace(rng, n, d), p) for _ in range(k)]
    split = rng.randint(1, n - 1)
    direct_sum = [
        block_diag([random_invertible(rng, split), random_invertible(rng, n - split)])
        for _ in range(k)
    ]
    c = companion([-2] + [0] * (n - 1))
    field = [c, c @ c + c, c @ c @ c - QMatrix.identity(n)]
    return {
        "triangular": triangular,
        "transposed": [_transpose(m) for m in triangular],
        "direct_sum": direct_sum,
        "field": field,
    }


def _counted(counts: Counter, function):
    """``function``, counting each call under (its name, its answer); a
    ``_spin`` from a matrix of n^2 entries, the exact closure, under
    ``exact_closure`` and whether it reached n^2."""

    def counting(generators, start):
        answer = function(generators, start)
        if function.__name__ != "_spin":
            counts[function.__name__, answer] += 1
        elif len(start) > len(generators[0]):
            counts["exact_closure", answer == len(start)] += 1
        return answer

    return counting


class TestNortonCertificate:
    """``_norton_mod_p``: from rank ``_NORTON_FROM`` on, the first route of
    ``spans_full_algebra`` where no generator is a pseudo-reflection.  It
    proves that the reductions mod ``_NORTON_PRIME`` generate M_n(F_p), so
    its True must imply the closure mod that prime (``support``'s, entry by
    entry) and never meet a reducible set."""

    def test_modulus_is_a_small_prime(self):
        # the root scan tries every residue; 2^19 - 1 would cost 2^19 n steps
        assert sympy.isprime(exact_linalg._NORTON_PRIME)
        assert exact_linalg._NORTON_PRIME < 2**7
        assert exact_linalg._NORTON_FROM == 5

    @pytest.mark.parametrize("prime", [2, 3, 31, 127])
    @pytest.mark.parametrize("n", range(5, 9))
    def test_never_certifies_a_reducible_family(self, monkeypatch, prime, n):
        monkeypatch.setattr(exact_linalg, "_NORTON_PRIME", prime)
        rng = random.Random(n)
        for _ in range(5):
            families = _reducible_families(rng, n)
            for family, generators in families.items():
                assert not any(map(is_pseudo_reflection, generators)), family
                rows = [g.numerators for g in generators]
                assert not exact_linalg._norton_mod_p(rows, n), family
        assert span_closure_dimension(families["field"]) == n  # Q(2^(1/n)), not M_n(Q)

    @pytest.mark.parametrize("n", [5, 6])
    def test_reducible_families_fall_through_to_the_exact_closure(self, monkeypatch, n):
        # the routed answer is sympy's, after both certificates fail
        passes = []
        _record_passes(monkeypatch, passes)
        for family, generators in _reducible_families(random.Random(10 + n), n).items():
            passes.clear()
            assert not spans_full_algebra(generators), family
            assert span_closure_dimension(generators) < n * n
            assert passes == ["_norton_mod_p", "_closes_mod_p", "exact_closure"], family

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            _generator_sets(st.integers(-2, 2), max_n=8),
            _generator_sets(wide_entries, max_n=8),
            _generator_sets(wide_entries, reducible=True, max_n=8),
        )
    )
    def test_certifies_only_full_spans_mod_its_prime(self, case):
        n, generators = case
        if exact_linalg._norton_mod_p(generators, n):
            assert closes_full_span_mod_p(generators, n, exact_linalg._NORTON_PRIME)

    def test_certifies_most_dense_tuples(self):
        # cyclic theta and a root of chi in F_p are both likely, and a dense
        # irreducible tuple rarely reduces to a reducible one mod p
        certified = []
        for n in range(5, 13):
            for seed in range(10):
                rows = [a.numerators for _, a in random_tuple(n, 2 + seed % 3, seed).finite_points]
                assert exact_linalg._closes_mod_p(rows, n)
                certified.append(exact_linalg._norton_mod_p(rows, n))
        assert certified.count(False) <= 5

    def test_forced_fallbacks_keep_the_answers_and_bytes(self, monkeypatch, capsys, tmp_path):
        # Each fallback, forced by a small prime: the same exit codes and
        # bytes.  Documents: dense tuples of rank 5 to 8 and a reducible rank-6 one
        # (block triangular, conjugated), and a campaign up to rank 8
        rng = random.Random(44)
        documents = [tuple_to_json(random_tuple(n, 3, n)) for n in range(5, 9)]
        p = random_invertible(rng, 6)
        reducible = [conjugate(random_fixing_subspace(rng, 6, 2), p) for _ in range(3)]
        documents.append(tuple_to_json(monodromy_tuple(6, list(enumerate(reducible)))))
        paths = []
        for i, payload in enumerate(documents):
            del payload["infinity_matrix"]
            paths.append(tmp_path / f"{i}.json")
            paths[-1].write_text(json.dumps(payload))
        commands = [("rig",), ("fourier",), ("verify", "--force")]
        campaign = ("verify", "--random", "--trials", "40", "--max-rank", "8", "--seed", "7")
        outputs, routes = [], []
        for norton_prime, bits in ((None, None), (2, None), (2, 2)):
            if norton_prime:
                monkeypatch.setattr(exact_linalg, "_NORTON_PRIME", norton_prime)
            if bits:
                monkeypatch.setattr(exact_linalg, "_PRIME_BITS", bits)
                monkeypatch.setattr(exact_linalg, "_PRIME", (1 << bits) - 1)
            decided = Counter()
            with pytest.MonkeyPatch.context() as patch:
                for name in ("_norton_mod_p", "_closes_mod_p", "_spin"):
                    counted = _counted(decided, getattr(exact_linalg, name))
                    patch.setattr(exact_linalg, name, counted)
                runs = [main(list(campaign))]
                for path in paths:
                    runs += [main([*command, "--input", str(path)]) for command in commands]
            outputs.append((runs, capsys.readouterr()))
            routes.append(decided)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        # at p = 31 Norton's certificate fails only on the reducible
        # document, once per command, and the exact closure says False
        assert routes[0]["_norton_mod_p", False] == routes[0]["exact_closure", False] == 3
        assert routes[0]["_norton_mod_p", True] > 20 and not routes[0]["exact_closure", True]
        # mod 2 it fails on full spans too, which the closure mod 2^19 - 1
        # settles; with that prime 3, the closure stalls on one, which the
        # exact closure settles
        assert routes[1]["_closes_mod_p", True] > routes[0]["_closes_mod_p", True]
        assert routes[2]["exact_closure", True] > 0

    @pytest.mark.parametrize("n", [5, 8])
    def test_natural_fallback_at_the_real_primes(self, monkeypatch, capsys, tmp_path, n):
        # two dense generators, no pseudo-reflection among them, on which
        # Norton's three candidates find no root mod 31: the packed closure
        # mod 2^19 - 1 settles it, and rig prints what it prints with
        # Norton's certificate never tried
        t = random_tuple(n, 2, 6)
        generators = [a for _, a in t.finite_points]
        assert all(exact_linalg._rank_one_shift(a) is None for a in generators)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(tuple_to_json(t)))
        passes, outputs = [], []
        with pytest.MonkeyPatch.context() as patch:
            _record_passes(patch, passes)
            assert spans_full_algebra(generators)
            assert passes == ["_norton_mod_p", "_closes_mod_p"]
        for norton_from in (None, 9):
            if norton_from:
                monkeypatch.setattr(exact_linalg, "_NORTON_FROM", norton_from)
            outputs.append((main(["rig", "--input", str(path)]), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and json.loads(outputs[0][1].out)["irreducible"] is True

    def test_vector_spins(self):
        # e_1 spans an invariant line of upper triangular matrices, e_n does not
        p, n = exact_linalg._NORTON_PRIME, 5
        upper = [[[(i + 2 * j) % 3 + 1 if i <= j else 0 for j in range(n)] for i in range(n)]]
        shift = [[[int(j == i + 1) for j in range(n)] for i in range(n)]]
        e1, en = [1] + [0] * (n - 1), [0] * (n - 1) + [1]
        assert not exact_linalg._spans_mod_p(upper, e1, p)
        assert exact_linalg._spans_mod_p(upper + shift, en, p)
        assert not exact_linalg._spans_mod_p(upper, [0] * n, p)

    def test_independence_continues_a_basis(self):
        # a caller's basis carries one elimination over several calls
        p, basis = 31, []
        assert exact_linalg._independent_mod_p([[1, 2, 3]], p, basis) == 1
        assert exact_linalg._independent_mod_p([[2, 4, 6 + p]], p, basis) == 1
        assert exact_linalg._independent_mod_p([[0, 0, 1], [5, 1, 0]], p, basis) == 3
        assert [pivot for pivot, _, _ in basis] == [0, 2, 1]
        assert all(row[pivot] * inverse % p == 1 for pivot, inverse, row in basis)


def _pseudo_reflection_sets(entries, reducible: bool = False, max_n: int = 6):
    """(n, generators as QMatrix) from ``_generator_sets``, with
    1 + u w^T / q, u and w nonzero and q >= 1, inserted among them.  In a
    reducible set, span(e_1, ..., e_d) stays invariant: u lies in it or w is
    zero on it.  d is read off the generators' zero block."""

    @st.composite
    def build(draw):
        n, generators = draw(_generator_sets(entries, reducible, max_n))
        d = 0
        if reducible:  # the largest d with every generator zero in rows d.. of columns ..d
            d = max(
                j
                for j in range(1, n)
                if not any(g[i][c] for g in generators for i in range(j, n) for c in range(j))
            )
        nonzero = entries.filter(bool)  # u_1 and w_n: u and w are never zero
        u = [draw(nonzero) if i < max(d, 1) else draw(entries) for i in range(n)]
        w = [draw(nonzero) if j == n - 1 else draw(entries) for j in range(n)]
        if reducible:
            if draw(st.booleans()):
                u = [x if i < d else 0 for i, x in enumerate(u)]
            else:
                w = [x if j >= d else 0 for j, x in enumerate(w)]
        q = draw(st.sampled_from([1, 2, 7, P]))
        pseudo = QMatrix._integral(
            n, n, [[q * (i == j) + u[i] * w[j] for j in range(n)] for i in range(n)], q
        )
        matrices = [QMatrix._integral(n, n, rows) for rows in generators]
        matrices.insert(draw(st.integers(0, len(matrices))), pseudo)
        return n, matrices

    return build()


class TestRankOneRoute:
    """A generator A with rank(A - 1) = 1 decides irreducibility by two spins;
    ``support.span_closure_dimension`` (sympy) is the oracle."""

    @staticmethod
    def _is_a_multiple_of_the_shift(matrix: QMatrix, u: list[int], w: list[int]) -> bool:
        """dA - dI = c u w^T for a nonzero rational c."""
        n, d, rows = matrix.rows, matrix.denominator, matrix.numerators
        shifted = [[x - d * (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
        outer = [[x * y for y in w] for x in u]
        i, j = next((i, j) for i in range(n) for j in range(n) if outer[i][j])
        c = Fraction(shifted[i][j], outer[i][j])
        return c != 0 and all(shifted[i][j] == c * outer[i][j] for i in range(n) for j in range(n))

    def test_detection(self):
        shift = exact_linalg._rank_one_shift
        for n in (2, 3, 5):
            # the identity and other scalars: rank 0 or n
            for c in (1, Fraction(-2, 3), 3):
                assert shift(diagonal([c] * n)) is None
            # J_2(1), and diagonals with one entry other than 1, first or last
            cases = [
                block_diag([jordan_block(2, 1), QMatrix.identity(n - 2)]),
                diagonal([1] * (n - 1) + [Fraction(5, 2)]),
                diagonal([-1] + [1] * (n - 1)),
            ]
            for m in cases:
                assert matrix_rank(m - QMatrix.identity(n)) == 1
                assert self._is_a_multiple_of_the_shift(m, *shift(m))
            # rank two, with a leading 2 x 2 minor that is nonzero, then zero
            assert shift(diagonal([2, 3] + [1] * (n - 2))) is None
            assert shift(diagonal([2] + [1] * (n - 2) + [3])) is None
        assert shift(jordan_block(2, 1)) == ([1, 0], [0, 1])

    # the sympy closure grows fast with n and with wide entries: n <= 4 here
    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            _pseudo_reflection_sets(st.integers(-2, 2), max_n=4),
            _pseudo_reflection_sets(st.integers(-2, 2), reducible=True, max_n=4),
            _pseudo_reflection_sets(wide_entries, max_n=4),
            _pseudo_reflection_sets(wide_entries, reducible=True, max_n=4),
        )
    )
    def test_spins_agree_with_the_closure(self, case):
        n, generators = case
        passes = []
        with pytest.MonkeyPatch.context() as patch:  # neither closure runs
            _record_passes(patch, passes)
            answer = spans_full_algebra(generators)
        assert answer == (span_closure_dimension(generators) == n * n)
        assert set(passes) <= {"_spin"}  # none at n = 1

    @settings(max_examples=40, deadline=None)
    @given(_pseudo_reflection_sets(wide_entries, reducible=True))
    def test_block_triangular_sets_are_reducible(self, case):
        _, generators = case
        assert not spans_full_algebra(generators)

    @staticmethod
    def _spun_under(patch, generators: list[QMatrix]) -> list:
        """The generator rows of each ``_spin`` that ``spans_full_algebra``
        runs on ``generators``, and its answer."""
        spin, spun = exact_linalg._spin, []

        def spinning(rows, start):
            spun.append(rows)
            return spin(rows, start)

        patch.setattr(exact_linalg, "_spin", spinning)
        return spun, spans_full_algebra(generators)

    @staticmethod
    def _one_plus(u: list[int], w: list[int]) -> QMatrix:
        """1 + u w^T."""
        rows = [[int(i == j) + x * y for j, y in enumerate(w)] for i, x in enumerate(u)]
        return QMatrix.from_rows(rows)

    @staticmethod
    def _reducible_with_reflection(rng: random.Random, n: int, k: int) -> list[QMatrix]:
        """k - 1 invertible matrices and 1 + u w^T, u in span(e_1, ..., e_d),
        all mapping span(e_1, ..., e_d) into itself, the reflection second."""
        d = rng.randint(1, n - 1)
        gens = [random_fixing_subspace(rng, n, d) for _ in range(k - 1)]
        u = [rng.choice((1, 2, -1)) if i < d else 0 for i in range(n)]
        w = [rng.randint(-2, 2) for _ in range(n - 1)] + [rng.choice((1, -2))]
        gens.insert(1, TestRankOneRoute._one_plus(u, w))
        return gens

    def test_spins_leave_out_the_reflection(self, monkeypatch):
        # The spin of u under the other generators already holds P x =
        # x + c (w^T x) u for each of its x, so it is the spin under all of
        # them; so is w's under their transposes.  Each spin runs under
        # exactly the other generators (or their transposes), and the answer
        # is sympy's closure, on: Levelt tuples (irreducible); block
        # triangular sets with the reflection, plain and conjugated
        # (reducible); three generators with the reflection in the middle;
        # and {P, Q} with Q commuting with P (reducible: Q keeps im(P - 1)).
        rng = random.Random(36)
        sets = []
        for n in range(2, 9):
            t = levelt_tuple(n, n)
            sets.append([a for _, a in t.finite_points])
        for n in range(2, 6):
            for k in (2, 3):
                gens, r = self._reducible_with_reflection(rng, n, k), random_unimodular(rng, n)
                sets += [gens, [conjugate(g, r) for g in gens]]
        for n in range(2, 6):
            u = [rng.choice((1, -1, 2)) for _ in range(n)]
            w = [rng.randint(-2, 2) for _ in range(n)]
            middle = self._one_plus(u, w)
            if is_pseudo_reflection(middle):
                sets.append([random_invertible(rng, n), middle, random_invertible(rng, n)])
        for n in range(2, 6):
            p = diagonal([3] + [1] * (n - 1))
            q = block_diag([QMatrix.from_rows([[2]]), random_invertible(rng, n - 1)])
            r = random_unimodular(rng, n)
            sets.append([conjugate(p, r), conjugate(q, r)])
        answers = []
        for gens in sets:
            n = gens[0].rows
            reflection = next(i for i, g in enumerate(gens) if is_pseudo_reflection(g))
            others = [g.numerators for i, g in enumerate(gens) if i != reflection]
            with pytest.MonkeyPatch.context() as patch:
                spun, answer = self._spun_under(patch, gens)
            assert answer == (span_closure_dimension(gens) == n * n)
            assert spun[:1] == [others] and 1 <= len(spun) <= 2
            assert spun[1:] in ([], [[list(zip(*rows)) for rows in others]])
            answers.append(answer)
        assert answers[:7] == [True] * 7  # Levelt
        assert answers[7:23] == [False] * 16  # block triangular
        assert answers[-4:] == [False] * 4  # a commuting pair
        assert len(sets) > 28 and True in answers[23:-4]  # a full span with three generators

def test_polynomial_rendering():
    # the monic multiple of the primitive int factor, each coefficient over the lead
    assert polynomial_to_string(()) == "0"
    assert polynomial_to_string((2, -3, 1)) == "x^2 - 3*x + 2"
    assert polynomial_to_string((-1, 2)) == "x - 1/2"
    assert polynomial_to_string((0, 1)) == "x"
    assert polynomial_to_string((3, 0, -2, 4)) == "x^3 - 1/2*x^2 + 3/4"
    assert polynomial_to_string((-4, 0, 0, 2)) == "x^3 - 2"


def test_jordan_block_layout():
    assert jordan_block(3, 2) == QMatrix.from_rows([[2, 1, 0], [0, 2, 1], [0, 0, 2]])
    assert block_diag([jordan_block(1, 5), QMatrix.identity(1)]) == diagonal([5, 1])


_NON_SQUARE = QMatrix(1, 2, [1, 2])


def _draw_only_zeros(monkeypatch):
    monkeypatch.setattr(local_systems, "_RANDOM_ENTRY_BOUND", 0)  # every draw is singular
    return random_tuple(2, 1, 0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda _: QMatrix(-1, 1, []),
            DimensionMismatchError,
            "matrix dimensions must be non-negative",
        ),
        (lambda _: QMatrix(2, 2, [1, 2, 3]), DimensionMismatchError, "expected 4 entries, got 3"),
        (
            lambda _: _NON_SQUARE.inverse(),
            DimensionMismatchError,
            "only square matrices can be inverted",
        ),
        (
            lambda _: block_diag([_NON_SQUARE]),
            DimensionMismatchError,
            "block_diag expects square blocks",
        ),
        (lambda _: fixed_space_dim(_NON_SQUARE), DimensionMismatchError, "matrix must be square"),
        (
            lambda _: similar(_NON_SQUARE, _NON_SQUARE),
            DimensionMismatchError,
            "similarity is defined for square matrices",
        ),
        (
            lambda _: ThetaPair(1, 1, QMatrix.identity(1), _NON_SQUARE),
            InvalidPairError,
            "v must be a dim_E x dim_F matrix",
        ),
        (_draw_only_zeros, GenerationError, "could not draw an invertible non-identity 2x2 matrix"),
    ],
    ids=[
        "negative-dimensions", "entry-count", "inverse", "block-diag", "fixed-space",
        "similar", "theta-pair", "random-draws",
    ],
)
def test_defensive_raises(monkeypatch, call, error, message):
    # checks that no computed input reaches: each raises its own error and message
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(monkeypatch)


def test_equality_with_another_type_is_left_to_it():
    assert QMatrix.identity(1).__eq__(1) is NotImplemented
    assert QMatrix.identity(1) != 1 and QMatrix.identity(1) != [[1]]
