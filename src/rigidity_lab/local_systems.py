"""Monodromy tuples on the projective line: the tuple, ``validate``, seeded
random tuples and the JSON schema.

A tuple stores one invertible matrix per finite singular point plus one at
infinity, subject to the product-one relation in the listed order.  An
A_inf that is derived, not given, is the ``exact_linalg._ProductInverse`` of
the finite matrices, so the relation holds by construction and ``validate``
multiplies nothing.  What is computed about a tuple, its rigidity index
included, lives in ``fourier``.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, TextIO

from .errors import GenerationError, InvalidMonodromyError, ValidationError
from .exact_linalg import (
    QMatrix,
    _independent_mod_p,
    _ProductInverse,
    matrix_to_json,
    parse_rational,
    rational_text,
    shorten,
)

_RANDOM_ENTRY_BOUND = 2
_MAX_DRAWS_PER_MATRIX = 200

# Input bounds: the analysis costs about n^6 operations on entries whose
# size grows with the input's, and the transform's zero monodromy has side
# sum(rank(A_i - 1)) over the finite points, so these keep one input's work
# bounded.  They admit no document above 1 MB at indent=4, so a document is
# read up to 4 MiB characters and refused past that.
MAX_RANK = 16
MAX_ENTRY_BITS = 256
MAX_POINTS = 16
_MAX_DOCUMENT_CHARS = 4 << 20


class FinitePoint(NamedTuple):
    location: Fraction
    matrix: QMatrix


class MonodromyTuple(NamedTuple):
    rank: int
    finite_points: tuple[FinitePoint, ...]
    infinity_matrix: QMatrix

    @property
    def num_finite_points(self) -> int:
        return len(self.finite_points)

    def matrices(self) -> list[QMatrix]:
        """All local monodromies, finite points first, infinity last."""
        return [p.matrix for p in self.finite_points] + [self.infinity_matrix]


def monodromy_tuple(
    rank: int,
    finite_points: Iterable[tuple[Fraction | int | str, QMatrix]],
    infinity_matrix: QMatrix | None = None,
) -> MonodromyTuple:
    """Assemble a tuple.  An omitted infinity matrix is the exact inverse of
    the finite ones' product, a ``_ProductInverse``.  The product is proven
    invertible once: mod p when it has full rank there, and the inverse is
    formed on first read; else exactly, by forming the inverse at once,
    failing as ``validate`` would with A_inf given (shape, then point)."""
    points = tuple(FinitePoint(parse_rational(loc), m) for loc, m in finite_points)
    if infinity_matrix is not None:
        return MonodromyTuple(rank, points, infinity_matrix)
    _check_shapes(rank, points)
    infinity_matrix = _ProductInverse([p.matrix for p in points])
    if _independent_mod_p(infinity_matrix.product[0]) < rank:
        try:
            infinity_matrix.numerators  # forms the exact product and its inverse
        except InvalidMonodromyError:
            _check_invertible(points)
            raise  # a singular product has a singular factor, found above
    return MonodromyTuple(rank, points, infinity_matrix)


def _check_shapes(n: int, finite_points: tuple[FinitePoint, ...]) -> None:
    if n < 1:
        raise ValidationError("rank must be at least 1")
    if not finite_points:
        raise ValidationError("at least one finite singular point is required")
    for loc, m in finite_points:
        if m.rows != n or m.cols != n:
            raise ValidationError(f"matrix at point {shorten(rational_text(loc))} must be {n}x{n}")


def _check_invertible(finite_points: tuple[FinitePoint, ...]) -> None:
    for loc, m in finite_points:
        if not m.is_invertible():
            raise ValidationError(f"non-invertible matrix at point {shorten(rational_text(loc))}")


def _relation_holds(matrices: list[QMatrix]) -> bool:
    """Whether A_1 ... A_inf = 1, on the stored integers: the product of the
    (d_i A_i) against D I, D the product of the d_i, with no gcd and no
    ``QMatrix`` formed for a partial product."""
    rows, scale = matrices[0].numerators, matrices[0].denominator
    for matrix in matrices[1:]:
        columns = list(zip(*matrix.numerators))
        rows = [[sum(map(mul, row, column)) for column in columns] for row in rows]
        scale *= matrix.denominator
    return all(
        row[i] == scale and not any(row[:i]) and not any(row[i + 1 :]) for i, row in enumerate(rows)
    )


def validate(t: MonodromyTuple) -> None:
    """Check every structural invariant, raising with the violated one.  The
    shapes are always checked; the relation is checked on integers
    (``_relation_holds``) unless A_inf is the ``_ProductInverse`` of the
    finite matrices."""
    n, infinity = t.rank, t.infinity_matrix
    _check_shapes(n, t.finite_points)
    if infinity.rows != n or infinity.cols != n:
        raise ValidationError(f"matrix at infinity must be {n}x{n}")
    identity = QMatrix.identity(n)
    finite = tuple(m for _, m in t.finite_points)
    derived = isinstance(infinity, _ProductInverse) and infinity.factors == finite
    holds = derived or _relation_holds(t.matrices())
    # A product equal to 1 has factors whose determinants multiply to 1, so
    # each is invertible; only a broken relation needs the checks one by one.
    if not holds:
        _check_invertible(t.finite_points)
        if not infinity.is_invertible():
            raise ValidationError("non-invertible matrix at infinity")
    locations = [loc for loc, _ in t.finite_points]
    if len(set(locations)) != len(locations):
        raise ValidationError("duplicate singular locations")
    for loc, m in t.finite_points:
        if m == identity:
            where = shorten(rational_text(loc))
            raise ValidationError(f"trivial local monodromy at finite point {where}")
    if not holds:
        raise ValidationError("monodromy relation violated")


def random_tuple(rank: int, k: int, seed: int) -> MonodromyTuple:
    """Deterministic random tuple with the relation enforced exactly.

    Finite matrices draw small-integer entries, rejecting singular and
    identity draws; the matrix at infinity is the ``_ProductInverse`` of
    theirs, formed on first read, as the draws are already proven
    invertible.  Locations are 0..k-1.
    """
    if rank < 1 or k < 1:
        raise ValueError("rank and k must be at least 1")
    rng, bound = random.Random(seed), _RANDOM_ENTRY_BOUND
    identity = QMatrix.identity(rank)
    matrices: list[QMatrix] = []
    for _ in range(k):
        for _attempt in range(_MAX_DRAWS_PER_MATRIX):
            rows = [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(rank)]
            candidate = QMatrix._integral(rank, rank, rows)
            if candidate != identity and candidate.is_invertible():
                matrices.append(candidate)
                break
        else:
            raise GenerationError(
                f"could not draw an invertible non-identity {rank}x{rank} matrix"
            )
    points = tuple(FinitePoint(Fraction(i), m) for i, m in enumerate(matrices))
    return MonodromyTuple(rank, points, _ProductInverse(matrices))


def tuple_to_json(t: MonodromyTuple) -> dict:
    return {
        "rank": t.rank,
        "finite_points": [
            {"location": rational_text(loc), "matrix": matrix_to_json(m)}
            for loc, m in t.finite_points
        ],
        "infinity_matrix": matrix_to_json(t.infinity_matrix),
    }


def _json_int(literal: str) -> int:
    try:
        return int(literal)
    except ValueError:  # more digits than CPython reads into an int (4300 by default)
        digits = len(literal.lstrip("-"))
        raise ValueError(f"an integer of {digits} digits is too long to read") from None


_JSON_DECODER = json.JSONDecoder(parse_int=_json_int)


def _read_bounded(stream: TextIO) -> str:
    """Up to ``_MAX_DOCUMENT_CHARS + 1`` characters of ``stream``, 64 Ki at a
    time: one read of them all allocates a buffer that large for any document."""
    chunks, left = [], _MAX_DOCUMENT_CHARS + 1
    while left and (chunk := stream.read(min(left, 1 << 16))):
        chunks.append(chunk)
        left -= len(chunk)
    return "".join(chunks)


def json_document(path: str | os.PathLike[str]) -> object:
    """``json.loads`` of the UTF-8 file at ``path``, or of stdin for "-", by one
    decoder built at import, in the reader's own words for an integer too long
    for ``int`` or a document of over ``_MAX_DOCUMENT_CHARS``, read no further."""
    if path == "-":
        text = _read_bounded(sys.stdin)
    else:
        with open(path, encoding="utf-8") as file:
            text = _read_bounded(file)
    if len(text) > _MAX_DOCUMENT_CHARS:
        raise ValueError(f"a document of over {_MAX_DOCUMENT_CHARS} characters is too long to read")
    if text.startswith("\ufeff"):  # refused as json.loads refuses it
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _JSON_DECODER.decode(text)


def _bounded_matrix(data: object) -> QMatrix:
    if not isinstance(data, list) or any(not isinstance(row, list) for row in data):
        raise ValueError("matrix must be a JSON array of row arrays")
    rows, cols = len(data), len(data[0]) if data else 0  # sized before any entry is parsed
    if max(rows, cols) > MAX_RANK:
        raise ValueError(f"a {rows}x{cols} matrix is larger than {MAX_RANK}x{MAX_RANK}")
    try:
        matrix = QMatrix.from_rows(data)
    except ValueError as exc:
        raise ValueError(f"bad matrix entry: {exc}") from exc
    if matrix._height.bit_length() > MAX_ENTRY_BITS:  # read with the entries, in lowest terms
        raise ValueError(
            f"a matrix entry has a numerator or denominator of more than {MAX_ENTRY_BITS} bits"
        )
    return matrix


def tuple_from_json(data: object) -> MonodromyTuple:
    """Parse the tuple schema, raising ValueError on any shape problem, on a
    rank or a matrix side above ``MAX_RANK``, on more than ``MAX_POINTS``
    finite points and on a matrix entry whose numerator or denominator, in
    lowest terms, has more than ``MAX_ENTRY_BITS`` bits."""
    if not isinstance(data, dict):
        raise ValueError("tuple document must be a JSON object")
    if "rank" not in data or not isinstance(data["rank"], int) or isinstance(data["rank"], bool):
        raise ValueError('"rank" must be an integer')
    rank = data["rank"]
    if rank > MAX_RANK:
        quoted = shorten(rational_text(rank))
        raise ValueError(f'"rank" is {quoted}, more than the maximum {MAX_RANK}')
    raw_points = data.get("finite_points")
    if not isinstance(raw_points, list) or not raw_points:
        raise ValueError('"finite_points" must be a non-empty array')
    if len(raw_points) > MAX_POINTS:
        raise ValueError(
            f'"finite_points" has {len(raw_points)} points, more than the maximum {MAX_POINTS}'
        )
    points: list[tuple[Fraction, QMatrix]] = []
    for idx, item in enumerate(raw_points):
        if not isinstance(item, dict) or "location" not in item or "matrix" not in item:
            raise ValueError(
                f'finite point #{idx} must be an object with "location" and "matrix"'
            )
        try:
            loc = parse_rational(item["location"])
        except ValueError as exc:
            raise ValueError(f"bad location at finite point #{idx}: {exc}") from exc
        points.append((loc, _bounded_matrix(item["matrix"])))
    infinity = data.get("infinity_matrix")
    return monodromy_tuple(rank, points, None if infinity is None else _bounded_matrix(infinity))
