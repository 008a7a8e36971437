"""Monodromy tuples on the projective line and their rigidity index.

A tuple stores one invertible matrix per finite singular point plus one at
infinity, subject to the product-one relation in the listed order.  The
rigidity index is (2 - #points) * n^2 plus the sum of the centralizer
dimensions; combined with irreducibility it decides physical rigidity.
The index, irreducibility and the report are read off one
``fourier.TupleAnalysis`` of the tuple.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, NamedTuple

from .errors import GenerationError, ValidationError
from .exact_linalg import (
    QMatrix,
    format_rational,
    matrix_from_json,
    matrix_to_json,
    parse_rational,
)

_RANDOM_ENTRY_BOUND = 2
_MAX_DRAWS_PER_MATRIX = 200


class FinitePoint(NamedTuple):
    location: Fraction
    matrix: QMatrix


@dataclass(frozen=True)
class MonodromyTuple:
    rank: int
    finite_points: tuple[FinitePoint, ...]
    infinity_matrix: QMatrix

    @property
    def num_finite_points(self) -> int:
        return len(self.finite_points)

    def matrices(self) -> list[QMatrix]:
        """All local monodromies, finite points first, infinity last."""
        return [p.matrix for p in self.finite_points] + [self.infinity_matrix]


@dataclass(frozen=True)
class RigidityReport:
    rank: int
    num_points: int
    centralizer_dims: tuple[int, ...]
    index: int
    irreducible: bool
    physically_rigid: bool


def monodromy_tuple(
    rank: int,
    finite_points: Iterable[tuple[Fraction | int | str, QMatrix]],
    infinity_matrix: QMatrix | None = None,
) -> MonodromyTuple:
    """Assemble a tuple; when the infinity matrix is omitted it is the exact
    inverse of the product of the finite ones, so the relation holds."""
    points = tuple(FinitePoint(parse_rational(loc), m) for loc, m in finite_points)
    if infinity_matrix is None:
        if not points:
            raise ValidationError("at least one finite singular point is required")
        product = reduce(lambda a, b: a @ b, (p.matrix for p in points))
        infinity_matrix = product.inverse()
    return MonodromyTuple(rank, points, infinity_matrix)


def validate(t: MonodromyTuple) -> None:
    """Check every structural invariant, raising with the violated one."""
    n = t.rank
    if n < 1:
        raise ValidationError("rank must be at least 1")
    if not t.finite_points:
        raise ValidationError("at least one finite singular point is required")
    for loc, m in t.finite_points:
        if m.rows != n or m.cols != n:
            raise ValidationError(
                f"matrix at point {format_rational(loc)} must be {n}x{n}"
            )
    if t.infinity_matrix.rows != n or t.infinity_matrix.cols != n:
        raise ValidationError(f"matrix at infinity must be {n}x{n}")
    for loc, m in t.finite_points:
        if not m.is_invertible():
            raise ValidationError(
                f"non-invertible matrix at point {format_rational(loc)}"
            )
    if not t.infinity_matrix.is_invertible():
        raise ValidationError("non-invertible matrix at infinity")
    locations = [loc for loc, _ in t.finite_points]
    if len(set(locations)) != len(locations):
        raise ValidationError("duplicate singular locations")
    identity = QMatrix.identity(n)
    for loc, m in t.finite_points:
        if m == identity:
            raise ValidationError(
                f"trivial local monodromy at finite point {format_rational(loc)}"
            )
    product = reduce(lambda a, b: a @ b, t.matrices())
    if product != identity:
        raise ValidationError("monodromy relation violated")


def _analysis(t: MonodromyTuple):
    # The analysis lives with the transform, which builds on this module.
    from .fourier import TupleAnalysis

    return TupleAnalysis(t)


def rigidity_index(t: MonodromyTuple) -> int:
    return _analysis(t).index


def is_irreducible(t: MonodromyTuple) -> bool:
    """Absolute irreducibility: the local monodromies generate all n x n
    matrices (see ``exact_linalg.spans_full_algebra``)."""
    return _analysis(t).irreducible


def rigidity_report(t: MonodromyTuple) -> RigidityReport:
    return _analysis(t).report


def random_tuple(rank: int, k: int, seed: int) -> MonodromyTuple:
    """Deterministic random tuple with the relation enforced exactly.

    Finite matrices draw small-integer entries, rejecting singular and
    identity draws; the matrix at infinity is the exact inverse of their
    product.  Locations are 0..k-1.
    """
    if rank < 1 or k < 1:
        raise ValueError("rank and k must be at least 1")
    rng = random.Random(seed)
    identity = QMatrix.identity(rank)
    matrices: list[QMatrix] = []
    for _ in range(k):
        for _attempt in range(_MAX_DRAWS_PER_MATRIX):
            candidate = QMatrix.from_rows(
                [
                    [rng.randint(-_RANDOM_ENTRY_BOUND, _RANDOM_ENTRY_BOUND) for _ in range(rank)]
                    for _ in range(rank)
                ]
            )
            if candidate != identity and candidate.is_invertible():
                matrices.append(candidate)
                break
        else:
            raise GenerationError(
                f"could not draw an invertible non-identity {rank}x{rank} matrix"
            )
    return monodromy_tuple(rank, [(i, m) for i, m in enumerate(matrices)])


def tuple_to_json(t: MonodromyTuple) -> dict:
    return {
        "rank": t.rank,
        "finite_points": [
            {"location": format_rational(loc), "matrix": matrix_to_json(m)}
            for loc, m in t.finite_points
        ],
        "infinity_matrix": matrix_to_json(t.infinity_matrix),
    }


def tuple_from_json(data: object) -> MonodromyTuple:
    """Parse the tuple schema, raising ValueError on any shape problem."""
    if not isinstance(data, dict):
        raise ValueError("tuple document must be a JSON object")
    if "rank" not in data or not isinstance(data["rank"], int) or isinstance(data["rank"], bool):
        raise ValueError('"rank" must be an integer')
    rank = data["rank"]
    raw_points = data.get("finite_points")
    if not isinstance(raw_points, list) or not raw_points:
        raise ValueError('"finite_points" must be a non-empty array')
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
        points.append((loc, matrix_from_json(item["matrix"])))
    infinity = data.get("infinity_matrix")
    if infinity is not None:
        return MonodromyTuple(rank, tuple(FinitePoint(*p) for p in points), matrix_from_json(infinity))
    return monodromy_tuple(rank, points)
