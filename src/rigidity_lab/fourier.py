"""Stationary-phase local data of the Fourier transform and the preservation check.

For a regular tuple the transform keeps one exponential component per finite
singular point (slope one, coefficient equal to the location) whose regular
part is the source monodromy restricted to im(A - 1), and acquires a regular
singularity at zero whose monodromy is reconstructed as the unique minimal
pair over the monodromy at infinity with total dimension sum(n_i).

``TupleAnalysis`` computes everything reported about one tuple, each
quantity once; the public functions here and in ``local_systems`` are views
on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import HypothesisViolationError, NonRealizableError
from .exact_linalg import (
    QMatrix,
    block_diag,
    centralizer_dimension,
    fixed_space_dim,
    format_rational,
    jordan_block,
    matrix_to_json,
    restrict_to_image,
    similar,
    spans_full_algebra,
    split_unit_part,
    unit_block_partition,
)
from .local_systems import MonodromyTuple, RigidityReport, validate


class ReducibleInputWarning(UserWarning):
    """The transform of a reducible tuple carries no preservation guarantee."""


@dataclass(frozen=True)
class ExponentialComponent:
    """One exponential factor at infinity: coefficient, regular part, size."""

    coefficient: Fraction
    regular_monodromy: QMatrix
    dimension: int

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("component dimension must be at least 1")
        if (self.regular_monodromy.rows, self.regular_monodromy.cols) != (
            self.dimension,
            self.dimension,
        ):
            raise ValueError("regular monodromy size must match the component dimension")
        if not self.regular_monodromy.is_invertible():
            raise ValueError("regular monodromy must be invertible")


@dataclass(frozen=True)
class FourierLocalData:
    rank_hat: int
    zero_monodromy: QMatrix
    components: tuple[ExponentialComponent, ...]

    def __post_init__(self) -> None:
        if self.rank_hat != sum(c.dimension for c in self.components):
            raise ValueError("rank_hat must equal the sum of component dimensions")
        if (self.zero_monodromy.rows, self.zero_monodromy.cols) != (
            self.rank_hat,
            self.rank_hat,
        ):
            raise ValueError("zero monodromy must be rank_hat x rank_hat")
        if not self.zero_monodromy.is_invertible():
            raise ValueError("zero monodromy must be invertible")


class PointIdentity(NamedTuple):
    point: str
    lhs: int
    rhs: int


@dataclass(frozen=True)
class PreservationReport:
    rig_source: int
    rig_fourier: int
    equal: bool
    per_point_identities: tuple[PointIdentity, ...]
    irregularity: int


class TupleAnalysis:
    """Everything reported about one tuple, each quantity computed at most once.

    Construction validates the tuple.  Every other attribute is computed on
    first use and cached, so asking for the rigidity index never pays for
    the transform, and the identities reuse the centralizer dimensions that
    the two indices were summed from.
    """

    def __init__(self, t: MonodromyTuple):
        validate(t)
        self.tuple = t

    @cached_property
    def irreducible(self) -> bool:
        return spans_full_algebra(self.tuple.matrices())

    @cached_property
    def centralizer_dims(self) -> tuple[int, ...]:
        """Source centralizer dimensions, finite points first, infinity last."""
        return tuple(centralizer_dimension(m) for m in self.tuple.matrices())

    @cached_property
    def index(self) -> int:
        n = self.tuple.rank
        num_points = self.tuple.num_finite_points + 1
        return (2 - num_points) * n * n + sum(self.centralizer_dims)

    @cached_property
    def report(self) -> RigidityReport:
        return RigidityReport(
            rank=self.tuple.rank,
            num_points=self.tuple.num_finite_points + 1,
            centralizer_dims=self.centralizer_dims,
            index=self.index,
            irreducible=self.irreducible,
            physically_rigid=self.irreducible and self.index == 2,
        )

    @cached_property
    def local_data(self) -> FourierLocalData:
        """Local data of the transform.

        Each finite point (c, A) contributes the component (c, A restricted
        to im(A - 1)) of dimension rank(A - 1).  The monodromy at zero is
        assembled so that its restriction to the image of (T - 1) reproduces
        the monodromy at infinity while the ambient dimension reaches
        sum(n_i): the part of the infinity matrix without eigenvalue 1 is
        kept as is, each of its unit Jordan blocks grows by one, and the
        remainder is padded with 1x1 unit blocks.  Both defining properties
        are checked before returning.
        """
        t = self.tuple
        n = t.rank
        components = []
        for loc, a in t.finite_points:
            restricted, _ = restrict_to_image(a)
            components.append(
                ExponentialComponent(
                    coefficient=loc,
                    regular_monodromy=restricted,
                    dimension=restricted.rows,
                )
            )
        rank_hat = sum(c.dimension for c in components)

        _, non_unit = split_unit_part(t.infinity_matrix)
        partition = unit_block_partition(t.infinity_matrix)
        padding = rank_hat - n - partition.block_count
        if padding < 0:
            raise NonRealizableError(
                "non-realizable minimal pair: the sum of rank(A_i - 1) over the "
                "finite points is smaller than rank + dim ker(A_inf - 1); the "
                "tuple cannot be irreducible"
            )
        blocks = [non_unit]
        blocks.extend(jordan_block(size + 1, 1) for size in partition.sizes)
        if padding:
            blocks.append(QMatrix.identity(padding))
        zero_monodromy = block_diag(blocks)

        if fixed_space_dim(zero_monodromy) != rank_hat - n:
            raise RuntimeError("reconstruction failed the kernel-dimension check")
        restricted_zero, _ = restrict_to_image(zero_monodromy)
        if not similar(restricted_zero, t.infinity_matrix):
            raise RuntimeError("reconstruction failed the restriction similarity check")

        return FourierLocalData(
            rank_hat=rank_hat,
            zero_monodromy=zero_monodromy,
            components=tuple(components),
        )

    @cached_property
    def component_centralizer_dims(self) -> tuple[int, ...]:
        return tuple(
            centralizer_dimension(c.regular_monodromy) for c in self.local_data.components
        )

    @cached_property
    def zero_centralizer_dim(self) -> int:
        return centralizer_dimension(self.local_data.zero_monodromy)

    @cached_property
    def preservation(self) -> PreservationReport:
        """Both indices, the per-point centralizer identities (finite points
        first, then the zero/infinity pairing) and the irregularity."""
        data = self.local_data
        n = self.tuple.rank
        irregularity = irregularity_end(data)
        rig_transformed = (
            self.zero_centralizer_dim + sum(self.component_centralizer_dims) - irregularity
        )
        identities = [
            PointIdentity(format_rational(loc), source - regular, (n - component.dimension) ** 2)
            for (loc, _), component, source, regular in zip(
                self.tuple.finite_points,
                data.components,
                self.centralizer_dims,
                self.component_centralizer_dims,
            )
        ]
        identities.append(
            PointIdentity(
                "infinity",
                self.centralizer_dims[-1] - self.zero_centralizer_dim,
                -((data.rank_hat - n) ** 2),
            )
        )
        return PreservationReport(
            rig_source=self.index,
            rig_fourier=rig_transformed,
            equal=self.index == rig_transformed,
            per_point_identities=tuple(identities),
            irregularity=irregularity,
        )


def stationary_phase(t: MonodromyTuple, *, warn_reducible: bool = True) -> FourierLocalData:
    """Local data of the transform of a tuple (``TupleAnalysis.local_data``).

    Raises ``NonRealizableError`` when the minimal pair at zero cannot exist,
    and warns first when the tuple is reducible unless told not to.
    """
    analysis = TupleAnalysis(t)
    if warn_reducible and not analysis.irreducible:
        warnings.warn(
            "tuple is reducible: local data is computed, but the preservation "
            "theorem is not asserted",
            ReducibleInputWarning,
            stacklevel=2,
        )
    return analysis.local_data


def rig_fourier(data: FourierLocalData) -> int:
    """Rigidity index of the transform from its local data."""
    return (
        centralizer_dimension(data.zero_monodromy)
        + sum(centralizer_dimension(c.regular_monodromy) for c in data.components)
        - irregularity_end(data)
    )


def irregularity_end(data: FourierLocalData) -> int:
    """Irregularity at infinity of the endomorphism connection."""
    dims = [c.dimension for c in data.components]
    total = sum(dims)
    return total * total - sum(d * d for d in dims)


def preservation_details(
    t: MonodromyTuple, *, force: bool = False
) -> tuple[PreservationReport, FourierLocalData]:
    """Compare the rigidity index of a tuple with that of its transform.

    Requires irreducibility unless forced; returns the preservation report
    together with the local data it was computed from.
    """
    analysis = TupleAnalysis(t)
    if not force and not analysis.irreducible:
        raise HypothesisViolationError("theorem hypothesis violated: tuple is reducible")
    return analysis.preservation, analysis.local_data


def fourier_data_to_json(data: FourierLocalData) -> dict:
    return {
        "rank_hat": data.rank_hat,
        "zero_monodromy": matrix_to_json(data.zero_monodromy),
        "components": [
            {
                "exp_coefficient": format_rational(c.coefficient),
                "dimension": c.dimension,
                "regular_monodromy": matrix_to_json(c.regular_monodromy),
            }
            for c in data.components
        ],
    }


def preservation_report_to_json(report: PreservationReport) -> dict:
    return {
        "rig_source": report.rig_source,
        "rig_fourier": report.rig_fourier,
        "equal": report.equal,
        "per_point_identities": [
            {"point": p.point, "lhs": p.lhs, "rhs": p.rhs}
            for p in report.per_point_identities
        ],
        "irregularity": report.irregularity,
    }
