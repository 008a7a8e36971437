"""Everything computed about a monodromy tuple: the rigidity index and
irreducibility, and the stationary-phase local data of the Fourier transform.

The rigidity index is (2 - #points) * n^2 plus the sum of the centralizer
dimensions; with irreducibility it decides physical rigidity.  For a regular
tuple the transform keeps one exponential component per finite singular
point (slope one, coefficient equal to the location) whose regular part is
the source monodromy restricted to im(A - 1), and acquires a regular
singularity at zero whose monodromy is reconstructed as the unique minimal
pair over the monodromy at infinity with total dimension sum(n_i).
``TupleAnalysis`` computes each quantity once; the public functions are
views on it.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import HypothesisViolationError, InternalError
from .exact_linalg import (
    QMatrix,
    SimilarityInvariant,
    _cyclic_mod_p,
    _product_mod_p,
    _ProductInverse,
    _unit_free_mod_p,
    block_diag,
    centralizer_dimension,
    invariant_factors,
    jordan_block,
    matrix_to_json,
    polynomial_to_string,
    rational_text,
    restrict_to_image,
    spans_full_algebra,
)
from .local_systems import MonodromyTuple, validate


class ReducibleInputWarning(UserWarning):
    """The transform of a reducible tuple carries no preservation guarantee."""


class ExponentialComponent(NamedTuple):
    """One exponential factor at infinity: coefficient, regular part, size.
    ``TupleAnalysis.local_data`` makes the regular part A on im(A - 1):
    square of side rank(A - 1) >= 1, as ``validate`` rejects A = 1, and
    invertible, as A is and im(A - 1) is A-invariant.  Nothing to check."""

    coefficient: Fraction
    regular_monodromy: QMatrix
    dimension: int


class FourierLocalData(NamedTuple):
    """Built by ``TupleAnalysis.local_data`` only: rank_hat sums the
    component dimensions, and T at zero is block-diagonal (A_inf on its part
    without eigenvalue 1, unipotent Jordan blocks, identity padding) of side
    rank_hat, so invertible; a self-check there proves rank(T - 1) = n."""

    rank_hat: int
    zero_monodromy: QMatrix
    components: tuple[ExponentialComponent, ...]


class RigidityReport(NamedTuple):
    rank: int
    num_points: int
    centralizer_dims: tuple[int, ...]
    index: int
    irreducible: bool
    physically_rigid: bool


class PointIdentity(NamedTuple):
    point: str
    lhs: int
    rhs: int


class PreservationReport(NamedTuple):
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
    the two indices were summed from.  Invariant factors are computed at most
    once per matrix; those at infinity also give the unit Jordan blocks and
    the zero monodromy's.  A centralizer dimension is computed once per
    point and once per component, but ``preservation`` gives a component
    that is its point's matrix itself (rank(A - 1) = n, where the identity
    reads 0 = 0) the point's; equal matrices at other points are computed
    apart, and no matrix is hashed.  T on im(T - 1), if equal to A_inf, is
    similar to it without being factored.  The components are formed
    once, for ``local_data`` and ``preservation`` alike, each with no
    elimination when det(A - 1) is nonzero mod p, which makes it A itself.

    A_inf is not factored, nor a derived A_inf = P^-1 (P the finite
    matrices' product) formed over Q, for ``report`` and ``preservation``
    when one spin of its residues mod p, dA's or P's, proves it cyclic.  Its
    dimension is then n, and the zero monodromy's is n + m^2, m = rank_hat -
    n, whatever A_inf's unit Jordan block; at m = 0 only when det(A_inf - 1)
    is also nonzero mod p.  Any other outcome, whatever was computed first,
    takes the exact route for that quantity: A_inf's invariant factors, and
    for the zero monodromy those grown to rank_hat.  Neither route reads
    ``local_data``, which ``fourier`` prints: always exact, with self-checks.
    """

    def __init__(self, t: MonodromyTuple):
        validate(t)
        self.tuple = t

    def require_irreducible(self, force: bool = False) -> None:
        """The theorem's hypothesis: refuse a reducible tuple unless forced."""
        if not force and not self.irreducible:
            raise HypothesisViolationError("theorem hypothesis violated: tuple is reducible")

    @cached_property
    def irreducible(self) -> bool:
        """Whether the finite monodromies generate all n x n matrices; A_inf,
        the inverse of their product, adds nothing.  A pseudo-reflection among
        them, as C_f^-1 C_g of a Levelt tuple, decides it by two vector spins."""
        return spans_full_algebra([a for _, a in self.tuple.finite_points])

    @cached_property
    def infinity_invariants(self) -> SimilarityInvariant:
        return invariant_factors(self.tuple.infinity_matrix)

    @cached_property
    def _cyclic_residues(self) -> tuple[list[list[int]], int] | None:
        """(rows, scale) mod p, either (dA, d) of a given A_inf or the
        product (N, D) whose inverse a derived one is, when the spin of rows
        proves A_inf cyclic (dA is cyclic exactly when A is, and N exactly
        when N^-1 is); None, which proves nothing, when it falls short."""
        a = self.tuple.infinity_matrix
        rows, scale = a.product if isinstance(a, _ProductInverse) else _product_mod_p([a])
        return (rows, scale) if _cyclic_mod_p(rows) else None

    @cached_property
    def centralizer_dims(self) -> tuple[int, ...]:
        """Source centralizer dimensions, finite points first, infinity last."""
        finite = (centralizer_dimension(a) for _, a in self.tuple.finite_points)
        if self._cyclic_residues:  # A_inf is cyclic
            return (*finite, self.tuple.rank)
        return (*finite, self.infinity_invariants.centralizer_dimension)

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
        sum(n_i): the part of the infinity matrix without eigenvalue 1, its
        restriction to im((A_inf - 1)^e) with e its largest unit Jordan block
        (``restrict_to_image`` applied e times), is kept as is, each of its
        unit Jordan blocks grows by one, and 1x1 unit blocks pad it, one per
        factor with the root 1 of the grown class ``zero_invariants`` beyond
        A_inf's.  When the unit blocks fill all n, as in every Levelt tuple,
        that part is 0 x 0, read off the invariant factors with no
        restriction.  Both defining properties are checked before returning.
        """
        t = self.tuple
        n = t.rank
        unit_blocks = self.infinity_invariants.unit_block_sizes
        grown = self.zero_invariants.invariant_factors  # or NonRealizableError, before any work
        padding = sum(1 for f in grown if not sum(f)) - len(unit_blocks)  # f(1) == 0
        non_unit = QMatrix.identity(0) if sum(unit_blocks) == n else t.infinity_matrix
        for _ in range(max(unit_blocks, default=0) if non_unit.rows else 0):  # 0 x 0: no call
            non_unit = restrict_to_image(non_unit)
        blocks = [non_unit]
        blocks.extend(jordan_block(size + 1, 1) for size in unit_blocks)
        if padding:
            blocks.append(QMatrix.identity(padding))
        zero_monodromy = block_diag(blocks)

        # one elimination of T - 1: dim ker(T - 1) = rank_hat - n iff rank n
        restricted_zero = restrict_to_image(zero_monodromy)
        if restricted_zero.rows != n:
            raise InternalError("reconstruction failed the kernel-dimension check")
        similar = restricted_zero == t.infinity_matrix  # as when A_inf has no eigenvalue 1
        if not similar and invariant_factors(restricted_zero) != self.infinity_invariants:
            raise InternalError("reconstruction failed the restriction similarity check")

        return FourierLocalData(
            rank_hat=self.rank_hat,
            zero_monodromy=zero_monodromy,
            components=self.components,
        )

    @cached_property
    def components(self) -> tuple[ExponentialComponent, ...]:
        """Each finite point (c, A) as the component (c, A on im(A - 1)): A
        itself when det(A - 1) is nonzero mod p, else ``restrict_to_image``."""
        restricted = [
            (loc, a if _unit_free_mod_p(a.numerators, a.denominator) else restrict_to_image(a))
            for loc, a in self.tuple.finite_points
        ]
        return tuple(ExponentialComponent(loc, r, r.rows) for loc, r in restricted)

    @cached_property
    def rank_hat(self) -> int:
        return sum(c.dimension for c in self.components)

    @cached_property
    def zero_invariants(self) -> SimilarityInvariant:
        return self.infinity_invariants.grow_unit_blocks(self.rank_hat)

    @cached_property
    def preservation(self) -> PreservationReport:
        """Both indices, the per-point centralizer identities (finite points
        first, then the zero/infinity pairing) and the irregularity."""
        n = self.tuple.rank
        irregularity = _irregularity(self.components)
        m = self.rank_hat - n
        # A_inf cyclic has at most one unit block, of size e: T's unit part is
        # (e + 1, 1^(m - 1)), of centralizer e + m^2, beside n - e; at m = 0,
        # T = A_inf needs e = 0, that is a full rank of rows - scale 1 mod p,
        # which m < 0 denies (rank(A_inf - 1) <= rank_hat): the exact route raises
        certified = self._cyclic_residues
        if certified and m <= 0:
            certified = _unit_free_mod_p(*certified)
        if certified:
            zero_dim = n + m * m
        else:
            zero_dim = self.zero_invariants.centralizer_dimension
        rig_transformed, identities = zero_dim - irregularity, []
        for (loc, a), component, source in zip(
            self.tuple.finite_points, self.components, self.centralizer_dims
        ):
            r = component.regular_monodromy
            regular = source if r is a else centralizer_dimension(r)  # rank(A - 1) = n: 0 = 0
            rig_transformed += regular
            identities.append(
                PointIdentity(rational_text(loc), source - regular, (n - component.dimension) ** 2)
            )
        identities.append(PointIdentity("infinity", self.centralizer_dims[-1] - zero_dim, -m * m))
        return PreservationReport(
            rig_source=self.index,
            rig_fourier=rig_transformed,
            equal=self.index == rig_transformed,
            per_point_identities=tuple(identities),
            irregularity=irregularity,
        )


def rigidity_index(t: MonodromyTuple) -> int:
    return TupleAnalysis(t).index


def is_irreducible(t: MonodromyTuple) -> bool:
    """Absolute irreducibility: the local monodromies generate all n x n
    matrices (see ``exact_linalg.spans_full_algebra``)."""
    return TupleAnalysis(t).irreducible


def rigidity_report(t: MonodromyTuple) -> RigidityReport:
    return TupleAnalysis(t).report


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
        - _irregularity(data.components)
    )


def _irregularity(components: tuple[ExponentialComponent, ...]) -> int:
    """Irregularity at infinity of the endomorphism connection."""
    dims = [c.dimension for c in components]
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
    analysis.require_irreducible(force)
    return analysis.preservation, analysis.local_data


def fourier_data_to_json(analysis: TupleAnalysis) -> dict:
    """The transform's local data, as the ``fourier`` subcommand prints it."""
    data = analysis.local_data
    payload: dict = {
        "rank_hat": data.rank_hat,
        "zero_monodromy": matrix_to_json(data.zero_monodromy),
        "zero_invariant_factors": [
            polynomial_to_string(f) for f in analysis.zero_invariants.invariant_factors
        ],
        "components": [
            {
                "exp_coefficient": rational_text(c.coefficient),
                "dimension": c.dimension,
                "regular_monodromy": matrix_to_json(c.regular_monodromy),
                "centralizer_dim": centralizer_dimension(c.regular_monodromy),
            }
            for c in data.components
        ],
        "irregularity": _irregularity(data.components),
    }
    if not analysis.irreducible:
        payload["warning"] = "tuple is reducible: preservation is not asserted for this data"
    return payload


def preservation_to_json(analysis: TupleAnalysis) -> dict:
    """The index comparison, as the ``verify --input`` subcommand prints it."""
    report = analysis.preservation
    identities = [identity._asdict() for identity in report.per_point_identities]
    payload = {**report._asdict(), "per_point_identities": identities}
    if not analysis.irreducible:
        payload["warning"] = "tuple is reducible: equality is reported but not asserted"
    return payload
