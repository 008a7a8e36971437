"""Pairs of vector spaces (E, F, u: E->F, v: F->E) with invertible 1 + vu.

These pairs model germs of holonomic modules at a point.  ``from_star``
builds the middle-extension pair of an invertible monodromy matrix with
``restrict_to_image``'s elimination; minimality singles out the pairs with
no subobject or quotient concentrated at the point (v injective, u surjective).
"""

from __future__ import annotations

from .errors import InvalidMonodromyError, InvalidPairError, PairPreconditionError
from .exact_linalg import (
    QMatrix,
    _shift_echelon,
    centralizer_dimension,
    fixed_space_dim,
    matrix_rank,
)


class ThetaPair:
    """u maps E to F (a dim_F x dim_E matrix), v maps back."""

    def __init__(self, dim_E: int, dim_F: int, u: QMatrix, v: QMatrix):
        if (u.rows, u.cols) != (dim_F, dim_E):
            raise InvalidPairError("u must be a dim_F x dim_E matrix")
        if (v.rows, v.cols) != (dim_E, dim_F):
            raise InvalidPairError("v must be a dim_E x dim_F matrix")
        # det(1 + vu) = det(1 + uv) (Sylvester), so one side decides both.
        if not (QMatrix.identity(dim_E) + v @ u).is_invertible():
            raise InvalidPairError("1 + v@u must be invertible")
        self.dim_E, self.dim_F, self.u, self.v = dim_E, dim_F, u, v


def monodromy_E(pair: ThetaPair) -> QMatrix:
    return QMatrix.identity(pair.dim_E) + pair.v @ pair.u


def monodromy_F(pair: ThetaPair) -> QMatrix:
    return QMatrix.identity(pair.dim_F) + pair.u @ pair.v


def from_star(monodromy: QMatrix) -> ThetaPair:
    """Middle-extension pair: F = im(T - 1), u the corestriction, v the inclusion.

    In the basis of the pivot columns of T - 1, v is those columns, cut from
    the stored dT - dI over d, and u the nonzero rows of its RREF, both from
    the one elimination of ``restrict_to_image``, so 1 + uv is
    ``restrict_to_image(T)``."""
    if not monodromy.is_invertible():  # False for a non-square matrix too
        raise InvalidMonodromyError("monodromy matrix must be square and invertible")
    n, d, basis = monodromy.rows, monodromy.denominator, _shift_echelon(monodromy)
    (common, reduced), pivots = basis.reduced_rows(), basis.pivots
    v = [[row[p] - d * (i == p) for p in pivots] for i, row in enumerate(monodromy.numerators)]
    u = QMatrix._integral(len(pivots), n, reduced, common)
    return ThetaPair(n, len(pivots), u, QMatrix._integral(n, len(pivots), v, d))


def is_minimal(pair: ThetaPair) -> bool:
    """True when u is surjective and v is injective."""
    return matrix_rank(pair.u) == pair.dim_F and matrix_rank(pair.v) == pair.dim_F


def centralizer_identity_check(pair: ThetaPair) -> tuple[int, int]:
    """Both sides of the minimal-pair centralizer identity.

    For a nonzero minimal pair, the centralizer dimensions of the two
    monodromies differ by the square of the fixed-space dimension on E; the
    caller asserts lhs == rhs.
    """
    if pair.dim_E == 0 and pair.dim_F == 0:
        raise PairPreconditionError("the zero pair is excluded")
    if not is_minimal(pair):
        raise PairPreconditionError("pair is not minimal")
    t_e = monodromy_E(pair)
    lhs = centralizer_dimension(t_e) - centralizer_dimension(monodromy_F(pair))
    rhs = fixed_space_dim(t_e) ** 2
    return lhs, rhs

