"""Pairs of vector spaces (E, F, u: E->F, v: F->E) with invertible 1 + vu.

These pairs model germs of holonomic modules at a point.  The three
canonical constructions build a pair from a single invertible monodromy
matrix; minimal extension and the minimality test single out the pairs with
no subobject or quotient concentrated at the point (v injective, u
surjective).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidMonodromyError, InvalidPairError, PairPreconditionError
from .exact_linalg import (
    QMatrix,
    centralizer_dimension,
    coordinates_in_basis,
    fixed_space_dim,
    matrix_rank,
    rref_decompose,
)


@dataclass(frozen=True)
class ThetaPair:
    """u maps E to F (a dim_F x dim_E matrix), v maps back."""

    dim_E: int
    dim_F: int
    u: QMatrix
    v: QMatrix

    def __post_init__(self) -> None:
        if (self.u.rows, self.u.cols) != (self.dim_F, self.dim_E):
            raise InvalidPairError("u must be a dim_F x dim_E matrix")
        if (self.v.rows, self.v.cols) != (self.dim_E, self.dim_F):
            raise InvalidPairError("v must be a dim_E x dim_F matrix")
        if not (QMatrix.identity(self.dim_E) + self.v @ self.u).is_invertible():
            raise InvalidPairError("1 + v@u must be invertible")
        if not (QMatrix.identity(self.dim_F) + self.u @ self.v).is_invertible():
            raise InvalidPairError("1 + u@v must be invertible")


def monodromy_E(pair: ThetaPair) -> QMatrix:
    return QMatrix.identity(pair.dim_E) + pair.v @ pair.u


def monodromy_F(pair: ThetaPair) -> QMatrix:
    return QMatrix.identity(pair.dim_F) + pair.u @ pair.v


def _require_invertible_monodromy(matrix: QMatrix) -> None:
    if not matrix.is_square:
        raise InvalidMonodromyError("monodromy matrix must be square")
    if not matrix.is_invertible():
        raise InvalidMonodromyError("monodromy matrix must be invertible")


def from_shriek(monodromy: QMatrix) -> ThetaPair:
    """Extension-by-zero pair: E = F, u = 1, v = T - 1."""
    _require_invertible_monodromy(monodromy)
    n = monodromy.rows
    return ThetaPair(n, n, QMatrix.identity(n), monodromy - QMatrix.identity(n))


def from_star(monodromy: QMatrix) -> ThetaPair:
    """Middle-extension pair: F = im(T - 1), u the corestriction, v the inclusion."""
    _require_invertible_monodromy(monodromy)
    n = monodromy.rows
    diff = monodromy - QMatrix.identity(n)
    _, _, basis = rref_decompose(diff)
    u = coordinates_in_basis(basis, diff)
    return ThetaPair(n, basis.cols, u, basis)


def from_full_direct_image(monodromy: QMatrix) -> ThetaPair:
    """Localized-germ pair: E = F, u = T - 1, v = 1."""
    _require_invertible_monodromy(monodromy)
    n = monodromy.rows
    return ThetaPair(n, n, monodromy - QMatrix.identity(n), QMatrix.identity(n))


def minimal_extension(pair: ThetaPair) -> ThetaPair:
    """The middle-extension pair of the same generic monodromy."""
    return from_star(monodromy_E(pair))


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

