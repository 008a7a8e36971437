"""Exact dense linear algebra over the rational numbers.

Matrices carry ``fractions.Fraction`` entries in row-major order and every
computation is exact: ranks, kernels, centralizer dimensions and similarity
invariants come out of rational elimination, never from floating point and
never from eigenvalue factorization.  All bases are the deterministic ones
produced by reduced row echelon form with leftmost pivots, so repeated runs
are bit-identical.
"""

from __future__ import annotations

import re
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, InvalidMonodromyError

# Above this size the commutation-system route (an n^2 x n^2 elimination)
# stops being reasonable and the centralizer dimension is read off the
# invariant factors instead; both routes compute the same number.
_COMMUTATION_SYSTEM_LIMIT = 8

_ZERO = Fraction(0)
_ONE = Fraction(1)

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def format_rational(value: Fraction) -> str:
    """Render ``p/q``, or just ``p`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(value: Fraction | int | str) -> Fraction:
    """Parse the ``p/q`` serialization format: an optional sign, digits and an
    optional ``/digits`` with a nonzero denominator, or a non-bool ``int``.

    Fractions pass through unchanged; anything else raises ``ValueError``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ValueError(f"not a p/q rational: {value!r}")
    numerator, denominator = match.groups()
    if denominator is not None and not int(denominator):
        raise ValueError(f"zero denominator in {value!r}")
    return Fraction(int(numerator), int(denominator or 1))


@dataclass(frozen=True)
class QMatrix:
    """Dense matrix of rationals, stored row-major and immutable."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatchError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatchError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if any(type(e) is not Fraction for e in self.entries):
            object.__setattr__(
                self, "entries", tuple(parse_rational(e) for e in self.entries)
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int | str]]) -> "QMatrix":
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        flat: list[Fraction] = []
        for row in rows:
            if len(row) != n_cols:
                raise DimensionMismatchError("ragged rows in matrix literal")
            flat.extend(parse_rational(x) for x in row)
        return cls(n_rows, n_cols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, (_ZERO,) * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence[Fraction | int | str]) -> "QMatrix":
        vals = [parse_rational(v) for v in values]
        n = len(vals)
        return cls(n, n, tuple(vals[i] if i == j else _ZERO for i in range(n) for j in range(n)))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list[Fraction]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._require_same_shape(other)
        return QMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._require_same_shape(other)
        return QMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __mul__(self, scalar: Fraction | int) -> "QMatrix":
        c = parse_rational(scalar)
        return QMatrix(self.rows, self.cols, tuple(a * c for a in self.entries))

    __rmul__ = __mul__

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, k, m = self.rows, self.cols, other.cols
        out = [_ZERO] * (n * m)
        for i in range(n):
            base = i * k
            for t in range(k):
                a = self.entries[base + t]
                if a:
                    obase = t * m
                    row = i * m
                    for j in range(m):
                        b = other.entries[obase + j]
                        if b:
                            out[row + j] += a * b
        return QMatrix(n, m, tuple(out))

    def __pow__(self, exponent: int) -> "QMatrix":
        if not self.is_square:
            raise DimensionMismatchError("only square matrices can be raised to a power")
        if exponent < 0:
            raise ValueError("negative powers are not supported; invert explicitly")
        result = QMatrix.identity(self.rows)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result @ base
            base = base @ base if e > 1 else base
            e >>= 1
        return result

    def inverse(self) -> "QMatrix":
        if not self.is_square:
            raise DimensionMismatchError("only square matrices can be inverted")
        rows = _solve(self, QMatrix.identity(self.rows))
        if rows is None:
            raise InvalidMonodromyError("matrix is singular")
        return QMatrix(self.rows, self.rows, tuple(x for row in rows for x in row))

    def is_invertible(self) -> bool:
        return self.is_square and matrix_rank(self) == self.rows

    def _require_same_shape(self, other: "QMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __str__(self) -> str:
        body = "; ".join(
            " ".join(format_rational(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"[{body}]"


def matrix_to_json(matrix: QMatrix) -> list[list[str]]:
    return [[format_rational(matrix.entry(i, j)) for j in range(matrix.cols)] for i in range(matrix.rows)]


def matrix_from_json(data: object) -> QMatrix:
    if not isinstance(data, list) or any(not isinstance(row, list) for row in data):
        raise ValueError("matrix must be a JSON array of row arrays")
    try:
        return QMatrix.from_rows(data)
    except ValueError as exc:
        raise ValueError(f"bad matrix entry: {exc}") from exc


def jordan_block(size: int, eigenvalue: Fraction | int | str = 1) -> QMatrix:
    """Jordan block with the eigenvalue on the diagonal and 1 above it."""
    lam = parse_rational(eigenvalue)
    entries = []
    for i in range(size):
        for j in range(size):
            if i == j:
                entries.append(lam)
            elif j == i + 1:
                entries.append(_ONE)
            else:
                entries.append(_ZERO)
    return QMatrix(size, size, tuple(entries))


def block_diag(blocks: Iterable[QMatrix]) -> QMatrix:
    blocks = list(blocks)
    for b in blocks:
        if not b.is_square:
            raise DimensionMismatchError("block_diag expects square blocks")
    total = sum(b.rows for b in blocks)
    out = [[_ZERO] * total for _ in range(total)]
    offset = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[offset + i][offset + j] = b.entry(i, j)
        offset += b.rows
    return QMatrix.from_rows(out)


# ---------------------------------------------------------------------------
# Elimination primitives
# ---------------------------------------------------------------------------


class Echelon:
    """Row echelon basis of a growing span of vectors of a fixed width.

    The single elimination kernel: every rank, kernel, inverse and span
    computation feeds vectors through ``add``.  Rows are kept sorted by pivot
    column with an implicit leading 1 and stored as (column, value) pairs of
    their other nonzero entries, so a new vector is reduced in one forward
    pass; stored rows are never touched again.
    """

    def __init__(self, width: int):
        self.width = width
        self.pivots: list[int] = []
        self._rows: list[list[tuple[int, Fraction]]] = []

    def __len__(self) -> int:
        return len(self.pivots)

    def add(self, vector: Iterable[Fraction]) -> bool:
        """Extend the basis by ``vector``; False when it is already in the span."""
        vec = list(vector)
        for p, row in zip(self.pivots, self._rows):
            f = vec[p]
            if f:
                vec[p] = _ZERO
                for j, x in row:
                    vec[j] -= f * x
        pivot = next((j for j, x in enumerate(vec) if x), None)
        if pivot is None:
            return False
        inv = _ONE / vec[pivot]
        at = bisect(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        self._rows.insert(at, [(j, vec[j] * inv) for j in range(pivot + 1, self.width) if vec[j]])
        return True

    def reduced_rows(self) -> list[list[Fraction]]:
        """The basis in reduced row echelon form, by back-substitution.

        The reduced form depends only on the span, so it is the same whatever
        order the vectors arrived in.
        """
        rows = []
        for p, sparse in zip(self.pivots, self._rows):
            row = [_ZERO] * self.width
            row[p] = _ONE
            for j, x in sparse:
                row[j] = x
            rows.append(row)
        for i in range(len(rows) - 1, 0, -1):
            p, prow = self.pivots[i], rows[i]
            for above in rows[:i]:
                f = above[p]
                if f:
                    for j in range(p, self.width):
                        if prow[j]:
                            above[j] -= f * prow[j]
        return rows


def _echelon(rows: Iterable[Sequence[Fraction]], width: int) -> Echelon:
    basis = Echelon(width)
    for row in rows:
        basis.add(row)
    return basis


def matrix_rank(matrix: QMatrix) -> int:
    return len(_echelon(map(matrix.row_list, range(matrix.rows)), matrix.cols))


def rref_decompose(matrix: QMatrix) -> tuple[int, QMatrix, QMatrix]:
    """Rank, kernel basis and image basis of ``matrix``.

    The kernel basis columns are the standard free-variable vectors read off
    the reduced echelon form (one per free column, ascending); the image
    basis columns are the original matrix columns at the pivot positions.
    """
    basis = _echelon(map(matrix.row_list, range(matrix.rows)), matrix.cols)
    pivots = basis.pivots
    work = basis.reduced_rows()
    rank = len(pivots)
    pivot_set = set(pivots)
    free_cols = [c for c in range(matrix.cols) if c not in pivot_set]
    kernel_entries: list[Fraction] = []
    for row_idx in range(matrix.cols):
        for f in free_cols:
            if row_idx == f:
                kernel_entries.append(_ONE)
            elif row_idx in pivot_set:
                r = pivots.index(row_idx)
                kernel_entries.append(-work[r][f])
            else:
                kernel_entries.append(_ZERO)
    kernel = QMatrix(matrix.cols, len(free_cols), tuple(kernel_entries))
    image = QMatrix(
        matrix.rows,
        rank,
        tuple(matrix.entry(i, c) for i in range(matrix.rows) for c in pivots),
    )
    return rank, kernel, image


def _solve(lhs: QMatrix, rhs: QMatrix) -> list[list[Fraction]] | None:
    """The unique X with ``lhs @ X = rhs`` as rows, or None when there is none.

    Reduces the augmented matrix [lhs | rhs]; a solution exists and is unique
    exactly when the pivots are the columns of ``lhs``.
    """
    r, m = lhs.cols, rhs.cols
    basis = _echelon((lhs.row_list(i) + rhs.row_list(i) for i in range(lhs.rows)), r + m)
    if basis.pivots != list(range(r)):
        return None
    return [row[r:] for row in basis.reduced_rows()]


def coordinates_in_basis(basis: QMatrix, vectors: QMatrix) -> QMatrix:
    """Solve ``basis @ X = vectors`` for the unique ``X``.

    ``basis`` must have full column rank and its column span must contain
    every column of ``vectors``.
    """
    if basis.rows != vectors.rows:
        raise DimensionMismatchError("basis and vectors live in different spaces")
    rows = _solve(basis, vectors)
    if rows is None:
        raise DimensionMismatchError("columns are not in the span of the basis")
    return QMatrix(basis.cols, vectors.cols, tuple(x for row in rows for x in row))


def spans_full_algebra(generators: Sequence[QMatrix]) -> bool:
    """Whether the n x n matrices ``generators`` generate all of M_n(Q).

    Starting from the identity, the span of the reached products is closed
    under left multiplication by the generators until it stabilizes.  The
    dimension of a rational span does not change under field extension, so
    a full span is the same over any extension field.
    """
    n = generators[0].rows
    target = n * n
    basis = Echelon(target)
    queue = [QMatrix.identity(n)]
    basis.add(queue[0].entries)
    while queue and len(basis) < target:
        element = queue.pop()
        for g in generators:
            product = g @ element
            if basis.add(product.entries):
                queue.append(product)
                if len(basis) == target:
                    return True
    return len(basis) == target


def _require_square_invertible(matrix: QMatrix, what: str = "matrix") -> None:
    if not matrix.is_square:
        raise DimensionMismatchError(f"{what} must be square")
    if matrix_rank(matrix) != matrix.rows:
        raise InvalidMonodromyError(f"{what} must be invertible")


# ---------------------------------------------------------------------------
# Centralizers and unit-eigenvalue structure
# ---------------------------------------------------------------------------


def _commutation_rows(matrix: QMatrix) -> list[list[Fraction]]:
    # Linear system A@X - X@A = 0 in the n^2 unknowns X[k][l]; the equation
    # at position (i, j) has coefficient A[i][k] on X[k][j] and -A[l][j] on
    # X[i][l].
    n = matrix.rows
    rows = []
    for i in range(n):
        for j in range(n):
            row = [_ZERO] * (n * n)
            for k in range(n):
                a = matrix.entry(i, k)
                if a:
                    row[k * n + j] += a
            for l in range(n):
                a = matrix.entry(l, j)
                if a:
                    row[i * n + l] -= a
            rows.append(row)
    return rows


def centralizer_dimension(matrix: QMatrix) -> int:
    """Dimension of the space of matrices commuting with ``matrix``.

    Small sizes solve the commutation system directly; beyond the desk-scale
    cutoff the same number is read off the invariant factor degrees, which
    agree because both count Hom over the induced module structure.
    """
    if not matrix.is_square:
        raise DimensionMismatchError("centralizer requires a square matrix")
    n = matrix.rows
    if n == 0:
        return 0
    if n <= _COMMUTATION_SYSTEM_LIMIT:
        return n * n - len(_echelon(_commutation_rows(matrix), n * n))
    return _centralizer_dimension_from_factors(invariant_factors(matrix))


def _centralizer_dimension_from_factors(inv: "SimilarityInvariant") -> int:
    # With factors f_1 | ... | f_m, dim Z = sum over (i, j) of
    # deg gcd(f_i, f_j) = sum_i (2(m - i) + 1) deg f_i.
    degrees = [len(f) - 1 for f in inv.invariant_factors]
    m = len(degrees)
    return sum((2 * (m - i) + 1) * d for i, d in enumerate(degrees, start=1))


def fixed_space_dim(matrix: QMatrix) -> int:
    """Dimension of the eigenspace for eigenvalue 1 of an invertible matrix."""
    _require_square_invertible(matrix)
    return matrix.rows - matrix_rank(matrix - QMatrix.identity(matrix.rows))


@dataclass(frozen=True)
class UnitBlockPartition:
    """Multiset of Jordan block sizes for eigenvalue 1, non-increasing."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s <= 0 for s in self.sizes):
            raise ValueError("block sizes must be positive")
        if any(self.sizes[i] < self.sizes[i + 1] for i in range(len(self.sizes) - 1)):
            raise ValueError("block sizes must be non-increasing")

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @property
    def block_count(self) -> int:
        return len(self.sizes)


def unit_block_partition(matrix: QMatrix) -> UnitBlockPartition:
    """Jordan structure at eigenvalue 1 from the rank sequence of (A - I)^j.

    The number of blocks of size >= j is rank((A-I)^(j-1)) - rank((A-I)^j);
    no eigenvalue factorization is involved.
    """
    _require_square_invertible(matrix)
    n = matrix.rows
    diff = matrix - QMatrix.identity(n)
    ranks = [n]
    power = QMatrix.identity(n)
    for _ in range(n):
        power = power @ diff
        ranks.append(matrix_rank(power))
    at_least = [ranks[j - 1] - ranks[j] for j in range(1, n + 1)]
    sizes: list[int] = []
    for j in range(n, 0, -1):
        exactly = at_least[j - 1] - (at_least[j] if j < n else 0)
        sizes.extend([j] * exactly)
    return UnitBlockPartition(tuple(sizes))


def restrict_to_image(matrix: QMatrix) -> tuple[QMatrix, QMatrix]:
    """Restrict an invertible A to im(A - I).

    Returns the restriction matrix in the deterministic image basis, and the
    basis itself (as columns).  The subspace is A-invariant, so the
    coordinate solve is always consistent.
    """
    _require_square_invertible(matrix)
    diff = matrix - QMatrix.identity(matrix.rows)
    _, _, basis = rref_decompose(diff)
    restricted = coordinates_in_basis(basis, matrix @ basis)
    return restricted, basis


def split_unit_part(matrix: QMatrix) -> tuple[QMatrix, QMatrix]:
    """Split A into its unit-eigenvalue part and the complement.

    ker((A-I)^n) and im((A-I)^n) are complementary A-invariant subspaces;
    the two restriction matrices are returned in the deterministic kernel
    and image bases.  The first factor is unipotent up to similarity and the
    second has no eigenvalue 1.
    """
    _require_square_invertible(matrix)
    n = matrix.rows
    nil_power = (matrix - QMatrix.identity(n)) ** n
    _, kernel, image = rref_decompose(nil_power)
    unit = coordinates_in_basis(kernel, matrix @ kernel)
    rest = coordinates_in_basis(image, matrix @ image)
    return unit, rest


# ---------------------------------------------------------------------------
# Polynomials over Q and similarity invariants
# ---------------------------------------------------------------------------

# Polynomials are tuples of Fraction coefficients in ascending powers with no
# trailing zeros; the zero polynomial is the empty tuple.
Poly = tuple[Fraction, ...]


def _ptrim(coeffs: Sequence[Fraction]) -> Poly:
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return tuple(coeffs[:end])


def _pdeg(p: Poly) -> int:
    return len(p) - 1


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _psub(a: Poly, b: Poly) -> Poly:
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _ptrim(out)


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ptrim(out)


def _pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if _pdeg(a) < _pdeg(b):
        return (), a
    rem = list(a)
    db = _pdeg(b)
    lead = b[-1]
    quo = [_ZERO] * (len(a) - len(b) + 1)
    for k in range(len(quo) - 1, -1, -1):
        coef = rem[db + k] / lead
        if coef:
            quo[k] = coef
            for i, c in enumerate(b):
                if c:
                    rem[i + k] -= coef * c
    return _ptrim(quo), _ptrim(rem)


def _pmonic(p: Poly) -> Poly:
    if not p:
        return p
    lead = p[-1]
    if lead == 1:
        return p
    return tuple(c / lead for c in p)


def polynomial_to_string(p: Poly, var: str = "x") -> str:
    """Human-readable rendering, highest power first."""
    if not p:
        return "0"
    parts: list[str] = []
    for power in range(len(p) - 1, -1, -1):
        c = p[power]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if power == 0:
            body = format_rational(mag)
        else:
            xs = var if power == 1 else f"{var}^{power}"
            body = xs if mag == 1 else f"{format_rational(mag)}*{xs}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


@dataclass(frozen=True)
class SimilarityInvariant:
    """Non-constant invariant factors of xI - A, monic, each dividing the next."""

    invariant_factors: tuple[Poly, ...]


def _min_degree_position(m: list[list[Poly]], start: int) -> tuple[int, int] | None:
    best: tuple[int, int] | None = None
    best_deg = -1
    for i in range(start, len(m)):
        for j in range(start, len(m)):
            p = m[i][j]
            if p and (best is None or _pdeg(p) < best_deg):
                best = (i, j)
                best_deg = _pdeg(p)
                if best_deg == 0:
                    return best
    return best


def _smith_diagonal(m: list[list[Poly]]) -> list[Poly]:
    """Diagonalize a square polynomial matrix by unimodular row/column moves.

    Classic reduction: pull the minimal-degree entry into the pivot slot,
    divide it into its row and column, and when a remainder or a
    non-divisible trailing entry shows up, fold it in and retry; the minimal
    degree strictly drops, so the loop terminates.  Pivots are normalized
    monic.
    """
    size = len(m)
    t = 0
    while t < size:
        pos = _min_degree_position(m, t)
        if pos is None:
            break
        i0, j0 = pos
        if i0 != t:
            m[t], m[i0] = m[i0], m[t]
        if j0 != t:
            for row in m:
                row[t], row[j0] = row[j0], row[t]
        pivot = m[t][t]
        dirty = False
        for i in range(t + 1, size):
            if m[i][t]:
                q, r = _pdivmod(m[i][t], pivot)
                if q:
                    m[i] = [_psub(a, _pmul(q, b)) for a, b in zip(m[i], m[t])]
                if r:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, size):
            if m[t][j]:
                q, r = _pdivmod(m[t][j], pivot)
                if q:
                    for i in range(t, size):
                        m[i][j] = _psub(m[i][j], _pmul(q, m[i][t]))
                if r:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, size):
            for j in range(t + 1, size):
                if m[i][j] and _pdivmod(m[i][j], pivot)[1]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[t] = [_padd(a, b) for a, b in zip(m[t], m[offender])]
            continue
        m[t][t] = _pmonic(pivot)
        t += 1
    return [m[i][i] for i in range(size)]


def invariant_factors(matrix: QMatrix) -> SimilarityInvariant:
    """Invariant factors of the characteristic matrix xI - A.

    Constant factors are dropped; the remaining monic factors form a
    divisibility chain whose product is the characteristic polynomial, which
    pins down the similarity class of A.
    """
    if not matrix.is_square:
        raise DimensionMismatchError("invariant factors require a square matrix")
    n = matrix.rows
    char: list[list[Poly]] = []
    for i in range(n):
        row: list[Poly] = []
        for j in range(n):
            if i == j:
                row.append(_ptrim((-matrix.entry(i, j), _ONE)))
            else:
                row.append(_ptrim((-matrix.entry(i, j),)))
        char.append(row)
    diag = _smith_diagonal(char)
    return SimilarityInvariant(tuple(f for f in diag if _pdeg(f) > 0))


def similar(a: QMatrix, b: QMatrix) -> bool:
    """Whether two square matrices are conjugate over the rationals."""
    if not a.is_square or not b.is_square:
        raise DimensionMismatchError("similarity is defined for square matrices")
    if a.rows != b.rows:
        return False
    return invariant_factors(a) == invariant_factors(b)
