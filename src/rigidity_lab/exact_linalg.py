"""Exact dense linear algebra over the rational numbers.

A matrix A is stored as the integer matrix dA and the integer d > 0, in
canonical form: d is coprime to the content of dA, so equal matrices store
equal integers.  Every computation is exact, never from floating point and
never from eigenvalue factorization, and runs on these integers: each
producer (products, sums, inverses, restrictions, block sums) forms its
result's integer matrix over one common denominator and divides out one gcd.
Entries are read as integer pairs (p, q) in lowest terms (``_rational_parts``):
those of a matrix of ``p/q`` strings by one match of the grammar over their
text joined by commas, each without ``/`` by ``int``; any other matrix entry
by entry (``rational_pair``), which names the first bad entry.
``Fraction``s are made only at the edges, for parsed locations and for
``QMatrix.entries`` (callers that read entries), and inside the Smith
step's divisions.  Printing makes none: every number becomes text through
``rational_text``, from its integers.
Ranks, inverses, spans and restrictions to invariant images come out of one
fraction-free elimination per matrix (``Echelon``, on dense rows) of the
rows of dA, or of dA - dI, whose rank gives ``fixed_space_dim`` and where
``restrict_to_image`` and ``from_star`` read A on im(A - 1).  One
Krylov kernel (``_spin``) spans every set of words over Q.  One elimination
mod p (``_independent_mod_p``, on plain lists of residues, for either prime
below) proves that n integer vectors are independent, and only that.  It runs
the mod-p tests: Norton's spins, ``_cyclic_mod_p`` and ``_unit_free_mod_p``.  A
centralizer dimension is n when the spin of dA from (1, 8, ..., n^3) reaches n
vectors mod p, else (n - 1)^2 + 1 when rank(A - 1) = 1, as for both classes it
allows; otherwise it, unit Jordan blocks and similarity are read off the
invariant factors of xI - A: a Krylov basis of dA splits Q^n into cyclic blocks
of A, and a Smith form over Q[x] runs on the small matrix of A's relations
between those blocks, each row an int multiple; each factor is stored as its
primitive int multiple.  All bases are the deterministic ones from reduced row
echelon form with leftmost pivots, so runs are bit-identical.

Invertibility (``QMatrix.is_invertible``) is the exact rank of dA.  The
inverse of a product P = A_1 ... A_k may be kept unformed
(``_ProductInverse``): a full rank of P mod p proves it invertible, and
its spin reaching n proves P^-1 cyclic (``fourier.TupleAnalysis``).
Irreducibility (``spans_full_algebra``) is two vector spins when a generator
P is 1 + u w^T: of u and w under the other generators, as P adds no
direction to a span that holds u (nor P^T to one that holds w).  Otherwise,
from rank 5 on, Norton's criterion mod the prime 31 tries first: an
eigenvector of one cyclic word and two vector spins (``_norton_mod_p``).
Then it closes the span of the words in the integer matrices dA: mod the
Mersenne prime p = 2^19 - 1, each vector packed into one integer, as a
certificate, and over Q only when that falls short, as the spin of the
identity in M_n(Q); ``spans_full_algebra`` says why every route is exact.
Each residue and pivot inverse mod either prime is one CPython digit (p < 2^30).
"""

from __future__ import annotations

import re
from bisect import bisect
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import floordiv, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DimensionMismatchError, InvalidMonodromyError, NonRealizableError

# One entry of the p/q format, and entries of it joined by commas.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_ENTRY = r"[+-]?[0-9]+(?:/[0-9]+)?"
_RATIONALS = re.compile(f"{_ENTRY}(?:,{_ENTRY})*")

# Longest quotation of rejected input, in bytes, that an error message writes in full.
_QUOTE_BYTES = 60

# The Mersenne prime 2^19 - 1, modulus of the irreducibility certificate.
_PRIME_BITS = 19
_PRIME = (1 << _PRIME_BITS) - 1

# Norton's certificate (``_norton_mod_p``) runs first from rank 5 on, mod a
# small prime, as it looks for an eigenvalue at every residue: p n steps.
# On 150 dense tuples per rank 5-8 it fell back on 1-7 at p = 13, 31, 61
# and 127 alike, while p = 127 took 30-50% longer than p = 31.
_NORTON_PRIME = 31
_NORTON_FROM = 5


def shorten(text: str, limit: int = _QUOTE_BYTES) -> str:
    """``text`` for an error message; past ``limit`` bytes as stderr writes them
    (UTF-8, a lone surrogate as its escape), its start cut on a character
    boundary and its length in characters, so a message stays one short line."""
    data = text.encode(errors="backslashreplace")
    if len(data) <= limit:
        return text
    return f"{data[:limit].decode(errors='ignore')}... ({len(text)} characters)"


def rational_pair(value: Fraction | int | str) -> tuple[int, int]:
    """Read the ``p/q`` serialization format: an optional sign, digits and an
    optional ``/digits`` with a nonzero denominator, or a ``Fraction`` or a
    non-bool ``int``, as the integers (p, q) in lowest terms with q > 0.

    Anything else raises ``ValueError``.
    """
    # a str first: every JSON entry is one, and the Fraction ABC's check is slow
    if type(value) is not str and isinstance(value, (int, Fraction)) and type(value) is not bool:
        return value.as_integer_ratio()
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ValueError(f"not a p/q rational: {shorten(repr(value))}")
    numerator, denominator = match.groups()
    try:
        p, q = int(numerator), int(denominator or 1)
    except ValueError:  # more digits than CPython reads into an int (4300 by default)
        raise ValueError(f"too many digits in a p/q rational of {len(value)} characters") from None
    if not q:
        raise ValueError(f"zero denominator in {shorten(repr(value))}")
    g = gcd(p, q) if q > 1 else 1  # lowest terms keep a matrix's common scale small
    return p // g, q // g


def parse_rational(value: Fraction | int | str) -> Fraction:
    """``rational_pair`` as a ``Fraction``; Fractions pass through unchanged."""
    return value if isinstance(value, Fraction) else Fraction(*rational_pair(value))


def _rational_parts(
    rows: Sequence[Sequence], cols: int
) -> tuple[Sequence[int], Sequence[int] | None]:
    """The entries of ``rows``, row-major, in lowest terms p/q, q > 0: the
    p in order and the q in order, None when every q is 1.  When every entry
    is a ``str`` and every row has ``cols`` of them, one match of the grammar
    repeated with commas accepts them all, and only when their text holds
    exactly one comma fewer than entries; then each entry without ``/`` is
    read by ``int``, each other by ``rational_pair``.  Any other outcome, a
    ``ValueError`` included, reads them entry by entry, row by row, so the
    first bad entry is named before a later ragged row."""
    entries = list(chain.from_iterable(rows))
    try:
        text = ",".join(entries)  # a TypeError unless every entry is a str
        if (
            all(len(row) == cols for row in rows)
            and text.count(",") == len(entries) - 1
            and _RATIONALS.fullmatch(text)
        ):
            if "/" not in text:
                return list(map(int, entries)), None
            return tuple(zip(*[rational_pair(x) if "/" in x else (int(x), 1) for x in entries]))
    except (TypeError, ValueError):  # an entry not a str, or too long for int
        pass
    pairs = []
    for row in rows:
        if len(row) != cols:
            raise DimensionMismatchError("ragged rows in matrix literal")
        pairs.extend(map(rational_pair, row))
    return tuple(zip(*pairs)) if pairs else ((), ())


class QMatrix:
    """Dense rational matrix A, immutable, stored as the rows of the integer
    matrix dA (``numerators``) and d (``denominator``), with d > 0 and
    gcd(d, content(dA)) = 1: each matrix has one stored form, so ``==`` and
    ``hash`` are value equality.  ``QMatrix(rows, cols, entries)`` takes the
    entries row-major as ``Fraction``, ``int`` or ``p/q`` strings, and
    ``entries`` gives them back as ``Fraction``s, made on first use.  A
    matrix read from entries, by either, also stores ``_height``, the
    largest |p| or q of its entries in lowest terms, which the document
    reader bounds."""

    rows: int
    cols: int
    numerators: tuple[tuple[int, ...], ...]
    denominator: int

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction | int | str]):
        if rows < 0 or cols < 0:
            raise DimensionMismatchError("matrix dimensions must be non-negative")
        if len(entries) != rows * cols:
            raise DimensionMismatchError(f"expected {rows * cols} entries, got {len(entries)}")
        self._store_parts(rows, cols, *_rational_parts([entries], len(entries)))

    @classmethod
    def _integral(
        cls, rows: int, cols: int, numerators: list[Sequence[int]], denominator: int = 1
    ) -> "QMatrix":
        """The matrix with the rows ``numerators`` / ``denominator`` > 0, in
        canonical form: one gcd over dA and d."""
        if denominator > 1 and (g := gcd(denominator, *chain.from_iterable(numerators))) > 1:
            numerators = [[x // g for x in row] for row in numerators]
            denominator //= g
        matrix = object.__new__(cls)
        numerators = tuple(map(tuple, numerators))
        vars(matrix).update(rows=rows, cols=cols, numerators=numerators, denominator=denominator)
        return matrix

    def _store_parts(self, rows: int, cols: int, ps: Sequence[int], qs: Sequence[int] | None):
        """Set the fields from the entries p/q in lowest terms, row-major, over
        their lcm, with no gcd to divide out, and their height."""
        if qs is None:
            flat, scale = tuple(ps), 1
        else:
            scale = lcm(*qs)
            flat = tuple(map(mul, ps, map(floordiv, repeat(scale), qs)))
        height = max(chain(map(abs, ps), qs or (1,)))
        # canonical: r^a exactly dividing scale exactly divides some q, and r cannot divide its p
        numerators = tuple(flat[i * cols : (i + 1) * cols] for i in range(rows))
        fields = dict(rows=rows, cols=cols, numerators=numerators, denominator=scale)
        vars(self).update(fields, _height=height)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int | str]]) -> "QMatrix":
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        matrix = object.__new__(cls)
        matrix._store_parts(n_rows, n_cols, *_rational_parts(rows, n_cols))
        return matrix

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls._integral(n, n, [[int(i == j) for j in range(n)] for i in range(n)])

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        d = self.denominator
        return tuple(Fraction(x, d) for row in self.numerators for x in row)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _combine(self, other: "QMatrix", sign: int) -> "QMatrix":
        """self + sign * other, over the lcm of the two denominators."""
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        d = lcm(self.denominator, other.denominator)
        s, t = d // self.denominator, sign * (d // other.denominator)
        rows = [
            [s * x + t * y for x, y in zip(a, b)] for a, b in zip(self.numerators, other.numerators)
        ]
        return QMatrix._integral(self.rows, self.cols, rows, d)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, -1)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        """(dA)(d'B) / (d d'), summed on integers."""
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        columns = list(zip(*other.numerators)) or [()] * other.cols
        rows = [[sum(map(mul, row, column)) for column in columns] for row in self.numerators]
        return QMatrix._integral(self.rows, other.cols, rows, self.denominator * other.denominator)

    def inverse(self) -> "QMatrix":
        """The inverse, read off the reduced row echelon form [I | A^-1] of
        the integer matrix [dA | dI]: A is invertible exactly when the
        pivots are A's columns."""
        if not self.is_square:
            raise DimensionMismatchError("only square matrices can be inverted")
        n, scale = self.rows, self.denominator
        augmented = (
            [*row, *(scale * (i == j) for j in range(n))] for i, row in enumerate(self.numerators)
        )
        basis = _echelon(augmented)
        if basis.pivots != list(range(n)):
            raise InvalidMonodromyError("matrix is singular")
        common, reduced = basis.reduced_rows()
        return QMatrix._integral(n, n, [row[n:] for row in reduced], common)

    def is_invertible(self) -> bool:
        """Square of full rank: one fraction-free elimination of dA."""
        return self.is_square and matrix_rank(self) == self.rows

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:  # one int, the denominator, before the rows
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.denominator == other.denominator and (
            self.rows, self.cols, self.numerators) == (other.rows, other.cols, other.numerators)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.numerators, self.denominator))

    def __repr__(self) -> str:
        return (f"QMatrix(rows={self.rows!r}, cols={self.cols!r}, "
                f"numerators={self.numerators!r}, denominator={self.denominator!r})")


class _ProductInverse(QMatrix):
    """(A_1 ... A_k)^-1 of invertible n x n ``factors``, equal to the
    ``QMatrix`` it stands for, and the one mark of a derived A_inf: its dA
    and d are formed exactly on their first read, and ``product`` is the
    factors' product mod p, which proves facts of A_inf without forming it."""

    def __init__(self, factors: Sequence[QMatrix]):
        n = factors[0].rows
        vars(self).update(rows=n, cols=n, factors=tuple(factors))

    @cached_property
    def product(self) -> tuple[list[list[int]], int]:
        return _product_mod_p(self.factors)

    def __getattr__(self, name: str):
        """dA and d, formed together by the exact product and inverse."""
        if name not in ("numerators", "denominator"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        inverse = reduce(QMatrix.__matmul__, self.factors).inverse()
        vars(self).update(numerators=inverse.numerators, denominator=inverse.denominator)
        return vars(self)[name]


def rational_text(p: Fraction | int, q: int = 1) -> str:
    """p/q, for coprime ints p and q > 0, or the rational p, written as the
    ``p/q`` format writes it: ``Decimal`` writes an int of any length, where
    ``str`` refuses more digits than CPython's process-global limit (4300 by
    default), and it leaves that limit alone."""
    if q == 1:
        p, q = p.as_integer_ratio()
    return str(Decimal(p)) if q == 1 else f"{Decimal(p)!s}/{Decimal(q)!s}"


def matrix_to_json(matrix: QMatrix) -> list[list[str]]:
    """Entry x/d of the stored dA and d written as (x/g)/(d/g), g = gcd(x, d),
    and a zero entry as 0 with no division of d, which can be long."""
    d = matrix.denominator
    return [
        [rational_text(x // (g := gcd(x, d)), d // g) if x else "0" for x in row]
        for row in matrix.numerators
    ]


def jordan_block(size: int, eigenvalue: Fraction | int | str = 1) -> QMatrix:
    """Jordan block with the eigenvalue p/q on the diagonal and 1 above it:
    p on the diagonal and q above it, over q."""
    p, q = rational_pair(eigenvalue)
    rows = [[p if j == i else q * (j == i + 1) for j in range(size)] for i in range(size)]
    return QMatrix._integral(size, size, rows, q)


def block_diag(blocks: Iterable[QMatrix]) -> QMatrix:
    blocks = list(blocks)
    if not all(b.is_square for b in blocks):
        raise DimensionMismatchError("block_diag expects square blocks")
    total, offset, rows = sum(b.rows for b in blocks), 0, []
    scale = lcm(*(b.denominator for b in blocks))
    for b in blocks:
        f = scale // b.denominator
        for row in b.numerators:
            rows.append([0] * offset + [f * x for x in row] + [0] * (total - offset - b.cols))
        offset += b.rows
    return QMatrix._integral(total, total, rows, scale)


# ---------------------------------------------------------------------------
# Elimination primitives
# ---------------------------------------------------------------------------


class Echelon:
    """Row echelon basis of a growing span of integer vectors of a fixed width.

    The single elimination kernel over Q, fraction-free: every rank,
    restriction, inverse and span computation feeds it integer rows, the
    stored rows of dA (``QMatrix.numerators``) or rows built from them,
    through ``add``, and the Krylov spin of ``invariant_factors`` and
    ``reduced_rows`` through its two steps, ``reduce`` and ``insert``.  Rows
    are kept sorted by pivot column, each a primitive integer vector with a
    positive pivot value, its lead, stored dense, as a list of all its
    entries.  ``reduce`` is the one routine that clears a vector v at a
    pivot p, in one forward pass: v <- (lead/g) v - (v[p]/g) row with
    g = gcd(lead, v[p]), one list comprehension per pivot it hits, and its
    content (the gcd of its entries) is divided out when it enters and after
    every step that scaled it, so its entries stay the size of the span's
    minors; stored rows are never touched again.  Spans of words grow here
    only in ``_spin``, also the span closure of ``spans_full_algebra`` when
    its certificate mod a prime (``_closes_mod_p``) falls short.
    """

    def __init__(self):
        self.pivots: list[int] = []
        self._rows: list[list[int]] = []

    def __len__(self) -> int:
        return len(self.pivots)

    def add(self, vector: Iterable[int]) -> bool:
        """Extend the basis by ``vector``; False when it is already in the span."""
        vec = self.reduce(vector)
        lead = next(filter(None, vec), 0)
        if not lead:
            return False
        self.insert(vec, vec.index(lead))
        return True

    def reduce(self, vector: Iterable[int]) -> list[int]:
        """A positive multiple of ``vector`` minus the combination of the
        basis rows that clears it at every pivot column; a zero vector as it
        is.  A step that did not scale it can leave a content: with the row
        [1, 1], [1, 3] reduces to [0, 2].  ``insert`` divides it out."""
        vec = list(vector)
        content = gcd(*vec)
        if content > 1:
            vec = [x // content for x in vec]
        for p, row in zip(self.pivots, self._rows):
            if f := vec[p]:
                lead = row[p]
                g = gcd(lead, f)
                f //= g
                if g == lead:
                    vec = [x - f * y for x, y in zip(vec, row)]
                else:
                    scale = lead // g
                    vec = [scale * x - f * y for x, y in zip(vec, row)]
                    content = gcd(*vec)
                    if content > 1:
                        vec = [x // content for x in vec]
        return vec

    def insert(self, reduced: list[int], pivot: int) -> None:
        """Store a vector returned by ``reduce`` whose first nonzero entry is
        at column ``pivot``: the list itself when it is already primitive
        with a positive lead."""
        content = gcd(*reduced)
        if reduced[pivot] < 0:
            content = -content
        at = bisect(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        self._rows.insert(at, reduced if content == 1 else [x // content for x in reduced])

    def reduced_rows(self) -> tuple[int, list[list[int]]]:
        """The basis in reduced row echelon form over one denominator: (D,
        rows), the RREF being rows / D, with D the lcm of the leads.

        The rows enter a fresh ``Echelon`` last first, through ``reduce`` and
        ``insert``.  The rows already there are reduced: zero at each other's
        pivots and left of their own, so each step clears one pivot of the
        new row and keeps the others cleared and its lead.  The RREF depends
        only on the span, so it is the same whatever order the vectors
        arrived in."""
        done = Echelon()
        for p, row in zip(reversed(self.pivots), reversed(self._rows)):
            done.insert(done.reduce(row), p)
        leads = [row[p] for p, row in zip(done.pivots, done._rows)]
        common = lcm(*leads)
        return common, [[common // lead * x for x in row] for lead, row in zip(leads, done._rows)]


def _echelon(rows: Iterable[Sequence[int]]) -> Echelon:
    """The ``Echelon`` of ``rows``, zero rows skipped."""
    basis = Echelon()
    for row in rows:
        if any(row):
            basis.add(row)
    return basis


def matrix_rank(matrix: QMatrix) -> int:
    return len(_echelon(matrix.numerators))


def _closes_mod_p(generators: list[Sequence[Sequence[int]]], n: int) -> bool:
    """The closure from the identity mod p = ``_PRIME``, one int per vector of
    F_p^{n^2}, entry j in the B-bit slot at bit jB.  A product G E is the
    sum over l of G's column l, packed once at a stride of n slots, times
    row l of E; clearing a basis row's pivot slot, of value 1, is
    v += (p - c) row.  Products' slots are below n p^2 and each of at most
    n^2 clearings adds less than p^2, so slots stay below (n + n^2 + 2) p^2
    <= 2^B: no carries.  For p = 2^bits - 1, 2^bits = 1 mod p, so folding
    the bits of each slot above ``bits`` onto its low ones keeps it mod p;
    once every slot is at most p, a +1 carrying into bit ``bits`` marks the
    slots equal to p, set to 0.  With bits = 19, c, p - c and the pivot
    inverses are single CPython digits, and B is 45 at n = 8, 47 at n = 16.
    The basis rows, canonical with pivot 1, are the elements multiplied on.
    """
    p, bits, target = _PRIME, _PRIME_BITS, n * n
    width = ((n + target + 2) * p * p).bit_length()  # B
    slot, stride, line = (1 << width) - 1, n * width, (1 << n * width) - 1  # line: n slots
    ones = ((1 << width * target) - 1) // slot  # 1 in every slot
    low, high, above = ones * p, ones * ((1 << width - bits) - 1), ~(ones * p)

    def canonical(v: int) -> int:
        while v & above:
            v = (v & low) + (v >> bits & high)
        marks = (v + ones) >> bits & ones
        return v - (marks << bits) + marks

    packed = [
        [sum(row[j] % p << i * stride for i, row in enumerate(rows)) for j in range(n)]
        for rows in generators
    ]
    identity = sum(1 << i * (n + 1) * width for i in range(n))
    offsets, basis, queue = [0], [identity], [identity]  # offsets: pivot slots' bits
    while queue and len(basis) < target:
        element = queue.pop()
        lines = [element >> l * stride & line for l in range(n)]
        for columns in packed:
            v = sum(map(mul, columns, lines))
            for offset, row in zip(offsets, basis):
                c = (v >> offset & slot) % p
                if c:
                    v += (p - c) * row
            v = canonical(v)
            if not v:
                continue
            pivot = (v & -v).bit_length() - 1
            pivot -= pivot % width
            v = canonical(v * pow(v >> pivot & slot, -1, p))
            at = bisect(offsets, pivot)
            offsets.insert(at, pivot)
            basis.insert(at, v)
            if len(basis) == target:
                return True
            queue.append(v)
    return len(basis) == target


def _independent_mod_p(vectors: Iterable[list[int]], p: int = 0, basis: list | None = None) -> int:
    """How many of ``vectors``, lists of n ints, come before the first that
    those before it span mod p (``_PRIME`` unless given): the one elimination
    mod p on plain lists.  Each is cleared at the stored rows' pivots, in the
    order they were stored, each row 0 at the pivots before its own and kept
    with its lead's inverse, then reduced once: entries stay below n p^2.  A
    count of n proves that the n integer vectors have a determinant nonzero
    mod p, hence nonzero, so independent over Q; a smaller count proves
    nothing.  The rows are stored as (pivot, inverse, row) in ``basis``: a
    caller that passes its own list continues one elimination over several
    calls, and the count includes the rows it held."""
    p, basis = p or _PRIME, [] if basis is None else basis
    for vector in vectors:
        for pivot, inverse, row in basis:
            if c := vector[pivot] * inverse % p:
                vector = [x - c * y for x, y in zip(vector, row)]
        vector = [x % p for x in vector]
        lead = next(filter(None, vector), 0)
        if not lead:
            break
        basis.append((vector.index(lead), pow(lead, -1, p), vector))
    return len(basis)


def _cyclic_mod_p(rows: list[list[int]]) -> bool:
    """Whether the Krylov spin of the cubes (1, 8, ..., n^3) under the n x n
    integer matrix ``rows`` reaches n mod p: then the spin's determinant is
    nonzero, the cubes are a cyclic vector over Q and any nonzero multiple of
    the matrix is cyclic.  False proves nothing."""
    p, n = _PRIME, len(rows)

    def krylov() -> Iterator[list[int]]:
        yield (vector := [(j + 1) ** 3 for j in range(n)])
        for _ in range(n - 1):
            yield (vector := [sum(map(mul, row, vector)) % p for row in rows])

    return _independent_mod_p(krylov()) == n


def _unit_free_mod_p(rows: Sequence[Sequence[int]], scale: int) -> bool:
    """Whether rows - scale 1, dA - dI or its residues, has full rank mod p,
    which proves det(A - 1) nonzero: A has no eigenvalue 1.  False proves
    nothing."""
    shifted = ([*r[:i], r[i] - scale, *r[i + 1 :]] for i, r in enumerate(rows))  # read as needed
    return _independent_mod_p(shifted) == len(rows)


def _product_mod_p(factors: Sequence[QMatrix]) -> tuple[list[list[int]], int]:
    """(N, D) mod p, with N = (d_1 A_1) ... (d_k A_k) and D = d_1 ... d_k, so
    that A_1 ... A_k = N / D: each stored dA reduced before it is multiplied."""
    p = _PRIME
    rows, scale = [[x % p for x in row] for row in factors[0].numerators], factors[0].denominator
    for factor in factors[1:]:
        columns = list(zip(*([x % p for x in row] for row in factor.numerators)))
        rows = [[sum(map(mul, row, column)) % p for column in columns] for row in rows]
        scale = scale * factor.denominator % p
    return rows, scale % p


def _spin(generators: list[Sequence[Sequence[int]]], start: list[int]) -> int:
    """Dimension of the span of the words in the n x n integer matrices
    ``generators`` (their rows) on ``start``: a vector of n entries, or of
    n^2, a matrix E stored row after row (a vector is its one column), on
    which G acts as G E."""
    n, width = len(generators[0]), len(start)
    basis, queue = _echelon([start]), [start]
    pivots = basis.pivots  # grows with the basis; its len is cheaper than the basis's
    while queue and len(pivots) < width:
        vector = queue.pop()
        columns = [vector[j::n] for j in range(n)] if width > n else (vector,)
        for rows in generators:  # no product once the span is full
            if len(pivots) < width and basis.add(
                image := [sum(map(mul, row, column)) for row in rows for column in columns]
            ):
                queue.append(image)
    return len(pivots)


def _spans_mod_p(generators: list[Sequence[Sequence[int]]], start: list[int], p: int) -> bool:
    """Whether the words in the n x n residue matrices ``generators`` on
    ``start`` span F_p^n: each row that one elimination stores, also while
    the loop runs, is multiplied once by each generator."""
    n, basis = len(start), []
    _independent_mod_p([start], p, basis)
    for _, _, vector in basis:
        for rows in generators:
            if _independent_mod_p([[sum(map(mul, r, vector)) for r in rows]], p, basis) == n:
                return True
    return False


def _norton_mod_p(generators: list[Sequence[Sequence[int]]], n: int) -> bool:
    """Norton's criterion mod p = ``_NORTON_PRIME`` on the reductions of the
    n x n integer matrices ``generators``: True proves that they generate
    M_n(F_p); False proves nothing.

    Theta is each generator and then each product of consecutive ones, in
    turn.  The Krylov vectors K_k = theta^k c of the cubes c spin with
    coordinates: K_k enters with a 1 in column n + k, so its row's last
    n + 1 entries are a relation r once the earlier ones span it, and every
    later one is spanned too.  When K_(n-1) is not, theta is cyclic, so each
    eigenspace is a line, and chi = sum r_k x^k (r_n = 1) is its
    characteristic polynomial.  Its root lambda comes from evaluating chi
    at every residue, which costs p n steps: p is small.  Horner's steps at
    lambda are the coefficients of q = chi / (x - lambda), so v = q(theta) c,
    nonzero as deg q < n, spans ker(theta - lambda); w, the relation among
    the rows of theta - lambda, spans ker(theta^T - lambda).

    Let U be a proper submodule.  If U meets ker(theta - lambda), it holds
    v.  If not, theta - lambda is one to one on U, so U lies in its image,
    and U's annihilator, a proper submodule for the transposes, holds w.
    So when v spins to F_p^n under the generators and w under their
    transposes, F_p^n is irreducible (Norton), and its commutant, which
    keeps the line ker(theta - lambda), is F_p: by Burnside the reductions
    generate M_n(F_p).  theta - lambda lies in their algebra, which holds
    the identity.  A theta that is not cyclic, or whose chi has no root,
    passes to the next; the first lambda decides, as both spins reach n
    whenever F_p^n is irreducible."""
    p = _NORTON_PRIME
    residues = [[[x % p for x in row] for row in rows] for rows in generators]
    pairs = (
        [[sum(map(mul, row, column)) % p for column in zip(*b)] for row in a]
        for a, b in zip(residues, residues[1:])
    )
    coordinates = [[int(j == k) for j in range(n + 1)] for k in range(n + 1)]
    for theta in chain(residues, pairs):
        krylov = [[(j + 1) ** 3 % p for j in range(n)]]
        for _ in range(n):
            krylov.append([sum(map(mul, row, krylov[-1])) % p for row in theta])
        basis: list = []
        _independent_mod_p(map(list.__add__, krylov, coordinates), p, basis)
        if basis[n - 1][0] >= n:  # K_(n-1)'s pivot is a coordinate: not cyclic
            continue
        chi = basis[n][2][n:]
        for root in range(p):
            quotient = list(accumulate(reversed(chi[1:]), lambda b, r: (r + root * b) % p))
            if not (chi[0] + root * quotient[-1]) % p:
                break
        else:
            continue
        v = [sum(map(mul, reversed(quotient), column)) for column in zip(*krylov[:n])]
        shifted = [[x - root * (i == j) for j, x in enumerate(row)] for i, row in enumerate(theta)]
        basis = []
        _independent_mod_p(map(list.__add__, shifted, coordinates), p, basis)
        w = next(row[n:-1] for pivot, _, row in basis if pivot >= n)  # no row n: last is 0
        transposes = [list(zip(*rows)) for rows in residues]
        return _spans_mod_p(residues, v, p) and _spans_mod_p(transposes, w, p)
    return False


def _rank_one_shift(matrix: QMatrix) -> tuple[list[int], list[int]] | None:
    """For n >= 2, (u, w) with dA - dI a multiple of u w^T if rank(A - 1) = 1,
    else None: w is dA - dI's first nonzero row and u its column at w's
    pivot; a nonzero leading 2 x 2 minor or a row not proportional to w ends it."""
    d, rows, w = matrix.denominator, matrix.numerators, None
    if (rows[0][0] - d) * (rows[1][1] - d) != rows[0][1] * rows[1][0]:
        return None
    for i, row in enumerate(rows):
        shifted = list(row)
        shifted[i] -= d
        if w is None:
            if any(shifted):
                w, j = shifted, shifted.index(next(filter(None, shifted)))
        elif [w[j] * x for x in shifted] != [shifted[j] * y for y in w]:
            return None
    return None if w is None else ([row[j] - d * (i == j) for i, row in enumerate(rows)], w)


def spans_full_algebra(generators: Sequence[QMatrix]) -> bool:
    """Whether the n x n matrices ``generators`` generate all of M_n(Q).

    If a generator P has rank(P - 1) = 1, the algebra holds P - 1 ~ u w^T,
    hence each (xu)(w^T y) for x, y in it: it is M_n(Q) exactly when the
    spins of u under the generators and of w under their transposes reach n.
    Both spin under the other generators alone: Px = x + c (w^T x) u keeps
    the span of their words on u, which holds u (and P^T likewise w's).
    Otherwise, starting from the identity, the span of the reached products
    is closed under left multiplication by the generators until it
    stabilizes (the spin of the identity, by rows or columns alike); a
    span's dimension is the same over any extension field.
    Both run on the stored integer matrices dA (``QMatrix.numerators``):
    scaling a generator by a nonzero d changes no span.

    Two certificates come first.  A word in the dA reduces mod a prime to
    the same word in their reductions, so when the reductions generate
    M_n(F_p), n^2 integer words reduce to independent vectors: their
    n^2 x n^2 determinant is nonzero mod the prime, hence nonzero, and the
    words span M_n(Q), for any prime and whichever spanning elements the
    closure multiplies on.  From n = ``_NORTON_FROM`` = 5 on, Norton's
    criterion mod 31 (``_norton_mod_p``) proves it with one eigenvector and
    two vector spins.  Measured against the packed closure on 40 dense
    tuples of 2-4 generators per rank, its time over the closure's, with
    the closure's time added where it falls back, was 1.7 at n = 3, 1.06 at
    n = 4, 0.82 at n = 5, 0.39 at n = 7 and 0.06 at n = 16.  Then the
    closure mod the prime ``_PRIME`` proves it; only when that stalls below
    n^2 does the closure over Q decide.
    """
    n = generators[0].rows
    if n <= 1 or len(generators) == 1:  # M_1 = Q; Q[A] has dimension < n^2 once n > 1
        return n <= 1
    rows = [g.numerators for g in generators]
    for i, generator in enumerate(generators):
        if shift := _rank_one_shift(generator):
            others, (u, w) = rows[:i] + rows[i + 1 :], shift
            return _spin(others, u) == n and _spin([list(zip(*r)) for r in others], w) == n
    if n >= _NORTON_FROM and _norton_mod_p(rows, n):
        return True
    identity = [int(i == j) for i in range(n) for j in range(n)]
    return _closes_mod_p(rows, n) or _spin(rows, identity) == n * n


# ---------------------------------------------------------------------------
# Unit-eigenvalue structure
# ---------------------------------------------------------------------------


def fixed_space_dim(matrix: QMatrix) -> int:
    """Dimension of the eigenspace for eigenvalue 1 of an invertible matrix:
    n minus the rank of dA - dI."""
    if not matrix.is_square:
        raise DimensionMismatchError("matrix must be square")
    if not matrix.is_invertible():
        raise InvalidMonodromyError("matrix must be invertible")
    return matrix.rows - len(_shift_echelon(matrix))


def _shift_echelon(matrix: QMatrix) -> Echelon:
    """The elimination of the rows of dA - dI, an integer multiple of
    M = A - 1: M's pivots, and the nonzero rows W of its RREF as the reduced
    rows over D.  B = M[:, pivots] is a basis of im(M) and M = B W; as
    AM = MA, A B = B (W A[:, pivots]): A on im(M) is W A[:, pivots]."""
    shifted = [list(row) for row in matrix.numerators]
    for i, row in enumerate(shifted):
        row[i] -= matrix.denominator
    return _echelon(shifted)


def restrict_to_image(matrix: QMatrix) -> QMatrix:
    """A restricted to im(A - 1), in the basis of the pivot columns B of
    A - 1: A itself at full rank, else W A[:, pivots] (``_shift_echelon``)
    over D d.  Applied k times, with R this result, it stores A on
    im((A - 1)^k) in the pivot columns of (A - 1)^k: those columns at the
    pivots are B (R - 1)^(k-1), the others depend on earlier ones as in
    A - 1, so its pivots are B's at those of (R - 1)^(k-1).  From k = e, the
    largest unit Jordan block, on, it is A on the complement of ker(A - 1)^e."""
    basis = _shift_echelon(matrix)
    if len(basis) == matrix.cols:  # pivots at every column, W = I: the result is A
        return matrix
    columns = [[row[p] for row in matrix.numerators] for p in basis.pivots]
    common, reduced = basis.reduced_rows()
    entries = [[sum(map(mul, row, column)) for column in columns] for row in reduced]
    return QMatrix._integral(len(columns), len(columns), entries, common * matrix.denominator)


# ---------------------------------------------------------------------------
# Polynomials over Q and similarity invariants
# ---------------------------------------------------------------------------

# Polynomials are tuples of coefficients in ascending powers with no trailing
# zeros, the zero polynomial the empty tuple: ints, primitive with a positive
# lead in relations and invariant factors; ``Fraction``s only from ``_pdivmod``.
Poly = tuple[int | Fraction, ...]


def _ptrim(coeffs: Sequence[int | Fraction]) -> Poly:
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return tuple(coeffs[:end])


def _psub(a: Poly, b: Poly) -> Poly:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _ptrim(out)


def _pmul(a: Poly, b: Poly) -> Poly:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ptrim(out)


def _pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(q, r) with a = q b + r and deg r < deg b, for b nonzero; each step
    clears a's top coefficient, an int multiple of b's lead as an int."""
    rem = list(a)
    db = len(b) - 1
    lead, low = b[-1], b[:-1]
    quo = [0] * (len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        if coef := rem[db + k]:
            coef = Fraction(coef, lead) if coef % lead else coef // lead
            quo[k] = coef
            for i, c in enumerate(low):
                if c:
                    rem[i + k] -= coef * c
    return _ptrim(quo), _ptrim(rem[:db])


def polynomial_to_string(p: Poly) -> str:
    """Human-readable rendering in x, highest power first, of p over its
    lead > 0: the monic multiple of an invariant factor."""
    text, lead = "", p[-1] if p else 1
    for power in range(len(p) - 1, -1, -1):
        if c := p[power]:
            g = gcd(c, lead)
            mag, scale = abs(c) // g, lead // g
            digits = rational_text(mag, scale)
            xs = "x" if power == 1 else f"x^{power}"
            body = digits if not power else xs if mag == scale else f"{digits}*{xs}"
            sign = "-" if c < 0 else "+"
            text = f"{text} {sign} {body}" if text else body if sign == "+" else f"-{body}"
    return text or "0"


class SimilarityInvariant(NamedTuple):
    """Non-constant invariant factors of xI - A, each dividing the next, as
    their one primitive int multiple with a positive lead (value equality)."""

    invariant_factors: tuple[Poly, ...]

    @property
    def centralizer_dimension(self) -> int:
        """Dimension of the space of matrices commuting with A.

        With factors f_1 | ... | f_m, dim Z = sum over (i, j) of
        deg gcd(f_i, f_j) = sum_i (2(m - i) + 1) deg f_i.
        """
        m = len(self.invariant_factors)
        return sum(
            (2 * (m - i) + 1) * (len(f) - 1) for i, f in enumerate(self.invariant_factors, start=1)
        )

    @property
    def unit_block_sizes(self) -> tuple[int, ...]:
        """Jordan block sizes of A for eigenvalue 1, non-increasing: one per
        factor with the root 1, the top ones, of the root's multiplicity.
        f / (x - 1) is exact when f(1) = 0, its coefficient of x^k minus the
        running sum c_0 + ... + c_k of f's."""
        sizes = []
        for f in reversed(self.invariant_factors):
            e = 0
            while not sum(f):  # f(1) == 0
                f = tuple(-s for s in accumulate(f[:-1]))
                e += 1
            if not e:
                break
            sizes.append(e)
        return tuple(sizes)

    def grow_unit_blocks(self, dimension: int) -> "SimilarityInvariant":
        """The invariants of A with each unit Jordan block grown by one and
        1 x 1 unit blocks added up to ``dimension``.  That makes dimension - n
        unit blocks, one in each of the top dimension - n factors of the
        chain: each of those gains x - 1, and past the chain's length x - 1
        alone joins its small end.  Fewer than A's own unit blocks, and no
        minimal pair at zero exists: ``NonRealizableError``.
        """
        factors = self.invariant_factors
        blocks = dimension - sum(map(len, factors)) + len(factors)  # dimension - n
        if blocks < sum(1 for f in factors if not sum(f)):  # A's unit blocks: f(1) == 0
            raise NonRealizableError(
                "non-realizable minimal pair: the sum of rank(A_i - 1) over the finite points is "
                "smaller than rank + dim ker(A_inf - 1); the tuple cannot be irreducible"
            )
        kept = max(len(factors) - blocks, 0)
        new = ((-1, 1),) * max(blocks - len(factors), 0)
        grown = (tuple(map(sub, (0, *g), (*g, 0))) for g in factors[kept:])  # x g - g
        return SimilarityInvariant((*new, *factors[:kept], *grown))


def _smith_diagonal(m: list[list[Poly]]) -> list[Poly]:
    """The diagonal of the Smith form of a square polynomial matrix of
    nonzero determinant, by unimodular row and column moves, each entry up
    to a nonzero rational factor.

    Step t pulls a minimal-degree entry of the trailing block to (t, t);
    rows and columns before t are zero there, so row t is zero left of the
    pivot.  Each row below takes away q times row t, q its quotient at
    column t, which touches only row t's nonzero entries right of the
    pivot.  Once column t is zero below the pivot, each entry of row t right
    of it becomes its own remainder.  A remainder, below the pivot or right
    of it, is of lower degree than the pivot: the step restarts on it.  When
    row t then holds only the pivot, a trailing entry that the pivot does
    not divide (one equal to it needs no division) has its row folded into
    row t, and the step restarts.  Each restart lowers the minimal degree,
    so the loop ends.  A constant pivot divides everything: it leaves no
    remainder and needs no row phase, and its row is left as is, because
    finished rows are never read again.
    """
    size = len(m)
    t = 0
    while t < size:  # the first entry of minimal degree, row by row
        block = range(t, size)
        _, i0, j0 = min((len(p), i, j) for i in block for j in block if (p := m[i][j]))
        if i0 != t:
            m[t], m[i0] = m[i0], m[t]
        if j0 != t:
            for row in m:
                row[t], row[j0] = row[j0], row[t]
        top = m[t]
        pivot = top[t]
        right = [(j, b) for j in range(t + 1, size) if (b := top[j])]
        for row in m[t + 1 :]:
            if row[t]:
                q, row[t] = _pdivmod(row[t], pivot)
                for j, b in right:
                    row[j] = _psub(row[j], _pmul(q, b))
        if any(row[t] for row in m[t + 1 :]):
            continue
        if len(pivot) > 1:
            for j, b in right:
                top[j] = _pdivmod(b, pivot)[1]
            if any(top[t + 1 :]):
                continue
            trailing = (
                row for row in m[t + 1 :]
                if any(_pdivmod(a, pivot)[1] for a in row[t + 1 :] if a and a != pivot)
            )
            if offender := next(trailing, None):
                m[t] = [a or b for a, b in zip(top, offender)]
                continue
        t += 1
    return [row[i] for i, row in enumerate(m)]


def _relation_matrix(matrix: QMatrix) -> list[list[Poly]]:
    """Relation matrix over Q[y] of the Krylov blocks of the square matrix
    A, spun as the stored integer matrix B = dA (``QMatrix.numerators``).

    Spins e_n, e_{n-1}, ..., e_1 under B into one echelon basis: a start
    vector v outside the span opens a block v, Bv, B^2 v, ..., which ends at
    the first product in the span, the block's tail.  Starting from the last
    basis vector keeps an upper Jordan block one block.  The basis rows
    carry n + 1 more columns, a row's coordinates in the Krylov vectors K_k,
    so that a row's first n columns are the combination of the K_k with
    those coefficients.  The k-th Krylov vector enters with a 1 in column
    n + k, which the integer reduction scales with the vector: it leaves
    s (K_k + sum_j c_j K_j) in the first n columns, s c_j in the others and
    the scale s in column n + k, where it stays when the row is stored.  A
    tail, which lies in the span, leaves zeros in the first n columns and s
    times minus its coordinates in the others; the last column is the scale
    of the tail that completes the basis.  A Krylov vector B^m v_j is
    d^m A^m v_j, so the tail of block i, of degree d_i, gives A^{d_i} v_i
    the coordinate c d^m / (s d^{d_i}) on A^m v_j.  Row i of the relation
    matrix, times s d^{d_i} over its content, a unimodular move over Q[y],
    has in column j <= i the int polynomial whose coefficients, in
    ascending powers of y, are the c d^m of block j's Krylov vectors, plus
    s d^{d_i} y^{d_i} on the diagonal; entries right of it are zero.
    """
    rows, d = matrix.numerators, matrix.denominator
    n = len(rows)
    basis = Echelon()
    powers: list[int] = []  # d^m for each Krylov vector B^m v, in basis order
    blocks: list[tuple[int, int]] = []  # (offset, degree) per block
    relations: list[list[Poly]] = []
    start = n
    while len(basis) < n:
        start -= 1
        vector = [0] * n
        vector[start] = 1
        offset, power = len(basis), 1
        while True:
            k = n + len(basis)
            reduced = basis.reduce(vector + [int(j == k) for j in range(n, 2 * n + 1)])
            lead = next(filter(None, reduced[:n]), 0)
            if not lead:
                break
            basis.insert(reduced, reduced.index(lead))
            powers.append(power)
            power *= d
            vector = [sum(map(mul, row, vector)) for row in rows]
        if len(basis) > offset:
            coefficients = [c * m for c, m in zip(reduced[n:k], powers)]
            coefficients.append(reduced[k] * power)  # s d^{d_i}
            if (content := gcd(*coefficients)) > 1:
                coefficients = [c // content for c in coefficients]
            row = [_ptrim(coefficients[at : at + degree]) for at, degree in blocks]
            row.append(tuple(coefficients[offset:]))
            blocks.append((offset, len(basis) - offset))
            relations.append(row)
    for row in relations:
        row.extend([()] * (len(relations) - len(row)))
    return relations


def invariant_factors(matrix: QMatrix) -> SimilarityInvariant:
    """Invariant factors of the characteristic matrix xI - A.

    Constant factors are dropped; the rest, made primitive, form a
    divisibility chain whose product is the characteristic polynomial made
    primitive, which pins down the similarity class of A.

    They are read off a Krylov basis of A.  ``_relation_matrix`` splits
    Q^n into r cyclic blocks v_i, Av_i, ..., A^{d_i - 1} v_i whose tails
    A^{d_i} v_i lie in the span of blocks 1..i.  Writing block j's share of
    tail i as p_ij(A) v_j, the rows y^{d_i} e_i - sum_{j <= i} p_ij(y) e_j
    lie in the kernel of the Q[y]-module map Q[y]^r -> Q^n that takes e_i
    to v_i, with y acting as A.  The map is onto, and the rows form a lower
    triangular matrix with diagonal entries of degrees d_i, so the quotient
    by them has dimension sum d_i = n over Q: they generate the kernel.
    This r x r relation matrix therefore presents Q^n with y acting as A,
    as yI - A does, and the two have the same non-constant invariant factors
    up to rational factors, read off its Smith form (at r = 1, its entry).
    """
    if not matrix.is_square:
        raise DimensionMismatchError("invariant factors require a square matrix")
    if matrix.rows == 1:  # A = (p/q): the one factor qx - p, without the set-up of a spin
        return SimilarityInvariant(((-matrix.numerators[0][0], matrix.denominator),))
    factors = _smith_diagonal(_relation_matrix(matrix))
    return SimilarityInvariant(tuple(_primitive(f) for f in factors if len(f) > 1))


def _primitive(p: Poly) -> Poly:
    """The multiple of p != 0 in Z[x] of content 1 and with a positive lead."""
    scale = lcm(*(c.denominator for c in p))
    p = [c.numerator * (scale // c.denominator) for c in p]
    content = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return tuple(c // content for c in p)


def centralizer_dimension(matrix: QMatrix) -> int:
    """Dimension of the space of matrices commuting with ``matrix``: n if
    n < 2 or one Krylov spin of dA mod p reaches n vectors (A is cyclic,
    ``_cyclic_mod_p``); (n - 1)^2 + 1 if A - 1 = u w^T, so A is
    diagonalizable (w^T u != 0) or of Jordan type (2, 1^(n-2)) (w^T u = 0);
    else read off the invariant factor degrees, which also decide a cyclic
    A whose spin falls short mod p.

    The spin starts from the cubes (1, 8, ..., n^3).  A vector with no zero
    entry is cyclic for every cyclic matrix in Jordan form, upper or lower,
    where e_n is not for a diagonal of distinct entries, a lower Jordan
    block or a sum of blocks.  Of the 2,558 distinct cyclic matrices of
    perfbench's four seed-11 op streams, e_n misses 323, (1, ..., n) 60,
    the first n primes 29 and the cubes none, over Q and mod p alike.
    ``_relation_matrix`` keeps its starts e_n, ..., e_1, which keep an upper
    Jordan block one block.
    """
    n = matrix.rows
    if matrix.is_square:
        if n < 2 or _cyclic_mod_p([[x % _PRIME for x in row] for row in matrix.numerators]):
            return n
        if _rank_one_shift(matrix):
            return (n - 1) ** 2 + 1
    return invariant_factors(matrix).centralizer_dimension


def similar(a: QMatrix, b: QMatrix) -> bool:
    """Whether two square matrices are conjugate over the rationals."""
    if not a.is_square or not b.is_square:
        raise DimensionMismatchError("similarity is defined for square matrices")
    if a.rows != b.rows:
        return False
    return invariant_factors(a) == invariant_factors(b)
