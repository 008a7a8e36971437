"""Shared generators and independent oracles for the test suite.

Everything here is deliberately written from first principles (Jordan data,
characteristic polynomials via Faddeev-LeVerrier, the min(m_i, m_j)
partition count, the commutation system, the rank sequence of (A - I)^j,
span closures ranked by sympy, restrictions solved by sympy, the schoolbook
product on fractions, elimination on ``Fraction`` rows, the span closure mod
a prime one entry at a time, invariant factors and Smith forms by sympy)
so library results are checked against a second route; the matrix reader's
oracle reads entry by entry.  The one exception,
``smith_invariant_factors``, reuses the library's Smith step, but on the
full characteristic matrix xI - A; ``bench/kernels.py`` times it as the
oracle of the Krylov front end of ``invariant_factors``, and the tests
check against sympy instead.  Both routes give each invariant factor as the
library stores it, made primitive by ``primitive``.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect
from decimal import Decimal
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

import sympy
from sympy.matrices import normalforms

from rigidity_lab.campaign import CampaignConfig, _campaign_analyses
from rigidity_lab.errors import DimensionMismatchError
from rigidity_lab.exact_linalg import (
    Poly,
    QMatrix,
    SimilarityInvariant,
    _pdivmod,
    _ptrim,
    _shift_echelon,
    _smith_diagonal,
    block_diag,
    jordan_block,
    matrix_rank,
    rational_pair,
    restrict_to_image,
)
from rigidity_lab.local_systems import MonodromyTuple, monodromy_tuple


def zeros(rows: int, cols: int) -> QMatrix:
    """The zero matrix of a shape."""
    return QMatrix(rows, cols, [0] * (rows * cols))


def diagonal(values: Iterable[Fraction | int | str]) -> QMatrix:
    """The diagonal matrix with ``values`` on its diagonal."""
    values = list(values)
    n = len(values)
    return QMatrix(n, n, [values[i] if i == j else 0 for i in range(n) for j in range(n)])


def columns(matrix: QMatrix, indices: Sequence[int]) -> QMatrix:
    """The columns of ``matrix`` at ``indices``, in that order."""
    rows = [[row[j] for j in indices] for row in matrix.numerators]
    return QMatrix._integral(matrix.rows, len(indices), rows, matrix.denominator)


def campaign_tuples(config: CampaignConfig) -> Iterator[tuple[int, MonodromyTuple]]:
    """(trial, tuple) for each trial of a campaign: the first irreducible
    draw of the trial's own seed, as ``run_campaign`` checks it."""
    return ((index, analysis.tuple) for index, analysis in _campaign_analyses(config))


def random_invertible(rng: random.Random, n: int, bound: int = 2, forbid_identity: bool = False) -> QMatrix:
    identity = QMatrix.identity(n)
    while True:
        m = QMatrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        )
        if not m.is_invertible():
            continue
        if forbid_identity and m == identity:
            continue
        return m


def random_unimodular(rng: random.Random, n: int, steps: int = 3) -> QMatrix:
    """An integer matrix of determinant 1: ``steps`` rounds of row i += c row j
    over all i != j, c in [-1, 1], on the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        for i in range(n):
            j = rng.choice([j for j in range(n) if j != i] or [i])
            c = rng.randint(-1, 1) if j != i else 0
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return QMatrix.from_rows(rows)


def random_fixing_subspace(rng: random.Random, n: int, d: int) -> QMatrix:
    """Invertible matrix mapping span(e_1, ..., e_d) into itself."""
    while True:
        m = QMatrix.from_rows(
            [[0 if i >= d > j else rng.randint(-2, 2) for j in range(n)] for i in range(n)]
        )
        if m.is_invertible():
            return m


def conjugate(matrix: QMatrix, p: QMatrix) -> QMatrix:
    return p @ matrix @ p.inverse()


def jordan_from_data(data: list[tuple[Fraction | int | str, int]]) -> QMatrix:
    """Block-diagonal Jordan matrix from (eigenvalue, block size) pairs."""
    return block_diag([jordan_block(size, lam) for lam, size in data])


def partition_formula(partitions: dict[Fraction, list[int]]) -> int:
    """Centralizer dimension of a split matrix from its Jordan partitions."""
    total = 0
    for sizes in partitions.values():
        total += sum(min(a, b) for a in sizes for b in sizes)
    return total


def random_jordan_data(
    rng: random.Random, max_size: int, eigenvalue_pool: tuple[int, ...] = (1, 2, 3, -1, 5)
) -> tuple[list[tuple[Fraction, int]], dict[Fraction, list[int]]]:
    """Random nonzero-eigenvalue Jordan data of total size <= max_size."""
    remaining = rng.randint(1, max_size)
    data: list[tuple[Fraction, int]] = []
    partitions: dict[Fraction, list[int]] = {}
    while remaining > 0:
        lam = Fraction(rng.choice(eigenvalue_pool))
        size = rng.randint(1, remaining)
        data.append((lam, size))
        partitions.setdefault(lam, []).append(size)
        remaining -= size
    return data, partitions


def random_unit_mixed_matrix(rng: random.Random, max_size: int) -> tuple[QMatrix, list[int]]:
    """Invertible matrix with a prescribed unit-block partition, conjugated.

    Returns the matrix and the (sorted, non-increasing) unit block sizes.
    The non-unit part is a random invertible block without eigenvalue 1.
    """
    n = rng.randint(1, max_size)
    unit_total = rng.randint(0, n)
    sizes: list[int] = []
    remaining = unit_total
    while remaining > 0:
        s = rng.randint(1, remaining)
        sizes.append(s)
        remaining -= s
    blocks = [jordan_block(s, 1) for s in sizes]
    rest = n - unit_total
    if rest:
        while True:
            candidate = random_invertible(rng, rest)
            if (candidate - QMatrix.identity(rest)).is_invertible():
                blocks.append(candidate)
                break
    base = block_diag(blocks)
    p = random_invertible(rng, n)
    return conjugate(base, p), sorted(sizes, reverse=True)


def companion(coeffs: Sequence[int]) -> QMatrix:
    """Companion matrix of x^n + c_{n-1} x^{n-1} + ... + c_0."""
    n = len(coeffs)
    return QMatrix.from_rows(
        [[int(j == i - 1) - (coeffs[i] if j == n - 1 else 0) for j in range(n)] for i in range(n)]
    )


def levelt_tuple(n: int, seed: int) -> MonodromyTuple:
    """The hypergeometric (Levelt) tuple (C_f, C_f^-1 C_g; C_g^-1) of rank n
    (Beukers-Heckman, Invent. Math. 95, 1989) with g = (x - 1)^n, so A_inf
    is one unipotent Jordan block.  f has coefficients in [-3, 3], drawn from
    ``random.Random(seed)`` until f(0) f(1) != 0: C_f is invertible and f is
    coprime to g, which makes the tuple irreducible.  A_inf is derived from
    the relation, so it equals C_g^-1."""
    rng = random.Random(seed)
    while True:
        f = [rng.randint(-3, 3) for _ in range(n)]
        if f[0] and 1 + sum(f):
            break
    g = [(-1) ** (n - k) * comb(n, k) for k in range(n)]
    cf, cg = companion(f), companion(g)
    return monodromy_tuple(n, [(0, cf), (1, cf.inverse() @ cg)])


def large_entry_document(rank: int, count: int, seed: str) -> dict:
    """``count`` invertible rank x rank matrices whose entries have numerators
    (either sign) and denominators of 256 bits, the most the reader accepts,
    at locations 0..count-1, as a tuple document with A_inf omitted."""
    rng = random.Random(seed)

    def part():
        return rng.getrandbits(256) | 1 << 255

    matrices = []
    while len(matrices) < count:
        rows = [[f"{rng.choice('-+')}{part()}/{part()}" for _ in range(rank)] for _ in range(rank)]
        if QMatrix.from_rows(rows).is_invertible():
            matrices.append(rows)
    return {
        "rank": rank,
        "finite_points": [{"location": str(i), "matrix": m} for i, m in enumerate(matrices)],
    }


def read_rows_oracle(rows: Sequence[Sequence]) -> tuple[QMatrix, list[tuple[int, int]]]:
    """``QMatrix.from_rows`` read entry by entry: each entry by
    ``rational_pair``, row by row, so a bad entry is named before a later
    ragged row; the matrix, over the lcm of the q, and the entries' pairs
    (p, q) in lowest terms."""
    cols = len(rows[0]) if rows else 0
    pairs: list[tuple[int, int]] = []
    for row in rows:
        if len(row) != cols:
            raise DimensionMismatchError("ragged rows in matrix literal")
        pairs.extend(map(rational_pair, row))
    scale = lcm(*(q for _, q in pairs))
    flat = [p * (scale // q) for p, q in pairs]
    numerators = [flat[i * cols : (i + 1) * cols] for i in range(len(rows))]
    return QMatrix._integral(len(rows), cols, numerators, scale), pairs


def read_rational(text: str) -> Fraction:
    """A ``p/q`` string read through ``Decimal``, which reads digits of any
    length, so output longer than ``int`` reads from text can be compared."""
    return Fraction(*(int(Decimal(part)) for part in text.split("/")))


def forbid_digit_limit_changes(monkeypatch) -> None:
    """Fail on any change of CPython's process-global int-to-text digit limit."""

    def refuse(_):
        raise AssertionError("sys.set_int_max_str_digits was called")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)


def char_poly(matrix: QMatrix) -> tuple[Fraction, ...]:
    """Characteristic polynomial det(xI - A) by Faddeev-LeVerrier, ascending."""
    n = matrix.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = QMatrix.identity(n)
    for k in range(1, n + 1):
        am = matrix @ m
        trace = sum(am.entries[:: n + 1])
        c = -trace / k
        coeffs[n - k] = c
        m = am + diagonal([c] * n)
    return tuple(coeffs)


def commutation_rows(matrix: QMatrix) -> list[list[Fraction]]:
    """The linear system A@X - X@A = 0 in the n^2 unknowns X[k][l].

    The equation at position (i, j) has coefficient A[i][k] on X[k][j] and
    -A[l][j] on X[i][l].
    """
    n, entries = matrix.rows, matrix.entries
    rows = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[k * n + j] += entries[i * n + k]
            for l in range(n):
                row[i * n + l] -= entries[l * n + j]
            rows.append(row)
    return rows


def commutation_centralizer_dimension(matrix: QMatrix) -> int:
    """Centralizer dimension as the nullity of the commutation system."""
    n = matrix.rows
    if n == 0:
        return 0
    return n * n - matrix_rank(QMatrix.from_rows(commutation_rows(matrix)))


def unit_partition_by_ranks(matrix: QMatrix) -> tuple[int, ...]:
    """Jordan block sizes for eigenvalue 1, non-increasing, from ranks.

    The number of blocks of size >= j is rank((A-I)^(j-1)) - rank((A-I)^j).
    """
    n = matrix.rows
    diff = matrix - QMatrix.identity(n)
    ranks = [n]
    power = QMatrix.identity(n)
    for _ in range(n):
        power = power @ diff
        ranks.append(matrix_rank(power))
    at_least = [ranks[j - 1] - ranks[j] for j in range(1, n + 1)] + [0]
    sizes: list[int] = []
    for j in range(n, 0, -1):
        sizes.extend([j] * (at_least[j - 1] - at_least[j]))
    return tuple(sizes)


def is_pseudo_reflection(matrix: QMatrix) -> bool:
    """rank(A - 1) = 1, by sympy: the generators that let ``spans_full_algebra``
    decide by two vector spins instead of a span closure."""
    n = matrix.rows
    entries = [sympy.Rational(x.numerator, x.denominator) for x in matrix.entries]
    return (sympy.Matrix(n, n, entries) - sympy.eye(n)).rank() == 1


def spin_route(generators: list[QMatrix]) -> bool:
    """Whether ``spans_full_algebra`` decides these generators by the spins:
    n >= 2, more than one generator, and one of them a pseudo-reflection."""
    return (
        generators[0].rows > 1 and len(generators) > 1 and any(map(is_pseudo_reflection, generators))
    )


def span_closure_dimension(generators: list[QMatrix]) -> int:
    """Dimension of the algebra the matrices generate, by sympy ranks.

    Level by level: the words of the current basis times each generator join
    the basis, sympy's row echelon form keeps an independent subset, and the
    closure ends at the first level that adds nothing.
    """
    n = generators[0].rows
    gens = [sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator) for x in g.entries])
            for g in generators]
    basis = [sympy.eye(n)]
    while True:
        words = basis + [g * b for b in basis for g in gens]
        stacked = sympy.Matrix([list(w) for w in words])
        independent = stacked.T.rref()[1]
        if len(independent) == len(basis):
            return len(basis)
        basis = [words[i] for i in independent]


def restrict_power(matrix: QMatrix, power: int) -> QMatrix:
    """A on im((A - 1)^power): ``restrict_to_image`` applied ``power`` times,
    as ``TupleAnalysis.local_data`` applies it to A_inf."""
    for _ in range(power):
        matrix = restrict_to_image(matrix)
    return matrix


def unit_split(invariants: SimilarityInvariant) -> list[tuple[int, Poly]]:
    """(e_i, g_i) with f_i = (x - 1)^{e_i} g_i and g_i(1) != 0 for each
    invariant factor f_i, by ``_pdivmod`` by x - 1 until a remainder."""
    split = []
    for f in invariants.invariant_factors:
        e = 0
        while not (divided := _pdivmod(f, (-1, 1)))[1]:
            f, e = divided[0], e + 1
        split.append((e, f))
    return split


def restriction_oracle(matrix: QMatrix, power: int) -> QMatrix:
    """A restricted to im((A - 1)^power) by the solve route, in sympy: the
    basis B is the pivot columns of (A - 1)^power, from sympy's rref, and
    the restriction is the unique X with B X = A B, from sympy's exact
    Gauss-Jordan solve."""
    n = matrix.rows
    a = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator) for x in matrix.entries])
    image = (a - sympy.eye(n)) ** power
    pivots = list(image.rref()[1]) if n else []
    if not pivots:
        return zeros(0, 0)
    basis = image[:, pivots]
    solution, free = basis.gauss_jordan_solve(a * basis)
    assert free.rows == 0  # B has full column rank
    r = len(pivots)
    return QMatrix(r, r, tuple(Fraction(int(x.p), int(x.q)) for x in solution))


def _characteristic_matrix(matrix: QMatrix) -> list[list[tuple[Fraction, ...]]]:
    """xI - A, its entries ascending coefficient tuples."""
    n, entries = matrix.rows, matrix.entries
    return [
        [_ptrim(((-entries[i * n + j], Fraction(1)) if i == j else (-entries[i * n + j],)))
         for j in range(n)]
        for i in range(n)
    ]


def primitive(p: Sequence[Fraction | int]) -> tuple[int, ...]:
    """The one int multiple of a nonzero polynomial over Q (ascending
    coefficients) whose coefficients have no common factor and whose lead is
    positive: the stored form of an invariant factor."""
    coefficients = list(map(Fraction, p))
    scale = lcm(*(c.denominator for c in coefficients))
    ints = [int(c * scale) for c in coefficients]
    content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return tuple(c // content for c in ints)


def smith_invariant_factors(matrix: QMatrix) -> SimilarityInvariant:
    """Invariant factors from the library's Smith step on the full n x n
    matrix xI - A, made primitive."""
    diagonal = _smith_diagonal(_characteristic_matrix(matrix))
    return SimilarityInvariant(tuple(primitive(f) for f in diagonal if len(f) > 1))


_X = sympy.Symbol("x")


def sympy_smith_diagonal(m: list[list[tuple[Fraction, ...]]]) -> list[tuple[Fraction, ...]]:
    """The diagonal of the Smith form over Q[x] of a square matrix of
    nonzero determinant whose entries are ascending coefficient tuples,
    each entry monic, by sympy."""
    entries = [
        [sum(sympy.Rational(c.numerator, c.denominator) * _X**k for k, c in enumerate(p))
         for p in row]
        for row in m
    ]
    factors = normalforms.invariant_factors(sympy.Matrix(entries), domain=sympy.QQ[_X])
    monic = [reversed(sympy.Poly(f, _X).monic().all_coeffs()) for f in factors]
    return [tuple(Fraction(int(c.p), int(c.q)) for c in f) for f in monic]


def sympy_invariant_factors(matrix: QMatrix) -> SimilarityInvariant:
    """The non-constant invariant factors of xI - A by sympy's Smith normal
    form over Q[x], monic, then made primitive (``primitive``)."""
    diagonal = sympy_smith_diagonal(_characteristic_matrix(matrix))
    return SimilarityInvariant(tuple(primitive(f) for f in diagonal if len(f) > 1))


def loop_matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """The product by the schoolbook loop in rational arithmetic, skipping
    zero entries."""
    n, k, m = a.rows, a.cols, b.cols
    out = [Fraction(0)] * (n * m)
    for i in range(n):
        for t in range(k):
            x = a.entries[i * k + t]
            if x:
                for j in range(m):
                    y = b.entries[t * m + j]
                    if y:
                        out[i * m + j] += x * y
    return QMatrix(n, m, tuple(out))


class FractionEchelon:
    """Row echelon basis of a growing span, in ``Fraction`` arithmetic: the
    library's ``Echelon`` before it moved to integer rows, kept as its oracle.

    Rows are kept sorted by pivot column with an implicit leading 1 and
    stored as (column, value) pairs of their other nonzero entries, so a new
    vector is reduced in one forward pass; stored rows are never touched
    again.
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
                vec[p] = Fraction(0)
                for j, x in row:
                    vec[j] -= f * x
        pivot = next((j for j, x in enumerate(vec) if x), None)
        if pivot is None:
            return False
        inv = 1 / Fraction(vec[pivot])
        at = bisect(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        self._rows.insert(
            at, [(j, vec[j] * inv) for j in range(pivot + 1, self.width) if vec[j]]
        )
        return True

    def reduced_rows(self) -> list[list[Fraction]]:
        """The basis in reduced row echelon form, by back-substitution."""
        rows = []
        for p, sparse in zip(self.pivots, self._rows):
            row = [Fraction(0)] * self.width
            row[p] = Fraction(1)
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


def fraction_echelon(matrix: QMatrix) -> FractionEchelon:
    """The ``FractionEchelon`` of the rows of A."""
    basis = FractionEchelon(matrix.cols)
    for i in range(matrix.rows):
        basis.add(list(matrix.entries[i * matrix.cols : (i + 1) * matrix.cols]))
    return basis


def fraction_rank(matrix: QMatrix) -> int:
    return len(fraction_echelon(matrix))


def fraction_rank_factorization(matrix: QMatrix) -> tuple[list[int], QMatrix]:
    """The pivot columns and the nonzero RREF rows of A, in ``Fraction``."""
    basis = fraction_echelon(matrix)
    rows = basis.reduced_rows()
    return basis.pivots, QMatrix(len(rows), matrix.cols, tuple(x for row in rows for x in row))


def shift_factorization(matrix: QMatrix) -> tuple[list[int], QMatrix]:
    """The library's pivot columns and nonzero RREF rows of A - 1, from the
    one elimination (``_shift_echelon``) that ``restrict_to_image`` and
    ``from_star`` share; ``fraction_rank_factorization`` of A - 1 is its
    oracle."""
    basis = _shift_echelon(matrix)
    common, reduced = basis.reduced_rows()
    return basis.pivots, QMatrix._integral(len(basis), matrix.cols, reduced, common)


def fraction_restriction(matrix: QMatrix) -> QMatrix:
    """A restricted to im(A - 1) in ``Fraction``: W A[:, pivots], W the
    nonzero RREF rows of A - 1 from ``fraction_rank_factorization``, by
    ``loop_matmul``."""
    n = matrix.rows
    entries = matrix.entries
    shifted = [entries[i * n + j] - (i == j) for i in range(n) for j in range(n)]
    pivots, w = fraction_rank_factorization(QMatrix(n, n, shifted))
    columns = [entries[i * n + p] for i in range(n) for p in pivots]
    return loop_matmul(w, QMatrix(n, len(pivots), columns))


def fraction_inverse(matrix: QMatrix) -> QMatrix | None:
    """A^-1 read off the RREF [I | A^-1] of [A | I] in ``Fraction``, or None
    when A is singular."""
    n = matrix.rows
    basis = FractionEchelon(2 * n)
    for i in range(n):
        unit = [Fraction(int(i == j)) for j in range(n)]
        basis.add([*matrix.entries[i * n : (i + 1) * n], *unit])
    if basis.pivots != list(range(n)):
        return None
    return QMatrix(n, n, tuple(x for row in basis.reduced_rows() for x in row[n:]))


class EchelonModP:
    """Row echelon basis of a growing span of integer vectors mod a prime,
    one entry at a time: the library's span-closure certificate before its
    vectors were packed into single integers, kept as its oracle.

    Rows are sorted by pivot with an implicit leading 1 and stored as
    (column, residue) pairs, and a new vector is reduced in one forward pass.
    Incoming entries may be any integers: they are reduced mod the prime only
    where a pivot factor or the new pivot is read, and when a row is stored.
    """

    def __init__(self, width: int, prime: int):
        self.width = width
        self.prime = prime
        self.pivots: list[int] = []
        self._rows: list[list[tuple[int, int]]] = []

    def __len__(self) -> int:
        return len(self.pivots)

    def add(self, vector: Iterable[int]) -> bool:
        """Extend the basis by ``vector`` mod the prime; False when it is
        already in the span."""
        p = self.prime
        vec = list(vector)
        for q, row in zip(self.pivots, self._rows):
            f = vec[q] % p
            if f:
                vec[q] = 0
                for j, x in row:
                    vec[j] -= f * x
        pivot = next((j for j, x in enumerate(vec) if x % p), None)
        if pivot is None:
            return False
        inv = pow(vec[pivot], -1, p)
        at = bisect(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        self._rows.insert(
            at, [(j, x * inv % p) for j in range(pivot + 1, self.width) if (x := vec[j] % p)]
        )
        return True


def closes_full_span_mod_p(generators: list[Sequence[Sequence[int]]], n: int, prime: int) -> bool:
    """Whether the products of the n x n integer matrices ``generators``
    (their rows), closed from the identity under left multiplication, span
    all n^2 entries mod ``prime``, by ``EchelonModP``, each product reduced
    once per entry."""
    target = n * n
    basis = EchelonModP(target, prime)
    identity = [int(i == j) for i in range(n) for j in range(n)]
    basis.add(identity)
    queue = [identity]
    while queue and len(basis) < target:
        element = queue.pop()
        columns = [element[j::n] for j in range(n)]
        for rows in generators:
            product = [sum(map(mul, row, col)) % prime for row in rows for col in columns]
            if basis.add(product):
                queue.append(product)
                if len(basis) == target:
                    return True
    return len(basis) == target
