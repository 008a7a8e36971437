"""Exact and modular matrix arithmetic owned by the benchmark.

Input generation and output checks use these helpers instead of the library,
so a change to the library can neither change the inputs nor bend the checks.
Matrices are lists of rows of ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

# A 61-bit Mersenne prime: no denominator the generators produce is divisible
# by it, so reduction mod P is defined on every generated matrix.
P = (1 << 61) - 1

Matrix = list[list[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def sub_identity(a: Matrix) -> Matrix:
    return [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]


def rank(a: Matrix) -> int:
    rows = [list(r) for r in a]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def inverse(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises ValueError if ``a`` is singular."""
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def product(mats: list[Matrix]) -> Matrix:
    out = mats[0]
    for m in mats[1:]:
        out = matmul(out, m)
    return out


def binomial(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out = out * (n - t) // (t + 1)
    return out


def companion(coeffs: list[int]) -> Matrix:
    """Companion matrix of x^n + c_{n-1} x^{n-1} + ... + c_0 (coeffs = c_0..c_{n-1})."""
    n = len(coeffs)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = Fraction(1)
    for i, c in enumerate(coeffs):
        m[i][n - 1] = Fraction(-c)
    return m


def _mod(x: Fraction) -> int:
    return x.numerator % P * pow(x.denominator, -1, P) % P


def full_span_mod_p(mats: list[Matrix]) -> bool:
    """Whether the algebra generated by ``mats`` is all of M_n over F_P.

    Full span mod P bounds the rational span's dimension from below by n^2,
    so a True answer certifies absolute irreducibility over Q; False is
    inconclusive and callers redraw.
    """
    n = len(mats[0])
    target = n * n
    gens = [[[_mod(x) for x in row] for row in m] for m in mats]
    basis: dict[int, list[int]] = {}  # pivot -> row normalised to 1 at pivot

    def add(flat: list[int]) -> bool:
        v = list(flat)
        for piv, row in basis.items():
            f = v[piv]
            if f:
                v = [(x - f * y) % P for x, y in zip(v, row)]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = pow(v[piv], -1, P)
        v = [x * inv % P for x in v]
        for p2, row in basis.items():
            f = row[piv]
            if f:
                basis[p2] = [(x - f * y) % P for x, y in zip(row, v)]
        basis[piv] = v
        return True

    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    queue = [ident]
    add([x for row in ident for x in row])
    while queue and len(basis) < target:
        elem = queue.pop()
        cols = list(zip(*elem))
        for g in gens:
            prod = [[sum(x * y for x, y in zip(row, col)) % P for col in cols] for row in g]
            if add([x for row in prod for x in row]):
                queue.append(prod)
                if len(basis) == target:
                    return True
    return len(basis) == target


def fmt(x: Fraction) -> str:
    """The CLI's ``p/q`` string format."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def to_json(m: Matrix) -> list[list[str]]:
    return [[fmt(x) for x in row] for row in m]


def from_json(rows: list[list[str]]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]
