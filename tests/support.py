"""Shared generators and independent oracles for the test suite.

Everything here is deliberately written from first principles (Jordan data,
characteristic polynomials via Faddeev-LeVerrier, the min(m_i, m_j)
partition count) so library results are checked against a second route.
"""

from __future__ import annotations

import random
from fractions import Fraction

from rigidity_lab.exact_linalg import QMatrix, block_diag, jordan_block


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


def char_poly(matrix: QMatrix) -> tuple[Fraction, ...]:
    """Characteristic polynomial det(xI - A) by Faddeev-LeVerrier, ascending."""
    n = matrix.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = QMatrix.identity(n)
    for k in range(1, n + 1):
        am = matrix @ m
        trace = sum(am.entry(i, i) for i in range(n))
        c = -trace / k
        coeffs[n - k] = c
        m = am + c * QMatrix.identity(n)
    return tuple(coeffs)
