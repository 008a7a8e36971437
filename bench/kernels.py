"""Time the exact kernels: the span closure, invariant factors, restrictions, the
composed zero-monodromy invariants, a table of matrix kernels against their oracles,
the first and a repeated catalog load, the rendering of zero monodromies as text,
the reading, checking and writing of tuple documents, the ``Fraction`` calls of the
seed-7 campaign and ``rig``, ``verify`` and ``fourier`` on the worst-case inputs and
the corner grid.

    python3 bench/kernels.py [--runs 3] [--out BENCH.json]
    python3 bench/kernels.py --worst-cases DIR

Run from the repository root; the library is imported from ``src/`` and the
reference routes from ``tests/support.py``.  Each figure is the median of
``--runs`` runs in milliseconds, except where CPU seconds or call counts are
named.

- ``kernels``: for each rank n = 2..16, two fixed-seed tuples, a
  hypergeometric (Levelt) tuple (C_f, C_f^-1 C_g; C_g^-1) with
  g = (x - 1)^n (``support.levelt_tuple``) and a dense random tuple on three
  finite points, and the times of the certificates of ``exact_linalg`` on
  the integer rows of its matrices: Norton's certificate mod 31
  (``_norton_mod_p``) and the closure mod the Mersenne prime 2^19 - 1, the
  largest below CPython's 2^30 digit, so that residues and pivot inverses
  are single digits (``_closes_mod_p``, vectors packed into integers), the
  two timed in one process, alternating which runs first
  (``alternating_ms``); the closure against ``support.closes_full_span_mod_p``
  (the same closure mod the same prime, one entry at a time), whose answers
  must agree, and which Norton's certificate may miss but never outrun; and,
  for n = 2..8 only, the exact pass over Q, ``_spin`` from the n x n
  identity stored as n^2 entries, which grows as n^6; the conversion to
  integer rows, shared by all, is not timed.  The answers are recorded; on
  these tuples they agree.  Then the library's routed decision,
  ``spans_full_algebra`` on the finite matrices as
  ``TupleAnalysis.irreducible`` passes them (``routed_ms``), whose answer
  must be the oracle's full span or, where that stalls, the exact pass's;
  ``route`` says whether a pseudo-reflection (rank(A - 1) = 1) among them
  sent it to the two vector spins, Norton's certificate decided, or the
  closures ran.  A ``crossover`` row per rank sums both certificates over
  ``CROSSOVER_SAMPLE`` dense tuples of 2-4 finite points, with the
  closure's time added to Norton's where it falls back, and counts those
  fallbacks.  At ranks 24 and 32 (``NORTON_ONLY_RANKS``) Norton's
  certificate alone is timed on both tuples.
- ``invariant_factors``: ``exact_linalg.invariant_factors`` (the Krylov
  kernel) against ``support.smith_invariant_factors`` (the Smith form of the
  full xI - A, each factor made primitive as the kernel stores it), whose
  answers must agree, on fixed-seed n x n matrices for
  n = 2..32 of two families: ``dense``, small rationals, and
  ``zero_monodromy``, shaped like the transform's monodromy at zero: a dense
  block of size about n/3, unit Jordan blocks of sizes 2 and 3, and identity
  padding.  The oracle grows much faster than the kernel: a first oracle
  run that passes ``ORACLE_CAP_S`` seconds is its only one at that size
  (``smith_runs`` records the count), and the oracle is left out at the
  larger sizes.
- ``restriction``: ``exact_linalg.restrict_to_image`` (A on im(A - 1))
  applied once and applied e times, e the largest unit Jordan block of A,
  as the transform applies it to A_inf, which gives A on im((A - 1)^e)
  (``support.restrict_power``; one elimination and one product per
  application), against ``support.restriction_oracle`` at the same power
  (the pivot columns B of (A - 1)^power, then the solve B X = A B, both in
  sympy), whose answers must agree, on a matrix of either family for
  n = 2..16.  That the chain stops changing at e is asserted by the tests,
  not timed here.  The oracle is sympy, not the library's former solve
  route, so the ratio is not a speed-up over an earlier version.
- ``zero_invariants``: ``SimilarityInvariant.grow_unit_blocks`` (the zero
  monodromy's invariants composed from those at infinity, as
  ``TupleAnalysis.zero_invariants`` does) against
  ``exact_linalg.invariant_factors`` of the assembled matrix, whose answers
  must agree, on the ``zero_monodromy`` family of ``invariant_factors`` for
  n = 2..32.  The source is the dense block with unit Jordan blocks one
  smaller and no padding; its own invariant factors, which the analysis has
  already computed for the point at infinity, are not timed.
- ``kernel_table``: each kernel of ``KERNELS`` (``QMatrix.from_rows``,
  ``@``, ``matrix_rank``, which ``is_invertible`` compares with n,
  ``rank_factorization``, the pivots and reduced rows of A - 1 from the
  elimination that ``restrict_to_image`` and ``from_star`` share
  (``support.shift_factorization``), ``QMatrix.inverse``,
  ``restrict_to_image`` and ``centralizer_dimension``) against
  its oracle in ``support``, the same job on ``Fraction`` entries (for
  ``rank_factorization``, on A - 1; for ``centralizer_dimension``, the
  nullity of the n^2 x n^2 commutation system), whose answer must agree, on
  its families at their sizes in ``TABLE_FAMILIES``, up to
  ``KERNEL_MAX_N``: ``dense`` and ``zero_monodromy``, as above,
  ``singular``, a dense matrix whose last row is the sum of the others,
  ``large_entries``, with 64-bit numerators and denominators, and
  ``integer``, invertible with entries in [-2, 2], as ``random_tuple``
  draws them, each drawn from ``random.Random(f'echelon:{family}:{n}')``.
- ``catalog``: ``catalog.load_catalog()`` of the built-in entries alone,
  the first load in a process, which parses and checks the five entries
  (the cache of ``_builtin_entries`` is cleared before each run), and a
  repeated load, which copies the checked entries (the mean of
  ``CATALOG_REPEATS`` loads per run).
- ``render``: ``exact_linalg.matrix_to_json`` of the transform's zero
  monodromy plus ``polynomial_to_string`` of its invariant factors, as
  ``fourier`` prints them, on the three large-entry shapes of the CLI tests
  (``support.large_entry_document`` at rank 2 with 16 points, rank 3 with 8
  and rank 4 with 4, whose integers run to thousands of digits) and
  on the dense ``random_tuple(7, 3, 2026)``.  Each run renders a fresh copy
  of the matrix, so no entry cache carries over; the analysis is not timed.
  The longest integer's digits and the sha256 of the rendered JSON are
  recorded, so runs of two versions can be compared byte for byte.
- ``reading``: for the tuple document of the Levelt tuple
  ``support.levelt_tuple(n, n)`` for each n of ``READING_LEVELT_RANKS``
  (2-8) and of the dense ``random_tuple(n, 3, 2026)`` for each n of
  ``READING_DENSE_RANKS`` (5-7), A_inf given in both, the ms per call of
  ``local_systems.tuple_from_json``, of ``validate`` on what it read (the
  relation checked on integers) and of the CLI's JSON writer
  (``cli._indented``) on the ``fourier`` payload, beside ``json.dumps(payload,
  indent=2)``, whose text it must equal; each the median of ``--runs`` runs
  of ``READING_REPEATS`` calls.  ``entries`` counts the document's matrix
  entries and ``parsed_by_rational_pair`` the entries that reached
  ``exact_linalg.rational_pair``.  A last row reads the corner
  ``adm:<rank>:<points>`` of the largest rank and point count of the corner
  grid (below), 256-bit entries, once per run.
- ``fractions``: the ``Fraction`` constructions (``Fraction.__new__``) and
  divisions (``Fraction._div``) of two op streams, run in process under
  ``cProfile`` with stdout captured: call counts, which do not drift with
  the host, and no time.  The first is ``verify --random --trials 500
  --max-rank 4 --max-points 4 --seed 7`` (``FRACTION_TRIALS`` trials); the
  second, perfbench's seed-11 ``levelt`` ops (``LEVELT_OPS``, the ops of a
  20 s run, built by ``perfbench/workloads.build_op`` as ``bench/ab.py``
  builds them).  The largest exit code and the sha256 of stdout are
  recorded, so runs of two versions can be compared.
- ``worst_cases``: CPU seconds of one run each of ``rig``, ``verify`` and
  ``fourier --input FILE`` (``WORST_CASE_COMMANDS``), each in a fresh
  interpreter on this tree's ``src/`` and stopped after
  ``WORST_CASE_TIMEOUT_S`` seconds of wall time, which the row records as a
  time-out, on documents with A_inf omitted but the last: the two inputs of
  ``worst_case_documents``, on 16 finite points, ``small_entries``,
  ``random_tuple(16, 16, 2026)``, and ``large_entries``, rank 4 with
  numerators and denominators of 256 bits drawn from
  ``random.Random('worst:256')``; then the corner grid of
  ``corner_documents``, rank 4, 8 and 16 (``CORNER_RANKS``) on 2, 4 and 16
  finite points (``CORNER_POINTS``), with such entries drawn from
  ``random.Random('adm:<rank>:<points>')``; then the non-generic corners of
  ``non_generic_documents``; and last, with A_inf given, the document of
  ``given_infinity_documents`` at rank 16 (``GIVEN_INFINITY_RANKS``), whose
  A_inf is a diagonal of such entries.  The exit code and the sha256
  of stdout are recorded, so runs of two versions can be compared.

With ``--out``, the result is written into that JSON file under the keys
``environment``, ``kernels``, ``invariant_factors``, ``restriction``,
``zero_invariants``, ``kernel_table``, ``catalog``, ``render``, ``reading``,
``fractions`` and ``worst_cases``;
other keys already in the file are kept.  With ``--worst-cases DIR``, the two
worst-case inputs are written to ``DIR/small_entries.json`` and
``DIR/large_entries.json``, and each corner to ``DIR/<name>.json``, its name with
``:`` as ``_`` (``adm_<rank>_<points>.json``, ``given_infinity_16.json``, ...),
and nothing is timed.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import fractions
import hashlib
import io
import json
import operator
import os
import platform
import pstats
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLOSURE_RANKS = range(2, 17)
NORTON_ONLY_RANKS = (24, 32)  # Norton's certificate alone: the closure takes 0.75 s and 4.85 s
CROSSOVER_SAMPLE = 40  # dense tuples per rank of the crossover rows
EXACT_CLOSURE_RANKS = range(2, 9)  # the exact pass grows as n^6: 0.07-0.2 s at rank 8
SIZES = (2, 3, 4, 6, 8, 12, 16, 24, 32)
RESTRICTION_SIZES = (2, 3, 4, 6, 8, 12, 16)
TABLE_SIZES = (2, 3, 4, 6, 8, 10, 12, 16, 24, 32)
WORST_CASE_POINTS = (16,)  # MAX_POINTS
CORNER_RANKS = (4, 8, 16)  # up to MAX_RANK
CORNER_POINTS = (2, 4, 16)  # up to MAX_POINTS
NON_GENERIC_RANKS = (4, 8)  # the non-generic corners of non_generic_documents
GIVEN_INFINITY_RANKS = (16,)  # the corners of given_infinity_documents
WORST_CASE_COMMANDS = ("rig", "verify", "fourier")
WORST_CASE_TIMEOUT_S = 60.0
PRIME = 2**19 - 1  # the library's certificate prime
ORACLE_CAP_S = 5.0
CATALOG_REPEATS = 100
FRACTION_TRIALS = 500  # the seed-7 campaign
LEVELT_SEED = 11  # perfbench's levelt ops at this seed
RENDER_SHAPES = ((2, 16), (3, 8), (4, 4))  # (rank, finite points), A_inf omitted
READING_LEVELT_RANKS = range(2, 9)
READING_DENSE_RANKS = (5, 6, 7)
READING_REPEATS = 20
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import child  # noqa: E402
import workloads  # noqa: E402
from rigidity_lab import catalog, cli, exact_linalg, fourier, local_systems  # noqa: E402
from rigidity_lab.errors import InvalidMonodromyError  # noqa: E402
from rigidity_lab.exact_linalg import QMatrix, block_diag, jordan_block  # noqa: E402
from rigidity_lab.local_systems import (  # noqa: E402
    monodromy_tuple,
    random_tuple,
    tuple_from_json,
    tuple_to_json,
)
from support import (  # noqa: E402
    EchelonModP,
    closes_full_span_mod_p,
    commutation_centralizer_dimension,
    fraction_inverse,
    fraction_rank,
    fraction_rank_factorization,
    fraction_restriction,
    large_entry_document,
    levelt_tuple,
    loop_matmul,
    random_invertible,
    restrict_power,
    restriction_oracle,
    shift_factorization,
    smith_invariant_factors,
)

LEVELT_OPS = workloads.planned_ops("levelt", 20, workloads.FULL)  # a 20 s perfbench run: 84


def dense_matrix(rng: random.Random, n: int) -> QMatrix:
    return QMatrix.from_rows(
        [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    )


def zero_monodromy_parts(rng: random.Random, n: int) -> tuple[QMatrix, list[int], int]:
    """The dense block, the unit Jordan block sizes (2 and 3, those that fit)
    and the padding of ``zero_monodromy_matrix``."""
    rest = n - max(1, n // 3)
    dense = dense_matrix(rng, n - rest)
    sizes = []
    for size in (2, 3):
        if rest >= size:
            sizes.append(size)
            rest -= size
    return dense, sizes, rest


def zero_monodromy_matrix(rng: random.Random, n: int) -> QMatrix:
    """block_diag(dense, J_2(1), J_3(1), I_p), the parts that fit in n."""
    dense, sizes, padding = zero_monodromy_parts(rng, n)
    return block_diag([dense, *(jordan_block(s, 1) for s in sizes), QMatrix.identity(padding)])


def singular_matrix(rng: random.Random, n: int) -> QMatrix:
    """A ``dense_matrix`` with its last row replaced by the sum of the others."""
    dense = dense_matrix(rng, n)
    rows = [dense.entries[i * n : (i + 1) * n] for i in range(n - 1)]
    return QMatrix.from_rows(rows + [[sum(column) for column in zip(*rows)]])


def large_entries_matrix(rng: random.Random, n: int) -> QMatrix:
    """Entries with random 64-bit numerators (either sign) and denominators."""
    return QMatrix.from_rows(
        [
            [
                Fraction(rng.randint(-(2**64) + 1, 2**64 - 1), rng.randint(2**63, 2**64 - 1))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


FAMILIES = {"dense": dense_matrix, "zero_monodromy": zero_monodromy_matrix}


def median_ms(function, argument, runs: int, cap_s: float = float("inf")):
    """(median ms, the answer, the runs made) over ``runs`` calls, whose
    answers must all agree; a first call that takes more than ``cap_s``
    seconds is the only one."""
    times, answers = [], []
    for _ in range(runs):
        begin = time.perf_counter()
        answers.append(function(argument))
        times.append((time.perf_counter() - begin) * 1e3)
        if times[0] > cap_s * 1e3:
            break
    if any(answer != answers[0] for answer in answers):
        raise RuntimeError(f"{function.__name__} gave different answers on one input")
    return statistics.median(times), answers[0], len(times)


def invariant_factor_rows(runs: int) -> list[dict]:
    rows = []
    for family, make in FAMILIES.items():
        oracle_open = True
        for n in SIZES:
            matrix = make(random.Random(f"{family}:{n}"), n)
            krylov_ms, factors, _ = median_ms(exact_linalg.invariant_factors, matrix, runs)
            row = {"family": family, "n": n, "krylov_ms": round(krylov_ms, 3)}
            if oracle_open:
                smith_ms, oracle, made = median_ms(
                    smith_invariant_factors, matrix, runs, ORACLE_CAP_S
                )
                if oracle != factors:
                    raise RuntimeError(f"{family} n={n}: the kernel disagrees with the oracle")
                oracle_open = made == runs
                row.update(
                    smith_ms=round(smith_ms, 3),
                    smith_runs=made,
                    speedup=round(smith_ms / krylov_ms, 1),
                )
            row["factors"] = len(factors.invariant_factors)
            print(json.dumps(row), flush=True)
            rows.append(row)
    return rows


def alternating_ms(functions: list, argument, runs: int) -> tuple[list[float], list]:
    """(the median ms of each of ``functions`` on ``argument``, their
    answers) over ``runs`` rounds in one process, each function once a
    round and the first to run turning from round to round, so that the
    host's drift between rounds falls on all of them; each function's
    answers must agree."""
    times, answers = [[] for _ in functions], [[] for _ in functions]
    for round_ in range(runs):
        for i in sorted(range(len(functions)), key=lambda i: (i - round_) % len(functions)):
            begin = time.perf_counter()
            answers[i].append(functions[i](argument))
            times[i].append((time.perf_counter() - begin) * 1e3)
    if any(answer != found[0] for found in answers for answer in found):
        raise RuntimeError("a closure route gave different answers on one input")
    return [statistics.median(t) for t in times], [found[0] for found in answers]


def closure_rows(runs: int) -> list[dict]:
    rows = []
    for n in (*CLOSURE_RANKS, *NORTON_ONLY_RANKS):
        families = {"levelt": levelt_tuple(n, seed=n), "dense": random_tuple(n, 3, seed=n)}
        for family, t in families.items():
            generators, finite = t.matrices(), [a for _, a in t.finite_points]
            integer_rows = [g.numerators for g in generators]
            norton = lambda g: exact_linalg._norton_mod_p(g, n)  # noqa: E731
            packed = lambda g: exact_linalg._closes_mod_p(g, n)  # noqa: E731
            if n in NORTON_ONLY_RANKS:
                norton_ms, certified, _ = median_ms(norton, integer_rows, runs)
                row = {"family": family, "rank": n, "norton_ms": round(norton_ms, 3)}
                row.update(norton=certified)
                print(json.dumps(row), flush=True)
                rows.append(row)
                continue
            (norton_ms, packed_ms), (norton_says, certified) = alternating_ms(
                [norton, packed], integer_rows, runs
            )
            unpacked_ms, oracle, _ = median_ms(
                lambda g: closes_full_span_mod_p(g, n, exact_linalg._PRIME), integer_rows, runs
            )
            if certified != oracle or norton_says > oracle:
                raise RuntimeError(f"{family} rank={n}: a certificate disagrees with the oracle")
            row = {
                "family": family,
                "rank": n,
                "norton_ms": round(norton_ms, 3),
                "packed_ms": round(packed_ms, 3),
                "norton_over_packed": round(norton_ms / packed_ms, 2),
                "unpacked_ms": round(unpacked_ms, 3),
                "speedup": round(unpacked_ms / packed_ms, 1),
                "norton": norton_says,
                "certified": certified,
            }
            if n in EXACT_CLOSURE_RANKS:
                identity = [int(i == j) for i in range(n) for j in range(n)]
                exact_ms, full, _ = median_ms(
                    lambda g: exact_linalg._spin(g, identity) == n * n, integer_rows, runs
                )
                row.update(exact_ms=round(exact_ms, 3), full_span=full)
            routed_ms, routed, _ = median_ms(exact_linalg.spans_full_algebra, finite, runs)
            expected = oracle or row.get("full_span")
            if expected is None or routed != expected:
                raise RuntimeError(f"{family} rank={n}: the routed decision is not confirmed")
            row.update(route=closure_route(finite), routed_ms=round(routed_ms, 3))
            print(json.dumps(row), flush=True)
            rows.append(row)
        if n in CLOSURE_RANKS:
            rows.append(crossover_row(n, runs))
    return rows


def closure_route(finite: list[QMatrix]) -> str:
    """The pass of ``spans_full_algebra`` that decides the finite matrices:
    ``spins`` by a pseudo-reflection, ``norton`` by Norton's certificate,
    else ``closure``, mod p or, where that stalls, over Q."""
    n, rows = finite[0].rows, [a.numerators for a in finite]
    if len(finite) > 1 and any(map(exact_linalg._rank_one_shift, finite)):
        return "spins"
    norton = n >= exact_linalg._NORTON_FROM and exact_linalg._norton_mod_p(rows, n)
    return "norton" if norton else "closure"


def crossover_row(n: int, runs: int) -> dict:
    """Norton's certificate against the packed closure on ``CROSSOVER_SAMPLE``
    dense tuples of rank n with 2-4 finite points, ``random_tuple(n, 2 +
    i % 3, 1000 + i)``, on their finite matrices, as ``spans_full_algebra``
    gets them: the summed medians, each tuple's routes alternating, with
    the closure's time added to the certificate's where it falls back."""
    norton_ms = packed_ms = 0.0
    fallbacks = 0
    norton_route = lambda g: exact_linalg._norton_mod_p(g, n)  # noqa: E731
    packed_route = lambda g: exact_linalg._closes_mod_p(g, n)  # noqa: E731
    for i in range(CROSSOVER_SAMPLE):
        finite = [a.numerators for _, a in random_tuple(n, 2 + i % 3, 1000 + i).finite_points]
        (norton, packed), (norton_says, certified) = alternating_ms(
            [norton_route, packed_route], finite, runs
        )
        if norton_says > certified:
            raise RuntimeError(f"dense rank={n}: Norton's certificate outran the closure")
        fallbacks += not norton_says
        norton_ms += norton + (0 if norton_says else packed)
        packed_ms += packed
    row = {
        "family": "crossover",
        "rank": n,
        "tuples": CROSSOVER_SAMPLE,
        "norton_ms": round(norton_ms, 3),
        "packed_ms": round(packed_ms, 3),
        "norton_over_packed": round(norton_ms / packed_ms, 2),
        "fallbacks": fallbacks,
    }
    print(json.dumps(row), flush=True)
    return row


def restriction_rows(runs: int) -> list[dict]:
    rows = []
    for family, make in FAMILIES.items():
        for n in RESTRICTION_SIZES:
            matrix = make(random.Random(f"restriction:{family}:{n}"), n)
            e = max(exact_linalg.invariant_factors(matrix).unit_block_sizes, default=0)
            for power in sorted({1, max(e, 1)}):
                product_ms, restricted, _ = median_ms(
                    lambda m: restrict_power(m, power), matrix, runs
                )
                solve_ms, oracle, _ = median_ms(
                    lambda m: restriction_oracle(m, power), matrix, runs
                )
                if restricted != oracle:
                    raise RuntimeError(f"{family} n={n} power={power}: disagrees with the oracle")
                row = {
                    "family": family,
                    "n": n,
                    "power": power,
                    "largest_unit_block": e,
                    "image_dim": restricted.rows,
                    "product_ms": round(product_ms, 3),
                    "sympy_solve_ms": round(solve_ms, 3),
                }
                print(json.dumps(row), flush=True)
                rows.append(row)
    return rows


def zero_invariant_rows(runs: int) -> list[dict]:
    rows = []
    for n in SIZES:
        seed = f"zero_monodromy:{n}"  # the zero_monodromy matrices of invariant_factor_rows
        dense, sizes, padding = zero_monodromy_parts(random.Random(seed), n)
        matrix = zero_monodromy_matrix(random.Random(seed), n)
        source = block_diag([dense, *(jordan_block(s - 1, 1) for s in sizes)])
        infinity = exact_linalg.invariant_factors(source)
        compose_ms, composed, _ = median_ms(lambda inv: inv.grow_unit_blocks(n), infinity, runs)
        krylov_ms, factors, _ = median_ms(exact_linalg.invariant_factors, matrix, runs)
        if composed != factors:
            raise RuntimeError(f"n={n}: the composed factors disagree with the matrix's")
        row = {
            "family": "zero_monodromy",
            "n": n,
            "unit_blocks": sizes,
            "padding": padding,
            "compose_ms": round(compose_ms, 3),
            "krylov_ms": round(krylov_ms, 3),
            "speedup": round(krylov_ms / compose_ms, 1),
            "factors": len(factors.invariant_factors),
        }
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


def fraction_entries(rows: list[list]) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for row in rows for x in row)


def inverse_or_none(matrix: QMatrix) -> QMatrix | None:
    """``QMatrix.inverse``, or None for a singular matrix, as ``fraction_inverse``."""
    try:
        return matrix.inverse()
    except InvalidMonodromyError:
        return None


def fraction_shift_factorization(matrix: QMatrix) -> tuple[list[int], QMatrix]:
    """``fraction_rank_factorization`` of A - 1, the oracle of ``shift_factorization``."""
    return fraction_rank_factorization(matrix - QMatrix.identity(matrix.rows))


# family: (matrix maker, sizes n); integer: invertible with entries in
# [-2, 2], as random_tuple draws them
TABLE_FAMILIES = {
    "dense": (dense_matrix, TABLE_SIZES),
    "zero_monodromy": (zero_monodromy_matrix, TABLE_SIZES),
    "singular": (singular_matrix, TABLE_SIZES),
    "large_entries": (large_entries_matrix, (4, 6, 8, 10, 12)),
    "integer": (random_invertible, (2, 3, 4, 6, 8, 12, 16)),
}
ECHELON_FAMILIES = ("dense", "zero_monodromy", "large_entries")
# name: (kind, library call, oracle call, families); both calls take, by kind,
# the matrix, the matrix and a second draw, or the matrix's entries as rows
KERNELS = {
    "from_rows": ("rows", QMatrix.from_rows, fraction_entries, ("integer", "dense")),
    "matmul": ("pair", operator.matmul, loop_matmul, ("dense", "zero_monodromy", "integer")),
    "matrix_rank": (
        "matrix", exact_linalg.matrix_rank, fraction_rank, (*ECHELON_FAMILIES, "singular")
    ),
    "rank_factorization": (
        "matrix", shift_factorization, fraction_shift_factorization, ECHELON_FAMILIES
    ),
    "inverse": ("matrix", inverse_or_none, fraction_inverse, (*ECHELON_FAMILIES, "integer")),
    "restrict_to_image": (
        "matrix", exact_linalg.restrict_to_image, fraction_restriction, ("integer", "dense")
    ),
    "centralizer_dimension": (
        "matrix",
        exact_linalg.centralizer_dimension,
        commutation_centralizer_dimension,
        ("integer", "dense", "zero_monodromy"),
    ),
}
# kernel: largest n, where the oracle grows too fast for TABLE_SIZES; the
# commutation system has n^2 unknowns, and its rank took 15 s at dense n = 16
KERNEL_MAX_N = {"centralizer_dimension": 16}


def kernel_row(kernel: str, family: str, n: int, runs: int) -> dict:
    kind, library, oracle, _ = KERNELS[kernel]
    rng = random.Random(f"echelon:{family}:{n}")
    make = TABLE_FAMILIES[family][0]
    matrix = make(rng, n)
    if kind == "pair":
        arguments = (matrix, make(rng, n))
    elif kind == "rows":  # ints for the integer family, as random_tuple passes them
        cast = int if family == "integer" else Fraction
        arguments = ([[cast(x) for x in matrix.entries[i * n : (i + 1) * n]] for i in range(n)],)
    else:
        arguments = (matrix,)
    integer_ms, answer, _ = median_ms(lambda a: library(*a), arguments, runs)
    fraction_ms, expected, _ = median_ms(lambda a: oracle(*a), arguments, runs)
    if kernel == "from_rows":
        answer = answer.entries
    if answer != expected:
        raise RuntimeError(f"{family} n={n} {kernel}: disagrees with the oracle")
    row = {
        "kernel": kernel,
        "family": family,
        "n": n,
        "integer_ms": round(integer_ms, 4),
        "fraction_ms": round(fraction_ms, 4),
        "speedup": round(fraction_ms / integer_ms, 2),
    }
    print(json.dumps(row), flush=True)
    return row


def kernel_rows(runs: int) -> list[dict]:
    return [
        kernel_row(kernel, family, n, runs)
        for kernel, (*_, families) in KERNELS.items()
        for family in families
        for n in TABLE_FAMILIES[family][1]
        if n <= KERNEL_MAX_N.get(kernel, n)
    ]


def first_catalog_load(_) -> dict:
    catalog._builtin_entries.cache_clear()  # so this load checks the built-in entries again
    return catalog.load_catalog(external_dir="")


def catalog_rows(runs: int) -> list[dict]:
    first_ms, entries, _ = median_ms(first_catalog_load, None, runs)
    repeated_ms, loads, _ = median_ms(
        lambda _: [catalog.load_catalog(external_dir="") for _ in range(CATALOG_REPEATS)],
        None,
        runs,
    )
    if any(load != entries for load in loads):
        raise RuntimeError("a repeated load differs from the first")
    rows = []
    for load, ms in (("first", first_ms), ("repeated", repeated_ms / CATALOG_REPEATS)):
        row = {"load": load, "entries": len(entries), "ms": round(ms, 4)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


def render_rows(runs: int) -> list[dict]:
    tuples = {
        f"large_{rank}x{count}": tuple_from_json(
            large_entry_document(rank, count, seed=f"large:{rank}:{count}")
        )
        for rank, count in RENDER_SHAPES
    }
    tuples["dense_7x3"] = random_tuple(7, 3, 2026)
    rows = []
    for name, t in tuples.items():
        analysis = fourier.TupleAnalysis(t)
        zero = analysis.local_data.zero_monodromy
        factors = analysis.zero_invariants.invariant_factors
        times, outputs = [], set()
        for _ in range(runs):
            fresh = QMatrix._integral(zero.rows, zero.cols, zero.numerators, zero.denominator)
            begin = time.perf_counter()
            rendered = (
                exact_linalg.matrix_to_json(fresh),
                [exact_linalg.polynomial_to_string(f) for f in factors],
            )
            times.append((time.perf_counter() - begin) * 1e3)
            outputs.add(json.dumps(rendered))
        if len(outputs) != 1:
            raise RuntimeError(f"{name}: runs rendered different text")
        (text,) = outputs
        row = {
            "input": name,
            "rank_hat": zero.rows,
            "digits": max(map(len, re.findall("[0-9]+", text))),
            "chars": len(text),
            "ms": round(statistics.median(times), 3),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


def per_call_ms(function, argument, runs: int, repeats: int) -> float:
    """The median over ``runs`` runs of the ms per call of ``repeats`` calls."""
    times = []
    for _ in range(runs):
        begin = time.perf_counter()
        for _ in range(repeats):
            function(argument)
        times.append((time.perf_counter() - begin) * 1e3 / repeats)
    return statistics.median(times)


def parsed_entries(document: dict) -> int:
    """The matrix entries of ``document`` that ``tuple_from_json`` hands to
    ``rational_pair``: its calls less the one for each location."""
    calls, parse = [], exact_linalg.rational_pair
    exact_linalg.rational_pair = lambda value: calls.append(value) or parse(value)
    try:
        tuple_from_json(document)
    finally:
        exact_linalg.rational_pair = parse
    return len(calls) - len(document["finite_points"])


def reading_rows(runs: int) -> list[dict]:
    documents = {f"levelt:{n}": tuple_to_json(levelt_tuple(n, n)) for n in READING_LEVELT_RANKS}
    for n in READING_DENSE_RANKS:
        documents[f"dense:{n}"] = tuple_to_json(random_tuple(n, 3, 2026))
    rows = []
    for name, document in documents.items():
        t = tuple_from_json(document)
        payload = fourier.fourier_data_to_json(fourier.TupleAnalysis(t))
        if cli._indented(payload) != json.dumps(payload, indent=2):
            raise RuntimeError(f"{name}: the writer differs from json.dumps")
        matrices = [point["matrix"] for point in document["finite_points"]]
        matrices.append(document["infinity_matrix"])
        row = {
            "input": name,
            "rank": t.rank,
            "entries": sum(len(row) for matrix in matrices for row in matrix),
            "parsed_by_rational_pair": parsed_entries(document),
            "read_ms": round(per_call_ms(tuple_from_json, document, runs, READING_REPEATS), 4),
            "validate_ms": round(per_call_ms(local_systems.validate, t, runs, READING_REPEATS), 4),
            "write_ms": round(per_call_ms(cli._indented, payload, runs, READING_REPEATS), 4),
            "json_dumps_ms": round(
                per_call_ms(lambda p: json.dumps(p, indent=2), payload, runs, READING_REPEATS), 4
            ),
        }
        print(json.dumps(row), flush=True)
        rows.append(row)
    name = f"adm:{CORNER_RANKS[-1]}:{CORNER_POINTS[-1]}"
    document = large_matrices_document(CORNER_RANKS[-1], CORNER_POINTS[-1], name)
    row = {
        "input": name,
        "rank": document["rank"],
        "entries": document["rank"] ** 2 * len(document["finite_points"]),
        "parsed_by_rational_pair": parsed_entries(document),
        "read_ms": round(per_call_ms(tuple_from_json, document, runs, 1), 1),
    }
    print(json.dumps(row), flush=True)
    rows.append(row)
    return rows


def fraction_count_row(command: str, argvs: list[list[str]]) -> dict:
    """``Fraction`` call counts of ``cli.main`` on each argv in turn."""
    out, profile = io.StringIO(), cProfile.Profile()
    with contextlib.redirect_stdout(out):
        code = max(profile.runcall(cli.main, argv) for argv in argvs)
    calls = {
        name: count
        for (path, _, name), (_, count, *_) in pstats.Stats(profile).stats.items()
        if path == fractions.__file__
    }
    row = {
        "command": command,
        "constructions": calls.get("__new__", 0),
        "divisions": calls.get("_div", 0),
        "exit_code": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }
    print(json.dumps(row), flush=True)
    return row


def fraction_rows(_runs: int) -> list[dict]:
    """Rows of ``Fraction`` call counts of the seed-7 campaign and of the
    seed-11 ``levelt`` ops; counts do not vary from run to run, so each
    stream runs once."""
    argv = ["verify", "--random", "--trials", str(FRACTION_TRIALS)]
    argv += ["--max-rank", "4", "--max-points", "4", "--seed", "7"]
    with tempfile.TemporaryDirectory() as directory:
        levelt = []
        for i in range(LEVELT_OPS):
            run_dir = Path(directory) / str(i)
            run_dir.mkdir()
            op = workloads.build_op("levelt", LEVELT_SEED, i, workloads.FULL)
            levelt.append(child.materialize(op, run_dir))
        return [
            fraction_count_row(" ".join(argv), [argv]),
            fraction_count_row(f"perfbench levelt seed {LEVELT_SEED}, {LEVELT_OPS} ops", levelt),
        ]


def large_entry(rng: random.Random) -> Fraction:
    """A numerator (either sign) and a denominator of 256 bits each."""
    numerator = rng.choice((-1, 1)) * rng.randint(2**255, 2**256 - 1)
    return Fraction(numerator, rng.randint(2**255, 2**256 - 1))


def invertible_mod_p(rows: list[list]) -> bool:
    """Whether dA has full rank mod 2^19 - 1 (``support.EchelonModP``), which
    proves A invertible: an exact rank takes seconds at rank 16."""
    basis = EchelonModP(len(rows), PRIME)
    return all(basis.add(row) for row in QMatrix.from_rows(rows).numerators)


def points_document(points: list[list[list]]) -> dict:
    """A tuple document with A_inf omitted: the matrices ``points``, rows of
    ``Fraction``s or ints, at locations 0, 1, ..."""
    return {
        "rank": len(points[0]),
        "finite_points": [
            {"location": str(i), "matrix": [[str(x) for x in row] for row in rows]}
            for i, rows in enumerate(points)
        ],
    }


def large_matrices_document(rank: int, points: int, seed: str) -> dict:
    """A tuple document with A_inf omitted: ``points`` invertible non-identity
    rank x rank matrices of ``large_entry`` entries, drawn in order from
    ``random.Random(seed)``, at locations 0..points-1.  A draw is kept when
    it is invertible (``invertible_mod_p``)."""
    rng, matrices, identity = random.Random(seed), [], QMatrix.identity(rank)
    while len(matrices) < points:
        rows = [[large_entry(rng) for _ in range(rank)] for _ in range(rank)]
        if QMatrix.from_rows(rows) != identity and invertible_mod_p(rows):
            matrices.append(rows)
    return points_document(matrices)


def worst_case_documents(points: int) -> dict[str, dict]:
    """The two worst-case inputs on ``points`` finite points, as tuple
    documents with A_inf omitted: ``small_entries`` is
    ``random_tuple(16, points, 2026)``; ``large_entries`` is the rank-4
    ``large_matrices_document`` of seed ``worst:256``."""
    small = tuple_to_json(random_tuple(16, points, 2026))
    del small["infinity_matrix"]
    large = large_matrices_document(4, points, "worst:256")
    return {"small_entries": small, "large_entries": large}


def corner_documents() -> dict[str, dict]:
    """The corner grid: the ``large_matrices_document`` of seed
    ``adm:<rank>:<points>`` for each rank of ``CORNER_RANKS`` and each count of
    ``CORNER_POINTS``, named by its seed."""
    return {
        f"adm:{rank}:{points}": large_matrices_document(rank, points, f"adm:{rank}:{points}")
        for rank in CORNER_RANKS
        for points in CORNER_POINTS
    }


def large_integer(rng: random.Random, bits: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(2 ** (bits - 1), 2**bits - 1)


def non_generic_documents() -> dict[str, dict]:
    """Three non-generic documents with numerators and denominators of at
    most 256 bits for each rank n of ``NON_GENERIC_RANKS``, A_inf omitted,
    drawn from ``random.Random('adm:<kind>:<n>')`` and named
    ``<kind>:<n>``:

    - ``unit_block``: the Levelt tuple ``support.levelt_tuple(n, n)``
      conjugated by a diagonal of 248-bit integers, so that A_inf is one
      unit Jordan block of size n;
    - ``rank_drop``: a matrix of ``large_entry`` entries and 1 + U W^T, U
      and W n x n/2 of 120-bit integers, a point with rank(A - 1) = n/2;
    - ``reducible``: two matrices of ``large_entry`` entries, zero in rows
      n/2.. of columns ..n/2, so that span(e_1, ..., e_n/2) is invariant.

    A drawn matrix is kept when it is invertible (``invertible_mod_p``)."""
    documents = {}
    for n in NON_GENERIC_RANKS:
        half = n // 2
        rng = random.Random(f"adm:unit_block:{n}")
        scale = [rng.randint(2**247, 2**248 - 1) for _ in range(n)]
        documents[f"unit_block:{n}"] = [
            [
                [Fraction(a.entries[i * n + j] * scale[i], scale[j]) for j in range(n)]
                for i in range(n)
            ]
            for _, a in levelt_tuple(n, n).finite_points
        ]
        rng, points = random.Random(f"adm:rank_drop:{n}"), []
        while not points:
            dense = [[large_entry(rng) for _ in range(n)] for _ in range(n)]
            u = [[large_integer(rng, 120) for _ in range(half)] for _ in range(n)]
            w = [[large_integer(rng, 120) for _ in range(half)] for _ in range(n)]
            drop = [
                [int(i == j) + sum(map(operator.mul, u[i], w[j])) for j in range(n)]
                for i in range(n)
            ]
            if invertible_mod_p(dense) and invertible_mod_p(drop):
                points = [dense, drop]
        documents[f"rank_drop:{n}"] = points
        rng, points = random.Random(f"adm:reducible:{n}"), []
        while len(points) < 2:
            rows = [[0 if i >= half > j else large_entry(rng) for j in range(n)] for i in range(n)]
            if invertible_mod_p(rows):
                points.append(rows)
        documents[f"reducible:{n}"] = points
    return {name: points_document(points) for name, points in documents.items()}


def given_infinity_documents() -> dict[str, dict]:
    """A document that gives A_inf for each rank n of ``GIVEN_INFINITY_RANKS``,
    named ``given_infinity:<n>``: A_inf = diag(r_1, ..., r_n), each r_i of a
    numerator (either sign) and a denominator of 255 bits drawn from
    ``random.Random('adm:given_infinity:<n>')``, A_1 = A_inf^-1 C^-1 and
    A_2 = C, where C = U L is the product of the all-ones upper and lower
    triangular matrices.  C^-1 has entries 2 on its diagonal, so A_1's stay
    within the 256 bits the reader accepts.  A_inf's stored integers, over
    the lcm of n denominators, run to about 255 n bits; every other corner
    omits A_inf, so this one times the route of a given A_inf."""
    documents = {}
    for n in GIVEN_INFINITY_RANKS:
        rng = random.Random(f"adm:given_infinity:{n}")
        diagonal = [
            Fraction(large_integer(rng, 255), rng.randint(2**254, 2**255 - 1)) for _ in range(n)
        ]
        infinity = QMatrix.from_rows(
            [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )
        c = QMatrix.from_rows([[min(n - i, n - j) for j in range(n)] for i in range(n)])
        points = [(0, infinity.inverse() @ c.inverse()), (1, c)]
        documents[f"given_infinity:{n}"] = tuple_to_json(monodromy_tuple(n, points, infinity))
    return documents


def command_run(command: str, path: str) -> dict:
    """``rigidity-lab <command> --input path`` in a fresh interpreter on this
    tree's ``src/``, stopped after ``WORST_CASE_TIMEOUT_S`` s of wall time:
    its CPU seconds (start-up included), exit code and stdout's sha256, each
    None when it timed out."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "rigidity_lab.cli", command, "--input", path],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=WORST_CASE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"timed_out": True, "cpu_s": None, "exit_code": None, "stdout_sha256": None}
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return {
        "timed_out": False,
        "cpu_s": round(cpu, 3),
        "exit_code": done.returncode,
        "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
    }


def worst_case_rows(_runs: int) -> list[dict]:
    """One run of each of ``WORST_CASE_COMMANDS`` on each worst-case input and
    each corner, in that order: a run can take minutes, so none is repeated."""
    documents = [
        (name, points, document)
        for points in WORST_CASE_POINTS
        for name, document in worst_case_documents(points).items()
    ]
    corners = {**corner_documents(), **non_generic_documents(), **given_infinity_documents()}
    documents += [
        (name, len(document["finite_points"]), document) for name, document in corners.items()
    ]
    rows = []
    with tempfile.TemporaryDirectory() as directory:
        for name, points, document in documents:
            path = Path(directory) / "input.json"
            path.write_text(json.dumps(document))
            for command in WORST_CASE_COMMANDS:
                row = {"input": name, "rank": document["rank"], "points": points}
                row.update(command=command, **command_run(command, str(path)))
                print(json.dumps(row), flush=True)
                rows.append(row)
    return rows


def environment() -> dict:
    # "-dirty" marks a working tree that differs from the commit
    sha = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    ).stdout.strip()
    return {
        "python": platform.python_version(),
        "git_sha": sha or None,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--worst-cases", type=Path, metavar="DIR")
    args = parser.parse_args()
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    if args.worst_cases:
        args.worst_cases.mkdir(parents=True, exist_ok=True)
        documents = {
            **worst_case_documents(WORST_CASE_POINTS[-1]),
            **corner_documents(),
            **non_generic_documents(),
            **given_infinity_documents(),
        }
        for name, document in documents.items():
            path = args.worst_cases / f"{name.replace(':', '_')}.json"
            path.write_text(json.dumps(document) + "\n")
        return

    result = {
        "environment": environment(),
        "kernels": {
            "what": "irreducibility of the tuple's integer matrices: Norton's certificate mod 31 "
            "and the closure mod 2^19 - 1 on packed vectors, alternating, vs the same closure "
            "entry by entry (oracle), the pass over Q up to rank 8, the routed "
            "spans_full_algebra on the finite matrices, and crossover rows over 40 dense "
            "tuples per rank; Norton's certificate alone at ranks 24 and 32",
            "unit": "ms, median of runs",
            "runs": args.runs,
            "rows": closure_rows(args.runs),
        },
        "invariant_factors": {
            "what": "invariant factors: Krylov kernel vs Smith form of the full xI - A (oracle)",
            "unit": "ms, median of runs (smith_runs of them for the oracle)",
            "runs": args.runs,
            "rows": invariant_factor_rows(args.runs),
        },
        "restriction": {
            "what": "A restricted to im((A - 1)^power), power 1 and e: restrict_to_image "
            "(W A[:, pivots]) applied power times vs pivot columns and a solve in sympy (oracle)",
            "unit": "ms, median of runs",
            "runs": args.runs,
            "rows": restriction_rows(args.runs),
        },
        "zero_invariants": {
            "what": "zero monodromy invariants: composed from those at infinity "
            "(grow_unit_blocks) vs the Krylov kernel on the assembled matrix",
            "unit": "ms, median of runs",
            "runs": args.runs,
            "rows": zero_invariant_rows(args.runs),
        },
        "kernel_table": {
            "what": "matrix kernels of KERNELS on the stored integers (from_rows, @, rank, "
            "rank factorization, inverse, restrict_to_image, centralizer_dimension) "
            "vs support's Fraction routes and the commutation system (oracles)",
            "unit": "ms, median of runs",
            "runs": args.runs,
            "rows": kernel_rows(args.runs),
        },
        "catalog": {
            "what": "load_catalog() of the built-in entries: the first load in a process, "
            "which checks them, and a repeated load, which copies them",
            "unit": f"ms, median of runs (repeated: the mean of {CATALOG_REPEATS} loads a run)",
            "runs": args.runs,
            "rows": catalog_rows(args.runs),
        },
        "render": {
            "what": "matrix_to_json of the zero monodromy plus polynomial_to_string of its "
            "invariant factors, on the three large-entry shapes and a dense rank-7 tuple",
            "unit": "ms, median of runs",
            "runs": args.runs,
            "rows": render_rows(args.runs),
        },
        "reading": {
            "what": "tuple_from_json, validate (the relation on integers) and the CLI's JSON "
            "writer beside json.dumps(indent=2) on Levelt documents of rank 2-8 and dense ones "
            "of rank 5-7, A_inf given, and tuple_from_json on the largest 256-bit corner; "
            "entries parsed by rational_pair",
            "unit": f"ms per call, median of runs of {READING_REPEATS} calls (the corner: 1)",
            "runs": args.runs,
            "rows": reading_rows(args.runs),
        },
        "fractions": {
            "what": "Fraction constructions (__new__) and divisions (_div) of the seed-7 "
            "campaign and of perfbench's seed-11 levelt ops, in process under cProfile",
            "unit": "calls",
            "rows": fraction_rows(args.runs),
        },
        "worst_cases": {
            "what": "rig, verify and fourier --input on the two worst-case inputs of "
            "worst_case_documents, the corner grid of corner_documents and the "
            "non_generic_documents, A_inf omitted, then given_infinity_documents, A_inf given, "
            f"each in a fresh interpreter stopped after {WORST_CASE_TIMEOUT_S:g} s",
            "unit": "CPU s of one run, start-up included",
            "rows": worst_case_rows(args.runs),
        },
    }
    if args.out:
        existing = json.loads(args.out.read_text()) if args.out.exists() else {}
        existing.update(result)
        args.out.write_text(json.dumps(existing, indent=2) + "\n")


if __name__ == "__main__":
    main()
