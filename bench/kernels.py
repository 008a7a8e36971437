"""Time the irreducibility span closure: the mod-p certificate against the exact closure.

    python3 bench/kernels.py [--runs 3] [--out BENCH.json]

Run from the repository root; the library is imported from ``src/``.  For
each rank n = 2..8 it builds two fixed-seed tuples, a hypergeometric
(Levelt) tuple (C_f, C_f^-1 C_g; C_g^-1) with g = (x - 1)^n and a dense
random tuple on three finite points, and times
``exact_linalg._full_span_mod_p`` (the certificate) and
``exact_linalg._spans_full_algebra_exact`` on its matrices, reporting the
median of ``--runs`` runs in milliseconds.  Both answers are recorded; on
these tuples they agree.  With ``--out``, the result is written into that
JSON file under the keys ``environment`` and ``kernels``; other keys
already in the file are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_RANK = 8  # the exact closure takes about a second at rank 8, and grows as n^6
sys.path.insert(0, str(ROOT / "src"))

from rigidity_lab import exact_linalg  # noqa: E402
from rigidity_lab.exact_linalg import QMatrix  # noqa: E402
from rigidity_lab.local_systems import random_tuple  # noqa: E402


def companion(coeffs: list[int]) -> QMatrix:
    """Companion matrix of x^n + c_{n-1} x^{n-1} + ... + c_0."""
    n = len(coeffs)
    return QMatrix.from_rows(
        [[int(j == i - 1) - (coeffs[i] if j == n - 1 else 0) for j in range(n)] for i in range(n)]
    )


def levelt_generators(n: int, seed: int) -> list[QMatrix]:
    rng = random.Random(seed)
    while True:
        f = [rng.randint(-3, 3) for _ in range(n)]
        if f[0] and 1 + sum(f):  # C_f invertible, f and (x - 1)^n coprime
            break
    g = [(-1) ** (n - k) * comb(n, k) for k in range(n)]
    cf, cg = companion(f), companion(g)
    return [cf, cf.inverse() @ cg, cg.inverse()]


def median_ms(function, generators: list[QMatrix], runs: int) -> tuple[float, bool]:
    times, answers = [], set()
    for _ in range(runs):
        begin = time.perf_counter()
        answers.add(function(generators))
        times.append((time.perf_counter() - begin) * 1e3)
    (answer,) = answers
    return statistics.median(times), answer


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
    args = parser.parse_args()
    if args.runs < 3:
        parser.error("--runs must be at least 3")

    rows = []
    for n in range(2, MAX_RANK + 1):
        families = {
            "levelt": levelt_generators(n, seed=n),
            "dense": random_tuple(n, 3, seed=n).matrices(),
        }
        for family, generators in families.items():
            mod_p_ms, certified = median_ms(exact_linalg._full_span_mod_p, generators, args.runs)
            exact_ms, full = median_ms(exact_linalg._spans_full_algebra_exact, generators, args.runs)
            row = {
                "family": family,
                "rank": n,
                "mod_p_ms": round(mod_p_ms, 3),
                "exact_ms": round(exact_ms, 3),
                "speedup": round(exact_ms / mod_p_ms, 1),
                "certified": certified,
                "full_span": full,
            }
            print(json.dumps(row), flush=True)
            rows.append(row)

    result = {
        "environment": environment(),
        "kernels": {
            "what": "span closure of the tuple's matrices: mod-p certificate vs exact closure",
            "unit": "ms, median of runs",
            "runs": args.runs,
            "rows": rows,
        },
    }
    if args.out:
        existing = json.loads(args.out.read_text()) if args.out.exists() else {}
        existing.update(result)
        args.out.write_text(json.dumps(existing, indent=2) + "\n")


if __name__ == "__main__":
    main()
