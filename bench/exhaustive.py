"""Run the exhaustive sets of small tuples that are too large for tier-1 on
two source trees, count the branches they reach, and check that both trees
print the same for every tuple.

    python3 bench/exhaustive.py --parent DIR --change DIR [--sets rank2-3pt rank3-2pt]
                                [--smoke]

A set is every tuple (0: A_1, ..., k - 1: A_k), A_inf derived, whose k
finite matrices run, in ``itertools.product`` order, over the invertible
n x n matrices other than 1 with entries in a small set:

- ``rank2-3pt``: rank 2, three points, entries in {-1, 0, 1}: 47 matrices,
  47^3 = 103,823 tuples;
- ``rank3-2pt``: rank 3, two points, entries in {0, 1}: 173 matrices,
  173^2 = 29,929 tuples.

``--smoke`` keeps the first ``SMOKE_MATRICES`` matrices of each set.  Each
tree's ``src/rigidity_lab`` is loaded as its own package, as ``bench/ab.py``
loads it.  Every tuple runs on both trees back to back, the tree that goes
first alternating from tuple to tuple, and what ``fourier --input`` and
``verify --input`` print (the JSON at ``indent=2``, or the class and
message of the error they report; each on its own ``TupleAnalysis``, as
the CLI runs them, so ``verify`` takes the routes it takes there) must be
the same, or the run stops;
those bytes go, in order, into one sha256 digest per set.  Each row gives
each tree's CPU seconds for the set (building the tuples included), their
ratio (change over parent), the digest, and the branch counts, of all
tuples and of the irreducible ones: tuples preserved, tuples whose A_inf
has eigenvalue 1, a unit Jordan block of size at least 2, or such a block
beside another eigenvalue (``mixed``: its part without eigenvalue 1 takes
e >= 2 restrictions), and tuples whose reconstruction is non-realizable.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

from ab import CLOCK, TREES, load_tree  # noqa: E402

# name: (rank, finite points, entries)
SETS = {
    "rank2-3pt": (2, 3, (-1, 0, 1)),
    "rank3-2pt": (3, 2, (0, 1)),
}
SMOKE_MATRICES = 6
BRANCHES = (
    "tuples",
    "preserved",
    "eigenvalue_one_at_infinity",
    "unit_block_2_at_infinity",
    "mixed_at_infinity",
    "non_realizable",
)


def small_matrices(lib, n: int, entries: tuple[int, ...]) -> list:
    """The invertible n x n matrices other than 1 with entries in ``entries``."""
    QMatrix = lib.exact_linalg.QMatrix
    matrices = (QMatrix(n, n, e) for e in itertools.product(entries, repeat=n * n))
    found = [m for m in matrices if m.is_invertible()]
    found.remove(QMatrix.identity(n))
    return found


def printed(lib, command):
    """What a command prints: its payload, or the class and message of the
    library error it reports."""
    try:
        return command()
    except lib.errors.RigidityLabError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def outcome(lib, n: int, chosen: tuple) -> tuple[bytes, tuple[bool, ...], bool]:
    """What ``fourier`` and ``verify`` print for the tuple of ``chosen``,
    the ``BRANCHES`` it reaches, and whether it is irreducible."""
    t = lib.local_systems.monodromy_tuple(n, enumerate(chosen))
    analysis = lib.fourier.TupleAnalysis(t)

    def verify_input() -> dict:  # as ``cli._cmd_verify`` runs it, without ``--force``
        own = lib.fourier.TupleAnalysis(t)  # not the one fourier filled, as in the CLI
        own.require_irreducible()
        return lib.fourier.preservation_to_json(own)

    fourier = printed(lib, lambda: lib.fourier.fourier_data_to_json(analysis))
    verify = printed(lib, verify_input)
    text = b"".join(json.dumps(payload, indent=2).encode() + b"\n" for payload in (fourier, verify))
    sizes = analysis.infinity_invariants.unit_block_sizes
    e = max(sizes, default=0)
    reached = (
        True,
        verify.get("equal", False),
        e > 0,
        e >= 2,
        e >= 2 and sum(sizes) < n,
        fourier.get("error") == "NonRealizableError",
    )
    return text, reached, analysis.irreducible


def run_set(libs: dict, name: str, smoke: bool) -> dict:
    """One set on both trees, tuple by tuple, the tree that goes first
    alternating: each tree's CPU seconds, and the digest and branch counts,
    which must be the same for both."""
    n, points, entries = SETS[name]
    kept = SMOKE_MATRICES if smoke else None
    chosen = [
        itertools.product(small_matrices(libs[tree], n, entries)[:kept], repeat=points)
        for tree in TREES
    ]
    cpu = dict.fromkeys(TREES, 0)
    digest = hashlib.sha256()
    counts = {population: dict.fromkeys(BRANCHES, 0) for population in ("all", "irreducible")}
    for i, pair in enumerate(zip(*chosen)):
        seen = {}
        for tree, matrices in list(zip(TREES, pair))[:: 1 if i % 2 else -1]:
            start = CLOCK()
            seen[tree] = outcome(libs[tree], n, matrices)
            cpu[tree] += CLOCK() - start
        if seen["parent"] != seen["change"]:
            raise SystemExit(f"{name} tuple {i}: the trees differ")
        text, reached, irreducible = seen["change"]
        digest.update(text)
        for population in ("all", "irreducible")[: 1 + irreducible]:
            for branch, hit in zip(BRANCHES, reached):
                counts[population][branch] += hit
    return {
        **{f"{tree}_cpu_s": round(cpu[tree] / 1e9, 2) for tree in TREES},
        "ratio": round(cpu["change"] / cpu["parent"], 3),
        "sha256": digest.hexdigest(),
        **counts,
    }


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--sets", nargs="+", choices=list(SETS), default=list(SETS))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    libs = {}
    for tree, root in zip(TREES, (args.parent, args.change)):
        load_tree(root, f"exhaustive_{tree}")
        libs[tree] = argparse.Namespace(
            **{
                module: sys.modules[f"exhaustive_{tree}.{module}"]
                for module in ("errors", "exact_linalg", "fourier", "local_systems")
            }
        )
    result = {"smoke": args.smoke, "sets": {}}
    for name in args.sets:
        result["sets"][name] = row = run_set(libs, name, args.smoke)
        print(f"{name}: {json.dumps(row)}", flush=True)
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
