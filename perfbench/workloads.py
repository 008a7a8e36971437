"""Seeded op streams for the four workloads.

An op is one ``cli.main(argv)`` call.  Op ``i`` of a workload is a pure
function of (workload, seed, i): each op, or each tuple shared by a group of
ops, draws from its own ``random.Random`` seeded with a string, so any op can
be rebuilt alone for replay and two runs of one seed see the same inputs.
Inputs are generated with ``fractions`` and the benchmark's own arithmetic,
never with library helpers, so a library change cannot change them.

Streams are laid out in cycles of a fixed op mix, and a run is a whole
number of cycles, so every run measures the same mix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import arith

WORKLOADS = ("campaign", "wide", "levelt", "requests")

# Shipped catalog entries named in the CLI's documentation.
CATALOG_NAMES = ("kummer", "rank1_twopoint", "unipotent_infinity", "hypergeometric2", "nonrigid4")

COMMANDS = ("rig", "fourier", "verify")

# (command, format, input class) for one requests cycle.
REQUEST_KINDS = (
    ("rig", "json", "irreducible"),
    ("rig", "text", "irreducible"),
    ("rig", "json", "reducible"),
    ("fourier", "json", "irreducible"),
    ("fourier", "text", "irreducible"),
    ("fourier", "json", "reducible"),
    ("fourier", "json", "nonrealizable"),
    ("verify", "json", "irreducible"),
    ("verify", "text", "irreducible"),
    ("verify", "json", "reducible"),
    ("verify --force", "json", "reducible"),
    ("catalog list", "json", None),
    ("catalog list", "text", None),
    ("catalog show", "json", None),
    ("rig", "json", "malformed"),
    ("verify", "json", "relation"),
    ("fourier", "json", "singular"),
)

EXIT_CODES = {
    ("verify", "reducible"): 4,
    ("fourier", "nonrealizable"): 3,
    ("rig", "malformed"): 2,
    ("verify", "relation"): 2,
    ("fourier", "singular"): 2,
}

INPUT = "{input}"


@dataclass
class Op:
    """One CLI call: argv (with ``{input}`` standing for the input file),
    the input file's text, and what the checks expect of its output."""

    kind: str
    argv: list[str]
    doc: str | None = None
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Sizes:
    campaign_trials: int
    wide_shapes: tuple[tuple[int, int], ...]  # (rank, finite points) per tuple of a cycle
    levelt_ranks: tuple[int, ...]


FULL = Sizes(campaign_trials=10, wide_shapes=((5, 4), (6, 4), (7, 3)), levelt_ranks=tuple(range(2, 9)))
SMOKE = Sizes(campaign_trials=2, wide_shapes=((3, 3), (3, 4), (4, 3)), levelt_ranks=(2, 3))


def cycle_length(workload: str, sizes: Sizes) -> int:
    if workload == "campaign":
        return 1
    if workload == "wide":
        return len(COMMANDS) * len(sizes.wide_shapes)
    if workload == "levelt":
        return len(COMMANDS) * len(sizes.levelt_ranks)
    return len(REQUEST_KINDS)


# Ops per --seconds.  A run's op count is fixed from --seconds through these
# rates, so every run of a workload measures the same ops, mix and sample
# count however fast the code is.  At this commit on a 2-vCPU x86-64 VM with
# Python 3.11, a 20 s run loops for about 16 s on requests and 23 s on
# campaign and levelt: these two get more ops because their seeded input mix,
# not the host, sets most of their spread.  At least MIN_CYCLES cycles run,
# so each op class of a cycle has that many samples (this makes a wide run
# loop for about 33 s).
NOMINAL_OPS_PER_S = {"campaign": 3.5, "wide": 1.0, "levelt": 3.8, "requests": 100.0}
MIN_CYCLES = 3

# Ops replayed in a fresh process to check determinism in untraced runs.
DIGEST_PREFIX = {"campaign": 4, "wide": 3, "levelt": 9, "requests": len(REQUEST_KINDS)}


def planned_ops(workload: str, seconds: float, sizes: Sizes) -> int:
    """Whole cycles worth ``seconds`` at the nominal rate, at least
    MIN_CYCLES, and never fewer ops than the digest prefix."""
    cycle = cycle_length(workload, sizes)
    cycles = max(MIN_CYCLES, round(seconds * NOMINAL_OPS_PER_S[workload] / cycle))
    return max(cycles * cycle, DIGEST_PREFIX[workload])


def _rng(workload: str, seed: int, key: object) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{key}")


def _doc(finite: list[tuple[Fraction, arith.Matrix]], infinity: arith.Matrix | None) -> str:
    payload: dict = {
        "rank": len(finite[0][1]),
        "finite_points": [
            {"location": arith.fmt(loc), "matrix": arith.to_json(m)} for loc, m in finite
        ],
    }
    if infinity is not None:
        payload["infinity_matrix"] = arith.to_json(infinity)
    return json.dumps(payload)


def _dense(rng: random.Random, n: int) -> arith.Matrix:
    """Invertible non-identity matrix with entries in [-2, 2]."""
    ident = arith.identity(n)
    while True:
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if m != ident and arith.rank(m) == n:
            return m


def _tuple_facts(finite: list[arith.Matrix]) -> dict:
    infinity = arith.inverse(arith.product(finite))
    return {
        "rank": len(infinity),
        "points": len(finite),
        "matrices": finite + [infinity],
        "unit_ranks": [arith.rank(arith.sub_identity(m)) for m in finite],
        "infinity_fixed": len(infinity) - arith.rank(arith.sub_identity(infinity)),
    }


def _irreducible(rng: random.Random, n: int, k: int) -> list[arith.Matrix]:
    while True:
        finite = [_dense(rng, n) for _ in range(k)]
        infinity = arith.inverse(arith.product(finite))
        if n == 1 or arith.full_span_mod_p(finite + [infinity]):
            return finite


def _fixing_e1(rng: random.Random, n: int) -> arith.Matrix:
    ident = arith.identity(n)
    while True:
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        for row in m[1:]:
            row[0] = Fraction(0)
        if m != ident and arith.rank(m) == n:
            return m


def _reducible(rng: random.Random, n: int, k: int) -> list[arith.Matrix]:
    """Tuples fixing the line spanned by e_1, drawn until the transform's
    minimal pair is realizable (so ``fourier`` and ``verify --force`` succeed)."""
    while True:
        finite = [_fixing_e1(rng, n) for _ in range(k)]
        facts = _tuple_facts(finite)
        if sum(facts["unit_ranks"]) >= n + facts["infinity_fixed"]:
            return finite


def _pseudo_reflections(rng: random.Random, n: int, k: int) -> list[arith.Matrix]:
    """k < n pseudo-reflections: sum of rank(A_i - 1) is k < n, so the
    transform's minimal pair cannot exist."""
    out = []
    while len(out) < k:
        u = [rng.randint(-2, 2) for _ in range(n)]
        v = [rng.randint(-2, 2) for _ in range(n)]
        if any(u) and any(v) and 1 + sum(a * b for a, b in zip(u, v)) != 0:
            out.append([[Fraction(int(i == j) + u[i] * v[j]) for j in range(n)] for i in range(n)])
    return out


def _locations(rng: random.Random, k: int) -> list[Fraction]:
    pool = [Fraction(x) for x in (-2, -1, 0, 1, 2, 3)] + [Fraction(1, 2), Fraction(-1, 3)]
    return rng.sample(pool, k)


def _campaign(seed: int, i: int, sizes: Sizes) -> Op:
    rng = _rng("campaign", seed, i)
    trials = sizes.campaign_trials
    argv = [
        "verify", "--random", "--trials", str(trials), "--max-rank", "4",
        "--max-points", "4", "--seed", str(rng.getrandbits(31)),
    ]
    return Op("campaign", argv, expect={"exit": 0, "trials": trials})


def _wide(seed: int, i: int, sizes: Sizes) -> Op:
    j, c = divmod(i, len(COMMANDS))
    rng = _rng("wide", seed, j)
    n, k = sizes.wide_shapes[j % len(sizes.wide_shapes)]
    finite = _irreducible(rng, n, k)
    doc = _doc([(Fraction(p), m) for p, m in enumerate(finite)], None)
    facts = _tuple_facts(finite)
    return Op(f"wide-{COMMANDS[c]}", [COMMANDS[c], "--input", INPUT], doc, {"exit": 0, **facts})


def _levelt(seed: int, i: int, sizes: Sizes) -> Op:
    """Hypergeometric tuple (C_f, C_f^-1 C_g; C_g^-1) with g = (x-1)^n.

    f(0) f(1) != 0 makes C_f invertible and f, g coprime, so the tuple is
    irreducible and rigid (Beukers-Heckman); its index is 2 in closed form.
    """
    j, c = divmod(i, len(COMMANDS))
    rng = _rng("levelt", seed, j)
    n = sizes.levelt_ranks[j % len(sizes.levelt_ranks)]
    while True:
        f = [rng.randint(-3, 3) for _ in range(n)]
        if f[0] and 1 + sum(f):
            break
    g = [(-1) ** (n - k) * arith.binomial(n, k) for k in range(n)]
    cf, cg = arith.companion(f), arith.companion(g)
    finite = [(Fraction(0), cf), (Fraction(1), arith.matmul(arith.inverse(cf), cg))]
    doc = _doc(finite, arith.inverse(cg))
    return Op(f"levelt-{COMMANDS[c]}", [COMMANDS[c], "--input", INPUT], doc, {"exit": 0, "rank": n})


def _requests(seed: int, i: int, sizes: Sizes) -> Op:
    command, fmt, cls = REQUEST_KINDS[i % len(REQUEST_KINDS)]
    rng = _rng("requests", seed, i)
    kind = f"requests-{command.replace(' ', '-')}-{fmt}" + (f"-{cls}" if cls else "")
    argv = command.split() + ["--format", fmt]
    if command.startswith("catalog"):
        if command == "catalog show":
            argv.insert(2, rng.choice(CATALOG_NAMES))
        return Op(kind, argv, expect={"exit": 0})
    argv += ["--input", INPUT]
    expect: dict = {"exit": EXIT_CODES.get((command, cls), 0), "class": cls}
    n = rng.randint(1, 3) if cls in ("irreducible", "malformed", "relation", "singular") else rng.randint(2, 3)
    if cls == "nonrealizable":
        finite = _pseudo_reflections(rng, n, rng.randint(1, n - 1))
    elif cls == "reducible":
        finite = _reducible(rng, n, rng.randint(2, 3))
    else:
        finite = _irreducible(rng, n, rng.randint(1, 3) if n == 1 else rng.randint(2, 3))
    facts = _tuple_facts(finite)
    points = list(zip(_locations(rng, len(finite)), finite))
    infinity = facts["matrices"][-1] if rng.random() < 0.5 else None
    if cls == "relation":
        infinity = [list(row) for row in facts["matrices"][-1]]
        infinity[0][0] += 1
    elif cls == "singular":
        points[0] = (points[0][0], [[Fraction(0)] * n] + [list(r) for r in finite[0][1:]])
        infinity = arith.identity(n)
    doc = _doc(points, infinity)
    if cls == "malformed":
        doc = doc[: rng.randint(1, len(doc) - 1)]
    expect.update(facts)
    return Op(kind, argv, doc, expect)


_OP_MAKERS = {"campaign": _campaign, "wide": _wide, "levelt": _levelt, "requests": _requests}


def build_op(workload: str, seed: int, index: int, sizes: Sizes) -> Op:
    return _OP_MAKERS[workload](seed, index, sizes)
