"""Command-line front end: reports, the example catalog and verification campaigns.

Four subcommands cover the workflow: ``rig`` prints the rigidity report of a
tuple file, ``fourier`` prints the transform's local data, ``verify`` checks
index preservation on one tuple or on a seeded randomized campaign, and
``catalog`` lists or emits the shipped examples.  Output is JSON by default
(stable field order, byte-identical across runs) or ``--format text``.

Exit codes: 0 success, 1 verification failure, 2 input or validation
problem, 3 non-realizable reconstruction, 4 theorem hypothesis violated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .catalog import CatalogEntry, get_entry, load_catalog
from .errors import (
    CatalogError,
    GenerationError,
    HypothesisViolationError,
    NonRealizableError,
    RigidityLabError,
    ValidationError,
)
from .exact_linalg import invariant_factors, polynomial_to_string
from .fourier import (
    TupleAnalysis,
    fourier_data_to_json,
    irregularity_end,
    preservation_report_to_json,
)
from .local_systems import MonodromyTuple, random_tuple, tuple_from_json, tuple_to_json

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_NON_REALIZABLE = 3
EXIT_HYPOTHESIS = 4

_REDRAWS_PER_TRIAL = 200


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class CampaignConfig:
    trials: int
    max_rank: int
    max_points: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1 or self.max_rank < 1 or self.max_points < 1:
            raise ValueError("trials, max_rank and max_points must be positive")


@dataclass
class CampaignResult:
    trials_run: int
    all_equal: bool
    failures: list[dict] = field(default_factory=list)
    identity_checks: int = 0

    def to_json(self) -> dict:
        return {
            "trials_run": self.trials_run,
            "all_equal": self.all_equal,
            "failures": self.failures,
        }


def _trial_seed(seed: int, index: int) -> int:
    # Stable across interpreter versions, unlike built-in tuple hashing.
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _campaign_analyses(config: CampaignConfig) -> Iterator[tuple[int, TupleAnalysis]]:
    for index in range(config.trials):
        rng = random.Random(_trial_seed(config.seed, index))
        for _ in range(_REDRAWS_PER_TRIAL):
            rank = rng.randint(1, config.max_rank)
            k = rng.randint(1, config.max_points)
            analysis = TupleAnalysis(random_tuple(rank, k, rng.getrandbits(63)))
            if analysis.irreducible:
                yield index, analysis
                break
        else:
            raise GenerationError(
                f"trial {index}: no irreducible tuple found in {_REDRAWS_PER_TRIAL} draws"
            )


def campaign_tuples(config: CampaignConfig) -> Iterator[tuple[int, MonodromyTuple]]:
    """Deterministic irreducible tuples, one per trial.

    Each trial is seeded independently from (seed, index); reducible draws
    are discarded and redrawn with fresh dimensions so ranks stay unbiased.
    """
    return ((index, analysis.tuple) for index, analysis in _campaign_analyses(config))


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Verify preservation on every campaign tuple and collect anomalies."""
    result = CampaignResult(trials_run=0, all_equal=True)
    for index, analysis in _campaign_analyses(config):
        t = analysis.tuple
        report = analysis.preservation
        result.trials_run += 1
        if not report.equal:
            result.all_equal = False
            result.failures.append(
                {
                    "trial": index,
                    "kind": "index_mismatch",
                    "rig_source": report.rig_source,
                    "rig_fourier": report.rig_fourier,
                    "tuple": tuple_to_json(t),
                }
            )
        for identity in report.per_point_identities:
            result.identity_checks += 1
            if identity.lhs != identity.rhs:
                result.failures.append(
                    {
                        "trial": index,
                        "kind": "centralizer_identity",
                        "point": identity.point,
                        "lhs": identity.lhs,
                        "rhs": identity.rhs,
                        "tuple": tuple_to_json(t),
                    }
                )
        # the kernel-dimension rule, which the local data enforced when built
        result.identity_checks += 1
    return result


# ---------------------------------------------------------------------------
# Input handling and rendering
# ---------------------------------------------------------------------------


def _load_analysis(path: str) -> TupleAnalysis:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise _CliError(EXIT_INPUT, f"cannot read input file: {exc}")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_INPUT, f"malformed JSON: {exc}")
    try:
        t = tuple_from_json(payload)
    except (ValueError, RigidityLabError) as exc:
        raise _CliError(EXIT_INPUT, f"schema violation: {exc}")
    return TupleAnalysis(t)


def _print_payload(payload: dict | list, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines(payload):
            print(line)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _rig_text(payload: dict):
    yield f"rank: {payload['rank']}"
    yield f"singular points (incl. infinity): {payload['num_points']}"
    yield "centralizer dims: " + " ".join(str(d) for d in payload["centralizer_dims"])
    yield f"rigidity index: {payload['index']}"
    yield f"irreducible: {_yesno(payload['irreducible'])}"
    yield f"physically rigid: {_yesno(payload['physically_rigid'])}"


def _matrix_text(rows: list[list[str]]) -> str:
    return "[" + "; ".join(" ".join(row) for row in rows) + "]"


def _fourier_text(payload: dict):
    if "warning" in payload:
        yield f"warning: {payload['warning']}"
    yield f"generic rank of the transform: {payload['rank_hat']}"
    yield f"zero monodromy: {_matrix_text(payload['zero_monodromy'])}"
    yield "zero invariant factors: " + ", ".join(payload["zero_invariant_factors"])
    for comp in payload["components"]:
        yield (
            f"component at {comp['exp_coefficient']}: dimension {comp['dimension']}, "
            f"regular monodromy {_matrix_text(comp['regular_monodromy'])}, "
            f"centralizer dim {comp['centralizer_dim']}"
        )
    yield f"irregularity at infinity: {payload['irregularity']}"


def _verify_text(payload: dict):
    if "warning" in payload:
        yield f"warning: {payload['warning']}"
    yield f"rigidity index (source): {payload['rig_source']}"
    yield f"rigidity index (transform): {payload['rig_fourier']}"
    yield f"equal: {_yesno(payload['equal'])}"
    yield f"irregularity at infinity: {payload['irregularity']}"
    for item in payload["per_point_identities"]:
        yield f"point {item['point']}: lhs={item['lhs']} rhs={item['rhs']}"


def _campaign_text(payload: dict):
    yield f"trials run: {payload['trials_run']}"
    yield f"all equal: {_yesno(payload['all_equal'])}"
    yield f"failures: {len(payload['failures'])}"
    for failure in payload["failures"]:
        yield f"  trial {failure['trial']}: {failure['kind']}"


def _catalog_list_text(payload: list):
    for entry in payload:
        yield (
            f"{entry['name']}: rank {entry['rank']}, "
            f"{entry['num_finite_points']} finite point(s), "
            f"index {entry['expected_index']}, "
            f"rigid {_yesno(entry['expected_rigid'])} - {entry['description']}"
        )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_rig(args: argparse.Namespace) -> int:
    report = _load_analysis(args.input).report
    payload = {
        "rank": report.rank,
        "num_points": report.num_points,
        "centralizer_dims": list(report.centralizer_dims),
        "index": report.index,
        "irreducible": report.irreducible,
        "physically_rigid": report.physically_rigid,
    }
    _print_payload(payload, args.format, _rig_text)
    return EXIT_OK


def _cmd_fourier(args: argparse.Namespace) -> int:
    analysis = _load_analysis(args.input)
    data = analysis.local_data
    base = fourier_data_to_json(data)
    components = [
        {**rendered, "centralizer_dim": dim}
        for rendered, dim in zip(base["components"], analysis.component_centralizer_dims)
    ]
    payload: dict = {
        "rank_hat": base["rank_hat"],
        "zero_monodromy": base["zero_monodromy"],
        "zero_invariant_factors": [
            polynomial_to_string(f)
            for f in invariant_factors(data.zero_monodromy).invariant_factors
        ],
        "components": components,
        "irregularity": irregularity_end(data),
    }
    if not analysis.irreducible:
        payload["warning"] = "tuple is reducible: preservation is not asserted for this data"
    _print_payload(payload, args.format, _fourier_text)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.random:
        config = CampaignConfig(
            trials=args.trials,
            max_rank=args.max_rank,
            max_points=args.max_points,
            seed=args.seed,
        )
        result = run_campaign(config)
        _print_payload(result.to_json(), args.format, _campaign_text)
        return EXIT_OK if result.all_equal and not result.failures else EXIT_VERIFY_FAILED
    if not args.input:
        raise _CliError(EXIT_INPUT, "verify needs --input PATH or --random")
    analysis = _load_analysis(args.input)
    if not analysis.irreducible and not args.force:
        raise _CliError(EXIT_HYPOTHESIS, "theorem hypothesis violated: tuple is reducible")
    report = analysis.preservation
    payload = preservation_report_to_json(report)
    if not analysis.irreducible:
        payload["warning"] = "tuple is reducible: equality is reported but not asserted"
    _print_payload(payload, args.format, _verify_text)
    return EXIT_OK if report.equal or not analysis.irreducible else EXIT_VERIFY_FAILED


def _cmd_catalog(args: argparse.Namespace) -> int:
    try:
        if args.action == "list":
            entries = load_catalog()
            payload = [_entry_summary(e) for e in entries.values()]
            _print_payload(payload, args.format, _catalog_list_text)
            return EXIT_OK
        if not args.name:
            raise _CliError(EXIT_INPUT, "catalog show needs an entry name")
        entry = get_entry(args.name)
    except CatalogError as exc:
        raise _CliError(EXIT_INPUT, str(exc))
    _print_payload(
        tuple_to_json(entry.tuple),
        args.format,
        lambda payload: iter([json.dumps(payload)]),
    )
    return EXIT_OK


def _entry_summary(entry: CatalogEntry) -> dict:
    return {
        "name": entry.name,
        "description": entry.description,
        "rank": entry.tuple.rank,
        "num_finite_points": entry.tuple.num_finite_points,
        "expected_index": entry.expected_index,
        "expected_rigid": entry.expected_rigid,
    }


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidity-lab",
        description="Exact rigidity indices of monodromy tuples and their transform data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="json")

    rig = sub.add_parser("rig", help="rigidity report of a tuple file")
    rig.add_argument("--input", required=True, help="tuple JSON file, or - for stdin")
    add_format(rig)
    rig.set_defaults(func=_cmd_rig)

    fourier = sub.add_parser("fourier", help="local data of the transform")
    fourier.add_argument("--input", required=True, help="tuple JSON file, or - for stdin")
    add_format(fourier)
    fourier.set_defaults(func=_cmd_fourier)

    verify = sub.add_parser("verify", help="check that the index is preserved")
    verify.add_argument("--input", help="tuple JSON file, or - for stdin")
    verify.add_argument("--random", action="store_true", help="run a randomized campaign")
    verify.add_argument("--trials", type=_positive_int, default=100)
    verify.add_argument("--max-rank", type=_positive_int, default=4)
    verify.add_argument(
        "--max-points", type=_positive_int, default=4, help="max number of finite points"
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--force", action="store_true", help="proceed on reducible input")
    add_format(verify)
    verify.set_defaults(func=_cmd_verify)

    catalog = sub.add_parser("catalog", help="list or emit shipped example tuples")
    catalog.add_argument("action", choices=("list", "show"))
    catalog.add_argument("name", nargs="?")
    add_format(catalog)
    catalog.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValidationError as exc:
        print(f"error: validation failure: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HypothesisViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NonRealizableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_REALIZABLE
    except RigidityLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
