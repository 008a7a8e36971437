"""Command-line front end: argument parsing, rendering and exit codes.

Four subcommands cover the workflow: ``rig`` prints the rigidity report of a
tuple file, ``fourier`` prints the transform's local data, ``verify`` checks
index preservation on one tuple or on a seeded randomized campaign (see
``campaign``), and ``catalog`` lists or emits the shipped examples.  Output
is JSON by default (stable field order, byte-identical across runs) or
``--format text``.

Exit codes: 0 success, 1 verification failure, 2 input or validation
problem, 3 non-realizable reconstruction, 4 theorem hypothesis violated,
5 internal failure (a self-check on a computed result failed, or a random
campaign exhausted its redraw budget), and, from ``entrypoint`` only, 141
when the reader closes stdout.  ``main`` is the one place that maps an
error to its exit code.  Every error line, argparse's usage errors and
``main``'s alike, is one line cut to under 200 bytes by ``_bounded``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from .campaign import CampaignConfig, run_campaign
from .catalog import CatalogEntry, load_catalog
from .errors import (
    GenerationError,
    HypothesisViolationError,
    InternalError,
    NonRealizableError,
    RigidityLabError,
    ValidationError,
)
from .exact_linalg import shorten
from .fourier import TupleAnalysis, fourier_data_to_json, preservation_to_json
from .local_systems import MAX_POINTS, MAX_RANK, json_document, tuple_from_json, tuple_to_json

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_NON_REALIZABLE = 3
EXIT_HYPOTHESIS = 4
EXIT_INTERNAL = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a process it killed


# ---------------------------------------------------------------------------
# Input handling and rendering
# ---------------------------------------------------------------------------


def _load_analysis(path: str) -> TupleAnalysis:
    try:
        payload = json_document(path)
    except OSError as exc:
        raise RigidityLabError(f"cannot read input file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, too deep, too long
        raise RigidityLabError(f"malformed JSON: {exc}") from exc
    try:
        t = tuple_from_json(payload)
    except ValidationError:
        raise  # a tuple deriving A_inf fails its checks as ``validate`` does
    except (ValueError, RigidityLabError) as exc:
        raise RigidityLabError(f"schema violation: {exc}") from exc
    return TupleAnalysis(t)


def _indented(value: object, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` of the dicts (of str keys), lists,
    tuples, strs, ints and bools a payload holds, each line's indent after
    ``indent``: a str by json's own C escape, a list of strs in one map."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            items = list(map(encode_basestring_ascii, value))
        except TypeError:  # not all strs
            items = [_indented(item, inner) for item in value]
        return f"[{inner}{f',{inner}'.join(items)}{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_indented(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{f',{inner}'.join(items)}{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _print_payload(payload: dict | list, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(_indented(payload))
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
    _print_payload(_load_analysis(args.input).report._asdict(), args.format, _rig_text)
    return EXIT_OK


def _cmd_fourier(args: argparse.Namespace) -> int:
    _print_payload(fourier_data_to_json(_load_analysis(args.input)), args.format, _fourier_text)
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
        return EXIT_VERIFY_FAILED if result.failures else EXIT_OK
    if not args.input:
        raise RigidityLabError("verify needs --input PATH or --random")
    analysis = _load_analysis(args.input)
    analysis.require_irreducible(args.force)
    payload = preservation_to_json(analysis)
    _print_payload(payload, args.format, _verify_text)
    return EXIT_OK if payload["equal"] or not analysis.irreducible else EXIT_VERIFY_FAILED


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list" and args.name is not None:
        raise RigidityLabError("catalog list takes no entry name")
    if args.action == "show" and not args.name:
        raise RigidityLabError("catalog show needs an entry name")
    catalog = load_catalog()
    if args.action == "list":
        payload = [_entry_summary(e) for e in catalog.values()]
        _print_payload(payload, args.format, _catalog_list_text)
    elif args.name in catalog:
        payload = tuple_to_json(catalog[args.name].tuple)
        _print_payload(payload, args.format, lambda p: iter([json.dumps(p)]))
    else:
        raise RigidityLabError(f"unknown catalog entry {shorten(repr(args.name))}")
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


def _at_most(limit: int, what: str):
    """An argparse type: a positive integer of at most ``limit``."""

    def parse(text: str) -> int:
        value = _positive_int(text)
        if value > limit:
            raise argparse.ArgumentTypeError(f"expected {what} of at most {limit}, got {text!r}")
        return value

    return parse


# each character at which ``str.splitlines`` breaks a line, to its escape as ``repr`` writes it
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _bounded(prefix: str, text: str) -> str:
    """The error line ``prefix`` + ``text``, each line break of ``text``
    written as its escape and ``text`` cut by ``shorten`` with its length
    when the line and its end come to more than 199 bytes: the one rule of
    every error line, argparse's and ``main``'s."""
    line = text.translate(_LINE_BREAKS)
    room = 199 - len(f"{prefix}\n".encode())
    if len(line.encode(errors="backslashreplace")) > room:
        line = shorten(line, room - len(f"... ({len(line)} characters)"))
    return prefix + line


def _bounded_error(parser: argparse.ArgumentParser, message: str):
    """argparse's ``error``, which every usage error reaches: its usage, then
    ``message`` with each line break escaped and each word shortened as a
    quote is, as one ``_bounded`` line."""
    words = " ".join(map(shorten, message.translate(_LINE_BREAKS).split(" ")))
    parser.print_usage(sys.stderr)
    parser.exit(2, _bounded(f"{parser.prog}: error: ", words) + "\n")


class _Parser(argparse.ArgumentParser):  # add_subparsers makes its parsers of this class
    error = _bounded_error


@cache  # built on the first call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    source = verify.add_mutually_exclusive_group()
    source.add_argument("--input", help="tuple JSON file, or - for stdin")
    source.add_argument("--random", action="store_true", help="run a randomized campaign")
    verify.add_argument("--trials", type=_positive_int, default=100)
    verify.add_argument("--max-rank", type=_at_most(MAX_RANK, "a rank"), default=4)
    verify.add_argument(
        "--max-points",
        type=_at_most(MAX_POINTS, "a point count"),
        default=4,
        help="max number of finite points",
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


# (error class, exit code, label) in the order ``main`` tries them
_FAILURES = (
    (ValidationError, EXIT_INPUT, "validation failure: "),
    (HypothesisViolationError, EXIT_HYPOTHESIS, ""),
    (NonRealizableError, EXIT_NON_REALIZABLE, ""),
    ((InternalError, GenerationError), EXIT_INTERNAL, "internal failure: "),
    (RigidityLabError, EXIT_INPUT, ""),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RigidityLabError as exc:
        for kind, code, label in _FAILURES:  # the last is RigidityLabError
            if isinstance(exc, kind):
                print(_bounded(f"error: {label}", str(exc)), file=sys.stderr)
                return code


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: keep the final flush quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
