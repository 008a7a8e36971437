"""Compare two source trees of the library in one process, op by op.

    python3 bench/ab.py --parent DIR --change DIR [--workloads campaign wide levelt requests]
                        [--ops 40] [--rounds 30] [--seed 1] [--smoke]

Each DIR is a checkout whose ``src/rigidity_lab`` is loaded as its own
package (``ab_parent``, ``ab_change``), so the two trees share one
interpreter, one heap and one stretch of machine time, and a difference of a
few percent stays above the noise that separate processes add.

Ops are ``perfbench/workloads.build_op``'s: op i of each workload at
``--seed``, with the full sizes (``--smoke``: the smoke sizes), of every
workload unless ``--workloads`` names some.  Each op is
run through ``cli.main`` of both trees, by ``perfbench/child.execute`` with
stdout and stderr captured; an op whose exit code or stdout differs between
the trees, or from its first run, stops the comparison.  In each of
``--rounds`` rounds, every op runs once per tree, the two back to back, the
tree that goes first alternating from op to op and from round to round; a
round's figure for a tree is the CPU time of its calls, summed per workload.

For each workload: the median over rounds of each tree in ms, the rounds the
change was faster in (``wins``), and the median and quartiles of the paired
per-round ratios (change over parent).  Pairing cancels the drift of the
host between rounds, which a spread taken across rounds would hold.  The
``verdict`` is ``faster`` when the upper quartile of the ratios is below 1,
``slower`` when the lower one is above 1, and ``parity`` otherwise.  The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

import child  # noqa: E402
import workloads  # noqa: E402

TREES = ("parent", "change")
CLOCK = time.process_time_ns


def load_tree(root: Path, name: str):
    """``root/src/rigidity_lab`` imported as the package ``name``: its cli
    module.  The package imports itself relatively, so the name is free."""
    package = Path(root).resolve() / "src" / "rigidity_lab"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def summary(parent: list[int], change: list[int]) -> dict:
    """Medians in ms, wins of the change, and the median, quartiles and
    verdict of the paired ratios, of per-round figures in ns."""
    ratios = [c / p for p, c in zip(parent, change)]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {
        "parent_ms": round(statistics.median(parent) / 1e6, 3),
        "change_ms": round(statistics.median(change) / 1e6, 3),
        "wins": sum(c < p for p, c in zip(parent, change)),
        "rounds": len(parent),
        "ratio": round(median, 3),
        "ratio_q1": round(q1, 3),
        "ratio_q3": round(q3, 3),
        "verdict": "faster" if q3 < 1 else "slower" if q1 > 1 else "parity",
    }


def record_ops(
    trees: dict, names: list[str], ops: int, seed: int, sizes: workloads.Sizes, scratch: Path
) -> dict:
    """Each workload's ops as (kind, argv, (exit code, stdout, escaped)),
    the same for both trees."""
    streams = {}
    for workload in names:
        streams[workload] = []
        for i in range(ops):
            op = workloads.build_op(workload, seed, i, sizes)
            run_dir = scratch / f"{workload}-{i}"
            run_dir.mkdir()
            argv = child.materialize(op, run_dir)
            seen = []
            for tree in TREES:
                code, out, _, escaped = child.execute(trees[tree], argv)
                seen.append((code, out, escaped))
            if seen[0] != seen[1]:
                raise SystemExit(f"{workload} op {i} ({op.kind}): the trees' outputs differ")
            streams[workload].append((op.kind, argv, seen[0]))
    return streams


def time_ops(trees: dict, streams: dict, rounds: int) -> dict:
    """Per workload and tree, the CPU ns of each round's ops."""
    times = {workload: {tree: [0] * rounds for tree in TREES} for workload in streams}
    for r in range(rounds):
        for workload, stream in streams.items():
            for i, (kind, argv, expected) in enumerate(stream):
                for tree in TREES if (r + i) % 2 == 0 else TREES[::-1]:
                    code, out, elapsed, escaped = child.execute(trees[tree], argv, CLOCK)
                    if (code, out, escaped) != expected:
                        raise SystemExit(f"{workload} op {i} ({kind}) changed on a rerun")
                    times[workload][tree][r] += round(elapsed * 1e9)
    return times


def run(
    parent: Path,
    change: Path,
    names: list[str],
    ops: int,
    rounds: int,
    seed: int,
    sizes: workloads.Sizes,
) -> dict:
    trees = {tree: load_tree(root, f"ab_{tree}") for tree, root in zip(TREES, (parent, change))}
    with tempfile.TemporaryDirectory() as scratch:
        streams = record_ops(trees, names, ops, seed, sizes, Path(scratch))
        times = time_ops(trees, streams, rounds)
    return {
        "seed": seed,
        "ops": {
            workload: {"count": len(stream), **summary(*times[workload].values())}
            for workload, stream in streams.items()
        },
    }


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument(
        "--workloads",
        nargs="+",
        choices=workloads.WORKLOADS,
        default=list(workloads.WORKLOADS),
    )
    parser.add_argument("--ops", type=int, default=40)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    result = run(args.parent, args.change, args.workloads, args.ops, args.rounds, args.seed, sizes)
    for workload, row in result["ops"].items():
        print(
            f"{workload}: parent {row['parent_ms']} ms, change {row['change_ms']} ms, "
            f"wins {row['wins']}/{row['rounds']}, ratio {row['ratio']} "
            f"[{row['ratio_q1']}, {row['ratio_q3']}], {row['verdict']}"
        )
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
