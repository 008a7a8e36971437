"""Whole-process start times of two source trees, alternated start by start.

    python3 bench/starts.py --parent DIR --change DIR [--starts 30]

Each command of ``COMMANDS`` runs in fresh interpreters against each DIR's
``src``: importing the CLI module alone, and whole CLI processes through
``rigidity_lab.cli.entrypoint``, as the installed script runs them, on the
catalog's ``hypergeometric2`` tuple (written by the parent's ``catalog
show``).  The first start of each command and tree is not timed: it writes
the bytecode cache, as perfbench's ``measure_setup`` has one first, and runs
under ``-X importtime``, whose lines give the count of modules that start
imports, site's included; it also records the exit code and stdout, which
must be the same for both trees.  Then ``--starts`` pairs are timed by wall
clock, the tree that goes first alternating from pair to pair.

For each command and tree: the median and quartiles in ms and the module
count; the ms the change saves at the median; and the paired ratios,
change over parent, summarized by ``bench/ab.py``'s ``summary``.  An
import-only saving that whole processes keep says that nothing of the
import moved into ``main``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

from ab import TREES, summary  # noqa: E402

RUN = ["-c", "from rigidity_lab.cli import entrypoint; entrypoint()"]
COMMANDS = {
    "import": ["-c", "import rigidity_lab.cli"],
    "rig": [*RUN, "rig", "--input", "{input}"],
    "fourier": [*RUN, "fourier", "--input", "{input}"],
    "catalog list": [*RUN, "catalog", "list"],
    "verify --random": [*RUN, "verify", "--random", "--trials", "10"],
}


def tree_env(root: Path, pycache: Path) -> dict[str, str]:
    """The environment of a start of the tree at ``root``: its ``src`` alone
    on PYTHONPATH and a bytecode cache of its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root).resolve() / "src")
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("RIGIDITY_LAB_CATALOG", None)
    return env


def start(env: dict, argv: list[str], flags: tuple[str, ...] = ()) -> tuple[int, float, str, str]:
    """Exit code, wall seconds, stdout and stderr of one fresh interpreter."""
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    return proc.returncode, time.perf_counter() - began, proc.stdout, proc.stderr


def module_count(importtime: str) -> int:
    """The modules a start imported: the lines ``-X importtime`` writes, less its header."""
    lines = [line for line in importtime.splitlines() if line.startswith("import time:")]
    return sum("imported package" not in line for line in lines)


def quartiles_ms(times: list[int]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median_ms": round(median / 1e6, 3), "q1_ms": round(q1 / 1e6, 3),
            "q3_ms": round(q3 / 1e6, 3)}


def run(parent: Path, change: Path, starts: int) -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        envs = {tree: tree_env(root, scratch / tree) for tree, root in zip(TREES, (parent, change))}
        code, _, document, err = start(envs["parent"], [*RUN, "catalog", "show", "hypergeometric2"])
        if code:
            raise SystemExit(f"parent: catalog show failed: {err}")
        tuple_file = scratch / "hypergeometric2.json"
        tuple_file.write_text(document, encoding="utf-8")
        result = {"starts": starts, "commands": {}}
        for name, template in COMMANDS.items():
            argv = [arg.format(input=tuple_file) for arg in template]
            modules, seen = {}, []
            for tree in TREES:
                code, _, out, err = start(envs[tree], argv, ("-X", "importtime"))
                modules[tree] = module_count(err)
                seen.append((code, out))
            if seen[0] != seen[1]:
                raise SystemExit(f"{name}: the trees' exit codes or outputs differ")
            times = {tree: [] for tree in TREES}
            for i in range(starts):
                for tree in TREES if i % 2 == 0 else TREES[::-1]:
                    code, elapsed, out, _ = start(envs[tree], argv)
                    if (code, out) != seen[0]:
                        raise SystemExit(f"{name}: {tree} changed its output on a rerun")
                    times[tree].append(round(elapsed * 1e9))
            sides = {tree: quartiles_ms(times[tree]) | {"modules": modules[tree]} for tree in TREES}
            saved = sides["parent"]["median_ms"] - sides["change"]["median_ms"]
            result["commands"][name] = {
                "exit_code": seen[0][0],
                **sides,
                "saved_ms": round(saved, 3),
                "paired": summary(times["parent"], times["change"]),
            }
    return result


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--starts", type=int, default=30)
    args = parser.parse_args(argv)
    result = run(args.parent, args.change, args.starts)
    for name, row in result["commands"].items():
        parent, change, paired = row["parent"], row["change"], row["paired"]
        print(
            f"{name}: parent {parent['median_ms']} ms [{parent['q1_ms']}, {parent['q3_ms']}] "
            f"{parent['modules']} modules, change {change['median_ms']} ms "
            f"[{change['q1_ms']}, {change['q3_ms']}] {change['modules']} modules, "
            f"saved {row['saved_ms']} ms, wins {paired['wins']}/{paired['rounds']}, "
            f"ratio {paired['ratio']} [{paired['ratio_q1']}, {paired['ratio_q3']}]"
        )
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
