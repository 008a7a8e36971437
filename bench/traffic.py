"""Count the lines of the library that perfbench's ops run, and list the
statements that none of them reaches.

    python3 bench/traffic.py [--smoke]

Ops are ``perfbench/workloads.build_op``'s, as ``bench/ab.py`` builds them:
ops 0 to ``OPS`` - 1 of every workload at each seed of ``SEEDS``, with the
full sizes (``--smoke``: the smoke sizes).  Each runs once through
``cli.main`` of this tree's ``src/rigidity_lab``, by
``perfbench/child.execute``, under ``sys.settrace``; only frames of code in
the package's files are traced, line by line.  An op that escapes ``main``
stops the run.

For each function of the package (``module.qualname``, nested functions on
their own), in file order, one line gives the hit count of each line of its
body that ran (``line:hits``; a line of a loop or of a comprehension counts
once per pass), and a second line the statements of its body that no op
reached, by first line; a function that no op called gets one line.  A
statement is reached when a line event fell on one of its own lines (for a
compound statement, its header) or, for a compound statement, when its first
inner statement was reached, as a ``try:`` runs no code of its own.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import child  # noqa: E402
import workloads  # noqa: E402

OPS = 84
SEEDS = (7, 11)


def own_lines(stmt: ast.stmt) -> range:
    """The lines of a statement that are not inner statements'."""
    if body := getattr(stmt, "body", None):  # a compound statement: its header
        return range(stmt.lineno, body[0].lineno)
    return range(stmt.lineno, stmt.end_lineno + 1)


def inner_statements(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements directly inside a compound statement, ``except`` and
    ``case`` bodies included, but not those of a nested function or class."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    found = []
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for node in getattr(stmt, field, ()):
            is_clause = isinstance(node, (ast.ExceptHandler, ast.match_case))
            found.extend(node.body if is_clause else [node])
    return found


def flatten(statements: list[ast.stmt]) -> list[ast.stmt]:
    """The statements and, after each, those inside it, in source order."""
    return [s for stmt in statements for s in (stmt, *flatten(inner_statements(stmt)))]


def function_table(files: list[str]) -> dict[str, list[ast.stmt]]:
    """``module.qualname`` of each function in ``files``, in file order, with
    the statements of its body, nested ones too, its docstring left out."""
    table: dict[str, list[ast.stmt]] = {}

    def visit(nodes: list[ast.stmt], module: str, prefix: str) -> None:
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                visit(node.body, module, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = node.body
                if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                    body = body[1:]
                table[f"{module}.{prefix}{node.name}"] = flatten(body)
                visit(body, module, f"{prefix}{node.name}.")
            else:
                visit(inner_statements(node), module, prefix)

    for file in files:
        visit(ast.parse(Path(file).read_text(encoding="utf-8")).body, Path(file).stem, "")
    return table


def reached(stmt: ast.stmt, hits: Counter) -> bool:
    """Whether a line event reached ``stmt``, by the rule above."""
    inner = inner_statements(stmt)
    return any(hits[line] for line in own_lines(stmt)) or bool(inner) and reached(inner[0], hits)


def trace_ops(cli, files: list[str], sizes: workloads.Sizes, scratch: Path) -> tuple[int, dict]:
    """Run every op under the line tracer: (ops run, line hits per file)."""
    hits = {file: Counter() for file in files}

    def line_tracer(counts: Counter):
        def local(frame, event, arg):
            if event == "line":
                counts[frame.f_lineno] += 1
            return local

        return local

    tracers = {file: line_tracer(counts) for file, counts in hits.items()}

    def trace(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    count = 0
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            for i in range(OPS):
                op = workloads.build_op(workload, seed, i, sizes)
                run_dir = scratch / f"{seed}-{workload}-{i}"
                run_dir.mkdir()
                argv = child.materialize(op, run_dir)
                previous = sys.gettrace()
                sys.settrace(trace)
                try:
                    _, _, _, escaped = child.execute(cli, argv)
                finally:
                    sys.settrace(previous)
                if escaped:
                    raise SystemExit(f"{workload} op {i} at seed {seed} ({op.kind}): {escaped}")
                count += 1
    return count, hits


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL

    import rigidity_lab.cli as cli

    package = Path(cli.__file__).parent
    modules = [m for name, m in sys.modules.items() if name.startswith("rigidity_lab.")]
    files = sorted(m.__file__ for m in modules if Path(m.__file__).parent == package)
    with tempfile.TemporaryDirectory() as scratch:
        ops, hits = trace_ops(cli, files, sizes, Path(scratch))
    by_module = {Path(file).stem: hits[file] for file in files}

    functions = {}
    for name, statements in function_table(files).items():
        counts = by_module[name.partition(".")[0]]
        lines = sorted({line for stmt in statements for line in own_lines(stmt) if counts[line]})
        functions[name] = {
            "lines": {str(line): counts[line] for line in lines},
            "unreached": [stmt.lineno for stmt in statements if not reached(stmt, counts)],
        }
        if not lines:
            print(f"{name}: not called")
            continue
        print(f"{name}: " + " ".join(f"{line}:{counts[line]}" for line in lines))
        if functions[name]["unreached"]:
            print(f"  unreached: {' '.join(map(str, functions[name]['unreached']))}")
    result = {
        "ops": ops,
        "seeds": list(SEEDS),
        "ops_per_workload_and_seed": OPS,
        "sizes": "smoke" if args.smoke else "full",
        "functions": functions,
    }
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
