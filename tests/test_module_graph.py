"""The package's internal import graph, its unused definitions and the
standard-library modules a CLI start loads, read from the source with
``ast`` and checked in a fresh process.

Importing ``rigidity_lab`` loads every module, so a cycle cannot be seen by
importing one module in a fresh process; the source shows every import,
function-level ones too.
"""

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import rigidity_lab
from rigidity_lab import fourier
from rigidity_lab.catalog import load_catalog
from rigidity_lab.local_systems import tuple_to_json

from test_cli import source_env

PACKAGE = Path(rigidity_lab.__file__).parent

PUBLIC_NAMES = [
    "CatalogError",
    "DimensionMismatchError",
    "GenerationError",
    "HypothesisViolationError",
    "InternalError",
    "InvalidMonodromyError",
    "InvalidPairError",
    "NonRealizableError",
    "PairPreconditionError",
    "QMatrix",
    "RigidityLabError",
    "ValidationError",
    "centralizer_dimension",
    "centralizer_identity_check",
    "fixed_space_dim",
    "from_star",
    "invariant_factors",
    "is_irreducible",
    "monodromy_tuple",
    "preservation_details",
    "random_tuple",
    "rig_fourier",
    "rigidity_index",
    "rigidity_report",
    "similar",
    "stationary_phase",
]


def internal_imports(source: str, modules: set[str]) -> set[str]:
    """The package modules that one source file imports, at any depth."""
    dotted = []  # absolute names: each module imported, and each name imported from one
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # the package is flat: a relative import is relative to it
                module = f"rigidity_lab.{module}".rstrip(".")
            dotted.append(module)
            dotted.extend(f"{module}.{alias.name}" for alias in node.names)
    found = {name.split(".")[1] for name in dotted if name.startswith("rigidity_lab.")}
    return found & modules


def import_graph() -> dict[str, set[str]]:
    paths = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    return {
        name: internal_imports(path.read_text(encoding="utf-8"), set(paths))
        for name, path in paths.items()
    }


def names_used(tree: ast.AST) -> Counter:
    """Every name that code in ``tree`` reads, calls, imports or defines as
    an attribute: bare names, attribute names and imported names."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
    return names


def unused_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """``module.name`` of each function, method or class in ``sources``
    (module name: source) that no code names outside its own definition,
    unless it is a dunder or in ``exported``.

    The scan matches by name alone, not by what a name refers to: a
    definition escapes it when any other code uses the same name, as a
    loop variable named ``entry`` would hide a method ``entry``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((names_used(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in exported or (name.startswith("__") and name.endswith("__")):
                continue
            if everywhere[name] == names_used(node)[name]:
                unused.append(f"{module}.{name}")
    return unused


def private_imports(source: str) -> set[str]:
    """The private names, one leading underscore, that one source file
    imports from a package module, at any depth."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.startswith("rigidity_lab"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    }


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a path of modules, or None."""
    done: set[str] = set()

    def visit(node: str, path: list[str]) -> list[str] | None:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        for target in sorted(graph[node]):
            cycle = visit(target, path + [node])
            if cycle:
                return cycle
        done.add(node)
        return None

    for start in sorted(graph):
        cycle = visit(start, [])
        if cycle:
            return cycle
    return None


class TestImportGraph:
    def test_the_scan_sees_every_form_of_import(self):
        source = (
            "import json\n"
            "import rigidity_lab.errors\n"
            "from rigidity_lab import cli\n"
            "from . import catalog\n"
            "from .exact_linalg import QMatrix\n"
            "def f():\n"
            "    from .fourier import TupleAnalysis\n"
        )
        modules = {"catalog", "cli", "errors", "exact_linalg", "fourier", "local_systems"}
        assert internal_imports(source, modules) == modules - {"local_systems"}
        assert {"local_systems", "exact_linalg"} <= import_graph()["fourier"]
        assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]

    def test_no_cycle(self):
        assert find_cycle(import_graph()) is None

    def test_local_systems_does_not_reach_fourier(self):
        assert "fourier" not in import_graph()["local_systems"]

    def test_private_names_crossing_modules(self):
        # each private name one module takes from another couples the two
        # past their public API: a new one is a change to this list
        source = "from .a import _x, y, __version__\nfrom rigidity_lab.b import _z\nimport _w\n"
        assert private_imports(source) == {"_x", "_z"}
        found = {
            path.stem: names
            for path in sorted(PACKAGE.glob("*.py"))
            if (names := private_imports(path.read_text(encoding="utf-8")))
        }
        assert found == {
            "fourier": {"_cyclic_mod_p", "_product_mod_p", "_unit_free_mod_p", "_ProductInverse"},
            "local_systems": {"_independent_mod_p", "_ProductInverse"},
            "theta_pairs": {"_shift_echelon"},
        }

    def test_public_names_unchanged(self):
        assert rigidity_lab.__all__ == PUBLIC_NAMES
        assert rigidity_lab.rigidity_index is fourier.rigidity_index
        assert rigidity_lab.is_irreducible is fourier.is_irreducible
        assert rigidity_lab.rigidity_report is fourier.rigidity_report


class TestNoTestOnlyApi:
    """Each function and class of ``src/`` is named by other code in ``src/``,
    so the library carries no API that only tests use."""

    def test_the_scan_finds_a_definition_nothing_names(self):
        sources = {
            "a": "def used():\n    pass\n\ndef unused():\n    return unused()\n",
            "b": "from .a import used\n\nclass Box:\n    def __len__(self):\n        return 0\n",
        }
        assert unused_definitions(sources, set()) == ["a.unused", "b.Box"]
        assert unused_definitions(sources, {"Box", "unused"}) == []

    def test_every_definition_is_used_in_the_library(self):
        sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
        assert unused_definitions(sources, set(rigidity_lab.__all__)) == []


def stdlib_imports(source: str) -> list[tuple[str, bool]]:
    """(top-level module, whether imported inside a function) of each
    absolute import in ``source``."""
    tree = ast.parse(source)
    in_functions = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.extend((name.split(".")[0], id(node) in in_functions) for name in names)
    return found


# Run in a fresh interpreter: the modules that four commands load, then
# those that a random campaign adds, each against the modules present before
# ``rigidity_lab.cli`` was imported, as ``site`` may have loaded some.
STARTUP_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from rigidity_lab.cli import main
path = sys.argv[1]
commands = [["rig", "--input", path], ["fourier", "--input", path],
            ["verify", "--input", path], ["catalog", "list"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in commands]
    loaded = sorted(set(sys.modules) - before)
    codes.append(main(["verify", "--random", "--trials", "1"]))
print(json.dumps([codes, loaded, sorted(set(sys.modules) - before)]))
"""

# What only some commands need, or no command: ``dataclasses`` pulls in
# ``inspect``, ``ast``, ``dis`` and ``tokenize``; only campaigns hash seeds.
STARTUP_UNNEEDED = {"dataclasses", "inspect", "hashlib"}


class TestStartUp:
    def test_the_scan_sees_where_a_module_is_imported(self):
        source = "import hashlib\nfrom os import path\nfrom . import cli\n"
        source += "def f():\n    import json\n"
        assert stdlib_imports(source) == [("hashlib", False), ("os", False), ("json", True)]

    def test_no_dataclasses_and_hashlib_only_where_trials_are_seeded(self):
        found = sorted(
            (name, path.stem, inside)
            for path in PACKAGE.glob("*.py")
            for name, inside in stdlib_imports(path.read_text(encoding="utf-8"))
            if name in {"dataclasses", "hashlib"}
        )
        assert found == [("hashlib", "campaign", True)]

    def test_commands_load_only_what_they_need(self, tmp_path):
        path = tmp_path / "hypergeometric2.json"
        path.write_text(json.dumps(tuple_to_json(load_catalog()["hypergeometric2"].tuple)))
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, str(path)],
            env=source_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        codes, loaded, after_campaign = json.loads(proc.stdout)
        assert codes == [0] * 5
        assert STARTUP_UNNEEDED.isdisjoint(loaded)
        assert "hashlib" in after_campaign
