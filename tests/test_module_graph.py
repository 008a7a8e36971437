"""The package's internal import graph, read from the source with ``ast``.

Importing ``rigidity_lab`` loads every module, so a cycle cannot be seen by
importing one module in a fresh process; the source shows every import,
function-level ones too.
"""

import ast
from pathlib import Path

import rigidity_lab
from rigidity_lab import fourier

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

    def test_public_names_unchanged(self):
        assert rigidity_lab.__all__ == PUBLIC_NAMES
        assert rigidity_lab.rigidity_index is fourier.rigidity_index
        assert rigidity_lab.is_irreducible is fourier.is_irreducible
        assert rigidity_lab.rigidity_report is fourier.rigidity_report
