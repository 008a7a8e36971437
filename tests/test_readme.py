"""The README's library example runs as written, on exported names only."""

import ast
import re
from pathlib import Path

import rigidity_lab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    source = blocks[0]
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "rigidity_lab"
        for alias in node.names
    }
    assert imported and imported <= set(rigidity_lab.__all__)
    exec(compile(source, str(README), "exec"), {})
