"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import faaslab

SRC = Path(faaslab.__file__).parent


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_imports_only_stdlib_and_faaslab():
    files = sorted(SRC.rglob("*.py"))
    assert files
    outside = {
        f"{path.relative_to(SRC)}: {module}"
        for path in files
        for module in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if module.partition(".")[0] not in sys.stdlib_module_names | {"faaslab"}
    }
    assert not outside
