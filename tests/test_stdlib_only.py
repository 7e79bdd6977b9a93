"""The runtime imports nothing outside the standard library."""

import ast
import os
import subprocess
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


def test_cli_import_leaves_importlib_resources_out():
    # packaged profile sheets are plain files beside the module, read by
    # load_profiles; -S keeps site-packages from importing anything first
    script = (
        "import os, sys\n"
        "import faaslab.cli\n"
        "from faaslab.perfmodel import builtin_profiles, load_profiles\n"
        "for name in ('calibrated-v1', 'desk-v1'):\n"
        "    path = os.path.join(sys.argv[1], 'profiles', name + '.json')\n"
        "    assert builtin_profiles(name) == load_profiles(path), name\n"
        "assert 'importlib.resources' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run(
        [sys.executable, "-S", "-c", script, str(SRC)], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
