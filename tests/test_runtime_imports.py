"""The runtime is pure standard library: every module that src/agdeform
imports is a stdlib module or agdeform itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "agdeform").glob("*.py"))


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "agdeform" if node.level else node.module.split(".")[0]


def test_runtime_imports_only_stdlib():
    assert SOURCES
    outside = {
        (path.name, name)
        for path in SOURCES
        for name in _top_level_imports(path)
        if name != "agdeform" and name not in sys.stdlib_module_names
    }
    assert not outside, sorted(outside)
