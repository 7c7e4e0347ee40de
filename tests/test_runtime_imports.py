"""The runtime is pure standard library: every module that src/agdeform
imports is a stdlib module or agdeform itself.  And the dense linear
algebra of linalg is the tests' oracle only: no runtime code uses it."""

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


#: Kept in linalg as the tests' oracle for the sparse eliminator; the runtime
#: uses the sparse forms only.
ORACLE_ONLY = {"MatrixQ", "rref", "RrefResult"}


def _names(node):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name, node.asname]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]  # a string annotation such as "MatrixQ"
    return []


def test_dense_oracle_types_have_no_runtime_use():
    """MatrixQ, rref and RrefResult appear in src/agdeform only inside their
    own definitions in linalg.py."""
    outside = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in ORACLE_ONLY
        ]
        inside = set()
        if path.name == "linalg.py":
            inside = {id(sub) for node in definitions for sub in ast.walk(node)}
            assert {node.name for node in definitions} == ORACLE_ONLY
        outside += [
            (path.name, getattr(node, "lineno", None), name)
            for node in ast.walk(tree)
            if id(node) not in inside
            for name in _names(node)
            if name in ORACLE_ONLY
        ]
    assert not outside, outside
