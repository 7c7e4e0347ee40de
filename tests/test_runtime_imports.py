"""The runtime is pure standard library: every module that src/agdeform
imports is a stdlib module or agdeform itself.  The dense linear algebra
of linalg is the tests' oracle only: no runtime code uses it.  And every
other public name in src/agdeform has a runtime reference."""

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


#: Public names that no code in src/agdeform refers to, and why each stays.
UNREFERENCED_ALLOWED = {
    "contains": "Subspace.contains, the elimination oracle for linalg.membership",
    "residual": "Subspace.residual, the elimination oracle for linalg.membership",
    "rref": "a perfbench tracer target (linalg.rref) and the tests' dense oracle",
    "sparse_rank": "a perfbench tracer target (linalg.sparse_rank)",
}


def _public_definitions(tree):
    """The module-level function and class definitions, and the method
    definitions of those classes, whose names do not start with "_"."""
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (sub for sub in node.body if isinstance(sub, ast.FunctionDef))


def _definitions_and_references():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    definitions = [
        (path_name, node.lineno, node.name)
        for path_name, tree in trees.items()
        for node in _public_definitions(tree)
        if not node.name.startswith("_")
    ]
    references = {
        name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        for name in _names(node)
    }
    return definitions, references


def test_every_public_name_has_a_runtime_reference():
    """No public function lives only for its own unit test: every public
    function, class and method defined in src/agdeform is named by some code
    in src/agdeform (a definition itself is not a reference).  The match is
    by name, so two definitions that share a name cover each other."""
    definitions, references = _definitions_and_references()
    unreferenced = [
        entry
        for entry in definitions
        if entry[2] not in references and entry[2] not in UNREFERENCED_ALLOWED
    ]
    assert not unreferenced, unreferenced


def test_unreferenced_allowlist_is_current():
    """Each allowlisted name is still defined and still unreferenced."""
    definitions, references = _definitions_and_references()
    assert set(UNREFERENCED_ALLOWED) <= {name for _, _, name in definitions}
    assert not set(UNREFERENCED_ALLOWED) & references
