"""The runtime is pure standard library: every module that src/agdeform
imports is a stdlib module or agdeform itself, and importing the CLI loads
neither dataclasses nor inspect.  The dense linear algebra of linalg is the
tests' oracle only: no runtime code uses it.  And every other public name
in src/agdeform has a runtime reference, every parameter default is passed
by some runtime call, and every field of a value class (a class whose
__init__ only stores its parameters) is read by some runtime code.  No
float enters the runtime: no float constant, no float() call and no
.random() draw.  And exactalg is the one owner of the packed-monomial
format: no other module reads Polynomial.coeffs or names its helpers."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "agdeform").glob("*.py"))


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


#: Modules that every CLI process would pay for at start-up, and that no
#: runtime code needs: dataclasses imports inspect, which imports ast, dis
#: and tokenize.
NOT_LOADED_BY_CLI = {"dataclasses", "inspect"}


def _loaded_modules(statement):
    """The names in sys.modules after statement runs in a fresh interpreter
    with src/ on the path.  -S keeps site and what it imports out."""
    code = f"{statement}\nimport sys\nprint(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(result.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """`import agdeform.cli` adds neither module to those a bare
    interpreter starts with."""
    baseline = _loaded_modules("pass")
    loaded = _loaded_modules("import agdeform.cli")
    assert "agdeform.cli" in loaded
    assert not NOT_LOADED_BY_CLI & baseline, "the bare interpreter loads them itself"
    assert not NOT_LOADED_BY_CLI & loaded, sorted(loaded - baseline)


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


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _definitions_and_references():
    trees = _trees()
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


def _name(node):
    """The name a decorator or a called expression goes by, or None."""
    if isinstance(node, ast.Call):
        node = node.func
    names = _names(node)
    return names[0] if names else None


def _defaulted_parameters(tree):
    """(call name, qualified name, position, parameter) for each parameter
    with a default of a module-level function or of a method of a
    module-level class.  A call of __init__ goes by its class's name.  The
    position is the index among the arguments a call passes, so a method's
    self or cls is not counted; it is None for a keyword-only parameter."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions = [(node.name, node.name, node, 0)]
        elif isinstance(node, ast.ClassDef):
            functions = [
                (
                    node.name if sub.name == "__init__" else sub.name,
                    f"{node.name}.{sub.name}",
                    sub,
                    0 if "staticmethod" in map(_name, sub.decorator_list) else 1,
                )
                for sub in node.body
                if isinstance(sub, ast.FunctionDef)
            ]
        else:
            continue
        for call_name, qualname, function, bound in functions:
            spec = function.args
            positional = spec.posonlyargs + spec.args
            first = len(positional) - len(spec.defaults)
            for index, arg in enumerate(positional[first:], start=first):
                yield call_name, qualname, index - bound, arg.arg
            for arg, default in zip(spec.kwonlyargs, spec.kw_defaults):
                if default is not None:
                    yield call_name, qualname, None, arg.arg


def _passed_arguments(trees):
    """{call name: (positions, starred, keywords)} over every call in
    src/agdeform: the positional indices that some call passes, the indices
    of starred arguments (each may fill its own and every later position),
    and the keyword names (None for a ** argument).  A call through
    functools.partial counts as a call of its first argument."""
    passed = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if _name(func) == "partial" and args:
                func, args = args[0], args[1:]
            positions, starred, keywords = passed.setdefault(_name(func), (set(), set(), set()))
            for index, arg in enumerate(args):
                (starred if isinstance(arg, ast.Starred) else positions).add(index)
            keywords.update(keyword.arg for keyword in node.keywords)
    return passed


#: Parameters with a default that no call in src/agdeform passes, and why each stays.
UNPASSED_DEFAULTS_ALLOWED = {
    "main(argv)": "cli.main is the console-script entry point: argv None reads sys.argv",
}


def _unpassed_defaults():
    trees = _trees()
    passed = _passed_arguments(trees)
    unpassed = []
    for path_name, tree in trees.items():
        for call_name, qualname, position, parameter in _defaulted_parameters(tree):
            positions, starred, keywords = passed.get(call_name, (set(), set(), set()))
            if parameter in keywords or None in keywords:
                continue
            if position is not None and (
                position in positions or any(index <= position for index in starred)
            ):
                continue
            unpassed.append((path_name, f"{qualname}({parameter})"))
    return unpassed


def test_every_default_is_passed_at_runtime():
    """No optional parameter lives only for the tests: every parameter with a
    default, of a module-level function or of a method of a module-level
    class, is passed by some call in src/agdeform, by position, by keyword
    or through functools.partial; Class(...) is a call of Class.__init__.
    The match is by name, so definitions that share a name share their
    calls."""
    unpassed = [entry for entry in _unpassed_defaults() if entry[1] not in UNPASSED_DEFAULTS_ALLOWED]
    assert not unpassed, unpassed


def test_unpassed_defaults_allowlist_is_current():
    """Each allowlisted parameter still has a default and is still unpassed."""
    assert set(UNPASSED_DEFAULTS_ALLOWED) <= {entry for _, entry in _unpassed_defaults()}


#: The value classes of src/agdeform, as _value_class_fields finds them.
VALUE_CLASSES = {
    "Artifacts",
    "BundleActionMatrices",
    "CheckReport",
    "DecompositionDims",
    "GenericFlow",
    "Partial1Map",
    "RrefResult",
    "SecondDerivativeTensor",
    "Subspace",
}

#: Value-class fields that no code in src/agdeform reads, and why each stays.
UNREAD_FIELDS_ALLOWED: dict[str, str] = {}


def _stored_parameter(statement, parameters):
    """The attribute name if statement is `self.p = p` for a parameter p, else None."""
    if (
        isinstance(statement, ast.Assign)
        and len(statement.targets) == 1
        and isinstance(target := statement.targets[0], ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
        and isinstance(statement.value, ast.Name)
        and statement.value.id == target.attr
        and target.attr in parameters
    ):
        return target.attr
    return None


def _value_class_fields(node):
    """The fields of a module-level class whose __init__ does nothing but
    store each of its parameters under the parameter's name: the attributes
    its __init__ stores and the names its __slots__ lists.  None for any
    other class."""
    inits = [sub for sub in node.body if isinstance(sub, ast.FunctionDef) and sub.name == "__init__"]
    if not inits:
        return None
    spec = inits[0].args
    parameters = {arg.arg for arg in (spec.posonlyargs + spec.args)[1:] + spec.kwonlyargs}
    stored = [_stored_parameter(statement, parameters) for statement in inits[0].body]
    if None in stored or set(stored) != parameters:
        return None
    slots = [
        element.value
        for sub in node.body
        if isinstance(sub, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__slots__" for target in sub.targets)
        for element in ast.walk(sub.value)
        if isinstance(element, ast.Constant) and isinstance(element.value, str)
    ]
    return set(stored) | set(slots)


def _value_classes():
    """(file name, class name, fields) for each value class in src/agdeform."""
    for path_name, tree in _trees().items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                fields = _value_class_fields(node)
                if fields is not None:
                    yield path_name, node.name, fields


def _unread_fields():
    reads = {
        node.attr
        for tree in _trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        (path_name, f"{class_name}.{field}")
        for path_name, class_name, fields in _value_classes()
        if class_name not in ORACLE_ONLY
        for field in sorted(fields)
        if field not in reads
    ]


def test_value_classes_are_found():
    """The field rule below sees every value class: a class that gains other
    work in its __init__ drops out of VALUE_CLASSES, and a new one joins it."""
    assert {class_name for _, class_name, _ in _value_classes()} == VALUE_CLASSES


def test_every_value_class_field_is_read_at_runtime():
    """No field lives only for the tests: every field of a value class in
    src/agdeform, outside the ORACLE_ONLY types, is read as an attribute by
    some code in src/agdeform.  The match is by name."""
    unread = [entry for entry in _unread_fields() if entry[1] not in UNREAD_FIELDS_ALLOWED]
    assert not unread, unread


def test_unread_fields_allowlist_is_current():
    """Each allowlisted field is still defined and still unread."""
    assert set(UNREAD_FIELDS_ALLOWED) <= {entry for _, entry in _unread_fields()}


def _float_uses(tree):
    """(line, what) for each float constant, float(...) call and .random()
    call in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float(...)"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "random":
            yield node.lineno, ".random()"


def test_runtime_is_float_free():
    """Every verdict is exact: src/agdeform holds no float constant, calls
    float() nowhere and draws no float from a generator (.random()), so no
    tolerance or float comparison can enter a check."""
    uses = [
        (path_name, line, what)
        for path_name, tree in _trees().items()
        for line, what in _float_uses(tree)
    ]
    assert not uses, uses


#: The names through which code reads the packed-monomial format: the
#: {monomial: coefficient} map of a Polynomial and the two helpers that
#: pack and unpack a monomial.
PACKED_FORMAT = {"coeffs", "exponent_pairs", "pack_monomial"}


def _packed_format_uses(tree):
    """(line, name) for each attribute read, name or imported name in tree
    that is one of PACKED_FORMAT."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Name, ast.alias)):
            for name in _names(node):
                if name in PACKED_FORMAT:
                    yield getattr(node, "lineno", None), name


def test_exactalg_owns_the_packed_monomial_format():
    """Only exactalg.py reads .coeffs or names exponent_pairs or
    pack_monomial, so a change of the monomial format touches one module;
    evaluation elsewhere goes through exactalg (Polynomial.evaluate,
    RationalFunction.evaluate, ScaledValues)."""
    trees = _trees()
    # the rule sees every one of the names where they are used
    assert {name for _, name in _packed_format_uses(trees["exactalg.py"])} == PACKED_FORMAT
    uses = [
        (path_name, line, name)
        for path_name, tree in trees.items()
        if path_name != "exactalg.py"
        for line, name in _packed_format_uses(tree)
    ]
    assert not uses, uses
