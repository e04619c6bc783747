"""The package's public surface, read from the source with `ast`.

The package root exports exactly the names README's Library section
imports, and that section's code runs and gives each value its comments
name; every name a submodule lists in `__all__` is defined in it; no
source or test file imports a name it never uses, where a name listed in
`__all__` counts as used; every function, method and attribute that
the traced benchmark (`perfbench/worker.py`) wraps or reads still exists;
and every function, class and method of the package has a reader outside
its own definition, in the package, in `perfbench` or in a README code
block, unless `TEST_ONLY_SURFACE` names it with its reason.  Every
exception the package defines but `MismatchDetected` is an `InputError`,
the one package class the CLI catches to exit with code 2, which no source
file raises itself; `PACKAGE_ERRORS` lists every exception class with the
reason it stays.
"""

import ast
import builtins
import re
from pathlib import Path

from fractions import Fraction

import pytest

from primeconst.constant import interval_from_enclosure_json
from primeconst.exact_arith import InputError, RationalInterval
from primeconst.sequences import SequenceKind, SequenceSpec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "primeconst"
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
WORKER = ROOT / "perfbench" / "worker.py"
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def declared_all(tree):
    """The strings of the module-level `__all__ = [...]`, or [] without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


def top_level_names(tree):
    """Every name a module binds at its top level: definitions, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(imported_names(node))
    return names


def imported_names(node):
    """The names an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def readme_library_imports():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^from primeconst import (.+)$", text, flags=re.MULTILINE)
    assert len(lines) == 1, lines
    return [name.strip() for name in lines[0].split(",")]


def test_root_exports_match_readme():
    exported = declared_all(parse(PACKAGE / "__init__.py"))
    assert sorted(exported) == sorted(readme_library_imports())


def test_readme_library_block_values():
    # Each line `expression  # value` of the Library block must evaluate to
    # an object whose repr is the comment, up to the ": " of a gloss.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL).group(1)
    namespace = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if not comment:
            exec(code, namespace)
            continue
        value = comment.split(": ", 1)[0]
        assert repr(eval(code, namespace)) == value, line
        checked.append(value)
    assert len(checked) == 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_all_names_are_defined(path):
    tree = parse(path)
    assert sorted(set(declared_all(tree)) - top_level_names(tree)) == []


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(declared_all(tree))
    imported = {
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in imported_names(node)
    }
    assert sorted(imported - used) == []


def functions_of(tree):
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def class_members(module, name):
    """The fields and methods a class of `primeconst.<module>` defines, by name."""
    for node in parse(PACKAGE / f"{module}.py").body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            members = {}
            for item in node.body:
                if isinstance(item, ast.AnnAssign):
                    members[item.target.id] = item
                elif isinstance(item, ast.FunctionDef):
                    members[item.name] = item
            return members
    raise AssertionError(f"primeconst.{module} defines no class {name}")


def is_property(node):
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list
    )


def dotted(node):
    """'a.b.c' for the expression a.b.c."""
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return node.id


INSTALL = functions_of(parse(WORKER))["install"]


def wrapped_functions():
    """(module, function) for each entry of the `functions` list in `install`."""
    for node in INSTALL.body:
        if isinstance(node, ast.Assign) and dotted(node.targets[0]) == "functions":
            return [(entry.elts[1].id, ast.literal_eval(entry.elts[2])) for entry in node.value.elts]
    raise AssertionError("install has no `functions` list")


def wrapped_members():
    """(module, class, name, must be a property) for each method or property `install` replaces."""
    result_class = None
    members = []
    for node in INSTALL.body:
        if isinstance(node, ast.Assign) and dotted(node.targets[0]) == "result_type":
            result_class = dotted(node.value).split(".")
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Attribute):
            members.append((*dotted(node.targets[0]).split("."), False))
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            members += [(*result_class, ast.literal_eval(name), True) for name in node.iter.elts]
    return members


# Attributes `worker.py` reads from results: (module, class, attribute).
READ_ATTRIBUTES = [
    ("constant", "ConstantEnclosure", "product"),
    ("recurrence", "RecoveryResult", "recovered"),
    ("recurrence", "RecoveryResult", "intervals"),
    ("exact_arith", "RationalInterval", "lo"),
    ("exact_arith", "RationalInterval", "hi"),
]


@pytest.mark.parametrize("module, name", wrapped_functions(), ids=lambda value: value)
def test_traced_functions_exist(module, name):
    assert name in functions_of(parse(PACKAGE / f"{module}.py"))


def test_traced_to_decimal_keeps_max_digits():
    # worker.py binds to_decimal's arguments and reads `max_digits` by name.
    to_decimal = functions_of(parse(PACKAGE / "exact_arith.py"))["to_decimal"]
    assert "max_digits" in [arg.arg for arg in to_decimal.args.args]


@pytest.mark.parametrize("module, cls, name, needs_property", wrapped_members(), ids=lambda value: str(value))
def test_traced_members_exist(module, cls, name, needs_property):
    member = class_members(module, cls).get(name)
    assert member is not None
    assert is_property(member) or not needs_property


@pytest.mark.parametrize("module, cls, name", READ_ATTRIBUTES, ids=lambda value: value)
def test_attributes_the_worker_reads_exist(module, cls, name):
    read = {node.attr for node in ast.walk(parse(WORKER)) if isinstance(node, ast.Attribute)}
    assert name in read
    assert name in class_members(module, cls)


# The package's definitions that no package code, perfbench or README code
# block reads, and the reason a library user has to call each.
TEST_ONLY_SURFACE = {
    "ConstantEnclosure.partial_sum": "the paper's partial sum g_N of the defining series",
    "parse_rational": "parses any `a/b` the CLI prints, at any length, where `Fraction(text)` "
    "refuses more digits than the interpreter's int-to-text limit",
    "interval_from_enclosure_json": "reads a saved `constant --format json` document back, for `recover()`",
    "RecoveryResult.residual_intervals": "the paper's residual enclosures of f_n - a_n; "
    "perfbench/worker.py wraps it by name",
    "smallest_nondividing_prime": "the elementwise definition that `mean` averages",
}


def definitions(tree):
    """(qualified name, node) of each top-level function and class, and of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name):
                    yield f"{node.name}.{item.name}", item


def names_read(node, outside=None):
    """The names of the `ast.Name` and `ast.Attribute` nodes in `node`, skipping the subtree `outside`."""
    names = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current is outside:
            continue
        if isinstance(current, ast.Name):
            names.add(current.id)
        elif isinstance(current, ast.Attribute):
            names.add(current.attr)
        stack.extend(ast.iter_child_nodes(current))
    return names


def unread_definitions():
    """Qualified names of the package's definitions that nothing outside their own definition reads."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    readme_names = set(re.findall(r"[A-Za-z_]\w*", "\n".join(blocks)))
    trees = {path: parse(path) for path in SOURCES + PERFBENCH}
    elsewhere = set(readme_names)
    for path in PERFBENCH:
        elsewhere |= names_read(trees[path])
    unread = []
    for path in SOURCES:
        for name, node in definitions(trees[path]):
            short = name.rpartition(".")[2]
            if short in elsewhere:
                continue
            if not any(short in names_read(trees[other], node if other == path else None) for other in SOURCES):
                unread.append(name)
    return unread


def test_every_definition_has_a_reader():
    assert sorted(set(unread_definitions()) - set(TEST_ONLY_SURFACE)) == []


def test_test_only_surface_is_unread():
    # An entry that gains a reader leaves the list.
    assert sorted(set(TEST_ONLY_SURFACE) - set(unread_definitions())) == []


def package_classes():
    """{name: names of its bases} for each top-level class of the package."""
    return {
        node.name: [dotted(base) for base in node.bases]
        for path in SOURCES
        for node in parse(path).body
        if isinstance(node, ast.ClassDef)
    }


def package_errors():
    """{name: its ancestors' names} for each exception class the package defines."""
    classes = package_classes()

    def ancestors(name):
        for base in classes.get(name, []):
            yield base
            yield from ancestors(base)

    def is_builtin_exception(name):
        value = getattr(builtins, name, None)
        return isinstance(value, type) and issubclass(value, BaseException)

    lineages = {name: list(ancestors(name)) for name in classes}
    return {name: lineage for name, lineage in lineages.items() if any(map(is_builtin_exception, lineage))}


def test_every_package_error_is_an_input_error():
    errors = package_errors()
    assert "MismatchDetected" in errors
    assert sorted(name for name in set(errors) - {"InputError", "MismatchDetected"} if "InputError" not in errors[name]) == []


# The package's exception classes, and why each stays: a class earns its
# place by data it carries or by a caller that tells it apart.
PACKAGE_ERRORS = {
    "InputError": "the base the CLI maps to exit 2; only its subclasses are raised",
    "InvalidArgument": "an argument out of its range: a count, size or limit, a term list or an interval",
    "ParseError": "text not in the accepted format; `recover --value` tries a file only on it",
    "ExplicitExhausted": "a finite sequence ran out; `enclose_digits` catches it and stops adding terms",
    "ValidationFailed": "carries the `ValidationReport` of the refused terms",
    "FloorBelowTwo": "carries the floor below 2 and the step it was certified at",
    "MismatchDetected": "an internal bug, not refused input, so the CLI exits 1 on it",
}


def test_exception_classes_are_the_listed_ones():
    assert sorted(package_errors()) == sorted(PACKAGE_ERRORS)


def test_input_error_is_never_raised_itself():
    calls = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "InputError"
    ]
    assert calls == []


@pytest.mark.parametrize(
    "refused",
    [
        lambda: SequenceSpec.from_name("bogus"),
        lambda: SequenceSpec.from_name("explicit"),
        lambda: SequenceSpec(SequenceKind.PRIMES, (2, 3)),
        lambda: interval_from_enclosure_json({}),
        lambda: RationalInterval(Fraction(2), Fraction(1)),
    ],
    ids=["unknown name", "explicit by name", "terms for a built-in", "document without ends", "ends out of order"],
)
def test_refusals_are_input_errors(refused):
    with pytest.raises(InputError):
        refused()


# The `ValueError(` calls the package may make, by file and enclosing
# definition, and why each is not an `InputError`.
VALUE_ERROR_ALLOWED = {
    ("recurrence.py", "StopReason.__post_init__"): "guards the package's own results, never user input",
}


def value_error_calls(node, scope=()):
    """The enclosing definitions, joined by '.', of each `ValueError(...)` call under `node`."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = (*scope, child.name)
        elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "ValueError":
            yield ".".join(scope)
        yield from value_error_calls(child, inner)


def test_refusals_construct_no_plain_value_error():
    calls = {(path.name, scope) for path in SOURCES for scope in value_error_calls(parse(path))}
    assert sorted(calls) == sorted(VALUE_ERROR_ALLOWED)


def test_cli_catches_one_package_error():
    for node in parse(PACKAGE / "cli.py").body:
        if isinstance(node, ast.Assign) and dotted(node.targets[0]) == "_USER_ERRORS":
            named = {name.id for name in ast.walk(node.value) if isinstance(name, ast.Name)}
            assert named & set(package_classes()) == {"InputError"}
            return
    raise AssertionError("cli.py assigns no _USER_ERRORS")
