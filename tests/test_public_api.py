"""The package's public surface, read from the source with `ast`.

The package root exports exactly the names README's Library section
imports; every name a submodule lists in `__all__` is defined in it; and
no source or test file imports a name it never uses, where a name listed
in `__all__` counts as used.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "primeconst"
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


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
