"""The public surface, read statically: every module-level import in the
package is used by its module, and every ``__all__`` entry names something
the module defines or imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polargrass"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    """``{bound name: line}`` of the module-level imports, ``__future__`` aside."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def all_entries(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def defined_names(tree):
    names = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def used_names(tree):
    """Names loaded anywhere in the module, plus its ``__all__`` entries."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return used | set(all_entries(tree))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_used(path):
    tree = parse(path)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used_names(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_all_entry_resolves(path):
    tree = parse(path)
    missing = [name for name in all_entries(tree) if name not in defined_names(tree)]
    assert not missing, f"{path.name}: __all__ names {missing}, which the module does not bind"


def test_the_guard_sees_what_it_guards():
    # the rules fire on a module that breaks them
    tree = ast.parse("import sys\nfrom os import path\n__all__ = ['gone']\ndef f():\n    return path\n")
    assert set(imported_names(tree)) - used_names(tree) == {"sys"}
    assert [n for n in all_entries(tree) if n not in defined_names(tree)] == ["gone"]
