import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nsverify

MODULES = sorted(m.name for m in pkgutil.iter_modules(nsverify.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"nsverify.{name}")
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    """Every name a module imports is used in it or listed in its
    ``__all__``; the package ``__init__`` only re-exports and is skipped."""
    tree = ast.parse((Path(nsverify.__path__[0]) / f"{name}.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(importlib.import_module(f"nsverify.{name}"), "__all__", ()))
    unused = sorted(f"{bound} (line {line})" for bound, line in imported.items()
                    if bound not in used)
    assert unused == []


def test_no_unused_private_definitions():
    """Every top-level private name (``_name``) a module defines is used
    somewhere in the package outside its own definition."""
    root = Path(nsverify.__path__[0])
    trees = {path.name: ast.parse(path.read_text()) for path in root.glob("*.py")}
    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            definitions += [(module, name, node) for name in names
                            if name.startswith("_") and not name.startswith("__")]
    uses = []  # (module, name, line) of every load, attribute and import
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                uses += [(module, alias.name, node.lineno) for alias in node.names]
    unused = [
        f"{module}: {name}" for module, name, node in definitions
        if not any(
            used == name and not (
                where == module and node.lineno <= line <= node.end_lineno)
            for where, used, line in uses
        )
    ]
    assert len(definitions) > 30
    assert unused == []
