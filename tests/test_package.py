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
