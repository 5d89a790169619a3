import importlib
import pkgutil

import pytest

import nsverify

MODULES = sorted(m.name for m in pkgutil.iter_modules(nsverify.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"nsverify.{name}")
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []
