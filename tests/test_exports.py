"""Every exported name resolves, so a deleted function cannot linger in a
module's ``__all__`` or among the package's re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import manhattan_slam

MODULES = sorted(m.name for m in pkgutil.iter_modules(manhattan_slam.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"manhattan_slam.{name}")
    exported = getattr(module, "__all__", [])
    assert sorted(set(exported)) == sorted(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(manhattan_slam.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"manhattan_slam.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(manhattan_slam, alias.asname or alias.name) \
                is getattr(module, alias.name)
