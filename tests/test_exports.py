"""Every exported name exists: each module's ``__all__`` and the package re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cqadsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(cqadsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_imports(name):
    module = importlib.import_module(f"cqadsim.{name}")
    namespace = {}
    exec(f"from cqadsim.{name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= namespace.keys()


def test_package_reexports_public_names():
    """Each name ``cqadsim/__init__`` imports is in its module's ``__all__``."""
    tree = ast.parse(Path(cqadsim.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"cqadsim.{node.module}")
        for alias in node.names:
            assert alias.name in getattr(module, "__all__", ()), f"{node.module}.{alias.name}"
            assert getattr(cqadsim, alias.asname or alias.name) is getattr(module, alias.name)
