"""The public names resolve: each module's ``__all__`` names what the module
defines, and the package imports from its modules only names they list, so a
deleted name cannot linger as a stale export."""

import ast
import importlib
from pathlib import Path

import pytest

import rellich

PACKAGE = Path(rellich.__file__).parent
# the command-line module has no public API
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__") and p.stem != "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"rellich.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_only_names_its_modules_list():
    imports = [
        node
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        listed = importlib.import_module(f"rellich.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in listed] == [], node.module
