import ast
import importlib
import inspect

import pytest

import ldgq

MODULES = ("qtensor", "bulk", "bounds", "solver", "moments")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(f"ldgq.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_the_package_reexports_only_public_names(name):
    module = importlib.import_module(f"ldgq.{name}")
    imported = [alias.name for node in ast.parse(inspect.getsource(ldgq)).body
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == name
                for alias in node.names]
    assert imported
    assert sorted(set(imported) - set(module.__all__)) == []
    assert all(getattr(ldgq, n) is getattr(module, n) for n in imported)
