import ast
import importlib
import inspect

import pytest

import ldgq
from ldgq import errors

MODULES = ("qtensor", "bulk", "bounds", "solver", "moments")
ERRORS = {n: v for n, v in vars(errors).items() if inspect.isclass(v)}


def _all(name):
    return importlib.import_module(f"ldgq.{name}").__all__


EXPORTED = {n for name in MODULES for n in _all(name)} | set(ERRORS)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(f"ldgq.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_the_package_reexports_only_public_names(name):
    # each __all__ name is the module's own object, and no other name of the module leaks
    module = importlib.import_module(f"ldgq.{name}")
    assert all(getattr(ldgq, n) is getattr(module, n) for n in module.__all__)
    leaked = [n for n in vars(module) if not n.startswith("__") and hasattr(ldgq, n)]
    assert sorted(set(leaked) - EXPORTED) == []


def test_the_package_names_are_the_all_lists_and_the_errors():
    assert len(ERRORS) == 7
    assert all(getattr(ldgq, n) is v for n, v in ERRORS.items())
    public = {n for n, v in vars(ldgq).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == EXPORTED


def test_no_name_is_in_two_all_lists():
    # a later star import would silently shadow the earlier module's name
    seen = {}
    for name in MODULES:
        for n in _all(name):
            assert n not in seen, f"{n} is in both {seen[n]}.__all__ and {name}.__all__"
            seen[n] = name


def test_the_package_init_names_no_symbol():
    body = ast.parse(inspect.getsource(ldgq)).body
    docstring, *statements = body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    stars = []
    for node in statements:
        if isinstance(node, ast.Assign):  # package metadata such as __version__
            assert all(isinstance(t, ast.Name) and t.id.startswith("__") for t in node.targets)
            continue
        assert isinstance(node, ast.ImportFrom) and node.level == 1, ast.dump(node)
        assert [alias.name for alias in node.names] == ["*"], node.module
        stars.append(node.module)
    assert sorted(stars) == sorted((*MODULES, "errors"))
