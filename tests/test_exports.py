"""Public names: every export resolves, and the package exports what it imports."""

import ast
import importlib
import inspect
import pkgutil

import blockmotif


def test_every_exported_name_resolves():
    modules = [
        importlib.import_module(f"blockmotif.{info.name}")
        for info in pkgutil.iter_modules(blockmotif.__path__)
    ]
    for module in (blockmotif, *modules):
        names = getattr(module, "__all__", ())
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_package_exports_exactly_its_public_imports():
    imported = set()
    for node in ast.parse(inspect.getsource(blockmotif)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            home = importlib.import_module(f"blockmotif.{node.module}")
            names = {alias.name for alias in node.names}
            # what the package re-exports, its home module exports too
            assert names <= set(home.__all__), node.module
            imported |= names
    assert sorted(blockmotif.__all__) == sorted(
        name for name in imported if not name.startswith("_")
    )
