"""Public names: every export resolves, and the package exports what it imports."""

import ast
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

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


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; ``from __future__``, names in
    ``__all__`` and statements marked ``# noqa: F401`` are exempt."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    roots = (Path(blockmotif.__file__).parent, Path(__file__).parent)
    unused = [name for root in roots for path in sorted(root.glob("*.py"))
              for name in _unused_imports(path)]
    assert not unused


def _references(tree: ast.AST):
    """The names a tree reads: loaded names, attributes, imported names and
    strings that are a dotted path (``monkeypatch.setattr``'s targets)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                yield node.value.rsplit(".", 1)[-1]


def _defined(node: ast.stmt) -> list[str]:
    """The module-level names a statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]


def test_no_private_helper_is_left_unused():
    # a module-level _name of the library that nothing reads outside its
    # own definition, in the library, its tests or the benchmark harness
    package = Path(blockmotif.__file__).parent
    tests = Path(__file__).parent
    roots = (package, tests, tests.parent / "perfbench")
    trees = {path: ast.parse(path.read_text()) for root in roots for path in root.glob("*.py")}
    read = Counter(name for tree in trees.values() for name in _references(tree))
    dead = [
        f"{path.name} {name}"
        for path in sorted(package.glob("*.py"))
        for node in trees[path].body
        for name in _defined(node)
        if name.startswith("_") and not name.startswith("__")
        and read[name] == sum(ref == name for ref in _references(node))
    ]
    assert not dead
