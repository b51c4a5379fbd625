import ast
import importlib
import inspect
import pkgutil

import aepoison


def modules():
    """Every module of the package, by name."""
    return {
        info.name: importlib.import_module(f"aepoison.{info.name}") for info in pkgutil.iter_modules(aepoison.__path__)
    }


def test_every_public_name_exists():
    missing = []
    for name, module in modules().items():
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"listed in __all__ but not defined: {missing}"


def test_every_public_name_has_one_home():
    homes = {}
    for name, module in modules().items():
        for n in getattr(module, "__all__", ()):
            homes.setdefault(n, []).append(name)
    shared = {n: names for n, names in homes.items() if len(names) > 1}
    assert not shared, f"listed in more than one module's __all__: {shared}"


def private_reads(name, module) -> list[str]:
    """Each place a module imports or reads a sibling module's _-prefixed
    name: `from .sibling import _name`, or `sibling._name` on a sibling
    bound by `from . import sibling`."""
    tree = ast.parse(inspect.getsource(module))
    siblings = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None
        for alias in node.names
    }
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            reads += [
                f"{name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in siblings:
            if node.attr.startswith("_"):
                reads.append(f"{name}: {node.value.id}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    reads = [read for name, module in modules().items() for read in private_reads(name, module)]
    assert not reads, f"private names read across modules: {reads}"
