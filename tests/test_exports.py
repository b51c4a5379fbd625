import importlib
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
