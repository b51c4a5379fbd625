import importlib
import pkgutil

import aepoison


def test_every_public_name_exists():
    missing = []
    for info in pkgutil.iter_modules(aepoison.__path__):
        module = importlib.import_module(f"aepoison.{info.name}")
        names = getattr(module, "__all__", ())
        missing += [f"{info.name}.{name}" for name in names if not hasattr(module, name)]
    assert not missing, f"listed in __all__ but not defined: {missing}"
