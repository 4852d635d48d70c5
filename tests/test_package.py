import importlib
import pkgutil

import pytest

import hydrec

MODULES = ["hydrec"] + [f"hydrec.{m.name}" for m in pkgutil.iter_modules(hydrec.__path__)]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from hydrec import *", namespace)
    assert set(hydrec.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


LIBRARY = ["numerics", "potentials", "simulator", "reconstruction", "assembly"]


def test_the_package_re_exports_each_library_name_declared_once():
    modules = [importlib.import_module(f"hydrec.{name}") for name in LIBRARY]
    declared = [attr for module in modules for attr in module.__all__]
    assert len(set(declared)) == len(declared), "two modules declare one name"
    unbound = [
        f"{module.__name__}.{attr}"
        for module in modules
        for attr in module.__all__
        if getattr(hydrec, attr, None) is not getattr(module, attr)
    ]
    assert not unbound, f"hydrec does not bind {unbound}"
    assert sorted(hydrec.__all__) == sorted(["__version__", *declared])
