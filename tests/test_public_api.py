"""Every public name of the package resolves where it is declared."""

import importlib
import inspect
import pkgutil

import pytest

import homfem

MODULES = sorted(info.name for info in pkgutil.iter_modules(homfem.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"homfem.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from homfem.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_reexports_only_declared_names():
    for attr, obj in vars(homfem).items():
        if attr.startswith("_") or inspect.ismodule(obj):
            continue
        module = importlib.import_module(obj.__module__)
        assert attr in module.__all__, f"{attr} from {obj.__module__}"
