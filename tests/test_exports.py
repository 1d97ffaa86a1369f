import importlib
import pkgutil

import pytest

import specgap

MODULES = sorted(m.name for m in pkgutil.iter_modules(specgap.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"specgap.{name}")
    exported = getattr(module, "__all__", None)
    assert exported, f"specgap.{name} has no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"specgap.{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"duplicates in specgap.{name}.__all__"


def test_star_import_is_clean():
    namespace = {}
    exec("from specgap import *", namespace)
    assert set(specgap.__all__) <= set(namespace)
