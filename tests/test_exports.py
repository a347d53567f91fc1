import importlib
import pkgutil

import pytest

import voxplane

MODULES = ["voxplane"] + [f"voxplane.{m.name}" for m in pkgutil.iter_modules(voxplane.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a name left in __all__ after its definition is deleted breaks
    # "from voxplane import *" and the documented API
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
