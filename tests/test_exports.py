import importlib
import pkgutil

import pytest

import satgate

MODULES = sorted(m.name for m in pkgutil.walk_packages(satgate.__path__, "satgate."))


def test_the_walk_finds_every_module():
    assert {"satgate.cli", "satgate.model", "satgate.model.net", "satgate.weaklabel"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A deleted function or class leaves no stale entry in ``__all__``."""
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    assert [n for n in exported if not hasattr(module, n)] == []
