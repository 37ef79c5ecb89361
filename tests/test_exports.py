"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import lola

MODULES = ["lola"] + sorted(m.name for m in pkgutil.walk_packages(lola.__path__, "lola."))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert isinstance(module.__all__, list)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
