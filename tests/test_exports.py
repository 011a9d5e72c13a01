"""Every name a module lists in ``__all__`` resolves, so a deletion leaves no stale export."""

import importlib
import pkgutil

import pytest

import lqminimax

MODULES = sorted(info.name for info in pkgutil.iter_modules(lqminimax.__path__))


def test_modules_found():
    assert {"ballgeom", "bounds", "conditions", "estimators", "harness",
            "linmodel"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"lqminimax.{name}")
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
