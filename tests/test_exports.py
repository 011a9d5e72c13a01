"""Every name a module lists in ``__all__`` resolves, so a deletion leaves no stale export;
importing the package loads no scipy module it does not need."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

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


def test_import_defers_heavy_scipy_modules():
    # each is imported inside the one function that uses it
    code = ("import sys, lqminimax; print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'optimize'], ['scipy', 'spatial'], ['scipy', 'special'])))")
    src = str(pathlib.Path(lqminimax.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
