"""Every name a module lists in ``__all__`` exists, so a removed helper left
in a list fails here rather than on a user's ``from ... import *``."""

import importlib
import pkgutil

import pytest

import equityrank

MODULES = sorted(info.name for info in pkgutil.iter_modules(equityrank.__path__))


def test_every_submodule_is_checked():
    assert {"cli", "core", "metrics", "plots", "rankers", "sim", "synth"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"equityrank.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ lists names the module lacks: {missing}"
