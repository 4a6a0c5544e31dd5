"""Every name a module lists in ``__all__`` resolves on that module.

A stale ``__all__`` entry (a name whose definition or import was
deleted) fails only on ``from module import *``, which no other test
does; this test imports every module under ``repro`` and checks each
entry directly.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def test_walk_finds_every_package():
    for name in ("repro.ml", "repro.storage", "repro.ml.segmetrics"):
        assert name in MODULES


@pytest.mark.parametrize("name", ["repro"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
