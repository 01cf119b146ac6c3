"""The lazy package table agrees with the submodules it names."""

import importlib

import pytest

import rmoamp


@pytest.mark.parametrize("module", sorted(rmoamp._SUBMODULE_EXPORTS))
def test_exported_names_are_the_modules_public_names(module):
    mod = importlib.import_module(f"rmoamp.{module}")
    names = rmoamp._SUBMODULE_EXPORTS[module]
    assert [name for name in names if not hasattr(mod, name)] == []
    public = getattr(mod, "__all__", None)
    if public is not None:
        assert [name for name in names if name not in public] == []
