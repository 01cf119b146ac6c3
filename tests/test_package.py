"""The lazy package table names the module that defines each public name."""

import importlib

import pytest

import rmoamp


@pytest.mark.parametrize("module", sorted(rmoamp._SUBMODULE_EXPORTS))
def test_exported_names_are_defined_in_their_module(module):
    mod = importlib.import_module(f"rmoamp.{module}")
    names = rmoamp._SUBMODULE_EXPORTS[module]
    assert [name for name in names if name not in vars(mod)] == []
    # a class or function records where it was defined; a module that only
    # imports it would also hold it in vars()
    owners = {name: getattr(vars(mod)[name], "__module__", mod.__name__)
              for name in names}
    assert {name: owner for name, owner in owners.items()
            if owner != mod.__name__} == {}
