"""The package's public names: every export resolves to its home module."""

import importlib

import pytest

import keplerflag


@pytest.mark.parametrize("name", keplerflag.__all__)
def test_export_comes_from_a_submodule_that_lists_it(name):
    obj = getattr(keplerflag, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("keplerflag.")
    assert name in home.__all__
    assert getattr(home, name) is obj


def test_exports_are_unique():
    assert len(set(keplerflag.__all__)) == len(keplerflag.__all__)
