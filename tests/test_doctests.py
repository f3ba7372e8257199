"""Every example in the package's docstrings runs and passes."""

import doctest
import importlib
import pkgutil

import pytest

import ellgenus

MODULES = ["ellgenus"] + sorted(info.name for info in pkgutil.iter_modules(
    ellgenus.__path__, "ellgenus."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
