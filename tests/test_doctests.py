import doctest
import importlib
import pkgutil

import pytest

import fatmod

MODULES = sorted(info.name for info in pkgutil.iter_modules(fatmod.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module("fatmod." + name)
    failures, _ = doctest.testmod(module)
    assert failures == 0
