"""Run the docstring examples of every tonnetz module."""

import doctest
import importlib
import pkgutil

import pytest

import tonnetz

MODULES = ["tonnetz"] + sorted(
    f"tonnetz.{m.name}" for m in pkgutil.iter_modules(tonnetz.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
