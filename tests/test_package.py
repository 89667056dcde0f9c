"""Tests for the package namespace: it re-exports each module's public names."""

import importlib
import sys

import leimkuhler

MODULES = tuple(importlib.import_module(f"leimkuhler.{name}") for name in (
    "curves", "empirical", "fit", "indices", "order", "report", "specfun"))


def test_all_is_version_then_each_module_all():
    expected = ["__version__"]
    for module in MODULES:
        expected += module.__all__
    assert leimkuhler.__all__ == expected
    assert len(set(leimkuhler.__all__)) == len(leimkuhler.__all__)


def test_each_module_all_names_existing_objects():
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_names_are_the_modules_own_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(leimkuhler, name) is getattr(module, name), name
    assert leimkuhler.__version__ is sys.modules["leimkuhler._version"].__version__


def test_fit_is_the_function_not_the_submodule():
    assert leimkuhler.fit is sys.modules["leimkuhler.fit"].fit


def test_cli_names_stay_out():
    cli = importlib.import_module("leimkuhler.cli")
    assert not set(cli.__all__) & set(leimkuhler.__all__)
