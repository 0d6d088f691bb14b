"""The package namespace: public names load from their home modules on first access."""
from __future__ import annotations

import importlib

import pytest

import cubicpoints


def test_every_public_name_is_its_home_modules_object():
    for module, names in cubicpoints._EXPORTS.items():
        home = importlib.import_module(f"cubicpoints.{module}")
        for name in names:
            assert getattr(cubicpoints, name) is getattr(home, name), name


def test_every_public_name_is_in_its_home_modules_all():
    # a star import binds a module's __all__, or every public name where it has none
    for module, names in cubicpoints._EXPORTS.items():
        scope: dict = {}
        exec(f"from cubicpoints.{module} import *", scope)
        assert set(names) <= set(scope), module


def test_each_public_name_has_one_home():
    assert sum(len(names) for names in cubicpoints._EXPORTS.values()) == len(cubicpoints._HOME)


def test_dir_lists_all_public_names():
    assert set(cubicpoints.__all__) <= set(dir(cubicpoints))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cubicpoints.no_such_name
    assert not hasattr(cubicpoints, "_size_table")


def test_submodules_still_import_from_the_package():
    from cubicpoints import cli, curve, sizes

    assert cli.main and curve.CubicForm and sizes.section_verdict


def test_star_import_binds_every_public_name():
    scope: dict = {}
    exec("from cubicpoints import *", scope)
    assert set(cubicpoints.__all__) <= set(scope)
    assert scope["section_verdict"] is cubicpoints.sizes.section_verdict
