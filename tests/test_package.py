"""The package namespace: public names load from their home modules on first access."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import cubicpoints

SRC = Path(__file__).resolve().parents[1] / "src" / "cubicpoints"


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


def _names_read(tree: ast.AST) -> set[str]:
    """Every name a tree loads, in quoted annotations too, and the strings of a module's __all__."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign)):
            for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    read |= _names_read(ast.parse(ann.value, mode="eval"))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return read


def _unused_names(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _names_read(tree)
    unused = [
        f"import {alias.asname or alias.name.split('.')[0]}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in read
    ]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, [a.vararg, a.kwarg])]
            body = set().union(*map(_names_read, node.body if isinstance(node.body, list) else [node.body]))
            unused += [
                f"{getattr(node, 'name', 'lambda')}({p.arg})"
                for p in params
                if p.arg not in ("self", "cls") and p.arg not in body
            ]
    return unused


def test_modules_read_every_import_and_parameter():
    # no linter is installed: flag imports a module never reads and parameters a body never reads
    found = {path.name: _unused_names(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: unused for name, unused in found.items() if unused} == {}


def _module_private_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level (assignments, defs, classes) that start with one underscore."""
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                bound |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return {name for name in bound if name.startswith("_") and not name.startswith("__")}


def _names_loaded(tree: ast.AST) -> set[str]:
    """Names a tree reads: loads, attributes and imported names, but not X in an item assignment X[i] = v."""
    stored_into = {
        id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
    }
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in stored_into:
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def test_every_module_level_private_name_is_read():
    # a private table or helper that nothing in src/ reads is left over from code that is gone
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_names_loaded, trees.values()))
    unread = {name: sorted(_module_private_names(tree) - read) for name, tree in trees.items()}
    assert {name: names for name, names in unread.items() if names} == {}


def _private_attribute_writes(tree: ast.Module) -> list[str]:
    """Each obj._name = ... (augmented and annotated too) in a function that no class body encloses."""
    in_classes = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for n in ast.walk(c)}
    return [
        f"{fn.name}: {ast.unparse(node)}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and id(fn) not in in_classes
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and node.attr.startswith("_")
    ]


def test_only_a_class_writes_the_private_attributes_of_its_objects():
    # a kept value has one writer, in its own class: a module function that
    # filled another object's cache would be a second one
    found = {path.name: _private_attribute_writes(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))}
    assert {name: writes for name, writes in found.items() if writes} == {}
