"""The package's public surface: ``__all__`` against what ``__init__`` imports."""

import ast
import pathlib

import fermat_homology


def imported_names() -> list[str]:
    tree = ast.parse(pathlib.Path(fermat_homology.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_every_exported_name_resolves():
    for name in fermat_homology.__all__:
        assert getattr(fermat_homology, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from fermat_homology import *", namespace)
    assert set(fermat_homology.__all__) <= namespace.keys()


def test_all_lists_exactly_the_imported_public_names():
    exported = fermat_homology.__all__
    public = [name for name in imported_names() if not name.startswith("_")]
    assert len(set(exported)) == len(exported)
    assert len(set(public)) == len(public)
    assert sorted(exported) == sorted(public)
