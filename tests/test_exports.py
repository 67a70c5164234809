import ast
import inspect

import qclone


def test_every_imported_function_and_class_is_exported():
    tree = ast.parse(inspect.getsource(qclone))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {
        name for name in imported
        if inspect.isfunction(getattr(qclone, name)) or inspect.isclass(getattr(qclone, name))
    }
    assert public, "no imports found"
    assert sorted(public - set(qclone.__all__)) == []


def test_star_import_binds_the_library_example_names():
    scope: dict = {}
    exec("from qclone import *", scope)
    for name in ("uqcm_map", "gisin_massar_map", "mdim_clone", "clone_via_network", "mean_fidelity"):
        assert name in scope
