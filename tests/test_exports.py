import ast
import inspect
import os
import subprocess
import sys

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


def test_import_leaves_numpy_polynomial_unloaded():
    # numpy.polynomial costs about 10 ms to load; only the quadrature needs
    # it, so it loads on the first mean_fidelity call, not at import
    src = os.path.dirname(os.path.dirname(qclone.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, qclone, qclone.cli; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
