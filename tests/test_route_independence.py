"""The three routes stay independent: the gate network and the direct
isometries never import each other or ``analysis``, and the closed forms in
``analysis`` use no name from either simulation route, directly or through
another function of the module.  Only the modules that build states and
operators skip their validation, only ``linalg._size`` decides whether
an integer argument is valid, and only ``linalg._unbatched`` decides what a
single input's result is."""
import ast
from pathlib import Path

import qclone

PACKAGE = Path(qclone.__file__).parent
SIMULATION = {"network", "cloners"}


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def imports(module: str) -> dict[str, str]:
    """Each name the module binds by an import, mapped to the qclone
    submodule it comes from (a bound submodule maps to itself)."""
    bound = {}
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("qclone").lstrip(".")
            for alias in node.names:
                bound[alias.asname or alias.name] = base or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name.removeprefix("qclone.")
                bound[alias.asname or alias.name.split(".")[0]] = name
    return bound


def test_network_imports_neither_cloners_nor_analysis():
    assert not {"cloners", "analysis"} & set(imports("network").values())


def test_cloners_import_neither_network_nor_analysis():
    assert not {"network", "analysis"} & set(imports("cloners").values())


def test_closed_forms_use_no_simulation_name():
    tree = parse("analysis")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    route_names = {name for name, src in imports("analysis").items() if src in SIMULATION}
    assert {"gisin_massar_map", "register_clone"} <= route_names  # the simulated measurements do use them

    def names(fn: str, seen: set[str]) -> set[str]:
        seen.add(fn)
        used = {n.id for n in ast.walk(functions[fn]) if isinstance(n, ast.Name)}
        for callee in (used & functions.keys()) - seen:
            used |= names(callee, seen)
        return used

    forms = [fn for fn in functions if fn.endswith("_formula") or fn in ("purity_xi", "mdim_formulas")]
    assert len(forms) >= 8, forms
    for fn in forms:
        assert not names(fn, set()) & route_names, fn


def test_only_building_modules_skip_validation():
    """``linalg._trusted`` builds objects without validating them; the
    closed forms, the checks, the reports and the CLI construct through the
    validating constructors."""
    users = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(parse(path.stem)):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name == "_trusted":
                users.add(path.stem)
    assert users == {"linalg", "states", "network", "cloners"}


def operator_index_uses(root: ast.AST) -> int:
    """References to ``operator.index`` under ``root``, and imports of it."""
    return sum(
        isinstance(n, ast.Attribute) and n.attr == "index" and getattr(n.value, "id", None) == "operator"
        or isinstance(n, ast.ImportFrom) and n.module == "operator" and any(a.name == "index" for a in n.names)
        for n in ast.walk(root)
    )


def test_only_size_check_calls_operator_index():
    """Every size, count, wire and subsystem index goes through
    ``linalg._size``, the one place that calls ``operator.index``."""
    uses = {path.stem: operator_index_uses(parse(path.stem)) for path in PACKAGE.glob("*.py")}
    size = next(f for f in parse("linalg").body if isinstance(f, ast.FunctionDef) and f.name == "_size")
    assert operator_index_uses(size) == 1
    assert {m: n for m, n in uses.items() if n} == {"linalg": 1}


def is_ndim(node: ast.AST) -> bool:
    """Whether ``node`` reads an array's rank: ``x.ndim`` or ``np.ndim(x)``."""
    if isinstance(node, ast.Call):
        node = node.func
    return isinstance(node, ast.Attribute) and node.attr == "ndim"


def rank_branches(root: ast.AST) -> list[int]:
    """Line of each branch on an array's rank under ``root``: a conditional
    expression whose test reads ``ndim``, or an ``if`` whose whole test is
    an ``ndim`` read.  A shape check such as ``if amps.ndim != 2`` is no
    such branch."""
    return [
        n.lineno for n in ast.walk(root)
        if isinstance(n, ast.IfExp) and any(is_ndim(t) for t in ast.walk(n.test))
        or isinstance(n, ast.If) and is_ndim(n.test)
    ]


def test_only_unbatched_branches_on_rank():
    """A functional returns its batch as it is and a single input's value as
    a Python float or bool, and ``linalg._unbatched`` is the one place that
    chooses between them."""
    unbatched = next(f for f in parse("linalg").body if isinstance(f, ast.FunctionDef) and f.name == "_unbatched")
    assert len(rank_branches(unbatched)) == 1
    branches = {path.stem: rank_branches(parse(path.stem)) for path in PACKAGE.glob("*.py")}
    assert {m: lines for m, lines in branches.items() if lines} == {"linalg": [unbatched.body[-1].lineno]}
