"""Print the AST statement count of each module in src/qclone, and the total.

A statement is any ``ast.stmt`` node, nested ones included.  A docstring
(a string expression as the first statement of a module, class or
function) is not counted.  This is the size measure quoted in CHANGES.md
and ROADMAP.md.

Usage: python tools/count_statements.py [PACKAGE_DIR]   (default src/qclone)

A PACKAGE_DIR that is not a directory, or holds no ``*.py`` file, prints
nothing on stdout, names the path on stderr and exits 2.
"""
import ast
import signal
import sys
from pathlib import Path


def count_statements(source: str) -> int:
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.add(id(first))
    return sum(
        isinstance(node, ast.stmt) and id(node) not in docstrings for node in ast.walk(tree)
    )


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "qclone"
    paths = sorted(root.glob("*.py"))
    if not paths:
        print(f"count_statements: {root}: not a directory holding *.py files", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        n = count_statements(path.read_text())
        total += n
        print(f"{path.stem:<12} {n:>6}")
    print(f"{'total':<12} {total:>6}")
    return 0


if __name__ == "__main__":
    # a reader that goes away early (``| head``) ends the tool quietly, as
    # it ends any Unix filter, instead of a BrokenPipeError traceback
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main(sys.argv[1:]))
