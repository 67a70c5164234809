"""``tools/count_statements.py``, the size measure of the package."""
import importlib.util
import signal
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_statements.py"
spec = importlib.util.spec_from_file_location("count_statements", TOOL)
count_statements = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_statements)


def test_docstrings_are_not_counted():
    source = '''"""Module docstring."""


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return 1


async def g():
    """Async function docstring."""
'''
    # class, def, return, async def
    assert count_statements.count_statements(source) == 4


def test_a_string_after_the_first_statement_is_counted():
    assert count_statements.count_statements('x = 1\n"not a docstring"\n') == 2


def test_nested_statements_are_counted():
    source = """
for i in range(3):
    if i:
        while False:
            pass
    else:
        y = [j for j in range(i)]
try:
    import os
except ImportError:
    raise
"""
    # for, if, while, pass, assignment, try, import, raise
    assert count_statements.count_statements(source) == 8


def test_module_lines_sum_to_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\ny = 2\n')
    (tmp_path / "b.py").write_text("def f():\n    return 0\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert count_statements.main([str(tmp_path)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [["a", "2"], ["b", "2"], ["total", "4"]]


@pytest.mark.parametrize("name", ["nosuchdir", "README.md", "empty"])
def test_a_path_without_modules_is_a_usage_error(tmp_path, capsys, name):
    """A missing directory, a file, or a directory with no ``*.py`` is no
    package: a typo must not read as ``total 0``."""
    (tmp_path / "README.md").write_text("x = 1\n")
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "notes.txt").write_text("x = 1\n")
    path = str(tmp_path / name)
    assert count_statements.main([path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert path in err


def test_package_total_is_the_sum_of_its_modules(capsys):
    count_statements.main([])
    *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert total[0] == "total"
    assert len(modules) >= 9
    assert int(total[1]) == sum(int(n) for _, n in modules)


def test_stops_quietly_when_the_reader_goes_away(tmp_path):
    """A reader that closes the pipe after one line (``| head -1``) ends the
    tool by SIGPIPE, with no traceback.  The 1,500 lines
    (over 300 kB) overfill the pipe, so the tool is still writing when the
    reader goes away."""
    for i in range(1500):
        (tmp_path / f"{'m' * 200}{i:04d}.py").write_text("x = 1\n")
    proc = subprocess.Popen(
        [sys.executable, str(TOOL), str(tmp_path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""
    assert first.split() == [b"m" * 200 + b"0000", b"1"]
