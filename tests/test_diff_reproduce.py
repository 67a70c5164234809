"""``tools/diff_reproduce.py`` lists the rows of two reproduce tables that moved."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "diff_reproduce.py"
spec = importlib.util.spec_from_file_location("diff_reproduce", TOOL)
diff_reproduce = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_reproduce)

TABLE = """criterion 10: register cloning and inseparability
  [pass] local inseparability onset (alpha^2)    ref= 0.1096876251   got= 0.1096876254   |d|=3.3e-10      tol=1e-06
  [pass] nonlocal interval strictly contains local ref= 1            got= 1              |d|=0            tol=0
all 12 criteria passed (87 checks)
"""


@pytest.fixture
def write(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_unchanged_table(write, capsys):
    old = write("old.txt", TABLE)
    assert diff_reproduce.main([old, write("new.txt", TABLE)]) == 0
    assert capsys.readouterr().out == "no row moved\n"


def test_moved_row_with_its_share_of_tol(write):
    new = TABLE.replace("got= 0.1096876254   |d|=3.3e-10 ", "got= 0.1096876251   |d|=1.39e-17")
    lines, changed = diff_reproduce.diff(write("old.txt", TABLE), write("new.txt", new))
    assert lines == [
        "criterion 10: local inseparability onset (alpha^2): got 0.1096876254 -> 0.1096876251,"
        " |d| 3.3e-10 -> 1.39e-17, |Δ|/tol 0.00033"
    ]
    assert not changed


def test_verdict_and_summary_changes_are_flagged(write):
    new = TABLE.replace("[pass] local", "[FAIL] local").replace("all 12", "NOT all 12")
    lines, changed = diff_reproduce.diff(write("old.txt", TABLE), write("new.txt", new))
    assert changed
    assert lines == [
        "criterion 10: local inseparability onset (alpha^2): verdict pass -> FAIL",
        "summary: 'all 12 criteria passed (87 checks)' -> 'NOT all 12 criteria passed (87 checks)'",
    ]


TRACEBACK = """Traceback (most recent call last):
  File "<stdin>", line 1, in <module>
ValueError: operator has a negative eigenvalue: -0.5
"""


@pytest.mark.parametrize("old_text, new_text, named", [
    ("", "", "old.txt"),
    (TRACEBACK, TRACEBACK, "old.txt"),
    (TABLE, "", "new.txt"),
    (TABLE, TABLE.replace("all 12 criteria passed (87 checks)\n", ""), "new.txt"),
], ids=["empty", "traceback", "table-against-empty", "no-summary"])
def test_an_incomplete_table_is_a_usage_error(write, capsys, old_text, new_text, named):
    """An empty file, a traceback, or a table cut before its summary line
    vouches for nothing: the tool names the file and exits 2."""
    code = diff_reproduce.main([write("old.txt", old_text), write("new.txt", new_text)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert named in err and "not a complete reproduce table" in err
