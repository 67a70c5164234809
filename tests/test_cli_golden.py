"""Golden CLI outputs: every case must print the recorded text, with the
non-numeric text equal and every number within 1e-12.

Regenerate ``data/cli_golden.json`` (only when an output change is
intended) with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""
import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qclone import cli
from qclone.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

CASES = (
    "clone uqcm --theta 1.0 --phi 0.3 --format json",
    "clone uqcm --format table",
    "clone uqcm --seed 5 --format json",
    "clone gm 1 --theta 0.4 --phi 2.0 --format csv",
    "clone gm 2 --seed 1 --format csv",
    "clone gm 3 --seed 7 --format json",
    "clone gm 6 --seed 2 --format json",
    "clone gm 8 --seed 4",
    "clone mdim 2 --seed 9 --format json",
    "clone mdim 3 --seed 3 --format json",
    "clone mdim 4 --seed 2",
    "clone mdim 8 --seed 5",
    "clone mdim 16 --seed 3 --format csv",
    "clone mdim 16 --seed 3",
    "clone mdim 64 --seed 1 --format json",
    "clone register-nonlocal --alpha2 0.3 --format json",
    "clone register-local --alpha2 0.7",
    "clone register-local --alpha2 0.0 --format csv",
    "clone register-nonlocal --alpha2 1.0",
    "sweep register-negativity --alpha2 0:1:101 --method local",
    "sweep register-negativity --alpha2 0:1:101 --method nonlocal",
    "reproduce",
)

# a number, or a word that merely contains digits (json keys, labels) is
# split into text and digits alike in both outputs, so it compares exactly
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def text_of(out: str) -> list[str]:
    """The text around the numbers.  A number that moves within the
    tolerance may print wider or narrower in a fixed-width column and so
    change the padding after it: the spaces right after a number are left
    out here, and the test compares line lengths instead."""
    head, *rest = NUMBER.split(out)
    return [head] + [piece.lstrip(" ") for piece in rest]


def line_lengths(out: str) -> list[int]:
    return [len(line) for line in out.splitlines()]


def run_case(case: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(case.split())
    assert code == 0, f"{case!r} exited {code}"
    return buf.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_matches_golden(golden, case):
    got, want = run_case(case), golden[case]
    assert text_of(got) == text_of(want), "non-numeric text differs"
    assert line_lengths(got) == line_lengths(want), "line lengths differ"
    got_nums = [float(x) for x in NUMBER.findall(got)]
    want_nums = [float(x) for x in NUMBER.findall(want)]
    assert len(got_nums) == len(want_nums)
    for i, (g, w) in enumerate(zip(got_nums, want_nums)):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), f"number {i}: {g!r} != {w!r}"


@pytest.mark.parametrize("case", [c for c in CASES if c.startswith("sweep register-negativity")])
def test_sweep_slices_print_the_golden_rows(golden, case, monkeypatch):
    """With room for 7 register joints (64 amplitudes each) per batch, the
    101-point grid runs in slices of 7, 7, ... 7, 3 points and still prints
    the golden output exactly."""
    slices, register_clone = [], cli.register_clone

    def counted(method, alpha):
        slices.append(len(alpha))
        return register_clone(method, alpha)

    monkeypatch.setattr(cli, "_BATCH_AMPS", 64 * 7)
    monkeypatch.setattr(cli, "register_clone", counted)
    assert run_case(case) == golden[case]
    assert slices == [7] * 14 + [3]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({case: run_case(case) for case in CASES}, indent=1) + "\n")
    sys.exit(0)
