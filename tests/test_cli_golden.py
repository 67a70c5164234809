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
    "clone mdim 64 --seed 1 --format json",
    "clone register-nonlocal --alpha2 0.3 --format json",
    "clone register-local --alpha2 0.7",
    "clone register-local --alpha2 0.0 --format csv",
    "clone register-nonlocal --alpha2 1.0",
    "sweep register-negativity --alpha2 0:1:101 --method local",
    "sweep register-negativity --alpha2 0:1:101 --method nonlocal",
)

# a number, or a word that merely contains digits (json keys, labels) is
# split into text and digits alike in both outputs, so it compares exactly
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


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
    assert NUMBER.split(got) == NUMBER.split(want), "non-numeric text differs"
    got_nums = [float(x) for x in NUMBER.findall(got)]
    want_nums = [float(x) for x in NUMBER.findall(want)]
    assert len(got_nums) == len(want_nums)
    for i, (g, w) in enumerate(zip(got_nums, want_nums)):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), f"number {i}: {g!r} != {w!r}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({case: run_case(case) for case in CASES}, indent=1) + "\n")
    sys.exit(0)
