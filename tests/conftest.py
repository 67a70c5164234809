"""Fixtures shared by more than one test file."""
import functools

import pytest

from qclone import checks


@pytest.fixture(scope="session")
def unfaulted_result():
    """``unfaulted_result(i)`` is criterion i's result on the package as it
    stands, computed once per session: the acceptance gate and the fault
    detectors' clean runs share one pass.  Only a test that patches nothing
    may request it, or a faulted result would be kept for the others."""

    @functools.cache
    def result(index: int) -> checks.CriterionResult:
        r = checks.ALL_CRITERIA[index - 1]()
        assert r.index == index
        return r

    return result
