"""``CheckRow`` reduces the batch it is given to its worst input, and no
criterion holds more than one batched joint state at a time."""
import tracemalloc

import numpy as np
import pytest

from qclone import checks
from qclone.checks import CheckRow
from qclone.linalg import _BATCH_AMPS


@pytest.mark.parametrize("values, worst", [
    ([1.0 + 1e-3, 1.0 - 2e-3, 1.0], 1.0 - 2e-3),  # below the reference
    ([1.0 - 1e-3, 1.0 + 2e-3, 1.0], 1.0 + 2e-3),  # above it
])
def test_abs_keeps_the_entry_farthest_from_the_reference(values, worst):
    row = CheckRow("r", 1.0, np.array(values), 1e-2)
    assert row.computed == worst
    assert row.delta == pytest.approx(2e-3, abs=1e-15)


def test_abs_sees_an_entry_above_a_reference_of_one():
    """An overlap above 1 fails its row: the smallest entry would pass."""
    row = CheckRow("r", 1.0, [1.0, 1.0 + 1e-9, 1.0 - 1e-12], 1e-10)
    assert row.computed == 1.0 + 1e-9
    assert not row.ok


def test_ge_keeps_the_smallest_and_le_the_largest_entry():
    values = np.array([[0.3, -0.2], [0.5, 0.1]])
    assert CheckRow("r", 0.0, values, 0.0, mode="ge").computed == -0.2
    assert CheckRow("r", 0.0, values, 0.0, mode="le").computed == 0.5
    assert not CheckRow("r", 0.0, values, 0.0, mode="ge").ok
    assert CheckRow("r", 1.0, values, 0.0, mode="le").ok


def test_rows_take_lists_of_equal_batches():
    row = CheckRow("r", 0.0, [np.array([0.2, 0.1]), np.array([0.4, 0.3])], 0.0, mode="ge")
    assert row.computed == 0.1


@pytest.mark.parametrize("mode", ["abs", "ge", "le"])
@pytest.mark.parametrize("value", [0.25, np.float64(0.25), np.array(0.25), 1])
def test_a_scalar_passes_through_as_a_python_float(mode, value):
    row = CheckRow("r", 0.0, value, 1.0, mode=mode)
    assert type(row.computed) is float
    assert row.computed == float(value)


def test_unknown_mode_raises_when_the_row_is_built():
    with pytest.raises(ValueError, match="unknown row mode 'eq'"):
        CheckRow("r", 0.0, 0.0, 1.0, mode="eq")


def test_a_nan_entry_fails_every_mode():
    for mode in ("abs", "ge", "le"):
        assert not CheckRow("r", 0.0, [0.0, np.nan], 1.0, mode=mode).ok


def test_each_criterion_holds_at_most_one_batched_joint():
    """One batched joint state holds at most _BATCH_AMPS amplitudes, and a
    criterion holds at most one of them at a time: its traced peak above
    where it started stays within 1.5 such joints (6 MiB).  Holding two
    m = 64 joints of criterion 9 at once peaks near 8.9 MiB."""
    bound = 1.5 * _BATCH_AMPS * np.dtype(np.complex128).itemsize
    peaks = {}
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for criterion in checks.ALL_CRITERIA:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            criterion()
            peaks[criterion.__name__] = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert {name: peak for name, peak in peaks.items() if peak > bound} == {}
