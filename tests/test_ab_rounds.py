"""``tools/ab_rounds.py`` times one round in process and reports its memory."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_rounds.py"
spec = importlib.util.spec_from_file_location("ab_rounds", TOOL)
ab_rounds = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_rounds)


class Stub:
    """An operation as ``workloads.py`` builds one: a label, ``run`` and a
    ``check`` of its output that lists the problems found."""

    def __init__(self, label, run, want):
        self.label, self.run, self.want = label, run, want

    def check(self, out):
        return [] if out == self.want else [f"got {out!r}"]


def test_one_round_times_faults_and_checks():
    def boom():
        raise ZeroDivisionError("no")

    ops = [
        Stub("right", lambda: bytearray(2**20).count(0), 2**20),
        Stub("wrong", lambda: 1, 2),
        Stub("raises", boom, None),
    ]
    out = ab_rounds.one_round(ops)
    assert set(out) == {"s", "minflt", "maxrss_kb", "problems"}
    assert out["s"] > 0.0
    assert type(out["minflt"]) is int and out["minflt"] >= 0
    assert out["maxrss_kb"] > 0
    assert out["problems"] == ["wrong: got 1", "raises: ZeroDivisionError('no')"]


def test_a_clean_round_reports_no_problem():
    assert ab_rounds.one_round([Stub("right", lambda: 3, 3)])["problems"] == []
