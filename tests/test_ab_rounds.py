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


# paired round times in seconds: the parent's quartiles are 10 and 12 ms
PARENT = [0.010, 0.011, 0.012, 0.010, 0.011, 0.012, 0.010, 0.011, 0.012, 0.011]


def test_claim_holds_on_nine_wins_and_a_gap_past_the_spread():
    change = [t - 0.003 for t in PARENT[:9]] + [PARENT[9] + 0.001]
    holds, line = ab_rounds.claim_verdict(PARENT, change)
    assert holds
    assert line == (
        "claim holds: change won 9 of 10 pairs (needs 9), "
        "median gap 3.000 ms against parent quartile spread 2.000 ms"
    )


def test_claim_misses_on_wins():
    """Eight wins of ten, although the median falls by 3 ms."""
    change = [t - 0.003 for t in PARENT[:8]] + [t + 0.001 for t in PARENT[8:]]
    holds, line = ab_rounds.claim_verdict(PARENT, change)
    assert not holds
    assert line.startswith("claim not met: change won 8 of 10 pairs (needs 9)")


def test_claim_misses_on_spread():
    """Ten wins of ten, but the median falls by 1 ms, inside the parent's
    quartile spread of 2 ms."""
    holds, line = ab_rounds.claim_verdict(PARENT, [t - 0.001 for t in PARENT])
    assert not holds
    assert line == (
        "claim not met: change won 10 of 10 pairs (needs 9), "
        "median gap 1.000 ms against parent quartile spread 2.000 ms"
    )
