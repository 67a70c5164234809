"""Alternate single rounds of one perfbench workload between two checkouts.

    python tools/ab_rounds.py PARENT_DIR CHANGE_DIR --workload ensemble --seed 7 --pairs 60

Each checkout gets one long-lived worker process, and there are never more
than these two.  A worker puts the checkout's ``src/`` first on its path, so
it runs that checkout's qclone, and imports ``workloads.py`` and ``warm.py``
from the ``perfbench/`` next to this tool, so both sides run the same
benchmark code.  It warms the workload as ``run.py`` does and runs one
round it does not report, then waits.  For each pair the tool asks both
workers for one round, alternating which side goes first; a round is timed
as in ``run.py``, its outputs are checked outside the timed region, and a
failed or wrong operation stops the comparison.

Prints each side's median round time with its quartiles, and its wins: the
pairs in which its round was the faster one (ties count for neither).  A
last line says whether the rounds show a gain for the change: it won at
least nine tenths of the pairs, and its median lies below the parent's by
more than the parent's quartile spread.  For
memory, each side also prints the median of its rounds' minor page faults
(``ru_minflt`` read just before and just after the timed region) and its
worker's peak resident set (``ru_maxrss``, in MB of 1024 KiB as ``run.py``
reports it) after its last round.  Both workers stay alive between pairs,
so the comparison sees the host drift alike on both sides instead of
between two runs minutes apart.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("reproduce", "reports", "ensemble")


def worker(checkout: str, workload: str, seed: int) -> int:
    """Serve rounds: one JSON line per line read from stdin, until EOF."""
    src = Path(checkout).resolve() / "src"
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import qclone

    if Path(qclone.__file__).resolve().parent != src / "qclone":
        print(f"ab_rounds: imported qclone from {qclone.__file__}, not from {src}", file=sys.stderr)
        return 2
    from warm import warm
    from workloads import WORKLOADS as BUILDERS

    warm(workload)
    operations = BUILDERS[workload](seed).operations
    # the first round fills what warm() leaves cold and is not reported
    first = one_round(operations)
    print(json.dumps(first if first["problems"] else {"ready": True}), flush=True)
    for _ in iter(sys.stdin.readline, ""):
        print(json.dumps(one_round(operations)), flush=True)
    return 0


def one_round(operations) -> dict:
    """Run every operation once; the wall time of the round, the minor page
    faults it took, the process's peak resident set in KiB after it, and
    the first problems its checks found."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    outputs = []
    for op in operations:
        try:
            outputs.append(op.run())
        except Exception as exc:  # reported as a problem, not fatal to the worker
            outputs.append(exc)
    elapsed = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    problems = []
    for op, out in zip(operations, outputs):
        if isinstance(out, Exception):
            problems.append(f"{op.label}: {out!r}")
        else:
            problems += [f"{op.label}: {p}" for p in op.check(out)]
    return {"s": elapsed, "minflt": usage.ru_minflt - faults, "maxrss_kb": usage.ru_maxrss, "problems": problems[:5]}


class Worker:
    """A worker process for one checkout, spoken to one line at a time."""

    def __init__(self, checkout: Path, workload: str, seed: int):
        env = dict(os.environ)
        # one BLAS thread, as run.py sets: both sides share two CPUs
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.setdefault(var, "1")
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(checkout), workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self.reply()  # the warm-up round

    def reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        msg = json.loads(line)
        if msg.get("problems"):
            raise RuntimeError("round went wrong: " + "; ".join(msg["problems"]))
        return msg

    def round(self) -> dict:
        self.proc.stdin.write("round\n")
        self.proc.stdin.flush()
        return self.reply()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def summary(times: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(times, n=4)
    return statistics.median(times), q1, q3


def claim_verdict(parent: list[float], change: list[float]) -> tuple[bool, str]:
    """Whether paired round times (parent[i] against change[i], in seconds)
    show a gain, and the line that says so.  A gain needs both: the change
    won at least nine tenths of the pairs, ties counting for neither, and
    its median lies below the parent's by more than the distance between
    the parent's quartiles."""
    pairs = len(parent)
    wins = sum(c < p for p, c in zip(parent, change))
    need = -(-9 * pairs // 10)
    (pm, pq1, pq3), (cm, _, _) = summary(parent), summary(change)
    gap, spread = pm - cm, pq3 - pq1
    holds = wins >= need and gap > spread
    return holds, (
        f"claim {'holds' if holds else 'not met'}: change won {wins} of {pairs} pairs (needs {need}), "
        f"median gap {gap * 1e3:.3f} ms against parent quartile spread {spread * 1e3:.3f} ms"
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        return worker(argv[1], argv[2], int(argv[3]))
    parser = argparse.ArgumentParser(description="Alternate single perfbench rounds between two checkouts.")
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=60)
    args = parser.parse_args(argv)
    if args.pairs < 4:
        parser.error("need at least 4 pairs for quartiles")

    sides = ("parent", "change")
    workers = {}
    try:
        for side in sides:
            workers[side] = Worker(getattr(args, side), args.workload, args.seed)
        rounds = {side: [] for side in sides}
        for i in range(args.pairs):
            for side in (sides if i % 2 == 0 else sides[::-1]):
                rounds[side].append(workers[side].round())
    finally:
        for w in workers.values():
            w.close()

    # the workers' pipes are closed: from here a reader that goes away early
    # (``| head``) ends the tool quietly instead of with a BrokenPipeError
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    times = {side: [r["s"] for r in rounds[side]] for side in sides}

    wins = {
        "parent": sum(p < c for p, c in zip(times["parent"], times["change"])),
        "change": sum(c < p for p, c in zip(times["parent"], times["change"])),
    }
    print(f"{args.workload}, seed {args.seed}: {args.pairs} pairs of single rounds, alternating which side goes first")
    print(f"{'side':<8} {'median_ms':>10} {'q1_ms':>8} {'q3_ms':>8} {'wins':>5} {'minflt':>7} {'maxrss_mb':>10}")
    for side in sides:
        med, q1, q3 = summary(times[side])
        faults = statistics.median(r["minflt"] for r in rounds[side])
        rss = rounds[side][-1]["maxrss_kb"] / 1024.0
        print(
            f"{side:<8} {med * 1e3:>10.3f} {q1 * 1e3:>8.3f} {q3 * 1e3:>8.3f} {wins[side]:>5} {faults:>7g} {rss:>10.2f}"
        )
    (pm, pq1, pq3), (cm, _, _) = summary(times["parent"]), summary(times["change"])
    print(f"median change {100.0 * (cm / pm - 1.0):+.1f} %; parent quartile spread {(pq3 - pq1) * 1e3:.3f} ms")
    print(claim_verdict(times["parent"], times["change"])[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
