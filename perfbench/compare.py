"""Run two sets of benchmark runs of the same code and say whether they agree.

    python3 perfbench/compare.py

For each workload of ``BENCHMARK.json``, set A runs seeds 1..10 and then set
B runs seeds 11..20, each in a fresh ``run.py`` process with ``--trace 0``
and the run length of ``BENCHMARK.json``.  For every end-to-end metric it
prints each set's median and quartiles, and whether the two sets agree
within the metric's bound:

* each set's spread, (Q3 - Q1) / median, is within the bound;
* the two medians differ, in either direction, by no more than the bound
  times set A's median;
* both sets fail the same share of operations.

Every run's result goes to ``.perfbench_out/compare.json``.  Exits 1 when
any check fails.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: runs in each of the two sets
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    results = {}
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [
            [one_run(workload, seed, seconds) for seed in range(first, first + RUNS)]
            for first in (1, RUNS + 1)
        ]
        results[workload] = sets
        print(f"{workload}: {RUNS} runs per set, {seconds} s each")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        ok = shares[0] == shares[1] and correct
        all_ok &= ok
        print(f"  failed share A={shares[0]:.6g} B={shares[1]:.6g}, all correct: {correct}  "
              f"{'ok' if ok else 'DIFFER'}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            (med_a, q1_a, q3_a), (med_b, q1_b, q3_b) = summary(values[0]), summary(values[1])
            spreads = ((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
            worse = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
            ok = abs(worse) <= bound and max(spreads) <= bound
            all_ok &= ok
            unit = metric["unit"]
            print(f"  {name:<14} A: median {med_a:.5g} {unit} [Q1 {q1_a:.5g}, Q3 {q3_a:.5g}] spread {spreads[0]:.3f}"
                  f" | B: median {med_b:.5g} [Q1 {q1_b:.5g}, Q3 {q3_b:.5g}] spread {spreads[1]:.3f}"
                  f" | B worse by {worse:+.3f} (bound {bound})  {'ok' if ok else 'OUT OF BOUND'}")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "compare.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
