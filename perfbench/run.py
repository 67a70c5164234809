"""Benchmark qclone on one workload and print the result as one JSON line.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: qclone is imported from ``src/``
there, never from an installed copy.  One process, one closed-loop caller:
each operation starts when the previous one has returned.

``--trace 0`` times whole rounds and reports the end-to-end metrics.
``--trace 1`` alternates plain rounds with rounds in which every layer is
wrapped (see ``tracer.py``), and reports the per-layer metrics per traced
round plus the tracing overhead: the traced rounds' median time over the
plain rounds' median, minus one.  Spans go to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 12

# One BLAS thread: the caller is single-threaded and the machine has two
# CPUs shared with other work, where an idle-spinning BLAS pool adds noise.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


class SetupProbes:
    """Times fresh interpreters that import qclone and fill the workload's
    caches (``warm.py``).  The probes are spread evenly over the run, so
    that their median evens out the host's swings in speed as ``round_s``
    does, instead of catching one moment of them."""

    def __init__(self, workload: str):
        self.workload = workload
        self.times: list[float] = []

    def probe_until(self, share: float) -> None:
        """Run the probes due once ``share`` of the run has passed: probe k
        of ``SETUP_PROBES`` is due at share k / ``SETUP_PROBES``."""
        while len(self.times) < min(SETUP_PROBES, int(share * SETUP_PROBES) + 1):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, str(HERE / "warm.py"), str(SRC), self.workload], check=True)
            self.times.append(time.perf_counter() - t0)


def run_rounds(workload, seconds: float, before=None, after=None, min_rounds: int = 1):
    """Run whole rounds for ``seconds``: at least ``min_rounds``, and no
    round that would, at the median pace so far, end after the time is up.

    ``before(i)`` runs before round ``i`` starts, and ``after(share)`` after
    each round, with the share of ``seconds`` used so far; the time they
    take counts neither in a round nor against ``seconds``.

    Returns the wall time of each round, operations attempted, the failures
    and the problems the checks found in the outputs of the rest.  Outputs
    are also compared with the first round's: repeating an operation must
    give the same bytes.
    """
    times, attempted, failures, problems = [], 0, [], []
    first_outputs = None
    used = 0.0
    while len(times) < min_rounds or used + statistics.median(times) <= seconds:
        if before is not None:
            before(len(times))
        start = time.perf_counter()
        outputs = []
        for op in workload.operations:
            try:
                outputs.append(op.run())
            except Exception as exc:  # a failed operation is counted, not fatal
                outputs.append(exc)
        times.append(time.perf_counter() - start)
        if first_outputs is None:
            first_outputs = outputs
        for op, out, first in zip(workload.operations, outputs, first_outputs):
            attempted += 1
            if isinstance(out, Exception):
                failures.append(f"{op.label}: {out!r}")
                continue
            problems += [f"{op.label}: {p}" for p in op.check(out)]
            if isinstance(out, str) and out != first:
                problems.append(f"{op.label}: output differs from the first round's")
        used += time.perf_counter() - start
        if after is not None:
            after(used / seconds)
    return times, attempted, failures, problems


def per_layer(tracer, rounds: int, overhead: float) -> dict:
    table = tracer.table()
    eig = tracer.eigensolves()

    def group(prefix: str, field: str) -> float:
        return sum(v[field] for k, v in table.items() if k.split(":")[0] == prefix)

    def named(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0)

    m = {
        "eigh.calls": (eig["calls"], "count"),
        "eigh.s": (eig["s"], "s"),
    }
    for suffix in ("d2-4", "d8-16", "d32-plus"):
        m[f"eigh.calls.{suffix}"] = (eig[f"calls.{suffix}"], "count")
        m[f"eigh.s.{suffix}"] = (eig[f"s.{suffix}"], "s")
    m.update({
        "linalg.state_new": (named("linalg.validate:StateVector", "spans"), "count"),
        "linalg.density_new": (named("linalg.validate:DensityOperator", "spans"), "count"),
        "linalg.validate_s": (group("linalg.validate", "self_s"), "s"),
        "linalg.positivity_eigh_calls": (eig["positivity_calls"], "count"),
        "linalg.positivity_eigh_s": (eig["positivity_s"], "s"),
        "linalg.marginal_calls": (group("linalg.marginal", "spans"), "count"),
        "linalg.marginal_s": (group("linalg.marginal", "self_s"), "s"),
        "linalg.functional_calls": (group("linalg.functional", "spans"), "count"),
        "linalg.functional_s": (group("linalg.functional", "self_s"), "s"),
        "states.ket_calls": (group("states.ket", "spans"), "count"),
        "states.ket_s": (group("states.ket", "self_s"), "s"),
        "cloners.clone_calls": (group("cloners.clone", "spans"), "count"),
        "cloners.clone_s": (group("cloners.clone", "self_s"), "s"),
        "network.gates_applied": (group("network.gate", "spans"), "count"),
        "network.run_s": (group("network.gate", "self_s") + group("network.run", "self_s"), "s"),
        "analysis.fit_calls": (group("analysis.fit", "spans"), "count"),
        "analysis.fit_s": (group("analysis.fit", "self_s"), "s"),
        "analysis.quadrature_s": (group("analysis.quadrature", "self_s"), "s"),
        "analysis.ppt_calls": (group("analysis.ppt", "spans"), "count"),
        "analysis.bisection_s": (group("analysis.bisection", "self_s"), "s"),
        "report.build_s": (group("report.build", "self_s"), "s"),
        "report.serialize_s": (group("report.serialize", "self_s"), "s"),
        "report.bytes_out": (group("report.serialize", "weight"), "B"),
    })
    for i in range(1, 13):
        m[f"checks.criterion_{i:02d}_s"] = (named(f"checks.criterion_{i:02d}", "incl_s"), "s")
    m["checks.rows_checked"] = (sum(v["weight"] for k, v in table.items() if k.startswith("checks.criterion_")), "count")
    m["cli.self_s"] = (group("cli", "self_s"), "s")
    metrics = {name: {"value": value / rounds, "unit": unit} for name, (value, unit) in m.items()}
    share = eig["positivity_calls"] / eig["calls"] if eig["calls"] else 0.0
    metrics["linalg.positivity_eigh_share"] = {"value": share, "unit": "ratio"}
    metrics["trace.overhead_share"] = {"value": overhead, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark qclone on one workload.")
    parser.add_argument("--workload", required=True, choices=("reproduce", "reports", "ensemble"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qclone" / "__init__.py").is_file():
        print(f"run.py: no qclone sources under {SRC}; run from a qclone checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qclone

    if Path(qclone.__file__).resolve().parent != SRC / "qclone":
        print(f"run.py: imported qclone from {qclone.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from warm import warm
    from workloads import WORKLOADS

    warm(args.workload)
    workload = WORKLOADS[args.workload](args.seed)

    if not args.trace:
        probes = SetupProbes(args.workload)
        probes.probe_until(0.0)
        times, attempted, failures, problems = run_rounds(workload, args.seconds, after=probes.probe_until)
        probes.probe_until(1.0)
        metrics = {
            "round_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(probes.times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    else:
        from tracer import Tracer

        tracer = Tracer()
        tracer.resolve()

        def before(i: int) -> None:
            # even rounds plain, odd rounds traced, so both see the same drift
            (tracer.install if i % 2 else tracer.uninstall)()

        times, attempted, failures, problems = run_rounds(workload, args.seconds, before=before, min_rounds=2)
        tracer.uninstall()
        plain, traced = times[0::2], times[1::2]
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics = per_layer(tracer, len(traced), overhead)
        for name in tracer.absent:
            print(f"trace: absent: {name}", file=sys.stderr)
        tracer.write(
            OUT / f"trace-{args.workload}-seed{args.seed}",
            {"workload": args.workload, "seed": args.seed, "traced_rounds": len(traced),
             "untraced_round_s": plain, "traced_round_s": traced},
        )

    for f in failures[:20]:
        print(f"failed: {f}", file=sys.stderr)
    for p in problems[:20]:
        print(f"wrong: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
