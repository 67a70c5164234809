"""The three workloads: what one round runs and how its outputs are checked.

A round is a fixed list of operations; every round of a run repeats the same
operations on the same inputs, which the seed draws once.  Each operation
goes through qclone's public names, looked up at call time (``qclone.x``,
``cli.main``), so the traced run sees every call.  Checks compare against
``reference`` (closed forms written apart from qclone) or against properties
every correct output has.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qclone
from qclone import analysis, cli

import reference


class OperationFailed(Exception):
    """An operation ended without a result: an exception, or a non-zero exit
    code from the command line."""


def invoke(argv: list[str], codes: tuple[int, ...] = (0,)) -> str:
    """Run ``qclone <argv>`` in this process and return what it printed;
    an exit code outside ``codes`` fails the operation."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        raise OperationFailed(f"qclone {' '.join(argv)}: exit {exc.code}") from None
    if code not in codes:
        raise OperationFailed(f"qclone {' '.join(argv)}: exit {code}")
    return buf.getvalue()


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    #: returns a list of problems with one output; empty when it is correct
    check: Callable[[object], list[str]]


def close(got: float, want: float, tol: float, what: str) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{what}: got {got!r}, want {want!r} (tol {tol:g})"]


# ---------------------------------------------------------------- reproduce

ROW = re.compile(
    r"^  \[(pass|FAIL)\] (.+?)\s+ref=\s*(\S+)\s+got=\s*(\S+)\s+\|d\|=(\S+)\s+tol=(\S+)$"
)
CRITERIA = 12
ROWS = 87


def check_reproduce(text: str, refs: dict[str, float]) -> list[str]:
    problems = []
    lines = text.splitlines()
    headers = [ln for ln in lines if ln.startswith("criterion ")]
    rows = [ROW.match(ln) for ln in lines if ln.startswith("  [")]
    if len(headers) != CRITERIA or len(rows) != ROWS or not all(rows):
        problems.append(f"expected {CRITERIA} criteria and {ROWS} rows, got {len(headers)} and {len(rows)}")
    if not lines or lines[-1] != f"all {CRITERIA} criteria passed ({ROWS} checks)":
        problems.append(f"summary line reads {lines[-1] if lines else ''!r}")
    for row in filter(None, rows):
        mark, label, ref = row.group(1), row.group(2), float(row.group(3))
        if mark != "pass":
            problems.append(f"row failed: {label}")
        if label not in refs:
            problems.append(f"row has no independent reference: {label}")
            continue
        # the table prints 10 significant digits
        problems += close(ref, refs[label], 1e-9 * max(1.0, abs(refs[label])), f"reference of {label!r}")
    return problems


class Reproduce:
    """Full passes of ``qclone reproduce``: 12 criteria, 87 rows.  Its
    inputs are the suite's own fixed seeds, so ``--seed`` changes nothing."""

    name = "reproduce"

    def __init__(self, seed: int):
        refs = reference.reproduce_references()
        # exit code 1 means a row failed: a wrong result, which the check reports
        self.operations = [
            Operation("reproduce", lambda: invoke(["reproduce"], (0, 1)), lambda out: check_reproduce(out, refs))
        ]


# ------------------------------------------------------------------ reports

#: (kind, size, format, input source) of each report in one round
REPORT_MIX = (
    ("uqcm", None, "json", "seed"),
    ("uqcm", None, "table", "angles"),
    ("gm", 1, "csv", "angles"),
    ("gm", 2, "table", "seed"),
    ("gm", 3, "json", "angles"),
    ("gm", 4, "csv", "seed"),
    ("gm", 5, "table", "angles"),
    ("gm", 6, "json", "seed"),
    ("mdim", 3, "csv", "seed"),
    ("mdim", 4, "table", "seed"),
    ("mdim", 8, "json", "seed"),
    ("mdim", 16, "csv", "seed"),
    ("mdim", 32, "table", "seed"),
    ("mdim", 64, "json", "seed"),
    ("register-local", None, "csv", "alpha2"),
    ("register-nonlocal", None, "table", "alpha2"),
    ("register-local", None, "json", "alpha2"),
    ("register-nonlocal", None, "csv", "alpha2"),
)


def parse_report(text: str, fmt: str) -> dict:
    """Scaling factor, fidelity, PT eigenvalues (None where the format does
    not carry them all), smallest PT eigenvalue and copier purity."""
    if fmt == "json":
        data = json.loads(text)
        pt = data["pt_eigenvalues"]
        return {
            "s": data["scaling_factor"],
            "fidelity": data["fidelity"],
            "pt": pt,
            "pt_min": min(pt) if pt else None,
            "purity": data["purity_xi"],
        }
    if fmt == "csv":
        header, row, *rest = text.splitlines()
        if rest:
            raise ValueError("csv report has more than one row")
        vals = dict(zip(header.split(","), row.split(",")))
        opt = lambda key: float(vals[key]) if vals[key] else None  # noqa: E731
        return {
            "s": float(vals["scaling_factor"]),
            "fidelity": float(vals["fidelity"]),
            "pt": None,
            "pt_min": opt("pt_min"),
            "purity": opt("purity_xi"),
        }
    fields = dict(ln.split(None, 1) for ln in text.splitlines() if ln and not ln.startswith(("input", "separable", "entropy")))
    pt = [float(x) for x in fields["pt_eigenvalues"].split()] if "pt_eigenvalues" in fields else []
    return {
        "s": float(fields["scaling_factor"]),
        "fidelity": float(fields["fidelity"]),
        "pt": pt,
        "pt_min": min(pt) if pt else None,
        "purity": float(fields["purity_xi"]) if "purity_xi" in fields else None,
    }


def report_expectations(kind: str, size, alpha2: float | None) -> dict:
    """Closed-form scaling factor and fidelity, the copier dimension and
    purity, and the smallest PT eigenvalue where the report carries one."""
    if kind in ("uqcm", "gm"):
        n = 1 if kind == "uqcm" else size
        s = reference.qubit_scaling(n)
        return {"s": s, "fidelity": reference.mean_fidelity(s), "copier_dim": 2**n,
                "purity": reference.copier_purity_qubit(n), "pt_min": None}
    if kind == "mdim":
        s = reference.mdim_scaling(size)
        return {"s": s, "fidelity": reference.clone_fidelity(s, size), "copier_dim": size,
                "purity": None, "pt_min": None}
    method = kind.removeprefix("register-")
    s, fid = reference.register_fit(method, alpha2)
    return {"s": s, "fidelity": fid, "copier_dim": None, "purity": None,
            "pt_min": reference.register_min_pt(method, alpha2)}


def check_report(text: str, fmt: str, want: dict) -> list[str]:
    try:
        got = parse_report(text, fmt)
    except (ValueError, KeyError) as exc:
        return [f"unparsable {fmt} report: {exc!r}"]
    tol = 1e-9  # reports print 12 significant digits
    problems = close(got["s"], want["s"], tol, "scaling factor")
    problems += close(got["fidelity"], want["fidelity"], tol, "fidelity")
    if got["pt"]:
        problems += close(sum(got["pt"]), 1.0, tol, "sum of PT eigenvalues")
    if want["pt_min"] is not None:
        if got["pt_min"] is None:
            problems.append("register report carries no PT eigenvalue")
        else:
            problems += close(got["pt_min"], want["pt_min"], tol, "smallest PT eigenvalue")
    if want["copier_dim"] is not None:
        p = got["purity"]
        if p is None or not 1.0 / want["copier_dim"] - tol <= p <= 1.0 + tol:
            problems.append(f"copier purity {p!r} outside [1/{want['copier_dim']}, 1]")
        elif want["purity"] is not None:
            problems += close(p, want["purity"], tol, "copier purity")
    return problems


class Reports:
    """One ``qclone clone`` invocation per entry of REPORT_MIX, run through
    ``cli.main`` with the output captured.  The seed draws the inputs: Haar
    seeds, Bloch angles and register weights."""

    name = "reports"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.operations = []
        for kind, size, fmt, source in REPORT_MIX:
            argv = ["clone", kind] + ([] if size is None else [str(size)])
            alpha2 = None
            if source == "seed":
                argv += ["--seed", str(rng.randrange(1_000_000))]
            elif source == "angles":
                argv += ["--theta", repr(rng.uniform(0.0, math.pi)), "--phi", repr(2 * math.pi * rng.random())]
            else:
                alpha2 = rng.uniform(0.0, 1.0)
                argv += ["--alpha2", repr(alpha2)]
            argv += ["--format", fmt]
            want = report_expectations(kind, size, alpha2)
            self.operations.append(
                Operation(" ".join(argv), lambda argv=argv: invoke(argv),
                          lambda out, fmt=fmt, want=want: check_report(out, fmt, want))
            )


# ----------------------------------------------------------------- ensemble

GRID = 64  # the default Bloch-sphere quadrature grid, 64 x 64 inputs
SWEEP_STEPS = 101
BISECTION_RESOLUTION = 1e-8


def check_sweep(text: str, method: str, grid: np.ndarray) -> list[str]:
    header, *rows = text.splitlines()
    if header != "alpha2,min_pt_eigenvalue,separable" or len(rows) != len(grid):
        return [f"sweep has header {header!r} and {len(rows)} rows, want {len(grid)}"]
    lo, hi = reference.register_boundaries(method)
    problems = []
    for row, a2 in zip(rows, grid):
        a2_text, min_text, sep_text = row.split(",")
        problems += close(float(a2_text), a2, 1e-11, "sweep point")
        problems += close(float(min_text), reference.register_min_pt(method, a2), 1e-10, f"min PT eigenvalue at {a2!r}")
        if min(abs(a2 - lo), abs(a2 - hi)) > 1e-9 and (sep_text == "true") == (lo < a2 < hi):
            problems.append(f"{method} verdict {sep_text} at alpha2={a2!r} is on the wrong side")
    return problems


def check_boundary(interval, method: str) -> list[str]:
    lo, hi = reference.register_boundaries(method)
    return close(interval.lower, lo, 1e-6, f"{method} onset") + close(interval.upper, hi, 1e-6, f"{method} end")


def uqcm_clone(q):
    return qclone.uqcm_map(q).clone_marginal(0)


def gm_clone(n: int):
    return lambda q: qclone.gisin_massar_map(q, n).clone_marginal(0)


class Ensemble:
    """Bloch-sphere mean fidelity of the 1 -> 2, 1 -> 3 and 1 -> 4 cloners,
    register-negativity sweeps and inseparability boundaries for both
    register cloners.  The seed draws each sweep's alpha^2 range."""

    name = "ensemble"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.operations = []
        for label, fn, n in (("uqcm", uqcm_clone, 1), ("gm 2", gm_clone(2), 2), ("gm 3", gm_clone(3), 3)):
            want = reference.mean_fidelity(reference.qubit_scaling(n))
            self.operations.append(Operation(
                f"mean_fidelity {label}",
                lambda fn=fn: analysis.mean_fidelity(fn, GRID, GRID),
                lambda got, want=want, label=label: close(got, want, 1e-6, f"mean fidelity {label}"),
            ))
        for method in ("local", "nonlocal"):
            start, stop = rng.uniform(0.0, 0.05), rng.uniform(0.95, 1.0)
            argv = ["sweep", "register-negativity", "--alpha2", f"{start!r}:{stop!r}:{SWEEP_STEPS}", "--method", method]
            grid = np.linspace(start, stop, SWEEP_STEPS)
            self.operations.append(Operation(
                " ".join(argv), lambda argv=argv: invoke(argv),
                lambda out, method=method, grid=grid: check_sweep(out, method, grid),
            ))
        for method in ("local", "nonlocal"):
            self.operations.append(Operation(
                f"inseparability_boundary {method}",
                lambda method=method: analysis.inseparability_boundary(method, BISECTION_RESOLUTION),
                lambda got, method=method: check_boundary(got, method),
            ))


WORKLOADS = {w.name: w for w in (Reproduce, Reports, Ensemble)}
