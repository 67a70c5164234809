"""Command-line interface: clone, reproduce, sweep, dump-circuit.

Each choice is its own subcommand and owns its options, which follow it:

    clone uqcm | clone gm N      --theta --phi --seed (explicit angles win)
    clone mdim M                 --seed (default 0)
    clone register-local | clone register-nonlocal    --alpha2 (default 0.5)
    sweep mdim-scaling --m LO:HI | sweep gm-fidelity --n LO:HI
    sweep register-negativity --alpha2 START:STOP:STEPS --method {local,nonlocal}
    dump-circuit prep1 | dump-circuit copy [--n {1..8}]

Every subcommand takes --output; clone also takes --format (json, csv or
table, default table).  All angles are radians.  Exit codes: 0 success,
1 check failure, 2 usage error.

Each leaf subparser names its command function and itself in its defaults
(``run`` and ``parser``; ``reproduce`` needs only ``run``), so ``main``
calls ``args.run(args)`` and a command reports a usage error through
``args.parser``, with its own subcommand's usage line.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import checks
from .analysis import fidelity_formula, mdim_formulas, ppt_separable, scaling_factor_formula
from .cloners import REGISTER_CLONERS, mdim_coefficients, register_clone
from .linalg import _BATCH_AMPS
from .network import build_copy_stage, build_prep_circuit_1, circuit_to_text
from .report import report_gm, report_mdim, report_register, report_uqcm
from .states import BlochQubit, haar_random_ket, random_bloch

#: the CloneReport method that prints each --format choice, by name: it is
#: looked up on each report, so a wrapper set on the class (perfbench's
#: tracer wraps all three) sees the call
FORMATS = {"json": "to_json", "csv": "to_csv", "table": "to_table"}


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        # exit 1 means a failed check, so an unwritable --output is a usage error
        sys.stderr.write(f"qclone: error: cannot write --output {path!r}: {exc.strerror}\n")
        raise SystemExit(2) from None


def _parse_int_range(spec: str, parser: argparse.ArgumentParser, what: str, floor: int) -> range:
    parts = spec.split(":")
    try:
        lo, hi = (int(p) for p in parts)
    except ValueError:
        parser.error(f"{what} expects LO:HI, got {spec!r}")
    if lo > hi:
        parser.error(f"{what}: need LO <= HI, got {spec!r}")
    if lo < floor:
        parser.error(f"{what} values must be >= {floor}")
    return range(lo, hi + 1)


def _parse_grid(spec: str, parser: argparse.ArgumentParser, what: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        parser.error(f"{what} expects START:STOP:STEPS, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        parser.error(f"{what} expects numeric START:STOP:STEPS, got {spec!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        parser.error(f"{what}: START and STOP must be finite, got {spec!r}")
    if steps < 2 or not start < stop:
        parser.error(f"{what}: need START < STOP and STEPS >= 2, got {spec!r}")
    return np.linspace(start, stop, steps)


def _clone_report(args):
    if args.kind == "mdim":
        # the library's range check runs before the input of M amplitudes is drawn
        mdim_coefficients(args.param)
        return report_mdim(haar_random_ket(args.param, args.seed), args.seed)
    if "method" in args:  # clone register-<method>
        if not 0.0 <= args.alpha2 <= 1.0:
            args.parser.error(f"--alpha2 must lie in [0, 1], got {args.alpha2}")
        return report_register(args.method, math.sqrt(args.alpha2))
    # qubit cloners: explicit angles win over --seed
    if args.theta is None and args.phi is None and args.seed is not None:
        q, seed = random_bloch(args.seed), args.seed
    else:
        q, seed = BlochQubit(
            args.theta if args.theta is not None else math.pi / 2.0,
            args.phi if args.phi is not None else 0.0,
        ), None
    return report_uqcm(q, seed) if args.kind == "uqcm" else report_gm(q, args.param, seed)


def cmd_clone(args) -> int:
    try:
        rep = _clone_report(args)
    except ValueError as exc:
        # the library owns the valid ranges (clone count, dimension, angles,
        # seed) and raises ValueError for a value outside them
        args.parser.error(str(exc))
    _emit(getattr(rep, FORMATS[args.format])(), args.output)
    return 0


def cmd_reproduce(args) -> int:
    results = checks.run_all()
    lines = []
    width = max(len(r.label) for c in results for r in c.rows) + 2
    for crit in results:
        lines.append(f"criterion {crit.index}: {crit.title}")
        for row in crit.rows:
            mark = "pass" if row.ok else "FAIL"
            lines.append(
                f"  [{mark}] {row.label:<{width}}"
                f"ref={row.reference:< 18.10g} got={row.computed:< 18.10g}"
                f"|d|={row.delta:<12.3g} tol={row.tol:.1g}"
            )
    ok = all(c.passed for c in results)
    n_rows = sum(len(c.rows) for c in results)
    lines.append(
        f"{'all' if ok else 'NOT all'} {len(results)} criteria passed ({n_rows} checks)"
    )
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    if args.name == "mdim-scaling":
        rows = ["m,scaling_factor,bures,entropy_clone,entropy_copier"]
        for m in _parse_int_range(args.m, args.parser, "--m", 2):
            scaling, bures, entropy_clone, entropy_copier = mdim_formulas(m)
            rows.append(
                f"{m},{scaling:.12g},{bures:.12g},"
                f"{entropy_clone:.12g},{entropy_copier:.12g}"
            )
    elif args.name == "gm-fidelity":
        rows = ["n,scaling_factor,fidelity"]
        for n in _parse_int_range(args.n, args.parser, "--n", 1):
            rows.append(f"{n},{scaling_factor_formula(n):.12g},{fidelity_formula(n):.12g}")
    else:  # register-negativity
        grid = _parse_grid(args.alpha2, args.parser, "--alpha2")
        if grid[0] < 0.0 or grid[-1] > 1.0:
            args.parser.error(f"--alpha2 grid must lie in [0, 1], got {args.alpha2!r}")
        rows = ["alpha2,min_pt_eigenvalue,separable"]
        # both register cloners build 64-amplitude joint states
        size = _BATCH_AMPS // 64
        for k in range(0, len(grid), size):
            a2 = grid[k:k + size]
            sep, min_eig = ppt_separable(register_clone(args.method, np.sqrt(a2)))
            for x, e, ok in zip(a2.tolist(), min_eig.tolist(), sep.tolist()):
                rows.append(f"{x:.12g},{e:.12g},{str(ok).lower()}")
    _emit("\n".join(rows) + "\n", args.output)
    return 0


def cmd_dump_circuit(args) -> int:
    circuit = build_prep_circuit_1() if args.which == "prep1" else build_copy_stage(args.n)
    _emit(circuit_to_text(circuit), args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it found it
    parser = argparse.ArgumentParser(
        prog="qclone",
        description="Universal quantum cloning: simulate, verify, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options shared by several subcommands; each goes after the choice it
    # qualifies, e.g. ``clone gm 3 --seed 7``
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write to this file instead of stdout")
    report = argparse.ArgumentParser(add_help=False, parents=[output])
    report.add_argument("--format", choices=FORMATS, default="table")
    qubit = argparse.ArgumentParser(add_help=False, parents=[report])
    qubit.add_argument("--theta", type=float, help="input polar angle (radians)")
    qubit.add_argument("--phi", type=float, help="input azimuthal angle (radians)")
    qubit.add_argument("--seed", type=int, help="draw the input state from this seed")

    p_clone = sub.add_parser("clone", help="run one cloner and print its report")
    kinds = p_clone.add_subparsers(dest="kind", required=True)
    kinds.add_parser("uqcm", parents=[qubit], help="1 -> 2 qubit cloner")
    p_gm = kinds.add_parser("gm", parents=[qubit], help="1 -> N+1 qubit cloner")
    p_gm.add_argument("param", metavar="N", type=int, help="clone count N, 1..8")
    p_mdim = kinds.add_parser("mdim", parents=[report], help="1 -> 2 cloner in M dimensions")
    p_mdim.add_argument("param", metavar="M", type=int, help="dimension M, 2..64")
    p_mdim.add_argument("--seed", type=int, default=0, help="draw the input state from this seed (default 0)")
    for method in REGISTER_CLONERS:
        p_reg = kinds.add_parser(f"register-{method}", parents=[report], help=f"{method} two-qubit register cloner")
        p_reg.add_argument("--alpha2", type=float, default=0.5, help="register weight on |00> (default 0.5)")
        p_reg.set_defaults(method=method)

    sub.add_parser(
        "reproduce", parents=[output], help="verify every published value; exit 1 on any miss"
    ).set_defaults(run=cmd_reproduce)

    p_sweep = sub.add_parser("sweep", help="emit a CSV over a parameter range")
    sweeps = p_sweep.add_subparsers(dest="name", required=True)
    p = sweeps.add_parser("mdim-scaling", parents=[output], help="M-dimensional closed forms")
    p.add_argument("--m", required=True, help="integer range LO:HI")
    p = sweeps.add_parser("gm-fidelity", parents=[output], help="1 -> N+1 scaling factor and fidelity")
    p.add_argument("--n", required=True, help="integer range LO:HI")
    p = sweeps.add_parser("register-negativity", parents=[output], help="register PT test over alpha^2")
    p.add_argument("--alpha2", required=True, help="grid START:STOP:STEPS")
    p.add_argument("--method", required=True, choices=REGISTER_CLONERS)

    p_dump = sub.add_parser("dump-circuit", help="print a circuit in the text format")
    circuits = p_dump.add_subparsers(dest="which", required=True)
    circuits.add_parser("prep1", parents=[output], help="two-qubit preparation circuit")
    p = circuits.add_parser("copy", parents=[output], help="copy stage of the 1 -> N+1 network")
    p.add_argument("--n", type=int, choices=range(1, 9), default=1, metavar="{1..8}",
                   help="clone count for the copy stage")

    # each leaf runs its command and reports usage errors with its own usage line
    for choices, run in ((kinds, cmd_clone), (sweeps, cmd_sweep), (circuits, cmd_dump_circuit)):
        for p in choices.choices.values():
            p.set_defaults(run=run, parser=p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
