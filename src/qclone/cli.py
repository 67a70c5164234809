"""Command-line interface: clone, reproduce, sweep, dump-circuit.

Output format defaults to the QCLONE_FORMAT environment variable (json, csv
or table), falling back to table.  All angles are radians.  Exit codes:
0 success, 1 check failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import checks
from .analysis import fidelity_formula, mdim_formulas, ppt_separable, scaling_factor_formula
from .cloners import register_clone
from .linalg import _BATCH_AMPS
from .network import build_copy_stage, build_prep_circuit_1, circuit_to_text
from .report import report_gm, report_mdim, report_register, report_uqcm
from .states import BlochQubit, haar_random_ket, random_bloch

FORMATS = ("json", "csv", "table")
QUBIT_KINDS = ("uqcm", "gm")
REGISTER_KINDS = ("register-local", "register-nonlocal")


def _default_format(parser: argparse.ArgumentParser) -> str:
    env = os.environ.get("QCLONE_FORMAT")
    if env is None:
        return "table"
    if env not in FORMATS:
        parser.error(f"QCLONE_FORMAT must be one of {FORMATS}, got {env!r}")
    return env


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


def _parse_int_range(spec: str, parser: argparse.ArgumentParser, what: str) -> range:
    parts = spec.split(":")
    try:
        lo, hi = (int(p) for p in parts)
    except ValueError:
        parser.error(f"{what} expects LO:HI, got {spec!r}")
    if lo > hi:
        parser.error(f"{what}: need LO <= HI, got {spec!r}")
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


def _clone_report(args, parser: argparse.ArgumentParser):
    kind = args.kind
    if kind in QUBIT_KINDS or kind in REGISTER_KINDS:
        if kind == "gm" and args.param is None:
            parser.error("clone gm needs the clone count, e.g. clone gm 3")
        if kind != "gm" and kind != "mdim" and args.param is not None:
            parser.error(f"clone {kind} takes no extra parameter")
    if kind == "mdim" and args.param is None:
        parser.error("clone mdim needs the dimension, e.g. clone mdim 16")

    if kind in QUBIT_KINDS:
        if args.alpha2 is not None:
            parser.error(f"--alpha2 applies to register cloners, not {kind}")
        if args.theta is not None or args.phi is not None:
            q = BlochQubit(
                args.theta if args.theta is not None else math.pi / 2.0,
                args.phi if args.phi is not None else 0.0,
            )
            seed = None
        elif args.seed is not None:
            q = random_bloch(args.seed)
            seed = args.seed
        else:
            q = BlochQubit(math.pi / 2.0, 0.0)
            seed = None
        return report_uqcm(q, seed) if kind == "uqcm" else report_gm(q, args.param, seed)
    elif kind == "mdim":
        if args.theta is not None or args.phi is not None or args.alpha2 is not None:
            parser.error("clone mdim takes its input from --seed only")
        seed = args.seed if args.seed is not None else 0
        return report_mdim(haar_random_ket(args.param, seed), seed)
    else:  # register cloners
        if args.theta is not None or args.phi is not None or args.seed is not None:
            parser.error(f"clone {kind} takes its input from --alpha2 only")
        alpha2 = args.alpha2 if args.alpha2 is not None else 0.5
        if not 0.0 <= alpha2 <= 1.0:
            parser.error(f"--alpha2 must lie in [0, 1], got {alpha2}")
        return report_register(kind.removeprefix("register-"), math.sqrt(alpha2))


def cmd_clone(args, parser: argparse.ArgumentParser) -> int:
    try:
        rep = _clone_report(args, parser)
    except ValueError as exc:
        # the library owns the valid ranges (clone count, dimension, angles,
        # seed) and raises ValueError for a value outside them
        parser.error(f"clone {args.kind}: {exc}")
    if args.format == "json":
        _emit(rep.to_json(), args.output)
    elif args.format == "csv":
        _emit(rep.to_csv(), args.output)
    else:
        _emit(rep.to_table(), args.output)
    return 0


def cmd_reproduce(args, parser: argparse.ArgumentParser) -> int:
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


def cmd_sweep(args, parser: argparse.ArgumentParser) -> int:
    rows = []
    if args.name == "mdim-scaling":
        if args.m is None:
            parser.error("sweep mdim-scaling needs --m LO:HI")
        rows.append("m,scaling_factor,bures,entropy_clone,entropy_copier")
        for m in _parse_int_range(args.m, parser, "--m"):
            if m < 2:
                parser.error("--m values must be >= 2")
            f = mdim_formulas(m)
            rows.append(
                f"{m},{f.scaling:.12g},{f.bures:.12g},"
                f"{f.entropy_clone:.12g},{f.entropy_copier:.12g}"
            )
    elif args.name == "gm-fidelity":
        if args.n is None:
            parser.error("sweep gm-fidelity needs --n LO:HI")
        rows.append("n,scaling_factor,fidelity")
        for n in _parse_int_range(args.n, parser, "--n"):
            if n < 1:
                parser.error("--n values must be >= 1")
            rows.append(f"{n},{scaling_factor_formula(n):.12g},{fidelity_formula(n):.12g}")
    elif args.name == "register-negativity":
        if args.alpha2 is None or args.method is None:
            parser.error("sweep register-negativity needs --alpha2 START:STOP:STEPS and --method")
        grid = _parse_grid(args.alpha2, parser, "--alpha2")
        if grid[0] < 0.0 or grid[-1] > 1.0:
            parser.error(f"--alpha2 grid must lie in [0, 1], got {args.alpha2!r}")
        rows.append("alpha2,min_pt_eigenvalue,separable")
        # both register cloners build 64-amplitude joint states
        size = _BATCH_AMPS // 64
        for k in range(0, len(grid), size):
            a2 = grid[k:k + size]
            sep, min_eig = ppt_separable(register_clone(args.method, np.sqrt(a2)))
            for x, e, ok in zip(a2.tolist(), min_eig.tolist(), sep.tolist()):
                rows.append(f"{x:.12g},{e:.12g},{str(ok).lower()}")
    else:  # unreachable through argparse choices
        parser.error(f"unknown sweep {args.name!r}")
    _emit("\n".join(rows) + "\n", args.output)
    return 0


def cmd_dump_circuit(args, parser: argparse.ArgumentParser) -> int:
    if args.which == "prep1":
        if args.n is not None:
            parser.error("dump-circuit prep1 takes no --n")
        text = circuit_to_text(build_prep_circuit_1())
    else:
        n = args.n if args.n is not None else 1
        if not 1 <= n <= 8:
            parser.error("--n must lie in 1..8")
        text = circuit_to_text(build_copy_stage(n))
    _emit(text, args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it found it
    parser = argparse.ArgumentParser(
        prog="qclone",
        description="Universal quantum cloning: simulate, verify, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_clone = sub.add_parser("clone", help="run one cloner and print its report")
    p_clone.add_argument("kind", choices=("uqcm", "gm", "mdim") + REGISTER_KINDS)
    p_clone.add_argument("param", nargs="?", type=int, default=None,
                         help="clone count for gm, dimension for mdim")
    p_clone.add_argument("--theta", type=float, help="input polar angle (radians)")
    p_clone.add_argument("--phi", type=float, help="input azimuthal angle (radians)")
    p_clone.add_argument("--alpha2", type=float, help="register weight on |00>")
    p_clone.add_argument("--seed", type=int, help="draw the input state from this seed")
    p_clone.add_argument("--format", choices=FORMATS, default=None)
    p_clone.add_argument("--output", help="write to this file instead of stdout")

    p_rep = sub.add_parser("reproduce", help="verify every published value; exit 1 on any miss")
    p_rep.add_argument("--output", help="write to this file instead of stdout")

    p_sweep = sub.add_parser("sweep", help="emit a CSV over a parameter range")
    p_sweep.add_argument("name", choices=("mdim-scaling", "gm-fidelity", "register-negativity"))
    p_sweep.add_argument("--m", help="integer range LO:HI")
    p_sweep.add_argument("--n", help="integer range LO:HI")
    p_sweep.add_argument("--alpha2", help="grid START:STOP:STEPS")
    p_sweep.add_argument("--method", choices=("local", "nonlocal"))
    p_sweep.add_argument("--output", help="write to this file instead of stdout")

    p_dump = sub.add_parser("dump-circuit", help="print a circuit in the text format")
    p_dump.add_argument("which", choices=("prep1", "copy"))
    p_dump.add_argument("--n", type=int, help="clone count for the copy stage")
    p_dump.add_argument("--output", help="write to this file instead of stdout")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "format", None) is None and args.command == "clone":
        args.format = _default_format(parser)
    if args.command == "clone":
        return cmd_clone(args, parser)
    if args.command == "reproduce":
        return cmd_reproduce(args, parser)
    if args.command == "sweep":
        return cmd_sweep(args, parser)
    return cmd_dump_circuit(args, parser)


if __name__ == "__main__":
    sys.exit(main())
