"""Print the rows of two ``qclone reproduce`` tables whose values moved.

    qclone reproduce > old.txt   # on the old checkout
    qclone reproduce > new.txt   # on the new one
    python tools/diff_reproduce.py old.txt new.txt

A row is keyed by its criterion and label.  For every row whose ``got`` or
``|d|`` differs as printed, one line gives the old and new value of each
and |Δ|/tol, where Δ is the change of |d| (``inf`` for a row of tol 0).
Rows whose verdict or ``ref`` changed, or that only one table has, are
listed as well, as is a changed summary line.  Exits 1 if any of those
appear, so an unchanged ``reproduce`` outcome reads exit 0.  A file with no
row, or whose last line is not ``[NOT ]all N criteria passed (M checks)``,
is no complete table (an empty file, a crash's traceback): the tool names
it on stderr and exits 2.
"""
from __future__ import annotations

import re
import sys

CRITERION = re.compile(r"criterion (\d+): ")
SUMMARY = re.compile(r"(NOT )?all \d+ criteria passed \(\d+ checks\)")
ROW = re.compile(
    r"\s*\[(?P<verdict>\w+)\] (?P<label>.*?)\s+ref=\s*(?P<ref>\S+)\s+got=\s*(?P<got>\S+)"
    r"\s+\|d\|=(?P<d>\S+)\s+tol=(?P<tol>\S+)\s*$"
)


def parse(path: str) -> tuple[dict[tuple[int, str], dict[str, str]], str]:
    """The rows of one table by (criterion, label), and its summary line.
    ValueError, naming the file, if it has no row or does not end with a
    summary line."""
    rows, criterion, last = {}, 0, ""
    with open(path, encoding="utf-8") as f:
        for line in f:
            if m := CRITERION.match(line):
                criterion = int(m.group(1))
            elif m := ROW.match(line):
                rows[criterion, m.group("label")] = m.groupdict()
            last = line.strip() or last
    if not rows or not SUMMARY.fullmatch(last):
        raise ValueError(f"{path}: not a complete reproduce table (no row, or no closing summary line)")
    return rows, last


def diff(old_path: str, new_path: str) -> tuple[list[str], bool]:
    """Report lines, and whether any verdict, ref, row or summary changed."""
    old, old_last = parse(old_path)
    new, new_last = parse(new_path)
    lines, changed = [], False
    for key in list(old) + [k for k in new if k not in old]:  # table order
        name = f"criterion {key[0]}: {key[1]}"
        if key not in old or key not in new:
            lines.append(f"{name}: only in {'new' if key in new else 'old'}")
            changed = True
            continue
        a, b = old[key], new[key]
        for field in ("verdict", "ref"):
            if a[field] != b[field]:
                lines.append(f"{name}: {field} {a[field]} -> {b[field]}")
                changed = True
        if (a["got"], a["d"]) != (b["got"], b["d"]):
            delta = abs(float(b["d"]) - float(a["d"]))
            tol = float(b["tol"])
            ratio = delta / tol if tol else (0.0 if delta == 0 else float("inf"))
            lines.append(
                f"{name}: got {a['got']} -> {b['got']}, |d| {a['d']} -> {b['d']}, |Δ|/tol {ratio:.3g}"
            )
    if old_last != new_last:
        lines.append(f"summary: {old_last!r} -> {new_last!r}")
        changed = True
    return lines, changed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        lines, changed = diff(*argv)
    except ValueError as exc:
        print(f"diff_reproduce: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines) if lines else "no row moved")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
