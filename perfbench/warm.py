"""Set-up of each workload: import qclone and fill the lazy caches the
workload's operations use (the symmetric-state and cloner-column caches).

``run.py`` calls :func:`warm` before it times anything, and runs this file in
fresh interpreters to measure ``setup_s``:

    python3 perfbench/warm.py SRC_DIR WORKLOAD
"""
from __future__ import annotations

import sys

#: clone counts n whose 1 -> n+1 cloner each workload runs
GM_SIZES = {"reproduce": range(1, 7), "reports": range(1, 7), "ensemble": (2, 3)}
#: copier start states the reproduce pass builds through the gate network
PREP_SIZES = {"reproduce": range(1, 6), "reports": (), "ensemble": ()}


def warm(workload: str) -> None:
    import qclone
    import qclone.cli  # noqa: F401  (imports the checks suite as well)

    q = qclone.BlochQubit(1.0, 0.5)
    qclone.uqcm_map(q)
    for n in GM_SIZES[workload]:
        qclone.gisin_massar_map(q, n)
    for n in PREP_SIZES[workload]:
        qclone.prep_state(n)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    warm(sys.argv[2])
