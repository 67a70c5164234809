"""Closed forms the benchmark checks qclone's outputs against.

Written from the papers, not from qclone: nothing here imports
``qclone.analysis`` or ``qclone.checks``, so a fault in either cannot hide
by being compared with itself.  Sources: Buzek & Hillery, PRA 54, 1844
(1996) and PRL 81, 5003 (1998); Gisin & Massar, PRL 79, 2153 (1997).
"""
from __future__ import annotations

import math

import numpy as np


def qubit_scaling(n: int) -> float:
    """Shrinking factor of the optimal 1 -> n+1 qubit cloner."""
    return 1.0 / 3.0 + 2.0 / (3.0 * (n + 1))


def mdim_scaling(m: int) -> float:
    """Shrinking factor of the universal 1 -> 2 cloner in m dimensions."""
    return (m + 2.0) / (2.0 * (m + 1.0))


def clone_fidelity(s: float, d: int) -> float:
    """<psi|rho|psi> for rho = s |psi><psi| + (1 - s)/d * identity."""
    return s + (1.0 - s) / d


def mean_fidelity(s: float) -> float:
    """Bloch-sphere average of the qubit clone fidelity; universality makes
    it equal to the fidelity of every single input."""
    return (1.0 + s) / 2.0


def bures_to_ideal(s: float, d: int) -> float:
    """Bures distance sqrt(2 (1 - sqrt(F))) between a scaled clone and its
    pure ideal, with F the clone fidelity."""
    return math.sqrt(2.0 * (1.0 - math.sqrt(clone_fidelity(s, d))))


def copier_purity_qubit(n: int) -> float:
    """Purity of the n-qubit copier after the 1 -> n+1 cloner."""
    return 2.0 * (2.0 * n * n + 7.0 * n + 6.0) / (3.0 * (n + 1.0) * (n + 2.0) ** 2)


def register_pair(method: str, alpha2: float) -> np.ndarray:
    """Density matrix of one cloned copy of alpha|00> + beta|11>, over
    |00>, |01>, |10>, |11>, for the qubit-by-qubit (``local``) or the
    four-dimensional (``nonlocal``) cloner."""
    a2, b2 = alpha2, 1.0 - alpha2
    ab = math.sqrt(a2 * b2)
    if method == "local":
        diag, corner = [(24 * a2 + 1) / 36, 5 / 36, 5 / 36, (24 * b2 + 1) / 36], 4 * ab / 9
    elif method == "nonlocal":
        diag, corner = [(6 * a2 + 1) / 10, 1 / 10, 1 / 10, (6 * b2 + 1) / 10], 3 * ab / 5
    else:
        raise ValueError(f"unknown register method {method!r}")
    rho = np.diag(diag).astype(float)
    rho[0, 3] = rho[3, 0] = corner
    return rho


def register_min_pt(method: str, alpha2: float) -> float:
    """Smallest eigenvalue of the partial transpose of the cloned register.

    The transpose moves the |00><11| corner into the |01>,|10> block, whose
    eigenvalues are its diagonal plus or minus the corner."""
    a2, b2 = alpha2, 1.0 - alpha2
    ab = math.sqrt(a2 * b2)
    if method == "local":
        return min(5 / 36 - 4 * ab / 9, (24 * a2 + 1) / 36, (24 * b2 + 1) / 36)
    if method == "nonlocal":
        return min(1 / 10 - 3 * ab / 5, (6 * a2 + 1) / 10, (6 * b2 + 1) / 10)
    raise ValueError(f"unknown register method {method!r}")


def register_boundaries(method: str) -> tuple[float, float]:
    """alpha^2 interval on which the cloned register pair is inseparable:
    where the corner outweighs the middle diagonal, alpha^2 beta^2 > 25/256
    (local) or > 1/36 (nonlocal)."""
    if method == "local":
        half = math.sqrt(39.0) / 16.0
    elif method == "nonlocal":
        half = math.sqrt(2.0) / 3.0
    else:
        raise ValueError(f"unknown register method {method!r}")
    return 0.5 - half, 0.5 + half


def register_fit(method: str, alpha2: float) -> tuple[float, float]:
    """Least-squares scaling factor and fidelity of a cloned register
    against its ideal |psi><psi|, psi = alpha|00> + beta|11>."""
    rho = register_pair(method, alpha2)
    psi = np.array([math.sqrt(alpha2), 0.0, 0.0, math.sqrt(1.0 - alpha2)])
    mixed = np.eye(4) / 4.0
    direction = np.outer(psi, psi) - mixed
    s = float(np.sum(direction * (rho - mixed)) / np.sum(direction * direction))
    return s, float(psi @ rho @ psi)


def prep_amplitudes() -> tuple[float, float, float, float]:
    """The preparation circuit's target (2|00> + |01> + |11>)/sqrt(6)."""
    r6 = 1.0 / math.sqrt(6.0)
    return 2.0 * r6, r6, 0.0, r6


def reproduce_references() -> dict[str, float]:
    """Reference value of every row ``qclone reproduce`` prints, by label.

    Rows that measure a deviation, a spread or a residual have reference 0;
    the rest carry the paper's value.
    """
    refs: dict[str, float] = {}
    zero_rows = [
        "scaled-form residual (max norm)",
        "largest imaginary part",
        "max pairwise clone-marginal deviation",
        "clone pair entangled at n=1 (min PT eig < 0)",
        "clone pairs separable for n>=2 (min PT eig >= 0)",
        "PT spectrum vs frozen values (real inputs)",
        "largest min-PT-eigenvalue over 20x20 grid",
        "purity above 1/(n+1) floor",
        "clone/copier entropies vs formulas (max dev)",
        "copier marginal vs closed form (max dev)",
        "m=2 joint state equals 1->2 cloner joint",
        "local pair density vs closed form (max dev)",
        "nonlocal pair density vs closed form (max dev)",
        "Bures spread, 1->2 cloner",
    ]
    refs.update({label: 0.0 for label in zero_rows})
    # criterion 1: the 1 -> 2 network
    refs["scaling factor s, both clones, 100 Haar inputs"] = qubit_scaling(1)
    refs["per-input clone fidelity"] = clone_fidelity(qubit_scaling(1), 2)
    # criterion 2: preparation circuit
    for label, amp in zip(("|00>", "|01>", "|10>", "|11>"), prep_amplitudes()):
        refs[f"amplitude on {label}"] = amp
    for n in range(1, 6):
        refs[f"min overlap |<network|map>|, n={n}"] = 1.0
        refs[f"max idle-qubit deviation, n={n}"] = 0.0
        refs[f"Bures spread, n={n}"] = 0.0
    for n in range(1, 7):
        refs[f"scaling factor, n={n}"] = qubit_scaling(n)
        refs[f"PT spectrum vs formula, n={n}"] = 0.0
        refs[f"PT spectrum input dependence (std), n={n}"] = 0.0
        refs[f"copier purity, n={n}"] = copier_purity_qubit(n)
    for m in (2, 3, 4, 8, 16, 32, 64):
        refs[f"scaling factor, m={m}"] = mdim_scaling(m)
        refs[f"Bures distance to ideal, m={m}"] = bures_to_ideal(mdim_scaling(m), m)
    for m in (2, 3, 4, 8, 16):
        refs[f"Bures spread, m={m}"] = 0.0
    # criterion 10: register inseparability windows
    lo, hi = register_boundaries("local")
    lo_nl, hi_nl = register_boundaries("nonlocal")
    refs["local inseparability onset (alpha^2)"] = lo
    refs["local inseparability end (alpha^2)"] = hi
    refs["nonlocal inseparability onset (alpha^2)"] = lo_nl
    refs["nonlocal inseparability end (alpha^2)"] = hi_nl
    refs["nonlocal interval strictly contains local"] = 1.0
    # criterion 11: Bloch-sphere mean fidelity
    refs["mean fidelity, 1->2 cloner"] = mean_fidelity(qubit_scaling(1))
    for n in (2, 3):
        refs[f"mean fidelity, n={n}"] = mean_fidelity(qubit_scaling(n))
    # criterion 12: the qubit-by-qubit register cloner is not universal
    refs["Bures spread, local register cloner (must exceed 1e-3)"] = 1e-3
    return refs
