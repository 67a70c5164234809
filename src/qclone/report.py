"""Aggregate report for one cloning run, with JSON, CSV and table emission.

Numbers serialize at 12 significant digits so identical runs produce
byte-identical output and every value round-trips through ``json.loads``
without further loss.  The table prints one ``name value`` line per field
in declaration order, and one line per key of ``input``, ``separable`` and
``entropies`` (prefixed ``input``, ``separable`` and ``entropy``).  An
empty list or a None prints no line, and every number prints at 12
significant digits except ``scaling_residual`` at 3.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .analysis import extract_scaling_factor, ppt_separable
from .cloners import CloneOutput, gisin_massar_map, mdim_clone, register_clone, uqcm_map
from .linalg import (
    DensityOperator,
    StateVector,
    bures_distance,
    hermitian_eigenvalues,
    outer,
    partial_transpose,
    pure_fidelity,
    purity,
    von_neumann_entropy,
)
from .states import BlochQubit, bloch_ket, register_ket


def round12(x: float) -> float:
    """Round to 12 significant digits (the serialization precision)."""
    return float(f"{float(x):.12g}")


@dataclass(frozen=True)
class CloneReport:
    """Everything measured on a single cloning run.

    ``pt_eigenvalues`` and ``separable`` cover the clone pairs where the
    partial-transpose test is conclusive (two-qubit pairs); they are empty
    for higher-dimensional clones.  ``purity_xi`` is the copier purity and
    is None where no copier marginal is defined (register pairings).
    """

    kind: str
    n_or_m: int
    input: dict
    scaling_factor: float
    scaling_residual: float
    fidelity: float
    bures: float
    pt_eigenvalues: list[float] = field(default_factory=list)
    separable: dict[str, bool] = field(default_factory=dict)
    purity_xi: float | None = None
    entropies: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        data = json.loads(json.dumps(asdict(self)), parse_float=round12)
        return json.dumps(data, indent=2) + "\n"

    def to_csv(self) -> str:
        # the CSV header and its row both come from this dict, in this order
        vals = {
            "kind": self.kind,
            "n_or_m": self.n_or_m,
            "theta": self.input.get("theta"),
            "phi": self.input.get("phi"),
            "alpha": self.input.get("alpha"),
            "seed": self.input.get("seed"),
            "scaling_factor": self.scaling_factor,
            "scaling_residual": self.scaling_residual,
            "fidelity": self.fidelity,
            "bures": self.bures,
            "pt_min": min(self.pt_eigenvalues) if self.pt_eigenvalues else None,
            "separable_all": all(self.separable.values()) if self.separable else None,
            "purity_xi": self.purity_xi,
            "entropy_clone": self.entropies.get("clone", self.entropies.get("clone_pair")),
            "entropy_copier": self.entropies.get("copier"),
        }
        return ",".join(vals) + "\n" + ",".join(_fmt(v) for v in vals.values()) + "\n"

    def to_table(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "scaling_residual":
                value = f"{value:.3g}"
            if isinstance(value, dict):
                prefix = "entropy" if f.name == "entropies" else f.name
                lines += [f"{prefix + ' ' + k:<18} {_fmt(v)}" for k, v in value.items()]
            elif text := _fmt(value):
                lines.append(f"{f.name:<18} {text}")
        return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    """One value as the table and the CSV print it: nothing for None, a
    lower-case boolean, a float at 12 significant digits, a list as its
    items joined by spaces."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, list):
        return " ".join(map(_fmt, x))
    return str(x)


def _input(seed=None, **values) -> dict:
    info = {k: round12(v) for k, v in values.items()}
    if seed is not None:
        info["seed"] = seed
    return info


def _pt_spectrum(rho: DensityOperator) -> list[float]:
    return [float(x) for x in hermitian_eigenvalues(partial_transpose(rho, 1))]


def _clone_pair_checks(out: CloneOutput) -> tuple[list[float], dict[str, bool]]:
    """PT spectrum of the first clone pair for clones of dimension up to 8
    (beyond that the d^2 x d^2 eigensolve is not worth it), plus the
    separability verdict of every pair of qubit clones, where the PT test is
    conclusive."""
    d = out.joint.layout.dims[0]
    if d > 8:
        return [], {}
    verdicts = {}
    if d == 2:
        for i in range(out.clone_count):
            for j in range(i + 1, out.clone_count):
                verdicts[f"a{i}-a{j}"] = ppt_separable(out.pair_marginal(i, j))[0]
    return _pt_spectrum(out.pair_marginal(0, 1)), verdicts


def _report(kind: str, n_or_m: int, info: dict, psi: StateVector, rho: DensityOperator, **rest) -> CloneReport:
    """Report on an output rho of the pure input psi: fit, fidelity and
    Bures distance, plus the kind-specific fields in ``rest``."""
    ideal = outer(psi)
    fit = extract_scaling_factor(rho, ideal)
    return CloneReport(
        kind=kind,
        n_or_m=n_or_m,
        input=info,
        scaling_factor=fit.s,
        scaling_residual=fit.residual,
        fidelity=pure_fidelity(psi, rho),
        bures=bures_distance(rho, psi),
        **rest,
    )


def _cloner_report(kind: str, size: int, info: dict, psi: StateVector, out: CloneOutput) -> CloneReport:
    """Report on one cloning run of psi: the common fields of ``_report`` on
    the first clone, clone-pair checks, copier purity and entropies."""
    marg = out.clone_marginal(0)
    copier = out.copier_marginal()
    spectrum, verdicts = _clone_pair_checks(out)
    return _report(
        kind, size, info, psi, marg,
        pt_eigenvalues=spectrum,
        separable=verdicts,
        purity_xi=purity(copier),
        entropies={"clone": von_neumann_entropy(marg), "copier": von_neumann_entropy(copier)},
    )


def report_uqcm(q: BlochQubit, seed=None) -> CloneReport:
    """Measure everything on one symmetric 1-to-2 qubit cloning run."""
    return _cloner_report("uqcm", 1, _input(seed, theta=q.theta, phi=q.phi), bloch_ket(q), uqcm_map(q))


def report_gm(q: BlochQubit, n: int, seed=None) -> CloneReport:
    """Measure everything on one 1-to-(n+1) cloning run."""
    return _cloner_report("gm", n, _input(seed, theta=q.theta, phi=q.phi), bloch_ket(q), gisin_massar_map(q, n))


def report_mdim(phi: StateVector, seed=None) -> CloneReport:
    """Measure everything on one M-dimensional cloning run."""
    return _cloner_report("mdim", phi.dim, _input(seed), phi, mdim_clone(phi))


def report_register(method: str, alpha: float) -> CloneReport:
    """Measure everything on one cloned register pairing."""
    rho = register_clone(method, alpha)
    sep, _ = ppt_separable(rho)
    return _report(
        f"register-{method}", 4, _input(alpha=alpha), register_ket(alpha), rho,
        pt_eigenvalues=_pt_spectrum(rho),
        separable={"a0b1": sep},
        entropies={"clone_pair": von_neumann_entropy(rho)},
    )
