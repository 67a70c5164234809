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

import itertools
import json
from dataclasses import asdict, dataclass, field, fields

from .analysis import _ppt_spectrum, extract_scaling_factor
from .cloners import CloneOutput, gisin_massar_map, mdim_clone, register_clone, uqcm_map
from .linalg import (
    DensityOperator,
    StateVector,
    bures_distance,
    outer,
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
        return _csv_row(*vals) + "\n" + _csv_row(*vals.values()) + "\n"

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
    """One value as the table and the CSV print it: a float at 12
    significant digits, a lower-case boolean, nothing for None, a list as
    its items joined by spaces.  The float, the most common value in a
    sweep's rows, is tested first."""
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    if isinstance(x, list):
        return " ".join(map(_fmt, x))
    return str(x)


def _csv_row(*values) -> str:
    """One CSV row of values as ``_fmt`` prints them, with no line end."""
    return ",".join(map(_fmt, values))


def _input(seed=None, **values) -> dict:
    info = {k: round12(v) for k, v in values.items()}
    if seed is not None:
        info["seed"] = seed
    return info


def _clone_pair_checks(out: CloneOutput) -> tuple[list[float], dict[str, bool]]:
    """PT spectrum of the first clone pair for clones of dimension up to 8
    (beyond that the d^2 x d^2 eigensolve is not worth it), plus the
    separability verdict of every pair of qubit clones, where the PT test is
    conclusive.  One eigensolve per pair: the first pair's gives both its
    verdict and the spectrum."""
    d = out.joint.layout.dims[0]
    if d > 8:
        return [], {}
    pairs = itertools.combinations(range(out.clone_count), 2) if d == 2 else [(0, 1)]
    checks = {f"a{i}-a{j}": _ppt_spectrum(out.pair_marginal(i, j)) for i, j in pairs}
    verdicts = {pair: sep for pair, (sep, _) in checks.items()} if d == 2 else {}
    return checks["a0-a1"][1].tolist(), verdicts


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
    the first clone, clone-pair checks, copier purity and entropies.

    A report is of one input and takes each of its marginals once, so it
    reduces them from the joint state: a transfer costs more to build than
    it saves on a single call (the 38 wire sets of a ``clone gm 8`` report
    took 0.35 s to build, against 0.1 s for the whole report)."""
    out = CloneOutput(out.joint, out.clone_count)
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
    sep, spectrum = _ppt_spectrum(rho)
    return _report(
        f"register-{method}", 4, _input(alpha=alpha), register_ket(alpha), rho,
        pt_eigenvalues=spectrum.tolist(),
        separable={"a0b1": sep},
        entropies={"clone_pair": von_neumann_entropy(rho)},
    )
