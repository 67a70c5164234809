"""Numbered verification suite: every published prediction, checked.

Each criterion function runs one family of checks and returns a
``CriterionResult`` whose rows carry (reference value, computed value,
tolerance).  The CLI ``reproduce`` command renders these as a table and the
acceptance test suite asserts them one by one; both go through this module
so there is exactly one implementation of each check.

A row is handed its whole batch, one entry per input (or per input and
matrix entry), and judges its worst input: the entry farthest from the
reference for mode ``abs``, the smallest for ``ge`` and the largest for
``le``.  ``CheckRow`` makes that reduction, so no criterion reduces by hand.

Seeds are fixed so every run works on the same inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analysis, linalg
from .cloners import gisin_massar_map, mdim_clone, register_clone, uqcm_map
from .linalg import (
    StateVector,
    SubsystemLayout,
    _BATCH_AMPS,
    _inner,
    bures_distance,
    outer,
    pure_fidelity,
    reduced_density,
    von_neumann_entropy,
)
from .network import build_prep_circuit_1, clone_via_network, run_circuit
from .states import BlochQubit, bloch_ket, haar_random_ket, random_bloch, register_ket


#: Each row mode as (worst, passes): the worst entry of a batch, which is
#: the entry farthest from the reference on either side, the smallest or the
#: largest, and the test that entry must pass.  Each test is one comparison,
#: so a NaN fails every mode.
_MODES = {
    "abs": (linalg._worst, lambda got, ref, tol: abs(got - ref) <= tol),
    "ge": (lambda values, ref: np.min(values), lambda got, ref, tol: got >= ref - tol),
    "le": (lambda values, ref: np.max(values), lambda got, ref, tol: got <= ref + tol),
}


@dataclass(frozen=True)
class CheckRow:
    """One line of the verification table.

    ``computed`` is given as a scalar or as a whole batch of any shape, and
    the row keeps one float: the batch's worst entry under the mode.

    mode ``abs``: the entry farthest from reference; pass iff
    |computed - reference| <= tol;
    mode ``ge``:  the smallest entry; pass iff computed >= reference - tol;
    mode ``le``:  the largest entry; pass iff computed <= reference + tol.
    Any other mode raises ValueError when the row is built.
    """

    label: str
    reference: float
    computed: float
    tol: float
    mode: str = "abs"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown row mode {self.mode!r}")
        object.__setattr__(self, "computed", float(_MODES[self.mode][0](self.computed, self.reference)))

    @property
    def delta(self) -> float:
        return abs(self.computed - self.reference)

    @property
    def ok(self) -> bool:
        return _MODES[self.mode][1](self.computed, self.reference, self.tol)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    title: str
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


def _chunks(kets: StateVector, joint_dim: int) -> list[StateVector]:
    """Split a batch of inputs so that no batch of their joint states, of
    ``joint_dim`` amplitudes each, holds more than _BATCH_AMPS.  The caller
    keeps the other half of the rule: it lets one chunk's joint go before
    it builds the next, so it never holds two."""
    size = max(1, _BATCH_AMPS // joint_dim)
    return [StateVector(kets.layout, kets.amps[k:k + size]) for k in range(0, len(kets.amps), size)]


def criterion_network_uqcm() -> CriterionResult:
    """Single-copy cloning through the gate network: the clone marginals fit
    the scaled form with s = 2/3 and every input is copied with fidelity
    5/6."""
    q = random_bloch(11, count=100)
    psi = clone_via_network(q, 1)
    ket = bloch_ket(q)
    ideal = outer(ket)
    margs = [reduced_density(psi, [wire]) for wire in (0, 1)]
    fits = [analysis.extract_scaling_factor(marg, ideal) for marg in margs]
    # one row per input, one column per clone
    s_vals = np.stack([fit.s for fit in fits], axis=1)
    residuals = np.stack([fit.residual for fit in fits], axis=1)
    fids = np.stack([pure_fidelity(ket, marg) for marg in margs], axis=1)
    rows = (
        CheckRow("scaling factor s, both clones, 100 Haar inputs", 2.0 / 3.0, s_vals, 1e-10),
        CheckRow("scaled-form residual (max norm)", 0.0, residuals, 1e-10),
        CheckRow("per-input clone fidelity", 5.0 / 6.0, fids, 1e-10),
    )
    return CriterionResult(1, "1->2 network: scaling 2/3, fidelity 5/6", rows)


def criterion_prep_circuit() -> CriterionResult:
    """The two-qubit preparation circuit turns |00> into
    (2|00> + |01> + |11>)/sqrt(6)."""
    start = StateVector(SubsystemLayout((2, 2)), np.array([1, 0, 0, 0], dtype=np.complex128))
    amps = run_circuit(build_prep_circuit_1(), start).amps
    r6 = 1.0 / math.sqrt(6.0)
    targets = (2 * r6, r6, 0.0, r6)
    labels = ("|00>", "|01>", "|10>", "|11>")
    rows = tuple(
        CheckRow(f"amplitude on {lbl}", t, amps[i].real, 1e-12)
        for i, (lbl, t) in enumerate(zip(labels, targets))
    ) + (CheckRow("largest imaginary part", 0.0, np.abs(amps.imag), 1e-12),)
    return CriterionResult(2, "preparation circuit output state", rows)


def criterion_network_equals_map() -> CriterionResult:
    """The copy-stage network acting on the prepared state reproduces the
    direct 1-to-(n+1) cloning isometry, up to global phase."""
    rows = []
    for n in range(1, 6):
        q = random_bloch(100 + n, count=20)
        net = clone_via_network(q, n).amps
        direct = gisin_massar_map(q, n).joint.amps
        rows.append(CheckRow(f"min overlap |<network|map>|, n={n}", 1.0, np.abs(_inner(net, direct)), 1e-10))
    return CriterionResult(3, "network output equals direct cloning map", tuple(rows))


def criterion_scaling_factor() -> CriterionResult:
    """Clone marginals scale as s = 1/3 + 2/(3(n+1)) and all n+1 clones of a
    run carry identical marginals."""
    rows, pair_devs = [], []
    for n in range(1, 7):
        q = random_bloch(200 + n, count=5)
        out = gisin_massar_map(q, n)
        ideal = outer(bloch_ket(q))
        margs = [out.clone_marginal(i) for i in range(n + 1)]
        s_vals = [analysis.extract_scaling_factor(m, ideal).s for m in margs]
        rows.append(CheckRow(f"scaling factor, n={n}", analysis.scaling_factor_formula(n), s_vals, 1e-10))
        # |m_i - m_j| for every ordered pair of clones, inputs and entries
        mats = np.stack([m.mat for m in margs])
        pair_devs.append(np.abs(mats[:, None] - mats[None, :]).ravel())
    rows.append(CheckRow("max pairwise clone-marginal deviation", 0.0, np.concatenate(pair_devs), 1e-10))
    return CriterionResult(4, "multi-copy scaling law and clone symmetry", tuple(rows))


def criterion_idle_law() -> CriterionResult:
    """Every idle copier qubit ends in (1/3) rho_id^T + (1/3) identity,
    whatever is being cloned."""
    rows = []
    for n in range(1, 6):
        q = random_bloch(300 + n, count=5)
        devs = analysis.idle_qubit_check(gisin_massar_map(q, n), q)
        rows.append(CheckRow(f"max idle-qubit deviation, n={n}", 0.0, devs, 1e-10))
    return CriterionResult(5, "idle-qubit marginal law", tuple(rows))


def criterion_pt_spectra() -> CriterionResult:
    """Two-clone partial-transpose spectra match the closed form, do not
    depend on the input, and signal entanglement only for n = 1."""
    rows, min_eigs = [], []
    for n in range(1, 7):
        formula = analysis.pt_spectrum_formula(n)
        out = gisin_massar_map(random_bloch(400 + n, count=20), n)
        spectra = analysis._ppt_spectrum(out.pair_marginal(0, 1))[1]
        rows.append(CheckRow(f"PT spectrum vs formula, n={n}", 0.0, np.abs(spectra - formula), 1e-9))
        rows.append(CheckRow(f"PT spectrum input dependence (std), n={n}", 0.0, spectra.std(axis=0), 1e-10))
        min_eigs.append(spectra[:, 0])
    rows.append(CheckRow("clone pair entangled at n=1 (min PT eig < 0)", 0.0, min_eigs[0], 0.0, mode="le"))
    rows.append(CheckRow("clone pairs separable for n>=2 (min PT eig >= 0)", 0.0, min_eigs[1:], 1e-10, mode="ge"))
    return CriterionResult(6, "two-clone partial-transpose spectra", tuple(rows))


def criterion_a1b1_spectrum() -> CriterionResult:
    """The (clone, copier-qubit) pair of the single-copy cloner: for real
    inputs its PT spectrum is {(1-sqrt(17))/12, 1/6, (1+sqrt(17))/12, 2/3},
    and its smallest PT eigenvalue is negative for every input."""
    frozen = np.sort([(1 - math.sqrt(17)) / 12, 1 / 6, (1 + math.sqrt(17)) / 12, 2 / 3])
    real = np.linspace(0.05, math.pi - 0.05, 7)
    dev = np.abs(analysis.rho_a1b1_pt_spectrum(BlochQubit(real, np.zeros_like(real))) - frozen)
    # the 20 x 20 grid, theta-major
    thetas = np.linspace(math.pi / 40, math.pi * 39 / 40, 20)
    phis = np.linspace(0.0, 2 * math.pi, 20, endpoint=False)
    min_eigs = analysis.rho_a1b1_pt_spectrum(BlochQubit(np.repeat(thetas, 20), np.tile(phis, 20)))[:, 0]
    rows = (
        CheckRow("PT spectrum vs frozen values (real inputs)", 0.0, dev, 1e-9),
        CheckRow("largest min-PT-eigenvalue over 20x20 grid", 0.0, min_eigs, 0.0, mode="le"),
    )
    return CriterionResult(7, "clone/copier pair stays entangled", rows)


def criterion_copier_purity() -> CriterionResult:
    """Copier purity matches 2(2n^2+7n+6)/(3(n+1)(n+2)^2) and sits above the
    1/(n+1) floor."""
    vals = {n: analysis.purity_xi_simulated(gisin_massar_map(random_bloch(500 + n, count=3), n)) for n in range(1, 7)}
    rows = [CheckRow(f"copier purity, n={n}", analysis.purity_xi(n), v, 1e-10) for n, v in vals.items()]
    margins = [v - 1.0 / (n + 1) for n, v in vals.items()]
    rows.append(CheckRow("purity above 1/(n+1) floor", 0.0, margins, 0.0, mode="ge"))
    return CriterionResult(8, "copier purity law", tuple(rows))


def _mdim_input(phi: StateVector) -> tuple[float, float, list[float], np.ndarray]:
    """One input's numbers for criterion 9: the clone's scaling factor and
    Bures distance, the clone and copier entropies less their closed forms,
    and the copier marginal's entrywise deviation from its closed form.
    The m**3 joint state dies when this returns, so the criterion never
    holds two of them."""
    _, _, entropy_clone, entropy_copier = analysis.mdim_formulas(phi.dim)
    out = mdim_clone(phi)
    marg = out.clone_marginal(0)
    copier = out.copier_marginal()
    return (
        analysis.extract_scaling_factor(marg, outer(phi)).s,
        bures_distance(marg, phi),
        [von_neumann_entropy(marg) - entropy_clone, von_neumann_entropy(copier) - entropy_copier],
        np.abs(copier.mat - analysis.mdim_copier_formula(phi).mat).ravel(),
    )


def criterion_mdim() -> CriterionResult:
    """M-dimensional cloner: scaling, Bures distance, entropies and the
    copier marginal all match their closed forms; M = 2 reduces to the
    qubit cloner exactly."""
    rows, ent_devs, copier_devs = [], [], []
    for m in (2, 3, 4, 8, 16, 32, 64):
        scaling, bures, _, _ = analysis.mdim_formulas(m)
        inputs = [haar_random_ket(m, seed=600 + 10 * m + k) for k in range(2)]
        s_vals, b_vals, ents, copiers = zip(*map(_mdim_input, inputs))
        rows.append(CheckRow(f"scaling factor, m={m}", scaling, s_vals, 1e-9))
        rows.append(CheckRow(f"Bures distance to ideal, m={m}", bures, b_vals, 1e-9))
        ent_devs += ents
        copier_devs += copiers
    rows.append(CheckRow("clone/copier entropies vs formulas (max dev)", 0.0, np.abs(ent_devs), 1e-9))
    rows.append(CheckRow("copier marginal vs closed form (max dev)", 0.0, np.concatenate(copier_devs), 1e-9))
    # m = 2 must be the qubit cloner itself, joint state and all
    q = random_bloch(660, count=10)
    amp_dev = np.abs(mdim_clone(bloch_ket(q)).joint.amps - uqcm_map(q).joint.amps)
    rows.append(CheckRow("m=2 joint state equals 1->2 cloner joint", 0.0, amp_dev, 1e-12))
    return CriterionResult(9, "M-dimensional cloner closed forms", tuple(rows))


def criterion_register() -> CriterionResult:
    """Cloned register pairs match their closed-form densities; the
    inseparability intervals land on the analytic boundaries and the
    nonlocal interval strictly contains the local one."""
    alpha = np.sqrt(np.linspace(0.0, 1.0, 20))
    dev = {
        method: np.abs(register_clone(method, alpha).mat - analysis.register_pair_formula(method, alpha).mat)
        for method in ("local", "nonlocal")
    }
    local = analysis.inseparability_boundary("local")
    nonloc = analysis.inseparability_boundary("nonlocal")
    lo_ref = 0.5 - math.sqrt(39.0) / 16.0
    hi_ref = 0.5 + math.sqrt(39.0) / 16.0
    lo_ref_nl = 0.5 - math.sqrt(2.0) / 3.0
    hi_ref_nl = 0.5 + math.sqrt(2.0) / 3.0
    contains = nonloc.lower < local.lower and local.upper < nonloc.upper
    rows = (
        CheckRow("local pair density vs closed form (max dev)", 0.0, dev["local"], 1e-10),
        CheckRow("nonlocal pair density vs closed form (max dev)", 0.0, dev["nonlocal"], 1e-10),
        CheckRow("local inseparability onset (alpha^2)", lo_ref, local.lower, 1e-6),
        CheckRow("local inseparability end (alpha^2)", hi_ref, local.upper, 1e-6),
        CheckRow("nonlocal inseparability onset (alpha^2)", lo_ref_nl, nonloc.lower, 1e-6),
        CheckRow("nonlocal inseparability end (alpha^2)", hi_ref_nl, nonloc.upper, 1e-6),
        CheckRow("nonlocal interval strictly contains local", 1.0, 1.0 if contains else 0.0, 0.0),
    )
    return CriterionResult(10, "register cloning and inseparability", rows)


def criterion_mean_fidelity() -> CriterionResult:
    """Bloch-sphere quadrature of the simulated clone fidelity lands on
    (1 + s)/2 for the single-copy and multi-copy machines."""

    rows = []
    for label, n, marginal in (
        ("mean fidelity, 1->2 cloner", 1, lambda q: uqcm_map(q).clone_marginal(0)),
        ("mean fidelity, n=2", 2, lambda q: gisin_massar_map(q, 2).clone_marginal(0)),
        ("mean fidelity, n=3", 3, lambda q: gisin_massar_map(q, 3).clone_marginal(0)),
    ):
        rows.append(CheckRow(label, analysis.fidelity_formula(n), analysis.mean_fidelity(marginal), 1e-6))
    return CriterionResult(11, "Bloch-sphere mean fidelity", tuple(rows))


def criterion_universality() -> CriterionResult:
    """Universal machines degrade every input equally: the Bures distance
    between clone and ideal has vanishing spread over Haar inputs.  The
    qubit-by-qubit register cloner fails this by a wide margin."""
    q = random_bloch(700, count=100)
    dists = bures_distance(uqcm_map(q).clone_marginal(0), bloch_ket(q))
    rows = [CheckRow("Bures spread, 1->2 cloner", 0.0, np.std(dists), 1e-10)]

    for n in range(1, 6):
        q = random_bloch(710 + n, count=100)
        dists = bures_distance(gisin_massar_map(q, n).clone_marginal(0), bloch_ket(q))
        rows.append(CheckRow(f"Bures spread, n={n}", 0.0, np.std(dists), 1e-10))

    for m in (2, 3, 4, 8, 16):
        dists = np.concatenate([
            bures_distance(mdim_clone(phi).clone_marginal(0), phi)
            for phi in _chunks(haar_random_ket(m, 730 + m, count=100), m**3)
        ])
        rows.append(CheckRow(f"Bures spread, m={m}", 0.0, np.std(dists), 1e-10))

    alpha = np.sqrt(np.random.default_rng(750).uniform(0.0, 1.0, 100))
    dists = bures_distance(register_clone("local", alpha), register_ket(alpha))
    rows.append(
        CheckRow("Bures spread, local register cloner (must exceed 1e-3)", 1e-3, np.std(dists), 0.0, mode="ge")
    )
    return CriterionResult(12, "universality of the cloning quality", tuple(rows))


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_network_uqcm,
    criterion_prep_circuit,
    criterion_network_equals_map,
    criterion_scaling_factor,
    criterion_idle_law,
    criterion_pt_spectra,
    criterion_a1b1_spectrum,
    criterion_copier_purity,
    criterion_mdim,
    criterion_register,
    criterion_mean_fidelity,
    criterion_universality,
)


def run_all() -> list[CriterionResult]:
    """Run the full verification suite in order."""
    return [fn() for fn in ALL_CRITERIA]
