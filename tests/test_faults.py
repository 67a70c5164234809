"""Planted faults, each of which a named criterion must catch.

Every entry of ``FAULTS`` patches one module global, a function or a
constant, in-process, names the criterion that must detect it and the rows
that must fail, and the test runs only that criterion.  A fault the
criterion lets through fails the suite.
"""
import math

import numpy as np
import pytest
import test_universality

from qclone import analysis, checks, cloners, linalg, network
from qclone.linalg import DensityOperator, StateVector, _trusted
from qclone.network import Circuit

LOCAL_ONSET = 0.5 - math.sqrt(39.0) / 16.0
LOCAL_BOUNDARY_ROWS = ("local inseparability onset (alpha^2)", "local inseparability end (alpha^2)")
NONLOCAL_BOUNDARY_ROWS = ("nonlocal inseparability onset (alpha^2)", "nonlocal inseparability end (alpha^2)")


def _ppt_flipped_above_local_onset(monkeypatch):
    """Peres-Horodecki test broken for alpha^2 in a band 1e-5 wide just
    above the local onset: the verdict flips and the smallest eigenvalue
    changes sign with it, so the onset the root search finds moves to the
    band's upper end."""
    real = analysis.ppt_separable

    def faulty(rho):
        sep, w = real(rho)
        alpha2 = (36.0 * rho.mat[..., 0, 0].real - 1.0) / 24.0  # local pair: (24 a^2 + 1)/36
        band = (LOCAL_ONSET <= alpha2) & (alpha2 < LOCAL_ONSET + 1e-5)
        return sep ^ band, np.where(band, -w, w)

    monkeypatch.setattr(analysis, "ppt_separable", faulty)


def _local_register_coefficient_long(monkeypatch, eps=1e-4):
    """Qubit-by-qubit register cloner with the |00> -> |000000> coefficient
    of its isometry scaled by 1 + eps, which moves both local boundaries by
    0.0625 eps against a tolerance of 1e-6: at eps = 1e-4 the onset and end
    rows fail, and at 1e-5 they pass.  The density row catches it from
    1e-9 on.  The module global is patched, so the cached isometry stays as
    it is."""
    real = cloners._local_register_isometry

    def faulty():
        iso = real().copy()
        iso[0, 0] *= 1.0 + eps
        return iso

    monkeypatch.setattr(cloners, "_local_register_isometry", faulty)


def _nonlocal_register_coefficient_long(monkeypatch, eps=1e-4):
    """Four-dimensional register cloner with the |00> -> |000000> entry of
    its images scaled by 1 + eps, which moves both nonlocal boundaries by
    0.196 eps against a tolerance of 1e-6: at eps = 1e-4 the onset and end
    rows fail, and at 1e-5 they pass.  The density row catches it from
    1e-9 on.  The module global is patched for m = 4 only, so the cached
    images, and the local isometry built from those at m = 2, stay as they
    are."""
    real = cloners._mdim_images

    def faulty(m):
        images = real(m)
        if m == 4:
            images = images.copy()
            images[0, 0] *= 1.0 + eps
        return images

    monkeypatch.setattr(cloners, "_mdim_images", faulty)


def _register_corner_off(monkeypatch):
    """Closed-form register pair with its |00><11| corner off by 1e-9."""
    real = analysis.register_pair_formula

    def faulty(method, alpha):
        rho = real(method, alpha)
        mat = rho.mat.copy()
        mat[..., 0, 3] += 1e-9
        mat[..., 3, 0] += 1e-9
        return DensityOperator(rho.layout, mat)

    monkeypatch.setattr(analysis, "register_pair_formula", faulty)


def _marginal_transposed(monkeypatch):
    """Single-wire marginals the idle-qubit law reads come back transposed,
    as from a partial trace that forgets to conjugate."""
    real = analysis.reduced_density

    def faulty(psi, keep):
        rho = real(psi, keep)
        return DensityOperator(rho.layout, rho.mat.swapaxes(-1, -2))

    monkeypatch.setattr(analysis, "reduced_density", faulty)


def _quadrature_weights_high(monkeypatch):
    """Gauss-Legendre weights scaled by 1 + 1e-5, so every mean fidelity
    comes out about 8e-6 high against a tolerance of 1e-6.  This is the
    smallest decade the rows catch: scaled by 1 + 1e-6, all three rows
    still pass, although the quadrature is exact to rounding."""
    real = analysis._legendre_rule

    def faulty(n_cos):
        thetas, weights = real(n_cos)
        return thetas, weights * (1.0 + 1e-5)

    monkeypatch.setattr(analysis, "_legendre_rule", faulty)


def _gm_image_of_one_long(monkeypatch):
    """1-to-(n+1) isometry with its image of |1> scaled by 1 + 1e-9, which
    moves every clone's scaling factor by 7.8e-10 to 1.3e-9 against a
    tolerance of 1e-10.  Scaled by 1 + 1e-10, only n=1 fails; by 1 + 1e-11,
    every row passes.  The module global is patched, so the cached columns
    stay as they are."""
    real = cloners._gm_columns

    def faulty(n):
        iso = real(n).copy()
        iso[1] *= 1.0 + 1e-9
        return iso

    monkeypatch.setattr(cloners, "_gm_columns", faulty)


def _mdim_c_long(monkeypatch):
    """M-dimensional cloner with its c amplitude, the first m scatter
    weights, scaled by 1 + 1e-11, which moves the m=2 joint state 7.8e-12
    off the 1->2 cloner's against a tolerance of 1e-12.  Scaled by
    1 + 1e-12, every row passes.  The module global is patched, so the
    cached scatter stays as it is."""
    real = cloners._mdim_scatter

    def faulty(m):
        layout, target, source, weight = real(m)
        weight = weight.copy()
        weight[:m] *= 1.0 + 1e-11
        return layout, target, source, weight

    monkeypatch.setattr(cloners, "_mdim_scatter", faulty)


def _prep_amp0_long(monkeypatch):
    """Copier start state with its amplitude on |0..0> scaled by 1 + 1e-10
    and left unnormalized, which moves the worst scaling factor and clone
    fidelity 1.3e-10 off against a tolerance of 1e-10.  Scaled by
    1 + 1e-11, every row passes.  The module global is patched, so the
    network builds on the faulty state."""
    real = network.prep_state

    def faulty(n):
        psi = real(n)
        amps = psi.amps.copy()
        amps[0] *= 1.0 + 1e-10
        return _trusted(StateVector, layout=psi.layout, amps=amps)

    monkeypatch.setattr(network, "prep_state", faulty)


def _prep_theta2_long(monkeypatch):
    """Second preparation angle scaled by 1 + 1e-11, which the build reads
    from the module global: the amplitudes on |01>, |10> and |11> move
    1.3e-12, 2.0e-12 and 2.7e-12 against a tolerance of 1e-12, and the one
    on |00> moves 6.7e-13 and passes.  Scaled by 1 + 1e-12, every row
    passes."""
    monkeypatch.setattr(network, "PREP_THETA_2", network.PREP_THETA_2 * (1.0 + 1e-11))


def _copy_stage_last_cnot_dropped(monkeypatch):
    """Copy stage without its last CNOT, b_n -> a_0: the network output
    overlaps the direct map by 0.14 to 0.23 for n = 1..5."""
    real = network.build_copy_stage

    def faulty(n):
        circuit = real(n)
        return Circuit(circuit.width, circuit.ops[:-1])

    monkeypatch.setattr(network, "build_copy_stage", faulty)


def _network_output_of_input_0_long(monkeypatch, eps=1e-9):
    """Gate-network output of the first input scaled by 1 + eps and left
    unnormalized, so its overlap with the direct map reads 1 + eps against
    a tolerance of 1e-10: at eps = 1e-9 all five rows fail.  At 1e-10 the
    overlap sits on the tolerance and rounding decides (here n = 2, 3 and 4
    fail); at 1e-11 every row passes.  An overlap above 1 is seen only by
    a row that judges the entry farthest from 1, not by the minimum.  The
    name criterion 3 imports is patched."""
    real = checks.clone_via_network

    def faulty(q, n):
        psi = real(q, n)
        amps = psi.amps.copy()
        amps[0] *= 1.0 + eps
        return _trusted(StateVector, layout=psi.layout, amps=amps)

    monkeypatch.setattr(checks, "clone_via_network", faulty)


def _pt_half_width_long(monkeypatch):
    """Closed-form PT spectrum with the half-width r of 1/3 +- r scaled by
    1 + 1e-8; those are the first and last of the ascending eigenvalues for
    every n.  The formula rows move 2.7e-9 to 3.7e-9 against a tolerance
    of 1e-9; scaled by 1 + 1e-9, every row passes."""
    real = analysis.pt_spectrum_formula

    def faulty(n):
        w = real(n)
        w[[0, 3]] = 1.0 / 3.0 + (w[[0, 3]] - 1.0 / 3.0) * (1.0 + 1e-8)
        return w

    monkeypatch.setattr(analysis, "pt_spectrum_formula", faulty)


def _a1b1_reads_clone_pair(monkeypatch):
    """The (a_1, b_1) spectrum read from the clone pair (a_0, a_1) instead,
    0.26 off the frozen values.  That pair is entangled too (smallest PT
    eigenvalue -0.039), so the grid row passes.  Reading (a_0, b_1) is no
    fault: by clone symmetry it has the same spectrum."""
    real = analysis.reduced_density

    def faulty(psi, keep):
        return real(psi, [0, 1] if list(keep) == [1, 2] else keep)

    monkeypatch.setattr(analysis, "reduced_density", faulty)


def _purity_xi_high(monkeypatch):
    """Closed-form copier purity scaled by 1 + 1e-9, which moves the rows
    1.8e-10 to 5.6e-10 against a tolerance of 1e-10.  Scaled by 1 + 1e-10,
    every row passes."""
    real = analysis.purity_xi
    monkeypatch.setattr(analysis, "purity_xi", lambda n: real(n) * (1.0 + 1e-9))


def _uqcm_image_of_one_tilted(monkeypatch, eps=1e-9):
    """1-to-2 isometry, the n = 1 columns of the 1-to-(n+1) cloner, with the
    |1> -> |111> weight scaled by 1 + eps and the image of |1> renormalized,
    so the machine is no longer universal: at eps = 1e-9 the Bures spread is
    1.0139e-10 against a tolerance of 1e-10 (1.0473e-10 for the n=1 row),
    and the n=1 rows of criteria 4, 5, 6 and 8 fail as well.  Scaled by
    1 + 1e-10 (spread 1.0139e-11), this criterion passes and only criterion
    9's m=2 joint-state row catches it.  The module global is patched for
    n = 1 only, so the cached columns stay as they are."""
    real = cloners._gm_columns

    def faulty(n):
        iso = real(n)
        if n == 1:
            iso = iso.copy()
            iso[1, 0b111] *= 1.0 + eps
            iso[1] /= np.linalg.norm(iso[1])
        return iso

    monkeypatch.setattr(cloners, "_gm_columns", faulty)


def _gm3_image_of_one_tilted(monkeypatch, eps=1e-8):
    """1-to-4 isometry with the last nonzero weight of its image of |1>
    scaled by 1 + eps and that image renormalized, so the n = 3 machine is
    no longer universal: at eps = 1e-8 the "Bures spread, n=3" row reads
    8.04e-10 against a tolerance of 1e-10, and no other row of criterion 12
    fails; at 1e-9 it reads 8.04e-11 and passes.  Each n row measures its
    own machine: a row that measured the 1->2 cloner instead would pass.
    The module global is patched for n = 3 only."""
    real = cloners._gm_columns

    def faulty(n):
        iso = real(n)
        if n == 3:
            iso = iso.copy()
            iso[1, np.flatnonzero(iso[1])[-1]] *= 1.0 + eps
            iso[1] /= np.linalg.norm(iso[1])
        return iso

    monkeypatch.setattr(cloners, "_gm_columns", faulty)


def _mdim3_c_of_zero_tilted(monkeypatch, eps=1e-8):
    """Three-dimensional cloner with the c weight of |0> scaled by 1 + eps
    and the image of |0> renormalized, so the m = 3 machine is no longer
    universal: at eps = 1e-8 the "Bures spread, m=3" row reads 3.97e-10
    against a tolerance of 1e-10, and no other row of criterion 12 fails;
    at 1e-9 it reads 3.97e-11 and passes.  Each m row measures its own
    machine: a row that repeated the last n row's spread would pass.  The
    module global is patched for m = 3 only, so the cached scatter stays as
    it is."""
    real = cloners._mdim_scatter

    def faulty(m):
        layout, target, source, weight = real(m)
        if m == 3:
            weight = weight.copy()
            weight[0] *= 1.0 + eps  # the c weight of |0>: |0>|0>|X_0>
            zero = source == 0
            weight[zero] /= np.linalg.norm(weight[zero])
        return layout, target, source, weight

    monkeypatch.setattr(cloners, "_mdim_scatter", faulty)


def _pure_fidelity_high(monkeypatch, eps=1e-9):
    """<psi|rho|psi> scaled by 1 + eps inside ``qclone.linalg``, where every
    root fidelity and Bures distance against a pure ket reads it.  Criterion
    9's Bures rows move by about 0.48 eps (m=64) to 1.09 eps (m=2) against a
    tolerance of 1e-9: at eps = 1e-8 all seven fail, at 1e-9 the m=2 row
    fails, and at 1e-10 every row passes.  Criterion 12 cannot see it: a
    uniform scale leaves every spread where it was."""
    real = linalg.pure_fidelity
    monkeypatch.setattr(linalg, "pure_fidelity", lambda psi, rho: real(psi, rho) * (1.0 + eps))


#: (fault, criterion that must catch it, labels of rows that must fail)
FAULTS = [
    (_prep_amp0_long, 1, ("scaling factor s, both clones, 100 Haar inputs", "per-input clone fidelity")),
    (_prep_theta2_long, 2, ("amplitude on |01>", "amplitude on |10>", "amplitude on |11>")),
    (_copy_stage_last_cnot_dropped, 3, tuple(f"min overlap |<network|map>|, n={n}" for n in range(1, 6))),
    (_network_output_of_input_0_long, 3, tuple(f"min overlap |<network|map>|, n={n}" for n in range(1, 6))),
    (_pt_half_width_long, 6, tuple(f"PT spectrum vs formula, n={n}" for n in range(1, 7))),
    (_a1b1_reads_clone_pair, 7, ("PT spectrum vs frozen values (real inputs)",)),
    (_purity_xi_high, 8, tuple(f"copier purity, n={n}" for n in range(1, 7))),
    (_uqcm_image_of_one_tilted, 12, ("Bures spread, 1->2 cloner",)),
    (_gm3_image_of_one_tilted, 12, ("Bures spread, n=3",)),
    (_mdim3_c_of_zero_tilted, 12, ("Bures spread, m=3",)),
    (_ppt_flipped_above_local_onset, 10, ("local inseparability onset (alpha^2)",)),
    (_register_corner_off, 10, ("local pair density vs closed form (max dev)",)),
    (_local_register_coefficient_long, 10, LOCAL_BOUNDARY_ROWS),
    (_nonlocal_register_coefficient_long, 10, NONLOCAL_BOUNDARY_ROWS),
    (_marginal_transposed, 5, tuple(f"max idle-qubit deviation, n={n}" for n in range(1, 6))),
    (_gm_image_of_one_long, 4, tuple(f"scaling factor, n={n}" for n in range(1, 7))),
    (_mdim_c_long, 9, ("m=2 joint state equals 1->2 cloner joint",)),
    (_pure_fidelity_high, 9, ("Bures distance to ideal, m=2",)),
    (_quadrature_weights_high, 11, ("mean fidelity, 1->2 cloner", "mean fidelity, n=2", "mean fidelity, n=3")),
]


def _run(criterion: int) -> checks.CriterionResult:
    result = checks.ALL_CRITERIA[criterion - 1]()
    assert result.index == criterion
    return result


@pytest.mark.parametrize("criterion", sorted({c for _, c, _ in FAULTS}))
def test_detectors_pass_without_faults(unfaulted_result, criterion):
    assert unfaulted_result(criterion).passed


@pytest.mark.parametrize("fault,criterion,labels", FAULTS, ids=[f.__name__.strip("_") for f, _, _ in FAULTS])
def test_fault_is_detected(monkeypatch, fault, criterion, labels):
    fault(monkeypatch)
    failed = [r.label for r in _run(criterion).rows if not r.ok]
    assert set(labels) <= set(failed)


def test_quadrature_weight_fault_is_detected_with_the_grid_kept(monkeypatch):
    """The kept quadrature grid holds angles and kets only: the weights are
    read on every call, so a grid kept before the fault does not hide it."""
    analysis._kept_grid.cache_clear()  # kept by no earlier test, faulted or not
    analysis.mean_fidelity(lambda q: cloners.uqcm_map(q).clone_marginal(0))
    assert analysis._kept_grid.cache_info().currsize == 1
    _quadrature_weights_high(monkeypatch)
    failed = [r.label for r in _run(11).rows if not r.ok]
    assert failed == ["mean fidelity, 1->2 cloner", "mean fidelity, n=2", "mean fidelity, n=3"]


def test_pure_fidelity_fault_passes_a_decade_below(monkeypatch):
    """The threshold of ``_pure_fidelity_high`` is the decade it is planted
    at: one decade lower, criterion 9 passes."""
    _pure_fidelity_high(monkeypatch, eps=1e-10)
    assert _run(9).passed


def test_gm1_isometry_fault_passes_a_decade_below(monkeypatch):
    """The threshold of ``_uqcm_image_of_one_tilted`` is the decade it is
    planted at: one decade lower, criterion 12 passes."""
    _uqcm_image_of_one_tilted(monkeypatch, eps=1e-10)
    assert _run(12).passed


@pytest.mark.parametrize("eps", [1e-9, 1e-12])
def test_gm1_isometry_fault_fails_the_choi_test(monkeypatch, eps):
    """The n = 1 Choi test of ``test_universality`` catches
    ``_uqcm_image_of_one_tilted`` three decades below criterion 12: the
    deviation is 1.11 eps, 1.11e-13 at eps = 1e-12 against its tolerance of
    1e-13."""
    _uqcm_image_of_one_tilted(monkeypatch, eps=eps)
    with pytest.raises(AssertionError):
        test_universality.test_direct_qubit_cloner_is_universal(1)


def test_gm1_isometry_fault_passes_the_choi_test_a_decade_below(monkeypatch):
    """At eps = 1e-13 the deviation, 1.12e-14, is within the tolerance."""
    _uqcm_image_of_one_tilted(monkeypatch, eps=1e-13)
    test_universality.test_direct_qubit_cloner_is_universal(1)


@pytest.mark.parametrize(
    "fault,label",
    [(_gm3_image_of_one_tilted, "Bures spread, n=3"), (_mdim3_c_of_zero_tilted, "Bures spread, m=3")],
    ids=["gm3", "mdim3"],
)
def test_per_machine_spread_faults_fail_one_row_and_pass_a_decade_below(monkeypatch, fault, label):
    """At its planted decade each per-machine fault fails its own row of
    criterion 12 and no other; one decade lower, criterion 12 passes."""
    with monkeypatch.context() as planted:
        fault(planted)
        assert [r.label for r in _run(12).rows if not r.ok] == [label]
    fault(monkeypatch, eps=1e-9)
    assert _run(12).passed


def test_network_output_fault_passes_two_decades_below(monkeypatch):
    """The threshold of ``_network_output_of_input_0_long`` is the decade of
    the tolerance, 1e-10: there the overlap lands on the tolerance itself,
    so the pin is one decade further down, where criterion 3 passes."""
    _network_output_of_input_0_long(monkeypatch, eps=1e-11)
    assert _run(3).passed


def test_local_register_coefficient_fault_passes_a_decade_below(monkeypatch):
    """The threshold of ``_local_register_coefficient_long`` is the decade it
    is planted at: one decade lower, both local boundary rows pass."""
    _local_register_coefficient_long(monkeypatch, eps=1e-5)
    rows = {r.label: r for r in _run(10).rows}
    assert all(rows[label].ok for label in LOCAL_BOUNDARY_ROWS)


def test_nonlocal_register_coefficient_fault_passes_a_decade_below(monkeypatch):
    """The threshold of ``_nonlocal_register_coefficient_long`` is the decade
    it is planted at: one decade lower, both nonlocal boundary rows pass."""
    _nonlocal_register_coefficient_long(monkeypatch, eps=1e-5)
    rows = {r.label: r for r in _run(10).rows}
    assert all(rows[label].ok for label in NONLOCAL_BOUNDARY_ROWS)
