"""Planted faults, each of which a named criterion must catch.

Every entry of ``FAULTS`` patches one function in-process, names the
criterion that must detect it and the rows that must fail, and the test runs
only that criterion.  A fault the criterion lets through fails the suite.
"""
import math

import pytest

from qclone import analysis, checks, cloners
from qclone.linalg import DensityOperator

LOCAL_ONSET = 0.5 - math.sqrt(39.0) / 16.0


def _ppt_flipped_above_local_onset(monkeypatch):
    """Peres-Horodecki verdict flipped for alpha^2 in a band 1e-5 wide just
    above the local onset, which moves the onset the bisection finds."""
    real = analysis.ppt_separable

    def faulty(rho):
        sep, w = real(rho)
        alpha2 = (36.0 * rho.mat[..., 0, 0].real - 1.0) / 24.0  # local pair: (24 a^2 + 1)/36
        return sep ^ ((LOCAL_ONSET <= alpha2) & (alpha2 < LOCAL_ONSET + 1e-5)), w

    monkeypatch.setattr(analysis, "ppt_separable", faulty)


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


#: (fault, criterion that must catch it, labels of rows that must fail)
FAULTS = [
    (_ppt_flipped_above_local_onset, 10, ("local inseparability onset (alpha^2)",)),
    (_register_corner_off, 10, ("local pair density vs closed form (max dev)",)),
    (_marginal_transposed, 5, tuple(f"max idle-qubit deviation, n={n}" for n in range(1, 6))),
    (_gm_image_of_one_long, 4, tuple(f"scaling factor, n={n}" for n in range(1, 7))),
    (_mdim_c_long, 9, ("m=2 joint state equals 1->2 cloner joint",)),
    (_quadrature_weights_high, 11, ("mean fidelity, 1->2 cloner", "mean fidelity, n=2", "mean fidelity, n=3")),
]


def _run(criterion: int) -> checks.CriterionResult:
    result = checks.ALL_CRITERIA[criterion - 1]()
    assert result.index == criterion
    return result


@pytest.mark.parametrize("criterion", sorted({c for _, c, _ in FAULTS}))
def test_detectors_pass_without_faults(criterion):
    assert _run(criterion).passed


@pytest.mark.parametrize("fault,criterion,labels", FAULTS, ids=[f.__name__.strip("_") for f, _, _ in FAULTS])
def test_fault_is_detected(monkeypatch, fault, criterion, labels):
    fault(monkeypatch)
    failed = [r.label for r in _run(criterion).rows if not r.ok]
    assert set(labels) <= set(failed)
