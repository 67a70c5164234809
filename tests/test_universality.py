"""Universality as a channel identity: every clone's Choi state is isotropic.

A cloner is universal when each clone's channel is rho -> s rho +
(1 - s) I/d for every input rho.  By linearity one state decides that for
all inputs: feed the cloner half of |Phi+> = sum_i |i>|i>/sqrt(d), that is,
form sum_i |i>|image_i>/sqrt(d) with a reference wire in front of the
cloner's wires.  The marginal J on (reference, clone k) is the Choi state of
clone k's channel, and the channel is universal with factor s exactly when
J = s |Phi+><Phi+| + (1 - s) I/d^2 (Choi, Linear Algebra Appl. 10, 285
(1975)).  Likewise a copier is U-bar covariant exactly when its Choi state
commutes with U (x) U, that is, lies in span{I, SWAP}.

The tests read s from <Phi+|J|Phi+> and check J against the isotropic state
and s against the closed form, on all three routes: the direct maps
(``cloners._gm_columns``, ``cloners._mdim_images``), the gate network run on
the exact basis kets, and ``analysis``'s formulas.  No draw is random.

Noise and tolerance: over every size below, the largest deviation, |s -
closed form| included, is 7.8e-16 (numpy 2.4.6, OpenBLAS, x86-64), and a
copier's distance from span{I, SWAP} at most 2.2e-16.  ``TOL`` is 1e-13, a
margin of over 100 on that noise.  The n = 1 tilt fault of
``tests/test_faults.py`` moves the deviation by 1.1 eps, so these tests
catch eps = 1e-12 (criterion 12 catches 1e-9).  Together they take about
0.1 s, half of it the n = 8 network run.
"""
import math

import numpy as np
import pytest

from qclone import cloners, network
from qclone.analysis import mdim_formulas, scaling_factor_formula
from qclone.linalg import StateVector, SubsystemLayout, reduced_density, tensor

TOL = 1e-13

#: The exact basis kets |0> and |1> as one batch.  ``BlochQubit(pi, 0)`` and
#: ``BlochQubit(0, 0)`` would leak 6.1e-17 into the other level.
BASIS_KETS = StateVector(SubsystemLayout((2,)), np.eye(2))


def _choi_marginals(images: np.ndarray, dims: tuple[int, ...], wires: list[int]) -> list[np.ndarray]:
    """The Choi state (reference, wire w) of each wire w of a cloner whose
    basis images are the d rows of ``images`` over the wires ``dims``."""
    d = images.shape[0]
    psi = StateVector(SubsystemLayout((d,) + dims), images.reshape(-1) / math.sqrt(d))
    return [reduced_density(psi, [0, 1 + w]).mat for w in wires]


def _isotropic_error(choi: np.ndarray, s_ref: float) -> float:
    """Largest entrywise distance of ``choi`` from the isotropic state whose
    factor s it implies, or |s - s_ref| if that is larger."""
    d = math.isqrt(choi.shape[0])
    phi = np.eye(d).reshape(-1) / math.sqrt(d)
    s = (d * d * np.vdot(phi, choi @ phi).real - 1.0) / (d * d - 1.0)
    iso = s * np.outer(phi, phi) + (1.0 - s) * np.eye(d * d) / (d * d)
    return max(np.abs(choi - iso).max(), abs(s - s_ref))


def _span_residual(choi: np.ndarray) -> float:
    """Largest entrywise distance of ``choi`` from its least-squares fit in
    span{I, SWAP}."""
    d = math.isqrt(choi.shape[0])
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    basis = np.stack([np.eye(d * d).reshape(-1), swap.reshape(-1)], axis=1)
    coef = np.linalg.lstsq(basis, choi.reshape(-1), rcond=None)[0]
    return np.abs(basis @ coef - choi.reshape(-1)).max()


def _gm_clone_errors(n: int, images: np.ndarray) -> list[float]:
    """The isotropic error of every clone of a 1-to-(n+1) qubit cloner given
    by its two basis images over (a_0..a_n, b_1..b_n)."""
    chois = _choi_marginals(images, (2,) * (2 * n + 1), list(range(n + 1)))
    return [_isotropic_error(j, scaling_factor_formula(n)) for j in chois]


@pytest.mark.parametrize("n", range(1, 9))
def test_direct_qubit_cloner_is_universal(n):
    assert max(_gm_clone_errors(n, cloners._gm_columns(n))) <= TOL


@pytest.mark.parametrize("n", range(1, 9))
def test_network_qubit_cloner_is_universal(n):
    images = network.run_circuit(network.build_copy_stage(n), tensor(BASIS_KETS, network.prep_state(n))).amps
    assert max(_gm_clone_errors(n, images)) <= TOL


@pytest.mark.parametrize("m", [2, 3, 4, 8, 16])
def test_mdim_cloner_is_universal(m):
    chois = _choi_marginals(cloners._mdim_images(m), (m, m, m), [0, 1])
    assert max(_isotropic_error(j, mdim_formulas(m)[0]) for j in chois) <= TOL


@pytest.mark.parametrize("n", range(1, 4))
def test_qubit_copier_is_covariant(n):
    chois = _choi_marginals(cloners._gm_columns(n), (2,) * (2 * n + 1), list(range(n + 1, 2 * n + 1)))
    assert max(map(_span_residual, chois)) <= TOL


@pytest.mark.parametrize("m", range(2, 9))
def test_mdim_copier_is_covariant(m):
    assert _span_residual(_choi_marginals(cloners._mdim_images(m), (m, m, m), [2])[0]) <= TOL
