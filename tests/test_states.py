import math

import numpy as np
import pytest

from qclone.linalg import outer, purity
from qclone.states import (
    BlochQubit,
    SymmetricIndex,
    bloch_ket,
    haar_random_ket,
    orthogonal_ket,
    prep_state,
    random_bloch,
    register_ket,
    scaled_state,
    symmetric_basis_ket,
)


class TestBlochQubit:
    def test_angle_validation(self):
        with pytest.raises(ValueError):
            BlochQubit(-0.1, 0.0)
        with pytest.raises(ValueError):
            BlochQubit(math.pi + 0.1, 0.0)
        with pytest.raises(ValueError):
            BlochQubit(1.0, 2 * math.pi)
        with pytest.raises(ValueError):
            BlochQubit(1.0, -0.5)

    @pytest.mark.parametrize(
        "theta, phi",
        [
            (1.0, np.array([0.1, 0.2])),                 # scalar with array
            (np.array([0.1, 0.2]), np.array([0.1])),     # unequal lengths
            (np.ones((2, 2)), np.ones((2, 2))),          # not 1-D
            (np.array([]), np.array([])),                # empty
        ],
    )
    def test_batch_shape_validation(self, theta, phi):
        with pytest.raises(ValueError):
            BlochQubit(theta, phi)

    def test_batch_is_frozen_copy(self):
        theta = np.array([0.5, 1.5])
        q = BlochQubit(theta, np.zeros(2))
        theta[0] = 9.0
        assert q.theta[0] == 0.5 and not q.theta.flags.writeable
        overlaps = (orthogonal_ket(q).amps.conj() * bloch_ket(q).amps).sum(axis=1)
        np.testing.assert_allclose(overlaps, 0, atol=1e-15)

    def test_poles(self):
        """theta = pi points at |0>, theta = 0 at |1>."""
        np.testing.assert_allclose(bloch_ket(BlochQubit(math.pi, 0.0)).amps, [1, 0], atol=1e-15)
        np.testing.assert_allclose(bloch_ket(BlochQubit(0.0, 0.0)).amps, [0, 1], atol=1e-15)

    def test_amplitude_convention(self):
        q = BlochQubit(1.1, 2.3)
        amps = bloch_ket(q).amps
        np.testing.assert_allclose(amps[0], math.sin(0.55) * np.exp(2.3j), atol=1e-15)
        np.testing.assert_allclose(amps[1], math.cos(0.55), atol=1e-15)


def test_orthogonal_ket():
    for seed in range(5):
        q = random_bloch(seed)
        a = bloch_ket(q).amps
        b = orthogonal_ket(q).amps
        np.testing.assert_allclose(np.vdot(a, b), 0.0, atol=1e-15)
        np.testing.assert_allclose(np.vdot(b, b).real, 1.0, atol=1e-15)
        np.testing.assert_allclose(b, [a[1].conj(), -a[0].conj()], atol=1e-15)


@pytest.mark.parametrize("alpha", [0.0, 1.0, math.sqrt(0.3)])
def test_register_ket_is_normalized(alpha):
    amps = register_ket(alpha).amps
    np.testing.assert_allclose(np.vdot(amps, amps).real, 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(amps, [alpha, 0, 0, math.sqrt(1 - alpha**2)], atol=1e-15)


@pytest.mark.parametrize("alpha", [1.5, math.nan])
def test_register_ket_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        register_ket(alpha)


class TestSymmetricBasis:
    def test_index_validation(self):
        with pytest.raises(ValueError):
            SymmetricIndex(0, 0)
        with pytest.raises(ValueError):
            SymmetricIndex(2, 3)
        with pytest.raises(ValueError):
            SymmetricIndex(2, -1)

    def test_small_cases(self):
        psi = symmetric_basis_ket(SymmetricIndex(2, 1))
        np.testing.assert_allclose(psi.amps, np.array([0, 1, 1, 0]) / math.sqrt(2), atol=1e-15)
        psi = symmetric_basis_ket(SymmetricIndex(3, 1))
        want = np.zeros(8)
        want[0b001] = want[0b010] = want[0b100] = 1 / math.sqrt(3)
        np.testing.assert_allclose(psi.amps, want, atol=1e-15)

    def test_orthonormal_family(self):
        n = 4
        kets = [symmetric_basis_ket(SymmetricIndex(n, k)).amps for k in range(n + 1)]
        gram = np.array([[np.vdot(a, b) for b in kets] for a in kets])
        np.testing.assert_allclose(gram, np.eye(n + 1), atol=1e-14)

    def test_weight_support(self):
        """|n; k> only touches computational states with exactly k ones."""
        psi = symmetric_basis_ket(SymmetricIndex(5, 2))
        for idx in np.flatnonzero(np.abs(psi.amps) > 0):
            assert bin(idx).count("1") == 2


class TestPrepState:
    def test_explicit_single_copy(self):
        psi = prep_state(1)
        np.testing.assert_allclose(psi.amps, np.array([2, 1, 0, 1]) / math.sqrt(6), atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_layout_and_norm(self, n):
        psi = prep_state(n)
        assert psi.layout.dims == (2,) * (2 * n)
        np.testing.assert_allclose(np.vdot(psi.amps, psi.amps).real, 1.0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_symmetric_components(self, n):
        """The only components are |n;k>|n;k> and |n;k-1>|n;k>, with the
        first weight sqrt(k / (n-k+1)) times smaller than the second."""
        psi = prep_state(n)
        for k in range(n + 1):
            ee = np.kron(
                symmetric_basis_ket(SymmetricIndex(n, k)).amps,
                symmetric_basis_ket(SymmetricIndex(n, k)).amps,
            )
            e_k = float(np.vdot(ee, psi.amps).real)
            assert e_k > 0
            if k > 0:
                ff = np.kron(
                    symmetric_basis_ket(SymmetricIndex(n, k - 1)).amps,
                    symmetric_basis_ket(SymmetricIndex(n, k)).amps,
                )
                f_k = float(np.vdot(ff, psi.amps).real)
                np.testing.assert_allclose(f_k, math.sqrt(k / (n - k + 1)) * e_k, atol=1e-13)

    def test_bounds(self):
        with pytest.raises(ValueError):
            prep_state(0)


def test_scaled_state():
    q = BlochQubit(0.9, 0.4)
    ideal = outer(bloch_ket(q))
    rho = scaled_state(ideal, 2 / 3)
    np.testing.assert_allclose(rho.mat, 2 / 3 * ideal.mat + np.eye(2) / 6, atol=1e-15)
    np.testing.assert_allclose(scaled_state(ideal, 1.0).mat, ideal.mat, atol=1e-15)
    np.testing.assert_allclose(purity(scaled_state(ideal, 0.0)), 0.5, atol=1e-14)
    with pytest.raises(ValueError):
        scaled_state(ideal, 1.2)


def test_haar_random_ket_deterministic():
    a = haar_random_ket(6, 123)
    b = haar_random_ket(6, 123)
    c = haar_random_ket(6, 124)
    np.testing.assert_array_equal(a.amps, b.amps)
    assert np.abs(a.amps - c.amps).max() > 1e-3
    assert a.layout.dims == (6,)
    with pytest.raises(ValueError):
        haar_random_ket(1, 0)


def test_random_bloch_ranges():
    qs = [random_bloch(seed) for seed in range(200)]
    assert all(0 <= q.theta <= math.pi for q in qs)
    assert all(0 <= q.phi < 2 * math.pi for q in qs)
    assert random_bloch(7) == random_bloch(7)
    # not all the same point
    assert len({(q.theta, q.phi) for q in qs}) > 100
