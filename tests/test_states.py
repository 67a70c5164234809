import math

import numpy as np
import pytest

from qclone.linalg import StateVector, SubsystemLayout
from qclone.states import (
    BlochQubit,
    bloch_ket,
    haar_random_ket,
    prep_state,
    random_bloch,
    register_ket,
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
        kets = bloch_ket(q).amps
        # each ket's orthogonal partner conj(b)|0> - conj(a)|1>
        partners = StateVector(SubsystemLayout((2,)), np.stack([kets[:, 1].conj(), -kets[:, 0].conj()], axis=1))
        overlaps = (partners.amps.conj() * kets).sum(axis=1)
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

    @pytest.mark.parametrize("theta, phi", [(1.1, 2.3), (np.array([0.0, 1.1, math.pi]), np.array([0.4, 2.3, 6.0]))])
    def test_kets_are_computed_once(self, theta, phi):
        # a second call returns the kept kets, bit for bit those a fresh
        # BlochQubit of the same angles computes
        q = BlochQubit(theta, phi)
        first = bloch_ket(q)
        assert bloch_ket(q) is first
        assert not first.amps.flags.writeable
        fresh = np.empty(np.shape(theta) + (2,), dtype=np.complex128)
        fresh[..., 0] = np.sin(np.asarray(theta) / 2.0) * np.exp(1j * np.asarray(phi))
        fresh[..., 1] = np.cos(np.asarray(theta) / 2.0)
        assert np.array_equal(bloch_ket(q).amps, fresh)
        assert np.array_equal(bloch_ket(q).amps, bloch_ket(BlochQubit(theta, phi)).amps)


@pytest.mark.parametrize("alpha", [0.0, 1.0, math.sqrt(0.3)])
def test_register_ket_is_normalized(alpha):
    amps = register_ket(alpha).amps
    np.testing.assert_allclose(np.vdot(amps, amps).real, 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(amps, [alpha, 0, 0, math.sqrt(1 - alpha**2)], atol=1e-15)


@pytest.mark.parametrize("alpha", [1.5, math.nan, np.array([])])
def test_register_ket_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        register_ket(alpha)


class TestSymmetricBasis:
    def test_index_validation(self):
        with pytest.raises(ValueError):
            symmetric_basis_ket(0, 0)
        with pytest.raises(ValueError):
            symmetric_basis_ket(2, 3)
        with pytest.raises(ValueError):
            symmetric_basis_ket(2, -1)

    def test_small_cases(self):
        psi = symmetric_basis_ket(2, 1)
        np.testing.assert_allclose(psi.amps, np.array([0, 1, 1, 0]) / math.sqrt(2), atol=1e-15)
        psi = symmetric_basis_ket(3, 1)
        want = np.zeros(8)
        want[0b001] = want[0b010] = want[0b100] = 1 / math.sqrt(3)
        np.testing.assert_allclose(psi.amps, want, atol=1e-15)

    def test_orthonormal_family(self):
        n = 4
        kets = [symmetric_basis_ket(n, k).amps for k in range(n + 1)]
        gram = np.array([[np.vdot(a, b) for b in kets] for a in kets])
        np.testing.assert_allclose(gram, np.eye(n + 1), atol=1e-14)

    def test_weight_support(self):
        """|n; k> only touches computational states with exactly k ones."""
        psi = symmetric_basis_ket(5, 2)
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
                symmetric_basis_ket(n, k).amps,
                symmetric_basis_ket(n, k).amps,
            )
            e_k = float(np.vdot(ee, psi.amps).real)
            assert e_k > 0
            if k > 0:
                ff = np.kron(
                    symmetric_basis_ket(n, k - 1).amps,
                    symmetric_basis_ket(n, k).amps,
                )
                f_k = float(np.vdot(ff, psi.amps).real)
                np.testing.assert_allclose(f_k, math.sqrt(k / (n - k + 1)) * e_k, atol=1e-13)

    def test_bounds(self):
        with pytest.raises(ValueError):
            prep_state(0)


def test_haar_random_ket_deterministic():
    a = haar_random_ket(6, 123)
    b = haar_random_ket(6, 123)
    c = haar_random_ket(6, 124)
    np.testing.assert_array_equal(a.amps, b.amps)
    assert np.abs(a.amps - c.amps).max() > 1e-3
    assert a.layout.dims == (6,)
    with pytest.raises(ValueError):
        haar_random_ket(1, 0)
    with pytest.raises(ValueError, match="at least one state"):
        haar_random_ket(4, 0, count=0)


def test_random_bloch_ranges():
    qs = [random_bloch(seed) for seed in range(200)]
    assert all(0 <= q.theta <= math.pi for q in qs)
    assert all(0 <= q.phi < 2 * math.pi for q in qs)
    assert random_bloch(7) == random_bloch(7)
    # not all the same point
    assert len({(q.theta, q.phi) for q in qs}) > 100


# (seed, count) of every batched Haar draw the verification suite makes
SUITE_QUBIT_DRAWS = (
    [(11, 100), (660, 10), (700, 100)]
    + [(100 + n, 20) for n in range(1, 6)]
    + [(200 + n, 5) for n in range(1, 7)]
    + [(300 + n, 5) for n in range(1, 6)]
    + [(400 + n, 20) for n in range(1, 7)]
    + [(500 + n, 3) for n in range(1, 7)]
    + [(710 + n, 100) for n in range(1, 6)]
)
SUITE_KET_DRAWS = [(m, 730 + m, 100) for m in (2, 3, 4, 8, 16)]


def test_batched_random_bloch_is_the_streamed_draws():
    for seed, count in SUITE_QUBIT_DRAWS:
        batch = random_bloch(seed, count=count)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in range(count):
            q = random_bloch(rng)
            # the draw written out: cos(theta), then phi, per qubit
            theta = math.acos(ref.uniform(-1.0, 1.0))
            phi = ref.uniform(0.0, 2.0 * math.pi)
            assert (batch.theta[k], batch.phi[k]) == (q.theta, q.phi) == (theta, phi), (seed, k)


def test_batched_haar_random_ket_is_the_streamed_draws():
    for m, seed, count in SUITE_KET_DRAWS:
        batch = haar_random_ket(m, seed, count=count)
        assert batch.amps.shape == (count, m)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in range(count):
            # the draw written out: m real parts, then m imaginary parts
            z = ref.standard_normal(m) + 1j * ref.standard_normal(m)
            np.testing.assert_array_equal(batch.amps[k], haar_random_ket(m, rng).amps)
            np.testing.assert_array_equal(batch.amps[k], z / np.linalg.norm(z))
