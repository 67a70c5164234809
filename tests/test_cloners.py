import math

import numpy as np
import pytest

from qclone import cloners, linalg, states
from qclone.cloners import (
    MAX_CLONE_DIMENSION,
    CloneOutput,
    gisin_massar_map,
    local_register_clone,
    mdim_clone,
    mdim_coefficients,
    nonlocal_register_clone,
    register_clone,
    uqcm_map,
)
from qclone.linalg import _BATCH_AMPS, StateVector, SubsystemLayout, reduced_density
from qclone.states import BlochQubit, bloch_ket, haar_random_ket, random_bloch


class TestUqcm:
    def test_basis_columns(self):
        """|0> maps to sqrt(2/3)|00>|0> + sqrt(1/6)(|01>+|10>)|1>, and |1>
        to the bit-flipped mirror."""
        out = uqcm_map(BlochQubit(math.pi, 0.0)).joint.amps
        want = np.zeros(8)
        want[0b000] = math.sqrt(2 / 3)
        want[0b011] = want[0b101] = math.sqrt(1 / 6)
        np.testing.assert_allclose(out, want, atol=1e-15)

        out = uqcm_map(BlochQubit(0.0, 0.0)).joint.amps
        want = np.zeros(8)
        want[0b111] = math.sqrt(2 / 3)
        want[0b100] = want[0b010] = math.sqrt(1 / 6)
        np.testing.assert_allclose(out, want, atol=1e-15)

    def test_clone_fidelity(self):
        q = random_bloch(2)
        out = uqcm_map(q)
        psi = bloch_ket(q).amps
        for j in (0, 1):
            rho = out.clone_marginal(j).mat
            f = float(np.vdot(psi, rho @ psi).real)
            np.testing.assert_allclose(f, 5 / 6, atol=1e-13)

    def test_output_structure(self):
        out = uqcm_map(BlochQubit(1.0, 2.0))
        assert out.clone_count == 2
        assert out.joint.layout.dims == (2, 2, 2)
        assert out.copier_dims == (2,)


class TestGisinMassar:
    def test_n1_equals_uqcm(self):
        """The 1-to-2 cloner is the n = 1 machine itself, bit for bit, for
        one input and for a batch: the paper's coefficients written out as a
        separate (2, 8) table round differently, in the last bits of every
        row of this batch."""
        for q in (BlochQubit(0.4, 5.9), random_bloch(1, count=20)):
            assert np.array_equal(uqcm_map(q).joint.amps, gisin_massar_map(q, 1).joint.amps)

    def test_preserves_inner_products(self):
        """An isometry keeps the overlap of any two inputs; check on an
        orthogonal pair, where it must stay zero."""
        q = random_bloch(3)
        for n in (1, 2, 3):
            a = gisin_massar_map(q, n).joint.amps
            # same map applied to the orthogonal input conj(b)|0> - conj(a)|1>
            qa, qb = bloch_ket(q).amps
            alpha, beta = StateVector(SubsystemLayout((2,)), [qb.conjugate(), -qa.conjugate()]).amps
            from qclone.cloners import _gm_columns

            col0, col1 = _gm_columns(n)
            b = alpha * col0 + beta * col1
            np.testing.assert_allclose(np.vdot(a, b), 0.0, atol=1e-13)
            np.testing.assert_allclose(np.vdot(b, b).real, 1.0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_clones_are_symmetric(self, n):
        out = gisin_massar_map(random_bloch(40 + n), n)
        first = out.clone_marginal(0).mat
        for j in range(1, n + 1):
            np.testing.assert_allclose(out.clone_marginal(j).mat, first, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 4])
    def test_pair_marginals_are_symmetric(self, n):
        out = gisin_massar_map(random_bloch(50 + n), n)
        first = out.pair_marginal(0, 1).mat
        np.testing.assert_allclose(out.pair_marginal(1, 2).mat, first, atol=1e-13)
        np.testing.assert_allclose(out.pair_marginal(0, n).mat, first, atol=1e-13)

    def test_layouts(self):
        out = gisin_massar_map(BlochQubit(1.0, 0.0), 3)
        assert out.clone_count == 4
        assert out.joint.layout.dims == (2,) * 7
        assert out.copier_dims == (2,) * 3

    def test_bounds(self):
        with pytest.raises(ValueError):
            gisin_massar_map(BlochQubit(1.0, 0.0), 0)
        with pytest.raises(ValueError):
            gisin_massar_map(BlochQubit(1.0, 0.0), 9)


class TestMdim:
    def test_coefficients(self):
        c, d = mdim_coefficients(2)
        np.testing.assert_allclose(c, math.sqrt(2 / 3), atol=1e-15)
        np.testing.assert_allclose(d, math.sqrt(1 / 6), atol=1e-15)
        for m in (2, 3, 7, 64):
            c, d = mdim_coefficients(m)
            np.testing.assert_allclose(c**2 + 2 * (m - 1) * d**2, 1.0, atol=1e-14)
            np.testing.assert_allclose(c, 2 * d, atol=1e-14)

    def test_m2_is_uqcm(self):
        q = BlochQubit(2.0, 1.0)
        phi = StateVector(SubsystemLayout((2,)), bloch_ket(q).amps)
        np.testing.assert_allclose(
            mdim_clone(phi).joint.amps, uqcm_map(q).joint.amps, atol=1e-15
        )

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_copies_match_and_norm(self, m):
        out = mdim_clone(haar_random_ket(m, m))
        assert out.joint.layout.dims == (m, m, m)
        np.testing.assert_allclose(
            out.clone_marginal(0).mat, out.clone_marginal(1).mat, atol=1e-13
        )

    def test_bounds(self):
        with pytest.raises(ValueError):
            mdim_clone(StateVector(SubsystemLayout((2, 2)), [1, 0, 0, 0]))
        with pytest.raises(ValueError):
            mdim_coefficients(1)
        with pytest.raises(ValueError):
            mdim_coefficients(65)
        for m in (3.5, 4.0, "4", None):
            with pytest.raises(ValueError, match="2 <= m <= 64"):
                mdim_coefficients(m)

    def test_dimension_cap_is_named_once(self):
        """The cap is ``MAX_CLONE_DIMENSION``, and the largest batched joint
        state is the single joint state at that dimension."""
        assert MAX_CLONE_DIMENSION == 64
        assert MAX_CLONE_DIMENSION**3 == _BATCH_AMPS
        mdim_coefficients(MAX_CLONE_DIMENSION)
        with pytest.raises(ValueError, match=f"2 <= m <= {MAX_CLONE_DIMENSION}, got {MAX_CLONE_DIMENSION + 1}"):
            mdim_coefficients(MAX_CLONE_DIMENSION + 1)


class TestCloneOutput:
    def test_validates_split(self):
        psi = StateVector(SubsystemLayout((2, 2, 2)), [1, 0, 0, 0, 0, 0, 0, 0])
        for clone_count in (0, 3):
            with pytest.raises(ValueError):
                CloneOutput(joint=psi, clone_count=clone_count)

    def test_marginal_helpers_agree(self):
        out = uqcm_map(BlochQubit(0.8, 0.3))
        np.testing.assert_allclose(
            out.copier_marginal().mat, reduced_density(out.joint, [2]).mat, atol=1e-15
        )
        pair = out.pair_marginal(0, 1)
        assert pair.layout.dims == (2, 2)


class TestRegisterCloners:
    def test_local_alpha_one(self):
        rho = local_register_clone(1.0).mat
        np.testing.assert_allclose(
            np.diag(rho).real, [25 / 36, 5 / 36, 5 / 36, 1 / 36], atol=1e-14
        )
        np.testing.assert_allclose(rho[0, 3], 0.0, atol=1e-14)

    def test_nonlocal_alpha_one(self):
        rho = nonlocal_register_clone(1.0).mat
        np.testing.assert_allclose(
            np.diag(rho).real, [7 / 10, 1 / 10, 1 / 10, 1 / 10], atol=1e-14
        )

    def test_corner_terms(self):
        a = math.sqrt(0.4)
        b = math.sqrt(0.6)
        np.testing.assert_allclose(
            local_register_clone(a).mat[0, 3], 4 * a * b / 9, atol=1e-14
        )
        np.testing.assert_allclose(
            nonlocal_register_clone(a).mat[0, 3], 3 * a * b / 5, atol=1e-14
        )

    def test_purity_ordering(self):
        """The one-shot register cloner produces strictly better copies."""
        a = math.sqrt(0.5)
        ideal = np.zeros(4)
        ideal[0] = ideal[3] = a
        psi = StateVector(SubsystemLayout((2, 2)), ideal)
        f_local = float(np.vdot(psi.amps, local_register_clone(a).mat @ psi.amps).real)
        f_nonlocal = float(np.vdot(psi.amps, nonlocal_register_clone(a).mat @ psi.amps).real)
        assert f_nonlocal > f_local

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            local_register_clone(1.5)
        with pytest.raises(ValueError):
            nonlocal_register_clone(-0.1)
        for method in ("local", "nonlocal"):
            with pytest.raises(ValueError, match="at least one state"):
                register_clone(method, np.array([]))

    @pytest.mark.parametrize("method", ["local", "nonlocal"])
    def test_one_marginal_per_call(self, monkeypatch, method):
        """A register cloner reduces its joint state once: the copy it
        returns.  That both copies agree is a property test's job."""
        calls = []
        real = cloners.reduced_density
        monkeypatch.setattr(cloners, "reduced_density", lambda psi, keep: calls.append(keep) or real(psi, keep))
        register_clone(method, np.sqrt([0.2, 0.7]))
        assert len(calls) == 1

    @pytest.mark.parametrize("method,wires", [("local", [0, 4]), ("nonlocal", [0, 1])])
    def test_layouts_are_not_validated_again(self, monkeypatch, method, wires):
        """The register, joint and copy layouts are built once: a call runs
        ``_size`` only on the wires of the copy it returns."""
        register_clone(method, 0.5)  # builds the cached images
        calls = []
        real = linalg._size
        for module in (linalg, states, cloners):
            monkeypatch.setattr(module, "_size", lambda value, *rule: calls.append(value) or real(value, *rule))
        rho = register_clone(method, np.sqrt([0.2, 0.7]))
        assert calls == wires
        assert rho.layout == SubsystemLayout((2, 2))

    def test_dispatch_by_method_name(self):
        a = math.sqrt(0.3)
        np.testing.assert_array_equal(register_clone("local", a).mat, local_register_clone(a).mat)
        np.testing.assert_array_equal(register_clone("nonlocal", a).mat, nonlocal_register_clone(a).mat)
        with pytest.raises(ValueError):
            register_clone("global", a)
