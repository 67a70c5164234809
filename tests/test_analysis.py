import math

import numpy as np
import pytest

from qclone import analysis
from qclone.analysis import (
    clone_pair_density_formula,
    extract_scaling_factor,
    fidelity_formula,
    idle_qubit_check,
    inseparability_boundary,
    mdim_copier_formula,
    mdim_formulas,
    mean_fidelity,
    ppt_separable,
    pt_spectrum_formula,
    purity_xi,
    purity_xi_simulated,
    register_pair_formula,
    rho_a1b1_density_formula,
    rho_a1b1_pt_spectrum,
    scaling_factor_formula,
)
from qclone.cloners import (
    gisin_massar_map,
    local_register_clone,
    mdim_clone,
    mdim_coefficients,
    nonlocal_register_clone,
    register_clone,
    uqcm_map,
)
from qclone.linalg import (
    DensityOperator,
    SubsystemLayout,
    bures_distance,
    hermitian_eigenvalues,
    outer,
    partial_transpose,
    reduced_density,
    von_neumann_entropy,
)
from qclone.states import BlochQubit, bloch_ket, haar_random_ket, random_bloch

# Values frozen from the closed forms, never recomputed by the assertions
# they feed: scaling and fidelity of the single-copy machine, the copier
# purity, the four partial-transpose eigenvalues of a clone pair, and the
# m = 2 entropy/Bures numbers.
UQCM_SCALING = 2 / 3
UQCM_FIDELITY = 5 / 6
XI_1 = 5 / 9
PT_PAIR_N1 = (-0.0393446629166316, 1 / 6, 1 / 6, 0.7060113295832983)
PT_PAIR_N2_MIN = 0.0093915613974833
PT_A1B1_REAL = ((1 - math.sqrt(17)) / 12, 1 / 6, (1 + math.sqrt(17)) / 12, 2 / 3)
ENTROPY_CLONE_M2 = 0.4505612088663047
ENTROPY_COPIER_M2 = 0.6365141682948128
BURES_M2 = 0.4174423812332963
LOCAL_WINDOW = (0.5 - math.sqrt(39) / 16, 0.5 + math.sqrt(39) / 16)
NONLOCAL_WINDOW = (0.5 - math.sqrt(2) / 3, 0.5 + math.sqrt(2) / 3)


class TestScalingExtraction:
    def test_recovers_synthetic_scaling(self):
        ideal = outer(bloch_ket(BlochQubit(0.7, 1.9)))
        for s in (0.0, 0.25, 2 / 3, 1.0):
            # s*rho + (1-s)/2 * identity, through the validating constructor
            scaled = DensityOperator(ideal.layout, s * ideal.mat + (1.0 - s) / 2.0 * np.eye(2))
            fit = extract_scaling_factor(scaled, ideal)
            np.testing.assert_allclose(fit.s, s, atol=1e-14)
            assert fit.residual <= 1e-9

    def test_flags_non_scaled_output(self):
        """The qubit-by-qubit register cloner only fits the scaled form at
        the symmetric point; the one-shot cloner fits with s = 3/5 always."""
        from qclone.linalg import StateVector

        for alpha2, fits in ((0.2, False), (0.5, True), (1.0, False)):
            alpha = math.sqrt(alpha2)
            ideal_amps = np.zeros(4)
            ideal_amps[0], ideal_amps[3] = alpha, math.sqrt(1 - alpha2)
            ideal = outer(StateVector(SubsystemLayout((2, 2)), ideal_amps))
            fit = extract_scaling_factor(local_register_clone(alpha), ideal)
            assert (fit.residual <= 1e-9) == fits
            fit = extract_scaling_factor(nonlocal_register_clone(alpha), ideal)
            assert fit.residual <= 1e-9
            np.testing.assert_allclose(fit.s, 0.6, atol=1e-12)

    def test_rejects_mixed_ideal(self):
        mixed = DensityOperator(SubsystemLayout((2,)), np.eye(2) / 2)
        with pytest.raises(ValueError):
            extract_scaling_factor(mixed, mixed)

    def test_rejects_shape_mismatch(self):
        a = DensityOperator(SubsystemLayout((2,)), np.eye(2) / 2)
        b = DensityOperator(SubsystemLayout((4,)), np.eye(4) / 4)
        with pytest.raises(ValueError):
            extract_scaling_factor(a, b)


def test_formula_values():
    np.testing.assert_allclose(scaling_factor_formula(1), UQCM_SCALING, atol=1e-15)
    np.testing.assert_allclose(fidelity_formula(1), UQCM_FIDELITY, atol=1e-15)
    np.testing.assert_allclose(scaling_factor_formula(3), 0.5, atol=1e-15)
    for n in range(1, 9):
        s = scaling_factor_formula(n)
        np.testing.assert_allclose(fidelity_formula(n), (1 + s) / 2, atol=1e-15)
    # the many-copy limit approaches the measurement bound from above
    assert scaling_factor_formula(100) < 0.34


@pytest.mark.parametrize("n", [1, 2, 3])
def test_simulated_scaling_matches_formula(n):
    q = random_bloch(60 + n)
    out = gisin_massar_map(q, n)
    fit = extract_scaling_factor(out.clone_marginal(0), outer(bloch_ket(q)))
    np.testing.assert_allclose(fit.s, scaling_factor_formula(n), atol=1e-12)
    assert fit.residual <= 1e-9


class TestMeanFidelity:
    def test_uqcm_average(self):
        def marginal(q):
            return uqcm_map(q).clone_marginal(0)

        np.testing.assert_allclose(mean_fidelity(marginal), UQCM_FIDELITY, atol=1e-9)

    def test_constant_integrand(self):
        rho = DensityOperator(SubsystemLayout((2,)), np.eye(2) / 2)
        np.testing.assert_allclose(mean_fidelity(lambda q: rho), 0.5, atol=1e-12)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            mean_fidelity(lambda q: None, n_cos=8)


class TestPptSeparable:
    def test_bell_state(self):
        from qclone.linalg import StateVector

        bell = outer(StateVector(SubsystemLayout((2, 2)), np.array([1, 0, 0, 1]) / math.sqrt(2)))
        sep, min_eig = ppt_separable(bell)
        assert not sep
        np.testing.assert_allclose(min_eig, -0.5, atol=1e-12)

    def test_product_state(self):
        rho = DensityOperator(SubsystemLayout((2, 2)), np.diag([0.4, 0.1, 0.3, 0.2]))
        sep, min_eig = ppt_separable(rho)
        assert sep and min_eig >= 0

    def test_layout_guard(self):
        rho = DensityOperator(SubsystemLayout((4,)), np.eye(4) / 4)
        with pytest.raises(ValueError):
            ppt_separable(rho)


class TestClonePairForms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_formula_matches_simulation(self, n):
        q = random_bloch(70 + n)
        sim = gisin_massar_map(q, n).pair_marginal(0, 1)
        form = clone_pair_density_formula(n, q)
        np.testing.assert_allclose(sim.mat, form.mat, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_pt_spectrum_formula_matches_simulation(self, n):
        q = random_bloch(80 + n)
        pair = gisin_massar_map(q, n).pair_marginal(0, 1)
        w = hermitian_eigenvalues(partial_transpose(pair, 1))
        np.testing.assert_allclose(w, pt_spectrum_formula(n), atol=1e-10)

    def test_frozen_spectrum_values(self):
        np.testing.assert_allclose(pt_spectrum_formula(1), PT_PAIR_N1, atol=1e-12)
        np.testing.assert_allclose(pt_spectrum_formula(2)[0], PT_PAIR_N2_MIN, atol=1e-12)

    def test_entanglement_dies_after_first_copy(self):
        """Only the 1-to-2 machine leaves clone pairs entangled."""
        assert pt_spectrum_formula(1)[0] < 0
        for n in range(2, 9):
            assert pt_spectrum_formula(n)[0] > 0

    def test_spectrum_is_input_independent(self):
        a = pt_spectrum_formula(1)
        for seed in (1, 2):
            q = random_bloch(seed)
            pair = uqcm_map(q).pair_marginal(0, 1)
            w = hermitian_eigenvalues(partial_transpose(pair, 1))
            np.testing.assert_allclose(w, a, atol=1e-10)


class TestCloneCopierPair:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_formula_matches_simulation(self, seed):
        q = random_bloch(seed)
        sim = reduced_density(gisin_massar_map(q, 1).joint, [1, 2])
        form = rho_a1b1_density_formula(q)
        np.testing.assert_allclose(sim.mat, form.mat, atol=1e-12)

    def test_real_input_spectrum(self):
        w = rho_a1b1_pt_spectrum(BlochQubit(1.3, 0.0))
        np.testing.assert_allclose(w, sorted(PT_A1B1_REAL), atol=1e-10)

    def test_always_entangled(self):
        for seed in range(8):
            w = rho_a1b1_pt_spectrum(random_bloch(seed))
            assert w[0] < -1e-3


class TestIdleLaw:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_copier_qubits_follow_transpose_law(self, n):
        q = random_bloch(90 + n)
        dev = idle_qubit_check(gisin_massar_map(q, n), q)
        assert dev < 1e-12

    def test_rejects_non_qubit_copier(self):
        out = mdim_clone(haar_random_ket(3, 1))
        with pytest.raises(ValueError):
            idle_qubit_check(out, BlochQubit(1.0, 0.0))


class TestPurityXi:
    def test_frozen_single_copy_value(self):
        np.testing.assert_allclose(purity_xi(1), XI_1, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_simulation(self, n):
        out = gisin_massar_map(random_bloch(n), n)
        np.testing.assert_allclose(purity_xi_simulated(out), purity_xi(n), atol=1e-12)

    def test_exceeds_maximally_mixed_floor(self):
        for n in range(1, 9):
            assert purity_xi(n) > 1 / (n + 1)


class TestMdimForms:
    def test_frozen_m2_values(self):
        scaling, bures, entropy_clone, entropy_copier = mdim_formulas(2)
        np.testing.assert_allclose(scaling, 2 / 3, atol=1e-15)
        np.testing.assert_allclose(bures, BURES_M2, atol=1e-12)
        np.testing.assert_allclose(entropy_clone, ENTROPY_CLONE_M2, atol=1e-12)
        np.testing.assert_allclose(entropy_copier, ENTROPY_COPIER_M2, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_simulation_hits_all_four_numbers(self, m):
        phi = haar_random_ket(m, 7 * m)
        out = mdim_clone(phi)
        ideal = outer(phi)
        clone = out.clone_marginal(0)
        scaling, bures, entropy_clone, entropy_copier = mdim_formulas(m)

        fit = extract_scaling_factor(clone, ideal)
        np.testing.assert_allclose(fit.s, scaling, atol=1e-12)
        np.testing.assert_allclose(bures_distance(clone, ideal), bures, atol=1e-10)
        np.testing.assert_allclose(von_neumann_entropy(clone), entropy_clone, atol=1e-10)
        np.testing.assert_allclose(
            von_neumann_entropy(out.copier_marginal()), entropy_copier, atol=1e-10
        )

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_copier_marginal_formula(self, m):
        phi = haar_random_ket(m, 11 * m)
        sim = mdim_clone(phi).copier_marginal()
        np.testing.assert_allclose(sim.mat, mdim_copier_formula(phi).mat, atol=1e-13)

    @pytest.mark.parametrize("m", [2, 3, 16, 64])
    def test_copier_formula_is_the_coefficient_form(self, m):
        """(rho^T + I)/(m+1) is the cloner's 2d^2 (rho^T + I), written
        without the cloner's coefficients."""
        phi = haar_random_ket(m, 13 * m)
        _, d = mdim_coefficients(m)
        dd2 = 2.0 * d ** 2
        old = dd2 * outer(phi).mat.T + dd2 * np.eye(m)
        np.testing.assert_allclose(mdim_copier_formula(phi).mat, old, rtol=0, atol=1e-15)

    def test_scaling_decreases_toward_half(self):
        values = [mdim_formulas(m)[0] for m in range(2, 65)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.5
        np.testing.assert_allclose(mdim_formulas(64)[0], 33 / 65, atol=1e-15)


class TestRegisterAnalysis:
    @pytest.mark.parametrize("method,fn", [
        ("local", local_register_clone),
        ("nonlocal", nonlocal_register_clone),
    ])
    def test_formula_matches_simulation(self, method, fn):
        for alpha2 in (0.0, 0.2, 0.5, 0.8, 1.0):
            a = math.sqrt(alpha2)
            np.testing.assert_allclose(
                fn(a).mat, register_pair_formula(method, a).mat, atol=1e-13
            )

    def test_boundaries_match_analytic_windows(self):
        local = inseparability_boundary("local")
        np.testing.assert_allclose((local.lower, local.upper), LOCAL_WINDOW, atol=1e-7)
        nonlocal_ = inseparability_boundary("nonlocal")
        np.testing.assert_allclose((nonlocal_.lower, nonlocal_.upper), NONLOCAL_WINDOW, atol=1e-7)

    def test_nonlocal_window_strictly_wider(self):
        local = inseparability_boundary("local")
        nonlocal_ = inseparability_boundary("nonlocal")
        assert nonlocal_.lower < local.lower
        assert nonlocal_.upper > local.upper

    def test_interval_membership(self):
        iv = inseparability_boundary("nonlocal")
        assert 0.5 in iv
        assert 0.01 not in iv
        assert 0.999 not in iv

    def test_method_validation(self):
        with pytest.raises(ValueError):
            inseparability_boundary("global")
        with pytest.raises(ValueError):
            register_pair_formula("global", 0.5)

    @pytest.mark.parametrize("resolution", [float("nan"), float("inf"), 0.0, -1e-8, 1e-20])
    def test_rejects_bad_resolution(self, monkeypatch, resolution):
        """Rejected before any point is evaluated: NaN would stop the
        bisection at once, and 0 or less would never stop it.  Nor would
        1e-20: a search stops once its bracket is at most a quarter of the
        resolution wide, and no bracket in [0.5, 1] narrows below the
        spacing of doubles there."""
        calls = []
        monkeypatch.setattr(analysis, "register_clone", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="resolution"):
            inseparability_boundary("local", resolution)
        assert calls == []


def _sequential_boundary(method, resolution):
    """Reference bisection: one scalar register_clone and ppt_separable
    call per midpoint."""

    def inseparable(alpha2):
        sep, _ = ppt_separable(register_clone(method, math.sqrt(alpha2)))
        return not sep

    def bisect(sep_end, insep_end):
        while abs(insep_end - sep_end) > resolution / 4.0:
            mid = 0.5 * (sep_end + insep_end)
            if inseparable(mid):
                insep_end = mid
            else:
                sep_end = mid
        return 0.5 * (sep_end + insep_end)

    return bisect(0.0, 0.5), bisect(1.0, 0.5)


class TestBatchedBisection:
    @pytest.mark.parametrize("method", ["local", "nonlocal"])
    @pytest.mark.parametrize("resolution", [1e-8, 1e-3, 0.3, 2.0, 1e-12, 1e-15])
    def test_equals_sequential_bisection(self, method, resolution):
        """Equal bit for bit down to 1e-15, near the finest resolution
        accepted (4 * spacing(1.0), about 8.9e-16)."""
        iv = inseparability_boundary(method, resolution)
        assert (iv.lower, iv.upper) == _sequential_boundary(method, resolution)

    @pytest.mark.parametrize("levels", range(1, 7))
    def test_subtree_depth_leaves_result_unchanged(self, monkeypatch, levels):
        expected = [inseparability_boundary(m) for m in ("local", "nonlocal")]
        monkeypatch.setattr(analysis, "_BISECTION_LEVELS", levels)
        assert [inseparability_boundary(m) for m in ("local", "nonlocal")] == expected

    @pytest.mark.parametrize("method", ["local", "nonlocal"])
    def test_batched_call_count(self, monkeypatch, method):
        """At 1e-8 each search takes 28 levels: one bracket call of three
        points, then 7 passes of 4 levels each."""
        sizes = []

        def counting(m, alpha):
            sizes.append(np.size(alpha))
            return register_clone(m, alpha)

        monkeypatch.setattr(analysis, "register_clone", counting)
        inseparability_boundary(method, 1e-8)
        assert sizes == [3] + [30] * 7


def test_bures_against_pure_shortcut():
    """Full root-fidelity route equals the pure-state shortcut."""
    for m in (2, 4):
        phi = haar_random_ket(m, m + 1)
        clone = mdim_clone(phi).clone_marginal(0)
        f = float(np.vdot(phi.amps, clone.mat @ phi.amps).real)
        shortcut = math.sqrt(2 * (1 - math.sqrt(f)))
        np.testing.assert_allclose(
            bures_distance(clone, outer(phi)), shortcut, atol=1e-12
        )
