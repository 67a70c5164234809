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
    CloneOutput,
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
    TOL_SPECTRAL,
    bures_distance,
    hermitian_eigenvalues,
    outer,
    partial_trace,
    partial_transpose,
    pure_fidelity,
    purity,
    reduced_density,
    sqrt_fidelity,
    von_neumann_entropy,
)
from qclone.network import Circuit, build_copy_stage, clone_via_network, cnot, rotation
from qclone.states import BlochQubit, bloch_ket, haar_random_ket, prep_state, random_bloch, symmetric_basis_ket

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
        # the library's message: without its check numpy raises a broadcast error
        with pytest.raises(ValueError, match="mismatched dimensions"):
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


_Q = BlochQubit(1.0, 2.0)
_OUT = uqcm_map(_Q)  # clones on subsystems 0 and 1, the copier on 2
_PAIR = _OUT.pair_marginal(0, 1)

#: Every entry point that takes a size, count, wire or subsystem index, as a
#: call of that one argument returning something ``assert_equal`` compares.
#: Sizes start at 1 (2 for dimensions) and refuse 0; a count's default None
#: means no batch, and an index's first value is 0, so neither is probed.
SIZES = {
    "scaling_factor_formula": scaling_factor_formula,
    "fidelity_formula": fidelity_formula,
    "purity_xi": purity_xi,
    "pt_spectrum_formula": pt_spectrum_formula,
    "mdim_formulas": mdim_formulas,
    "gisin_massar_map": lambda n: gisin_massar_map(_Q, n).joint.amps,
    "clone_via_network": lambda n: clone_via_network(_Q, n).amps,
    "build_copy_stage": build_copy_stage,
    "prep_state": lambda n: prep_state(n).amps,
    "symmetric_basis_ket": lambda n: symmetric_basis_ket(n, 0).amps,
    "haar_random_ket": lambda dim: haar_random_ket(dim, 0).amps,
    "Circuit": lambda width: Circuit(width, ()),
    "CloneOutput": lambda count: CloneOutput(_OUT.joint, count).clone_count,
    "SubsystemLayout": lambda d: SubsystemLayout((2, d)),
    # without its own size rule a float count such as 2.0 gives a value
    "clone_pair_density_formula": lambda n: clone_pair_density_formula(n, _Q).mat,
}
COUNTS = {
    "haar_random_ket_count": lambda count: haar_random_ket(3, 0, count=count).amps,
    "random_bloch_count": lambda count: np.array([random_bloch(0, count=count).theta]),
}
INDICES = {
    "symmetric_basis_ket_k": lambda k: symmetric_basis_ket(2, k).amps,
    "rotation": lambda wire: rotation(wire, 0.3),
    "cnot": lambda control: cnot(control, 0),
    "clone_marginal": lambda i: _OUT.clone_marginal(i).mat,
    "pair_marginal": lambda j: _OUT.pair_marginal(0, j).mat,
    "reduced_density": lambda i: reduced_density(_OUT.joint, [i]).mat,
    "partial_trace": lambda i: partial_trace(outer(_OUT.joint), [i]).mat,
    "partial_transpose": lambda i: partial_transpose(_PAIR, i).mat,
}
_PROBES = [
    (SIZES, [0, -1, 1.0, 3.5, "3", None, 2.0, 2.5, "2"]),
    (COUNTS, [0, -1, 2.0, 2.5, "2"]),
    (INDICES, [-1, 2.0, 2.5, "2", None]),
]


@pytest.mark.parametrize(
    "formula, size",
    [pytest.param(fn, size, id=f"{size}-{name}") for entries, probes in _PROBES for name, fn in entries.items() for size in probes],
)
def test_closed_forms_reject_sizes_without_a_value(formula, size):
    """Copy counts start at 1 and dimensions at 2, and every size, count,
    wire and subsystem index is checked by the one rule: a float, even a
    whole one, a string or None is refused rather than truncated."""
    with pytest.raises(ValueError, match="integer"):
        formula(size)


def test_closed_forms_take_numpy_integers():
    assert scaling_factor_formula(np.int64(3)) == scaling_factor_formula(3) == 0.5
    assert mdim_formulas(np.int32(2)) == mdim_formulas(2)
    for entries, value in ((SIZES, 2), (COUNTS, 2), (INDICES, 1)):
        for fn in entries.values():
            np.testing.assert_equal(fn(np.int64(value)), fn(value))
    # and they are kept as Python ints
    assert type(Circuit(np.int64(2), (cnot(np.int64(1), 0),)).ops[0].wires[0]) is int
    assert type(CloneOutput(_OUT.joint, np.int64(2)).clone_count) is int


#: Each functional of one cloning run (q, out) of the 1 -> 2 cloner, and
#: the type it returns for a single input.
SCALAR_RESULTS = {
    "von_neumann_entropy": (float, lambda q, out: von_neumann_entropy(out.clone_marginal(0))),
    "purity": (float, lambda q, out: purity(out.clone_marginal(0))),
    "pure_fidelity": (float, lambda q, out: pure_fidelity(bloch_ket(q), out.clone_marginal(0))),
    "sqrt_fidelity": (float, lambda q, out: sqrt_fidelity(out.clone_marginal(0), outer(bloch_ket(q)))),
    "sqrt_fidelity-ket": (float, lambda q, out: sqrt_fidelity(out.clone_marginal(0), bloch_ket(q))),
    "bures_distance": (float, lambda q, out: bures_distance(out.clone_marginal(0), outer(bloch_ket(q)))),
    "bures_distance-ket": (float, lambda q, out: bures_distance(out.clone_marginal(0), bloch_ket(q))),
    "scaling-s": (float, lambda q, out: extract_scaling_factor(out.clone_marginal(0), outer(bloch_ket(q))).s),
    "scaling-residual": (
        float, lambda q, out: extract_scaling_factor(out.clone_marginal(0), outer(bloch_ket(q))).residual
    ),
    "ppt_separable-verdict": (bool, lambda q, out: ppt_separable(out.pair_marginal(0, 1))[0]),
    "ppt_separable-min-eigenvalue": (float, lambda q, out: ppt_separable(out.pair_marginal(0, 1))[1]),
    "idle_qubit_check": (float, lambda q, out: idle_qubit_check(out, q)),
    "purity_xi_simulated": (float, lambda q, out: purity_xi_simulated(out)),
}
_Q_BATCH_OF_ONE = BlochQubit(np.array([1.0]), np.array([2.0]))
_OUT_BATCH_OF_ONE = uqcm_map(_Q_BATCH_OF_ONE)


@pytest.mark.parametrize("name", SCALAR_RESULTS)
def test_one_input_gives_a_python_number_and_a_batch_of_one_an_array(name):
    """The scalar contract of every functional: a single input gives a
    Python float (a bool for a verdict), and the same input as a batch of
    one gives an array of shape (1,) holding that value."""
    kind, fn = SCALAR_RESULTS[name]
    one, batch = fn(_Q, _OUT), fn(_Q_BATCH_OF_ONE, _OUT_BATCH_OF_ONE)
    assert type(one) is kind
    assert type(batch) is np.ndarray and batch.shape == (1,)
    assert batch[0] == one


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

    @pytest.mark.parametrize("grid", [(64.0, 64), (64, 64.0), (64.5, 64), ("64", 64), (64, None)])
    def test_grid_sizes_must_be_integers(self, grid):
        mean_fidelity(lambda q: DensityOperator(SubsystemLayout((2,)), np.eye(2) / 2))  # keeps (64, 64)
        with pytest.raises(ValueError, match="integers"):
            mean_fidelity(lambda q: None, *grid)

    def test_numpy_integer_grid_sizes(self):
        rho = DensityOperator(SubsystemLayout((2,)), np.eye(2) / 2)
        assert mean_fidelity(lambda q: rho, np.int64(16), np.int32(16)) == mean_fidelity(lambda q: rho, 16, 16)

    @staticmethod
    def _recorded(calls: list):
        def marginal(q):
            calls.append((q, bloch_ket(q)))
            return uqcm_map(q).clone_marginal(0)

        return marginal

    def test_repeated_grid_reuses_blocks_and_kets(self):
        first, second, cold = [], [], []
        mean_fidelity(self._recorded(first), 32, 32)
        warm = mean_fidelity(self._recorded(second), 32, 32)
        assert len(first) == len(second) == 4
        for (q1, ket1), (q2, ket2) in zip(first, second):
            assert q2 is q1 and ket2 is ket1
        analysis._kept_grid.cache_clear()
        assert mean_fidelity(self._recorded(cold), 32, 32) == warm  # bit for bit
        assert all(q is not q1 for (q, _), (q1, _) in zip(cold, first))

    def test_streamed_grid_matches_kept_grid(self, monkeypatch):
        kept = mean_fidelity(self._recorded([]), 32, 32)
        monkeypatch.setattr(analysis, "_KEPT_GRID", 0)
        calls = []
        assert mean_fidelity(self._recorded(calls), 32, 32) == kept  # bit for bit
        assert [q.theta.shape for q, _ in calls] == [(256,)] * 4

    def test_grid_above_the_bound_is_not_kept(self):
        rho = DensityOperator(SubsystemLayout((2,)), np.eye(2) / 2)
        analysis._kept_grid.cache_clear()
        mean_fidelity(lambda q: rho, 256, analysis._KEPT_GRID // 256)
        assert analysis._kept_grid.cache_info().currsize == 1
        analysis._kept_grid.cache_clear()
        blocks = []
        for _ in range(2):
            mean_fidelity(lambda q: blocks.append(q) or rho, 257, analysis._KEPT_GRID // 256)
        assert analysis._kept_grid.cache_info().currsize == 0
        assert len(blocks) == 2 * 257 and blocks[0] is not blocks[257]


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
        with pytest.raises(ValueError, match=r"conclusive only for a \(2, 2\) layout"):
            ppt_separable(rho)

    def test_batch_equals_scalar_calls_at_the_threshold(self):
        """Werner states p|Phi+><Phi+| + (1-p) I/4, turned by local unitaries,
        have smallest PT eigenvalue (1-3p)/4; these sit within 1e-10 of the
        threshold -1e-10 on both sides, plus one far on each side.  The batch
        gives bit for bit the verdicts and eigenvalues of one call each."""
        from qclone.linalg import StateVector
        from qclone.states import haar_random_ket

        targets = -1e-10 + np.array([-0.5, -1e-10, -1e-12, -1e-14, 1e-14, 1e-12, 1e-10, 0.5e-10, 0.1])
        p = (1.0 - 4.0 * targets) / 3.0
        phi = outer(StateVector(SubsystemLayout((2, 2)), np.array([1, 0, 0, 1]) / math.sqrt(2))).mat
        werner = p[:, None, None] * phi + (1.0 - p[:, None, None]) * np.eye(4) / 4.0
        # a local unitary U (x) V from the columns of two Haar kets and their orthogonal partners
        u = haar_random_ket(2, 31, count=len(targets)).amps
        v = haar_random_ket(2, 32, count=len(targets)).amps
        rot = [np.stack([a, [-np.conj(a[1]), np.conj(a[0])]], axis=1) for a in (*u, *v)]
        locals_ = np.stack([np.kron(rot[k], rot[len(targets) + k]) for k in range(len(targets))])
        mats = locals_ @ werner @ np.conj(locals_.swapaxes(-1, -2))
        batch = DensityOperator(SubsystemLayout((2, 2)), mats)
        sep, min_eig = ppt_separable(batch)
        scalar = [ppt_separable(DensityOperator(SubsystemLayout((2, 2)), m)) for m in mats]
        assert [(bool(s), float(w)) for s, w in zip(sep, min_eig)] == scalar
        assert all(type(s) is bool and type(w) is float for s, w in scalar)
        assert sep.tolist() == (targets >= -1e-10).tolist()
        np.testing.assert_allclose(min_eig, targets, rtol=0, atol=1e-15)


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
        with pytest.raises(ValueError, match="qubit copier wires only"):
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

    def test_refuses_a_pair_it_cannot_bracket(self, monkeypatch):
        """A register cloner whose pair reads separable at alpha^2 = 0.5
        leaves no bracket to search, and the search says so instead of
        narrowing one that holds no root."""
        monkeypatch.setattr(analysis, "register_clone", lambda method, alpha: register_pair_formula(method, 0.0 * alpha))
        with pytest.raises(ArithmeticError, match="cannot bracket"):
            inseparability_boundary("local")


def _recorded_search(monkeypatch, method, resolution):
    """Run the boundary search and return its interval and, call by call,
    the alpha^2 points it evaluated with the smallest PT eigenvalue at each."""
    calls = []

    def recording(m, alpha):
        rho = register_clone(m, alpha)
        calls.append((np.square(alpha), ppt_separable(rho)[1]))
        return rho

    monkeypatch.setattr(analysis, "register_clone", recording)
    return inseparability_boundary(method, resolution), calls


WINDOWS = {"local": LOCAL_WINDOW, "nonlocal": NONLOCAL_WINDOW}


#: The (lower, upper) alpha^2 points of each step after the bracket call,
#: as the search first evaluated them with its ends held in numpy arrays.
#: A search at 1e-8 stops after a prefix of these.
SEARCH_PATHS = {
    "local": [
        (0.12500000000000003, 0.875),
        (0.09678648564717894, 0.903213514352821),
        (0.11033555723563535, 0.8896644427643646),
        (0.10971531251060411, 0.8902846874893958),
        (0.10966241353233969, 0.8903375864676604),
        (0.10968762738927548, 0.8903123726107246),
        (0.10968762510028936, 0.8903123748997106),
        (0.10968762509991088, 0.8903123749000892),
        (0.10968762510010006, 0.8903123748999),
    ],
    "nonlocal": [
        (0.16666666666666666, 0.8333333333333334),
        (0.07453559924999299, 0.9254644007500069),
        (0.03464055172808773, 0.9653594482719124),
        (0.024942362089482716, 0.9750576379105171),
        (0.028803591646783436, 0.9711964083532164),
        (0.028602936230477695, 0.9713970637695223),
        (0.02858858556614456, 0.9714114144338555),
        (0.028595479699685348, 0.9714045203003147),
        (0.028595479209000626, 0.9714045207909993),
        (0.028595479208935987, 0.971404520791064),
    ],
}


@pytest.mark.parametrize(
    "method, resolution, calls",
    [("local", 1e-8, 9), ("local", 1e-12, 10), ("nonlocal", 1e-8, 11), ("nonlocal", 1e-12, 11)],
)
def test_search_path_is_pinned(monkeypatch, method, resolution, calls):
    """The search makes the same register_clone calls at the same points,
    each within 1e-15 (alpha^2 is read back as the square of the alpha
    evaluated)."""
    _, got = _recorded_search(monkeypatch, method, resolution)
    assert len(got) == calls
    np.testing.assert_allclose(got[0][0], [0.5, 0.0, 1.0], rtol=0, atol=1e-15)
    points = [alpha2 for alpha2, _ in got[1:]]
    np.testing.assert_allclose(points, SEARCH_PATHS[method][: calls - 1], rtol=0, atol=1e-15)


class TestIllinoisSearch:
    @pytest.mark.parametrize("method", ["local", "nonlocal"])
    @pytest.mark.parametrize("resolution", [1e-8, 1e-15])
    def test_lands_on_analytic_windows(self, method, resolution):
        iv = inseparability_boundary(method, resolution)
        np.testing.assert_allclose((iv.lower, iv.upper), WINDOWS[method], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("method", ["local", "nonlocal"])
    @pytest.mark.parametrize("resolution", [1e-8, 1e-3, 0.3, 2.0, 1e-12, 1e-15])
    def test_brackets_hold_the_sign_change(self, monkeypatch, method, resolution):
        """Each boundary is the midpoint of a bracket at most resolution/4
        wide: the nearest evaluated points on either side of the sign change
        of f.  alpha^2 is read back as the square of the alpha evaluated,
        a few units of roundoff (4e-16) off."""
        iv, calls = _recorded_search(monkeypatch, method, resolution)
        x = np.concatenate([a for a, _ in calls])
        f = np.concatenate([w for _, w in calls])
        sep, insep = f >= 0, f < 0
        brackets = [
            (x[sep & (x < 0.5)].max(), x[insep].min()),
            (x[sep & (x > 0.5)].min(), x[insep].max()),
        ]
        for (sep_end, insep_end), got in zip(brackets, (iv.lower, iv.upper)):
            assert abs(insep_end - sep_end) <= resolution / 4.0 + 4e-16
            assert got == pytest.approx(0.5 * (sep_end + insep_end), rel=0, abs=4e-16)

    @pytest.mark.parametrize("method", ["local", "nonlocal"])
    def test_call_sizes(self, monkeypatch, method):
        """One bracket call of three points, then steps of two, one point a
        search; at 1e-8 no method needs more than 12 calls."""
        _, calls = _recorded_search(monkeypatch, method, 1e-8)
        sizes = [a.size for a, _ in calls]
        assert sizes[0] == 3 and set(sizes[1:]) == {2}
        assert len(sizes) <= 12

    @pytest.mark.parametrize("method", ["local", "nonlocal"])
    def test_secant_outside_the_bracket_falls_back_to_the_midpoint(self, monkeypatch, method):
        """With f read as -5e-11 at alpha^2 = 0, still separable within
        the PPT tolerance, f has one sign over the lower search's first
        bracket, so its first secant point falls outside it.  The search
        takes the midpoint instead, and both boundaries, whose searches no
        longer advance alike, still land within resolution/8 of the
        analytic windows."""
        real = analysis.ppt_separable

        def zero_just_negative(rho):
            _, w = real(rho)
            mat = rho.mat.real
            at_zero = (mat[..., 0, 3] == 0) & (mat[..., 0, 0] < mat[..., 3, 3])  # no |00> weight
            w = np.where(at_zero, -5e-11, w)
            return w >= -TOL_SPECTRAL, w

        monkeypatch.setattr(analysis, "ppt_separable", zero_just_negative)
        iv = inseparability_boundary(method, 1e-8)
        np.testing.assert_allclose((iv.lower, iv.upper), WINDOWS[method], rtol=0, atol=1e-8 / 8)

    @pytest.mark.parametrize("method", ["local", "nonlocal"])
    def test_coarse_resolution_takes_one_call(self, monkeypatch, method):
        iv, calls = _recorded_search(monkeypatch, method, 2.0)
        assert len(calls) == 1
        assert (iv.lower, iv.upper) == (0.25, 0.75)


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
