"""Property tests: invariants that must hold for every input, checked on
inputs hypothesis draws.  Derandomized, so every run sees the same inputs."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qclone.analysis import (
    extract_scaling_factor,
    mdim_formulas,
    mean_fidelity,
    register_pair_formula,
    scaling_factor_formula,
)
from qclone.cloners import gisin_massar_map, mdim_clone, register_clone, uqcm_map
from qclone.linalg import (
    DensityOperator,
    HermitianMatrix,
    StateVector,
    SubsystemLayout,
    outer,
    partial_trace,
    pure_fidelity,
    reduced_density,
)
from qclone.states import BlochQubit, bloch_ket

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

thetas = st.floats(0.0, math.pi)
phis = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
parts = st.floats(-1.0, 1.0)


@st.composite
def states(draw, dims=None):
    """Normalized state over ``dims``, or over 1 to 3 subsystems of
    dimension 2 to 4 when ``dims`` is None."""
    if dims is None:
        dims = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    n = math.prod(dims)
    z = np.array(draw(st.lists(parts, min_size=n, max_size=n))) + 1j * np.array(
        draw(st.lists(parts, min_size=n, max_size=n))
    )
    norm = np.linalg.norm(z)
    assume(norm > 1e-3)
    return StateVector(SubsystemLayout(dims), z / norm)


@st.composite
def densities(draw, d=None):
    """Full-rank density operator of dimension ``d``, or of 2 to 8 when
    ``d`` is None, with a drawn spectrum."""
    if d is None:
        d = draw(st.integers(2, 8))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return (u * (w / w.sum())) @ u.conj().T


@PROPERTY
@given(states(), st.data())
def test_marginals_are_density_operators(psi, data):
    k = len(psi.layout)
    keep = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    rho = reduced_density(psi, sorted(keep)).mat
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    np.testing.assert_allclose(rho, partial_trace(outer(psi), keep).mat, rtol=0, atol=1e-12)


def assert_scaled_form(marg, psi, s):
    fit = extract_scaling_factor(marg, outer(psi))
    assert fit.fits
    assert abs(fit.s - s) <= 1e-10


@PROPERTY
@given(thetas, phis)
@example(0.0, 0.0)
@example(math.pi, 1.0)
def test_uqcm_clones_fit_scaled_form(theta, phi):
    q = BlochQubit(theta, phi)
    out = uqcm_map(q)
    for i in range(2):
        assert_scaled_form(out.clone_marginal(i), bloch_ket(q), scaling_factor_formula(1))


@PROPERTY
@given(st.integers(1, 4), thetas, phis)
@example(1, 0.0, 0.0)
@example(4, math.pi, 3.0)
def test_gm_clones_fit_scaled_form(n, theta, phi):
    q = BlochQubit(theta, phi)
    out = gisin_massar_map(q, n)
    for i in range(n + 1):
        assert_scaled_form(out.clone_marginal(i), bloch_ket(q), scaling_factor_formula(n))


@PROPERTY
@given(st.integers(2, 8).flatmap(lambda m: states((m,))))
def test_mdim_clones_fit_scaled_form(phi):
    out = mdim_clone(phi)
    for i in range(2):
        assert_scaled_form(out.clone_marginal(i), phi, mdim_formulas(phi.dim).scaling)


@PROPERTY
@given(st.sampled_from(["local", "nonlocal"]), st.floats(0.0, 1.0))
@example("local", 0.0)
@example("nonlocal", 1.0)
def test_register_clone_matches_formula(method, alpha):
    np.testing.assert_allclose(
        register_clone(method, alpha).mat, register_pair_formula(method, alpha).mat, rtol=0, atol=1e-12
    )


non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@PROPERTY
@given(states(), non_finite, st.data())
def test_state_rejects_non_finite(psi, bad, data):
    amps = psi.amps.copy()
    amps[data.draw(st.integers(0, amps.size - 1))] = bad
    with pytest.raises(ValueError):
        StateVector(psi.layout, amps)


@PROPERTY
@given(densities(), non_finite, st.data())
def test_matrices_reject_non_finite(rho, bad, data):
    d = rho.shape[0]
    i, j = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
    rho[i, j] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        DensityOperator(SubsystemLayout((d,)), rho)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        HermitianMatrix(rho)


@PROPERTY
@given(densities(), st.floats(1e-9, 0.1), st.data())
def test_matrices_reject_non_hermitian(rho, eps, data):
    d = rho.shape[0]
    i = data.draw(st.integers(0, d - 2))
    rho[i, i + 1] += eps
    with pytest.raises(ValueError):
        DensityOperator(SubsystemLayout((d,)), rho)
    with pytest.raises(ValueError):
        HermitianMatrix(rho)


@PROPERTY
@given(densities(), st.floats(1e-6, 0.5))
def test_density_rejects_negative_eigenvalue(rho, neg):
    d = rho.shape[0]
    w, v = np.linalg.eigh(rho)
    w[0] = -neg
    w[1:] *= (1.0 + neg) / w[1:].sum()
    with pytest.raises(ValueError):
        DensityOperator(SubsystemLayout((d,)), (v * w) @ v.conj().T)


# ------------------------------------------------------------------ batches

angles = st.tuples(st.one_of(st.sampled_from([0.0, math.pi]), thetas), phis)
angle_batches = st.lists(angles, min_size=1, max_size=8)


def batched(pairs):
    theta, phi = zip(*pairs)
    return BlochQubit(np.array(theta), np.array(phi))


@PROPERTY
@given(st.integers(0, 4), angle_batches)
@example(0, [(0.0, 0.0), (math.pi, 1.0)])
@example(4, [(math.pi, 0.0)])
def test_batched_clones_equal_scalar_clones(n, pairs):
    """Every element of a batched cloner (n = 0 is uqcm_map, else the
    1 -> n+1 cloner) and of pure_fidelity is the scalar call, bit for bit."""
    def clone(q):
        return uqcm_map(q) if n == 0 else gisin_massar_map(q, n)

    q = batched(pairs)
    out = clone(q)
    kets = bloch_ket(q)
    marginals = [out.clone_marginal(i) for i in range(out.clone_count)]
    fids = pure_fidelity(kets, marginals[0])
    assert fids.shape == (len(pairs),)
    for k, (theta, phi) in enumerate(pairs):
        qk = BlochQubit(theta, phi)
        one = clone(qk)
        assert np.array_equal(out.joint.amps[k], one.joint.amps)
        assert np.array_equal(kets.amps[k], bloch_ket(qk).amps)
        for i, marg in enumerate(marginals):
            assert np.array_equal(marg.mat[k], one.clone_marginal(i).mat)
        assert fids[k] == pure_fidelity(bloch_ket(qk), one.clone_marginal(0))


@st.composite
def state_batches(draw):
    """(K, D) array of normalized states, K in 2..8, D in 2..8."""
    k, d = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@PROPERTY
@given(state_batches(), st.sampled_from(["norm", "nan"]), st.data())
def test_state_batch_rejects_one_bad_row(amps, fault, data):
    layout = SubsystemLayout((amps.shape[1],))
    StateVector(layout, amps)  # the clean batch is accepted
    k = data.draw(st.integers(0, amps.shape[0] - 1))
    if fault == "norm":
        amps[k] *= 1.0 + data.draw(st.floats(1e-9, 0.5))
    else:
        amps[k, data.draw(st.integers(0, amps.shape[1] - 1))] = math.nan
    with pytest.raises(ValueError):
        StateVector(layout, amps)


@st.composite
def density_batches(draw):
    """(K, d, d) array of density operators, K in 2..8, d in 2..8."""
    k = draw(st.integers(2, 8))
    d = draw(st.integers(2, 8))
    return np.stack([draw(densities(d)) for _ in range(k)])


@PROPERTY
@given(density_batches(), st.sampled_from(["nan", "hermitian", "trace", "negative"]), st.data())
def test_density_batch_rejects_one_bad_element(mats, fault, data):
    d = mats.shape[1]
    layout = SubsystemLayout((d,))
    DensityOperator(layout, mats)  # the clean batch is accepted
    k = data.draw(st.integers(0, mats.shape[0] - 1))
    if fault == "nan":
        mats[k, 0, d - 1] = math.nan
    elif fault == "hermitian":
        mats[k, 0, 1] += data.draw(st.floats(1e-9, 0.1))
    elif fault == "trace":
        mats[k] *= 1.0 + data.draw(st.floats(1e-9, 0.5))
    else:
        neg = data.draw(st.floats(1e-6, 0.5))
        w, v = np.linalg.eigh(mats[k])
        w[0] = -neg
        w[1:] *= (1.0 + neg) / w[1:].sum()
        mats[k] = (v * w) @ v.conj().T
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        DensityOperator(layout, mats)


@PROPERTY
@given(
    angle_batches,
    st.sampled_from(["theta", "phi"]),
    st.one_of(st.floats(-4.0, -1e-9), st.floats(2.0 * math.pi, 10.0), st.just(math.nan)),
    st.data(),
)
def test_bloch_batch_rejects_one_bad_angle(pairs, which, bad, data):
    theta, phi = (np.array(x) for x in zip(*pairs))
    BlochQubit(theta, phi)  # the clean batch is accepted
    (theta if which == "theta" else phi)[data.draw(st.integers(0, len(pairs) - 1))] = bad
    with pytest.raises(ValueError):
        BlochQubit(theta, phi)


@PROPERTY
@given(st.integers(16, 40), st.integers(16, 40))
def test_mean_fidelity_calls_once_per_row(n_cos, n_phi):
    shapes = []

    def marginal(q):
        shapes.append(q.theta.shape)
        return uqcm_map(q).clone_marginal(0)

    assert abs(mean_fidelity(marginal, n_cos, n_phi) - 5.0 / 6.0) <= 1e-12
    assert shapes == [(n_phi,)] * n_cos


@PROPERTY
@given(densities(2))
def test_mean_fidelity_broadcasts_a_constant_operator(mat):
    # the sphere average of |psi><psi| is I/2, so every operator averages 1/2
    rho = DensityOperator(SubsystemLayout((2,)), mat)
    assert abs(mean_fidelity(lambda q: rho, 16, 16) - 0.5) <= 1e-12
