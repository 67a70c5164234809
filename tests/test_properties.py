"""Property tests: invariants that must hold for every input, checked on
inputs hypothesis draws.  Derandomized, so every run sees the same inputs."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qclone import cloners
from qclone.analysis import (
    clone_pair_density_formula,
    extract_scaling_factor,
    mdim_formulas,
    mean_fidelity,
    ppt_separable,
    register_pair_formula,
    rho_a1b1_density_formula,
    scaling_factor_formula,
)
from qclone.cloners import gisin_massar_map, mdim_clone, mdim_coefficients, register_clone, uqcm_map
from qclone.linalg import (
    DensityOperator,
    HermitianMatrix,
    StateVector,
    SubsystemLayout,
    bures_distance,
    outer,
    partial_trace,
    partial_transpose,
    pure_fidelity,
    purity,
    reduced_density,
    sqrt_fidelity,
    tensor,
    von_neumann_entropy,
)
from qclone.network import Circuit, clone_via_network, cnot, rotation, run_circuit
from qclone.states import (
    BlochQubit,
    bloch_ket,
    haar_random_ket,
    prep_state,
    register_ket,
    symmetric_basis_ket,
)

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
    assert fit.residual <= 1e-9
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
        assert_scaled_form(out.clone_marginal(i), phi, mdim_formulas(phi.dim)[0])


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


@PROPERTY
@given(st.integers(1, 4), angle_batches)
@example(1, [(0.0, 0.0), (math.pi, 1.0)])
def test_batched_network_equals_scalar_calls(n, pairs):
    """Every element of a batch run through the gate network is the scalar
    run, bit for bit."""
    out = clone_via_network(batched(pairs), n).amps
    assert out.shape == (len(pairs), 2 ** (2 * n + 1))
    for k, (theta, phi) in enumerate(pairs):
        assert np.array_equal(out[k], clone_via_network(BlochQubit(theta, phi), n).amps)


def mdim_loop(amps: np.ndarray) -> np.ndarray:
    """The M-dimensional cloner written out from its basis action, one
    input at a time: |i> goes to c|ii>|X_i> + d sum_{j != i}
    (|ij> + |ji>)|X_j>."""
    m = amps.size
    c, d = mdim_coefficients(m)
    out = np.zeros((m, m, m), dtype=np.complex128)
    for i in range(m):
        out[i, i, i] += c * amps[i]
        for j in range(m):
            if j != i:
                out[i, j, j] += d * amps[i]
                out[j, i, j] += d * amps[i]
    return out.reshape(-1)


@st.composite
def ket_batches(draw, m):
    """(K, m) array of normalized kets, K in 1..8; some rows are basis
    states, whose exact zero amplitudes the cloner must keep zero."""
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    for row in draw(st.lists(st.integers(0, k - 1), max_size=k)):
        z[row] = np.eye(m)[draw(st.integers(0, m - 1))]
    return z


@PROPERTY
@given(st.integers(2, 16).flatmap(ket_batches))
def test_batched_mdim_clone_equals_scalar_calls(amps):
    """Every element of a batched mdim_clone is the scalar call and the
    basis-action loop, bit for bit."""
    layout = SubsystemLayout((amps.shape[1],))
    out = mdim_clone(StateVector(layout, amps)).joint.amps
    assert out.shape == (amps.shape[0], amps.shape[1] ** 3)
    for k, row in enumerate(amps):
        assert np.array_equal(out[k], mdim_clone(StateVector(layout, row)).joint.amps)
        assert np.array_equal(out[k], mdim_loop(row))


@PROPERTY
@given(st.sampled_from(["local", "nonlocal"]), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@example("local", [0.0, 1.0])
@example("nonlocal", [1.0, math.sqrt(0.5), 0.0])
def test_batched_register_clones_equal_scalar_calls(method, alphas):
    got = register_clone(method, np.array(alphas)).mat
    assert got.shape == (len(alphas), 4, 4)
    for k, alpha in enumerate(alphas):
        assert np.array_equal(got[k], register_clone(method, alpha).mat)


#: Per register cloner: its cached basis images, the wires of the copy it
#: returns and the wires of the copy that must equal it.
REGISTER_PAIRINGS = {
    "local": (cloners._local_register_isometry, [0, 4], [1, 3]),  # (a_0, b_1), (a_1, b_0)
    "nonlocal": (lambda: cloners._mdim_images(4), [0, 1], [2, 3]),  # copy a, copy b
}


@PROPERTY
@given(st.sampled_from(["local", "nonlocal"]), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@example("local", [0.0, 1.0, math.sqrt(0.5)])
@example("nonlocal", [0.0, 1.0, math.sqrt(0.5)])
def test_register_copies_agree(method, alphas):
    """Both copies in the joint output of a register cloner carry the same
    state within 1e-12, and the cloner returns the first.  The joint is
    rebuilt, and validated, from the register kets and the cached images."""
    images, returned, other = REGISTER_PAIRINGS[method]
    joint = StateVector(SubsystemLayout((2,) * 6), register_ket(np.array(alphas)).amps @ images())
    first = reduced_density(joint, returned).mat
    np.testing.assert_allclose(first, reduced_density(joint, other).mat, rtol=0, atol=1e-12)
    assert np.array_equal(register_clone(method, np.array(alphas)).mat, first)


@PROPERTY
@given(st.integers(1, 6), angle_batches, st.sampled_from(["local", "nonlocal"]),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_batched_closed_forms_equal_scalar_calls(n, pairs, method, alphas):
    q = batched(pairs)
    pair, a1b1 = clone_pair_density_formula(n, q).mat, rho_a1b1_density_formula(q).mat
    for k, (theta, phi) in enumerate(pairs):
        qk = BlochQubit(theta, phi)
        assert np.array_equal(pair[k], clone_pair_density_formula(n, qk).mat)
        assert np.array_equal(a1b1[k], rho_a1b1_density_formula(qk).mat)
    reg = register_pair_formula(method, np.array(alphas)).mat
    for k, alpha in enumerate(alphas):
        assert np.array_equal(reg[k], register_pair_formula(method, alpha).mat)


@st.composite
def density_pairs(draw):
    """Two (K, d, d) stacks of density operators, K in 1..6, d in 2..6; each
    element is either a drawn full-rank operator or a pure projector."""
    k, d = draw(st.integers(1, 6)), draw(st.integers(2, 6))

    def element():
        if draw(st.booleans()):
            return draw(densities(d))
        return outer(draw(states((d,)))).mat

    return tuple(np.stack([element() for _ in range(k)]) for _ in range(2))


@PROPERTY
@given(density_pairs())
def test_batched_root_fidelity_equals_scalar_calls(pair):
    layout = SubsystemLayout((pair[0].shape[-1],))
    rho1, rho2 = (DensityOperator(layout, mats) for mats in pair)
    f, b = sqrt_fidelity(rho1, rho2), bures_distance(rho1, rho2)
    for k in range(len(pair[0])):
        one1, one2 = DensityOperator(layout, pair[0][k]), DensityOperator(layout, pair[1][k])
        assert f[k] == sqrt_fidelity(one1, one2)
        assert b[k] == bures_distance(one1, one2)


@st.composite
def operator_batches(draw, dims=None):
    """DensityOperator holding K in 1..4 operators over ``dims``, or over
    one of a few layouts of up to three subsystems when ``dims`` is None;
    each element is either a drawn full-rank operator or a pure projector."""
    if dims is None:
        dims = draw(st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2)]))
    d = math.prod(dims)

    def element():
        if draw(st.booleans()):
            return draw(densities(d))
        return outer(draw(states((d,)))).mat

    return DensityOperator(SubsystemLayout(dims), np.stack([element() for _ in range(draw(st.integers(1, 4)))]))


def elements(batch):
    """The elements of a batched StateVector or DensityOperator, one call's
    argument each."""
    if isinstance(batch, StateVector):
        return [StateVector(batch.layout, amps) for amps in batch.amps]
    return [DensityOperator(batch.layout, mat) for mat in batch.mat]


@PROPERTY
@given(operator_batches())
def test_batched_purity_and_entropy_equal_scalar_calls(rho):
    p, s = purity(rho), von_neumann_entropy(rho)
    assert p.shape == s.shape == (len(rho.mat),)
    for k, one in enumerate(elements(rho)):
        assert p[k] == purity(one)
        assert s[k] == von_neumann_entropy(one)


@PROPERTY
@given(operator_batches(), st.data())
def test_batched_partial_trace_equals_scalar_calls(rho, data):
    n = len(rho.layout)
    keep = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    red = partial_trace(rho, keep)
    assert red.mat.shape[0] == len(rho.mat)
    for k, one in enumerate(elements(rho)):
        assert np.array_equal(red.mat[k], partial_trace(one, keep).mat)


@st.composite
def marginal_cases(draw):
    """(dims, keep, count, seed): a layout of up to 4,096 amplitudes, an
    ordered keep list and a batch size in 1..300."""
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=6)))
    assume(math.prod(dims) <= 4096)
    keep = draw(st.lists(st.integers(0, len(dims) - 1), min_size=1, max_size=len(dims), unique=True))
    return dims, keep, draw(st.integers(1, 300)), draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(marginal_cases())
@example(((2,) * 15, [7], 4, 0))  # one state wider than the product block
@example(((2,) * 15, [14, 0, 3], 3, 1))
@example(((3, 100, 100), [0], 3, 2))
@example(((2,) * 12, [11, 5, 0, 8], 100, 3))
@example(((2,) * 7, [0], 256, 4))  # one quadrature block of 1 -> 4 clones
@example(((2,) * 10, [4], 40, 5))  # one wire of a batch wider than the product block
def test_batched_marginal_equals_scalar_calls(case):
    """reduced_density of a batch is, bit for bit, the stack of its scalar
    calls, at any batch size and for states wider than one product block."""
    dims, keep, count, seed = case
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, math.prod(dims))) + 1j * rng.standard_normal((count, math.prod(dims)))
    psi = StateVector(SubsystemLayout(dims), z / np.linalg.norm(z, axis=1, keepdims=True))
    scalar = np.stack([reduced_density(one, keep).mat for one in elements(psi)])
    assert np.array_equal(reduced_density(psi, keep).mat, scalar)


@PROPERTY
@given(operator_batches((2, 2)))
def test_batched_ppt_separable_equals_scalar_calls(rho):
    sep, min_eig = ppt_separable(rho)
    assert sep.shape == min_eig.shape == (len(rho.mat),)
    for k, one in enumerate(elements(rho)):
        assert (bool(sep[k]), float(min_eig[k])) == ppt_separable(one)


@PROPERTY
@given(st.sampled_from(["states", "operators"]), st.sampled_from(["first", "second", "both"]), st.data())
def test_batched_tensor_equals_scalar_calls(kind, batched_in, data):
    """A batch in the first factor, the second or both: each element of the
    product is the scalar product, which is the Kronecker product."""
    k = data.draw(st.integers(1, 4))

    def factor(batch: bool):
        d = data.draw(st.integers(2, 3))
        count = k if batch else 1
        if kind == "states":
            amps = np.stack([data.draw(states((d,))).amps for _ in range(count)])
            return StateVector(SubsystemLayout((d,)), amps if batch else amps[0])
        mats = np.stack([data.draw(densities(d)) for _ in range(count)])
        return DensityOperator(SubsystemLayout((d,)), mats if batch else mats[0])

    a, b = factor(batched_in != "second"), factor(batched_in != "first")
    out = tensor(a, b)
    assert out.layout.dims == a.layout.dims + b.layout.dims
    firsts = elements(a) if batched_in != "second" else [a] * k
    seconds = elements(b) if batched_in != "first" else [b] * k
    for one, x, y in zip(elements(out), firsts, seconds, strict=True):
        scalar = tensor(x, y)
        if kind == "states":
            assert np.array_equal(one.amps, scalar.amps)
            assert np.array_equal(scalar.amps, np.kron(x.amps, y.amps))
        else:
            assert np.array_equal(one.mat, scalar.mat)
            assert np.array_equal(scalar.mat, np.kron(x.mat, y.mat))


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
@given(st.integers(16, 40), st.integers(16, 300))
@example(64, 64)
@example(17, 257)
def test_mean_fidelity_calls_once_per_block(n_cos, n_phi):
    """The callback gets blocks of whole grid rows in node order: at most
    256 inputs a call, or one row when a row alone is longer."""
    shapes, rows = [], []

    def marginal(q):
        shapes.append(q.theta.shape)
        rows.extend(zip(q.theta.reshape(-1, n_phi), q.phi.reshape(-1, n_phi)))
        return uqcm_map(q).clone_marginal(0)

    assert abs(mean_fidelity(marginal, n_cos, n_phi) - 5.0 / 6.0) <= 1e-12
    per_call = max(1, 256 // n_phi)
    assert shapes == [(min(per_call, n_cos - i) * n_phi,) for i in range(0, n_cos, per_call)]
    nodes, _ = np.polynomial.legendre.leggauss(n_cos)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    assert len(rows) == n_cos
    for (theta, phi), x in zip(rows, nodes):
        assert (theta == math.acos(x)).all()
        assert np.array_equal(phi, phis)


@PROPERTY
@given(densities(2))
def test_mean_fidelity_broadcasts_a_constant_operator(mat):
    # the sphere average of |psi><psi| is I/2, so every operator averages 1/2
    rho = DensityOperator(SubsystemLayout((2,)), mat)
    assert abs(mean_fidelity(lambda q: rho, 16, 16) - 0.5) <= 1e-12


# ------------------------------------------------------- trusted constructions


def assert_revalidates(x):
    """``x`` passes its public constructor's validation again, and its
    arrays are read-only complex128."""
    if isinstance(x, StateVector):
        StateVector(x.layout, x.amps)
        arr = x.amps
    elif isinstance(x, DensityOperator):
        DensityOperator(x.layout, x.mat)
        arr = x.mat
    else:
        HermitianMatrix(x.mat)
        arr = x.mat
    assert arr.dtype == np.complex128
    assert not arr.flags.writeable


@pytest.mark.parametrize("count", [None, 1, 4])
@PROPERTY
@given(st.data())
def test_trusted_constructions_pass_validation(count, data):
    """Every state or operator built without validation, from one input
    (``count`` None) or a batch of ``count``, is one validation accepts."""
    k = 1 if count is None else count
    pairs = data.draw(st.lists(angles, min_size=k, max_size=k))
    alphas = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    q, alpha = (BlochQubit(*pairs[0]), alphas[0]) if count is None else (batched(pairs), alphas)
    n = data.draw(st.integers(1, 3))
    m, width = data.draw(st.integers(2, 8)), data.draw(st.integers(2, 4))
    seed = data.draw(st.integers(0, 2**32 - 1))
    control, target = data.draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=2, unique=True))
    wires = StateVector(SubsystemLayout((2,) * width), haar_random_ket(2**width, seed, count).amps)

    ket, reg = bloch_ket(q), register_clone("nonlocal", alpha)
    gm = gisin_massar_map(q, n)
    pair = tensor(outer(ket), reg)
    outputs = [
        ket,
        register_ket(alpha),
        symmetric_basis_ket(n, data.draw(st.integers(0, n))),
        prep_state(n),
        haar_random_ket(m, seed, count),
        tensor(ket, register_ket(alpha)),
        pair,
        partial_trace(pair, data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))),
        reduced_density(gm.joint, data.draw(st.lists(st.integers(0, 2 * n), min_size=1, max_size=3, unique=True))),
        partial_transpose(reg, data.draw(st.integers(0, 1))),
        run_circuit(Circuit(width, (rotation(control, data.draw(st.floats(-math.pi, math.pi))),)), wires),
        run_circuit(Circuit(width, (cnot(control, target),)), wires),
        uqcm_map(q).joint,
        gm.joint,
        mdim_clone(haar_random_ket(m, seed, count)).joint,
        register_clone("local", alpha),
        reg,
    ]
    for x in outputs:
        assert_revalidates(x)


@PROPERTY
@given(st.floats(-0.99, 0.99), st.floats(0.0, 1.0), st.integers(2, 64), st.integers(2, 8))
def test_trusted_constructions_compound_edge_inputs(t, neg, d, d_square):
    """An input the constructor accepts at the edge of its tolerances gives
    derived objects whose error is the input error compounded, and no more:
    a product's trace is the product of the traces, and a marginal adds up
    the negative eigenvalues it traces out, which can take it past -1e-10.
    The tensor square is a dense (2d)^2 x (2d)^2 operator, so it is taken
    at a dimension of its own, d_square <= 8."""

    def edge_input(d):
        diag = np.empty((2, d))
        diag[0] = -neg * 1e-10
        diag[1] = (1.0 + t * 1e-12 + d * neg * 1e-10) / d
        return DensityOperator(SubsystemLayout((2, d)), np.diag(diag.reshape(-1)))

    square = edge_input(d_square)
    assert abs(np.trace(tensor(square, square).mat).real - (1.0 + t * 1e-12) ** 2) <= 1e-15
    rho = edge_input(d)
    low = np.linalg.eigvalsh(partial_trace(rho, [0]).mat)[0]
    assert abs(low + d * neg * 1e-10) <= 1e-15
    assert_revalidates(partial_trace(rho, [1]))
