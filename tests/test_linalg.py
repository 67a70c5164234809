import math

import numpy as np
import pytest

from qclone.linalg import (
    DensityOperator,
    HermitianMatrix,
    StateVector,
    SubsystemLayout,
    _psd_sqrt,
    bures_distance,
    hermitian_eigenvalues,
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
from qclone.states import symmetric_basis_ket

BELL = StateVector(SubsystemLayout((2, 2)), np.array([1, 0, 0, 1]) / math.sqrt(2))


def ghz(n):
    amps = np.zeros(2**n)
    amps[0] = amps[-1] = 1 / math.sqrt(2)
    return StateVector(SubsystemLayout((2,) * n), amps)


class TestLayout:
    def test_basic(self):
        lay = SubsystemLayout((2, 3, 4))
        assert lay.total == 24
        assert len(lay) == 3
        # numpy integers pass and become Python ints
        lay = SubsystemLayout((np.int64(2), np.int32(3)))
        assert lay.dims == (2, 3) and all(type(d) is int for d in lay.dims)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SubsystemLayout((2, 0))
        with pytest.raises(ValueError):
            SubsystemLayout(())

    @pytest.mark.parametrize("bad", [2.7, 2.0, "2"])
    def test_rejects_non_integer_dims(self, bad):
        with pytest.raises(ValueError, match=repr(bad)):
            SubsystemLayout((bad, 3))


class TestStateVector:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            StateVector(SubsystemLayout((2,)), [1.0, 1.0])

    def test_size_must_match_layout(self):
        with pytest.raises(ValueError):
            StateVector(SubsystemLayout((2, 2)), [1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            StateVector(SubsystemLayout((2,)), [bad, 0.0])

    def test_accepts_and_freezes(self):
        psi = StateVector(SubsystemLayout((2,)), [1.0, 0.0])
        assert psi.dim == 2
        with pytest.raises(ValueError):
            psi.amps[0] = 0.5


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError):
            DensityOperator(SubsystemLayout((2,)), mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(SubsystemLayout((2,)), np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        mat = np.array([[0.5, 0.6], [0.6, 0.5]])  # eigenvalues -0.1 and 1.1
        with pytest.raises(ValueError):
            DensityOperator(SubsystemLayout((2,)), mat)

    def test_rejects_all_nan(self):
        with pytest.raises(ValueError, match="finite"):
            DensityOperator(SubsystemLayout((2,)), np.full((2, 2), math.nan))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    def test_rejects_inf_entry(self):
        mat = np.array([[math.inf, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            DensityOperator(SubsystemLayout((2,)), mat)

    def test_accepts_psd_outside_gershgorin(self):
        # every row violates diagonal dominance, yet the matrix is PSD
        psi = StateVector(SubsystemLayout((2, 2)), np.full(4, 0.5))
        rho = outer(psi)
        assert rho.dim == 4
        np.testing.assert_allclose(np.trace(rho.mat).real, 1.0, rtol=0, atol=1e-14)


def test_tensor_states_and_operators():
    zero = StateVector(SubsystemLayout((2,)), [1, 0])
    one = StateVector(SubsystemLayout((2,)), [0, 1])
    both = tensor(zero, one)
    np.testing.assert_allclose(both.amps, [0, 1, 0, 0], rtol=0, atol=0)
    assert both.layout.dims == (2, 2)

    rho = tensor(outer(zero), outer(one))
    np.testing.assert_allclose(rho.mat, np.diag([0.0, 1.0, 0.0, 0.0]), rtol=0, atol=0)

    with pytest.raises(TypeError):
        tensor(zero, outer(one))


def test_outer_is_pure():
    rho = outer(BELL)
    np.testing.assert_allclose(purity(rho), 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(von_neumann_entropy(rho), 0.0, rtol=0, atol=1e-12)


def test_partial_trace_matches_reduced_density():
    rng = np.random.default_rng(42)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi = StateVector(SubsystemLayout((2, 2, 2)), amps / np.linalg.norm(amps))
    rho = outer(psi)
    for keep in ([0], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]):
        a = partial_trace(rho, keep)
        b = reduced_density(psi, keep)
        np.testing.assert_allclose(a.mat, b.mat, rtol=0, atol=1e-13)
        assert a.layout.dims == tuple(psi.layout.dims[i] for i in keep)


def random_states(dims, count, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, math.prod(dims))) + 1j * rng.standard_normal((count, math.prod(dims)))
    return StateVector(SubsystemLayout(dims), z / np.linalg.norm(z, axis=1, keepdims=True))


@pytest.mark.parametrize("n", range(1, 15))
def test_qubit_marginal_matches_partial_trace(n):
    """Every one-wire marginal of 2 to 2**14 amplitudes, kept by dot
    products, is the partial trace of the projector within 1e-14.  Past
    2**10 amplitudes the projector would take over 16 MB (4 GB at 2**14),
    so the reference there is the partial trace of the two-wire marginal,
    which the blocked product computes, with the kept wire first."""
    psi = random_states((2,) * n, 3, n)
    for w in range(n):
        got = reduced_density(psi, [w])
        assert got.layout.dims == (2,) and got.mat.shape == (3, 2, 2)
        if n <= 10:
            ref = partial_trace(outer(psi), [w])
        else:
            ref = partial_trace(reduced_density(psi, [w, (w + 1) % n]), [0])
        np.testing.assert_allclose(got.mat, ref.mat, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dims, w", [((3, 2, 5), 1), ((2, 3), 0), ((4, 3, 2), 2), ((2, 7, 2, 3), 2)])
def test_qubit_marginal_among_qudits(dims, w):
    psi = random_states(dims, 4, w)
    np.testing.assert_allclose(reduced_density(psi, [w]).mat, partial_trace(outer(psi), [w]).mat, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 3, 7, 12])
def test_qubit_marginal_is_hermitian(n):
    psi = random_states((2,) * n, 5, 100 + n)
    for w in range(n):
        mat = reduced_density(psi, [w]).mat
        np.testing.assert_allclose(mat, mat.conj().swapaxes(-1, -2), rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.trace(mat, axis1=-2, axis2=-1), 1.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("n", range(2, 13))
def test_qubit_marginal_construction(n, count):
    """On every wire, the last one included (the transpose leaves its rows
    strided), entry (0, 1) is the conjugate of entry (1, 0) bit for bit, and
    each element of a batch is its scalar call bit for bit."""
    psi = random_states((2,) * n, count, 200 + n)
    for w in range(n):
        mat = reduced_density(psi, [w]).mat
        assert mat[:, 0, 1].tobytes() == mat[:, 1, 0].conj().tobytes()
        for k in range(count):
            one = reduced_density(StateVector(psi.layout, psi.amps[k]), [w]).mat
            assert mat[k].tobytes() == one.tobytes()


def test_qubit_marginal_reduces_three_rows_of_products(monkeypatch):
    """A qubit marginal of K states, each split into two rows of L
    amplitudes, reduces 3 K L products: two norms and one overlap per state.
    The fourth entry is the overlap's conjugate, not a fourth product."""
    count, n = 5, 7
    psi = random_states((2,) * n, count, 17)
    products = []
    real = np.vecdot

    def counting(x1, x2, /, **kwargs):
        products.append(math.prod(np.broadcast_shapes(np.shape(x1), np.shape(x2))))
        return real(x1, x2, **kwargs)

    monkeypatch.setattr(np, "vecdot", counting)
    for w in (0, n - 1):
        products.clear()
        reduced_density(psi, [w])
        assert sum(products) == 3 * count * 2 ** (n - 1)


def test_reduced_density_keep_order_is_significant():
    rng = np.random.default_rng(7)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi = StateVector(SubsystemLayout((2, 2, 2)), amps / np.linalg.norm(amps))
    fwd = reduced_density(psi, [0, 1]).mat
    rev = reduced_density(psi, [1, 0]).mat
    swap = fwd.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    np.testing.assert_allclose(rev, swap, rtol=0, atol=1e-14)


def test_derived_layouts_are_not_validated_again(monkeypatch):
    """A marginal or a product of validated objects takes its layout from
    dimensions already checked: only the subsystem indices pass through
    ``_size``, once each, and the layout equals a validated one."""
    from qclone import linalg

    psi = random_states((2, 3, 4), 2, 5)
    rho = outer(psi)
    want = [SubsystemLayout((4, 2)), SubsystemLayout((3,)), SubsystemLayout((2, 3, 4, 2, 3, 4))]
    calls = []
    real = linalg._size
    monkeypatch.setattr(linalg, "_size", lambda value, *rule: calls.append(value) or real(value, *rule))
    layouts = [reduced_density(psi, [2, 0]).layout]
    assert calls == [2, 0]
    layouts.append(partial_trace(rho, [1]).layout)
    assert calls == [2, 0, 1]
    layouts += [tensor(psi, psi).layout, tensor(rho, rho).layout]
    assert calls == [2, 0, 1]
    assert layouts == want + want[-1:]


def test_partial_trace_bell_is_maximally_mixed():
    rho = partial_trace(outer(BELL), [0])
    np.testing.assert_allclose(rho.mat, np.eye(2) / 2, rtol=0, atol=1e-14)
    np.testing.assert_allclose(von_neumann_entropy(rho), math.log(2), rtol=0, atol=1e-12)


def test_partial_trace_validates_subsystems():
    rho = outer(BELL)
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [0, 0])
    with pytest.raises(ValueError):
        partial_trace(rho, [2])


def test_partial_transpose_bell():
    rho = outer(BELL)
    pt = partial_transpose(rho, 1)
    assert isinstance(pt, HermitianMatrix)
    expected = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    expected[1, 2] = expected[2, 1] = 0.5
    np.testing.assert_allclose(pt.mat, expected, rtol=0, atol=1e-15)
    w = hermitian_eigenvalues(pt)
    np.testing.assert_allclose(w, [-0.5, 0.5, 0.5, 0.5], rtol=0, atol=1e-12)


def test_partial_transpose_of_product_state_stays_psd():
    zero = StateVector(SubsystemLayout((2,)), [1, 0])
    plus = StateVector(SubsystemLayout((2,)), np.array([1, 1]) / math.sqrt(2))
    rho = tensor(outer(zero), outer(plus))
    w = hermitian_eigenvalues(partial_transpose(rho, 1))
    assert w[0] >= -1e-13


def test_entropy_and_purity_extremes():
    mixed = DensityOperator(SubsystemLayout((4,)), np.eye(4) / 4)
    np.testing.assert_allclose(von_neumann_entropy(mixed), math.log(4), rtol=0, atol=1e-12)
    np.testing.assert_allclose(purity(mixed), 0.25, rtol=0, atol=1e-14)


def test_sqrt_fidelity_pure_shortcut():
    """Against a pure state the root fidelity is sqrt(<psi|rho|psi>)."""
    rng = np.random.default_rng(11)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = StateVector(SubsystemLayout((4,)), amps / np.linalg.norm(amps))
    mat = 0.6 * outer(psi).mat + 0.1 * np.eye(4)
    rho = DensityOperator(SubsystemLayout((4,)), mat)
    expect = math.sqrt(float(np.vdot(psi.amps, rho.mat @ psi.amps).real))
    np.testing.assert_allclose(sqrt_fidelity(rho, outer(psi)), expect, rtol=0, atol=1e-12)
    np.testing.assert_allclose(sqrt_fidelity(outer(psi), rho), expect, rtol=0, atol=1e-12)


def test_pure_fidelity_is_squared_root_fidelity():
    rng = np.random.default_rng(12)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = DensityOperator(SubsystemLayout((4,)), g @ g.conj().T / np.trace(g @ g.conj().T).real)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = StateVector(SubsystemLayout((4,)), amps / np.linalg.norm(amps))
    np.testing.assert_allclose(pure_fidelity(psi, rho), sqrt_fidelity(rho, outer(psi)) ** 2, rtol=0, atol=1e-12)


def test_sqrt_fidelity_pure_pure_is_overlap():
    zero = outer(StateVector(SubsystemLayout((2,)), [1, 0]))
    plus = outer(StateVector(SubsystemLayout((2,)), np.array([1, 1]) / math.sqrt(2)))
    np.testing.assert_allclose(sqrt_fidelity(zero, plus), 1 / math.sqrt(2), rtol=0, atol=1e-12)
    np.testing.assert_allclose(sqrt_fidelity(zero, zero), 1.0, rtol=0, atol=1e-12)


def test_bures_distance_extremes():
    zero = outer(StateVector(SubsystemLayout((2,)), [1, 0]))
    one = outer(StateVector(SubsystemLayout((2,)), [0, 1]))
    np.testing.assert_allclose(bures_distance(zero, zero), 0.0, rtol=0, atol=1e-7)
    np.testing.assert_allclose(bures_distance(zero, one), math.sqrt(2), rtol=0, atol=1e-12)


def test_batched_marginals_and_fidelities():
    amps = np.stack([BELL.amps, np.array([0, 1, 0, 0]), np.array([0, 0, 1, 0])])
    batch = StateVector(SubsystemLayout((2, 2)), amps)
    assert batch.amps.shape == (3, 4) and batch.dim == 4
    marg = reduced_density(batch, [0])
    assert marg.mat.shape == (3, 2, 2)
    np.testing.assert_allclose(marg.mat[2], [[0, 0], [0, 1]], atol=1e-15)
    for k in range(3):
        one = StateVector(batch.layout, amps[k])
        np.testing.assert_array_equal(marg.mat[k], reduced_density(one, [0]).mat)
    zero = StateVector(SubsystemLayout((2,)), [1, 0])
    kets = StateVector(SubsystemLayout((2,)), [[1, 0], [0, 1], [1, 0]])
    np.testing.assert_allclose(pure_fidelity(kets, marg), [0.5, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(pure_fidelity(zero, marg), [0.5, 1.0, 0.0], atol=1e-15)
    pure = reduced_density(StateVector(batch.layout, amps[1]), [0])
    np.testing.assert_allclose(pure_fidelity(kets, pure), [1.0, 0.0, 1.0], atol=1e-15)
    assert isinstance(pure_fidelity(zero, pure), float)


def test_single_operator_functions_take_batches():
    """purity, von_neumann_entropy, tensor and partial_trace carry a batch:
    a maximally mixed qubit, |0><0| and |1><1|."""
    layout = SubsystemLayout((2,))
    rho = DensityOperator(layout, np.stack([np.eye(2) / 2, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    np.testing.assert_allclose(purity(rho), [0.5, 1.0, 1.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(von_neumann_entropy(rho), [math.log(2), 0.0, 0.0], rtol=0, atol=1e-15)
    pair = tensor(rho, rho)
    assert pair.layout.dims == (2, 2) and pair.mat.shape == (3, 4, 4)
    np.testing.assert_array_equal(pair.mat[1], np.diag([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_array_equal(partial_trace(pair, [1]).mat, rho.mat)
    kets = StateVector(layout, np.eye(2))
    np.testing.assert_array_equal(tensor(kets, kets).amps, [[1, 0, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError):
        StateVector(layout, np.zeros((0, 2)))


def test_batched_root_fidelity_equals_scalar_calls():
    """Each element of a batched sqrt_fidelity or bures_distance is the
    scalar call.  The second element has an eigenvalue of 5e-14: above the
    1e-13 cut of its own spectrum (largest eigenvalue 1/3) but below the cut
    a pure element (largest eigenvalue 1) would set if the cut were pooled
    over the batch."""
    layout = SubsystemLayout((4,))
    pure = np.zeros((4, 4))
    pure[0, 0] = 1.0
    tiny = 5e-14
    mixed = np.diag([(1 - tiny) / 3] * 3 + [tiny])
    rho1 = DensityOperator(layout, np.stack([pure, mixed]))
    rho2 = DensityOperator(layout, np.stack([pure, np.eye(4) / 4]))
    f, b = sqrt_fidelity(rho1, rho2), bures_distance(rho1, rho2)
    assert f.shape == b.shape == (2,)
    for k in range(2):
        one1, one2 = DensityOperator(layout, rho1.mat[k]), DensityOperator(layout, rho2.mat[k])
        assert f[k] == sqrt_fidelity(one1, one2)
        assert b[k] == bures_distance(one1, one2)
    # sqrt(tiny/4) is kept: it sits far above roundoff in the root fidelity
    expect = 3 * math.sqrt((1 - tiny) / 12) + math.sqrt(tiny / 4)
    np.testing.assert_allclose(f[1], expect, rtol=0, atol=1e-12)
    # a single operator pairs with every element of a batch
    against_pure = sqrt_fidelity(rho1, DensityOperator(layout, pure))
    np.testing.assert_allclose(against_pure, [1.0, math.sqrt((1 - tiny) / 3)], rtol=0, atol=1e-12)
    assert isinstance(sqrt_fidelity(DensityOperator(layout, pure), DensityOperator(layout, mixed)), float)


def _seeded_densities_and_kets(d, count, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    mat = g @ g.conj().swapaxes(-1, -2)
    mat /= np.trace(mat, axis1=-2, axis2=-1).real[:, None, None]
    amps = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    layout = SubsystemLayout((d,))
    return DensityOperator(layout, mat), StateVector(layout, amps)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_root_fidelity_against_ket_equals_general_path(d):
    """A pure StateVector as the second argument gives what its projector
    gives through the two eigensolves: the root fidelity within 1e-12, and
    the Bures distance as its square, since Bures amplifies near F = 1."""
    rho, kets = _seeded_densities_and_kets(d, 6, 40 + d)
    # the last pair sits near F = 1, where the general path's error peaks
    near = 0.999 * outer(StateVector(kets.layout, kets.amps[-1])).mat + 0.001 * np.eye(d) / d
    rho = DensityOperator(rho.layout, np.concatenate([rho.mat[:-1], near[None]]))
    np.testing.assert_allclose(sqrt_fidelity(rho, kets), sqrt_fidelity(rho, outer(kets)), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        bures_distance(rho, kets) ** 2, bures_distance(rho, outer(kets)) ** 2, rtol=0, atol=1e-12
    )


def test_root_fidelity_against_ket_pairs_batches():
    """One ket with a batch of operators, a batch of kets with one operator,
    and two equal batches; each element is its scalar call bit for bit."""
    rho, kets = _seeded_densities_and_kets(3, 4, 7)
    rhos = [DensityOperator(rho.layout, mat) for mat in rho.mat]
    psis = [StateVector(kets.layout, amps) for amps in kets.amps]
    for fn in (sqrt_fidelity, bures_distance):
        assert isinstance(fn(rhos[0], psis[0]), float)
        np.testing.assert_array_equal(fn(rho, psis[0]), [fn(r, psis[0]) for r in rhos])
        np.testing.assert_array_equal(fn(rhos[0], kets), [fn(rhos[0], p) for p in psis])
        np.testing.assert_array_equal(fn(rho, kets), [fn(r, p) for r, p in zip(rhos, psis)])


def test_root_fidelity_against_ket_in_kernel():
    """A ket in the kernel of the operator gives a root fidelity of exactly
    0 and a Bures distance of exactly sqrt(2), also where <psi|rho|psi>
    comes out negative: an eigenvalue of -1e-11 is within a density
    operator's tolerance."""
    layout = SubsystemLayout((2,))
    rho = DensityOperator(layout, np.stack([np.diag([1.0, 0.0]), np.diag([1.0 + 1e-11, -1e-11])]))
    one = StateVector(layout, [0, 1])
    assert pure_fidelity(one, rho)[1] < 0.0
    np.testing.assert_array_equal(sqrt_fidelity(rho, one), [0.0, 0.0])
    np.testing.assert_array_equal(bures_distance(rho, one), [math.sqrt(2)] * 2)


def test_root_fidelity_rejects_ket_of_wrong_dimension():
    rho = DensityOperator(SubsystemLayout((2,)), np.eye(2) / 2)
    psi = StateVector(SubsystemLayout((3,)), [1, 0, 0])
    for fn in (sqrt_fidelity, bures_distance):
        with pytest.raises(ValueError, match="mismatched dimensions"):
            fn(rho, psi)


def test_batched_partial_transpose_spectra():
    amps = np.stack([BELL.amps, np.array([0, 1, 0, 0]), np.array([0.6, 0, 0, 0.8])])
    rho = outer(StateVector(SubsystemLayout((2, 2)), amps))
    assert rho.mat.shape == (3, 4, 4)
    w = hermitian_eigenvalues(partial_transpose(rho, 1))
    assert w.shape == (3, 4)
    for k in range(3):
        one = outer(StateVector(rho.layout, amps[k]))
        np.testing.assert_array_equal(rho.mat[k], one.mat)
        np.testing.assert_array_equal(w[k], hermitian_eigenvalues(partial_transpose(one, 1)))
    np.testing.assert_allclose(w[0], [-0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_ghz_reduction_via_state_vector():
    """reduced_density avoids the full density matrix, so large registers work."""
    psi = ghz(14)
    rho = reduced_density(psi, [0, 13])
    np.testing.assert_allclose(np.diag(rho.mat).real, [0.5, 0, 0, 0.5], rtol=0, atol=1e-14)
    np.testing.assert_allclose(rho.mat[0, 3], 0.0, rtol=0, atol=1e-14)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


class TestEigensolver:
    """The contract every spectral quantity relies on."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32])
    def test_known_spectrum(self, n):
        """A spectrum planted by a random unitary (QR, not an eigensolver) comes back."""
        rng = np.random.default_rng(10 * n)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        w = np.sort(rng.standard_normal(n))
        mat = (u * w) @ u.conj().T
        mat = (mat + mat.conj().T) / 2
        np.testing.assert_allclose(hermitian_eigenvalues(mat), w, rtol=0, atol=1e-12 * max(1.0, abs(w).max()))

    def test_degenerate_identity(self):
        np.testing.assert_allclose(hermitian_eigenvalues(np.eye(4)), np.ones(4), rtol=0, atol=1e-15)

    def test_diagonal_with_negative_entry(self):
        w = hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(w, [-1.0, 2.0, 3.0], rtol=0, atol=1e-15)

    def test_dicke_projector_is_rank_one(self):
        rho = outer(symmetric_basis_ket(3, 1))
        w = hermitian_eigenvalues(rho)
        np.testing.assert_allclose(w, [0.0] * 7 + [1.0], rtol=0, atol=1e-14)

    def test_ascending(self):
        mat = random_hermitian(9, seed=5)
        w = hermitian_eigenvalues(mat)
        assert list(w) == sorted(w)
        np.testing.assert_allclose(w.sum(), np.trace(mat).real, rtol=0, atol=1e-12)

    def test_psd_sqrt_reconstructs(self):
        """sqrt(m) @ sqrt(m) == m needs both V diag(w) V^+ == m and V^+ V == 1."""
        g = random_hermitian(12, seed=3)
        m = g @ g.conj().T
        root = _psd_sqrt(m)
        np.testing.assert_allclose(root, root.conj().T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(root @ root, m, rtol=0, atol=1e-11 * np.abs(m).max())

    def test_rejects_non_square(self):
        for fn in (hermitian_eigenvalues, von_neumann_entropy, purity):
            with pytest.raises(ValueError, match="square"):
                fn(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        for fn in (hermitian_eigenvalues, von_neumann_entropy, purity):
            with pytest.raises(ValueError, match="Hermitian"):
                fn(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nan(self):
        for fn in (hermitian_eigenvalues, von_neumann_entropy, purity, HermitianMatrix):
            with pytest.raises(ValueError, match="finite"):
                fn(np.full((2, 2), math.nan))
        with pytest.raises(ValueError, match="finite"):
            purity(np.array([[math.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            von_neumann_entropy(np.array([[math.inf, 0.0], [0.0, 0.0]]))
