"""Marginals of the direct-map cloners from cached transfers of their basis
images, checked against the joint state they stand in for.

A direct-map output keeps its inputs and the images its cloner read; each
marginal is a quadratic form in the inputs, sum_ij psi_i psi_j^* T[i, j],
whose transfer T is built once per image table and wire set.  These tests
take every wire set the package takes (each clone, each clone pair, the
copier and each copier qubit) for n = 1..8, the clones and the copier for m
across 2..64, and both register copies, and check three things: the
marginal agrees with ``reduced_density`` of the joint state, each element
of a batch equals its scalar call as bytes, and the transfer follows the
image table a cloner reads at call time.

Bound: the largest deviation from ``reduced_density`` is 7.4e-14, on the
last copier qubit of n = 8.  It is ``reduced_density``'s own: there it
differs from a long-double reference by 7.4e-14 while the transfer differs
by 2.0e-16; over all other wire sets it is at most 3.7e-15.  ``BOUND`` is
1e-13.  The tests take about 0.6 s, most of it building the 36 pair
transfers of n = 8.
"""
import itertools

import numpy as np
import pytest

from qclone import cloners
from qclone.cloners import CloneOutput, gisin_massar_map, mdim_clone, register_clone
from qclone.linalg import StateVector, SubsystemLayout, reduced_density
from qclone.states import BlochQubit, bloch_ket, haar_random_ket, random_bloch, register_ket

BOUND = 1e-13


def gm_wire_sets(n: int):
    """Every wire set the package takes of the 1 -> n+1 cloner, with the
    call that takes it."""
    wires = [([i], lambda out, i=i: out.clone_marginal(i)) for i in range(n + 1)]
    wires += [([i, j], lambda out, i=i, j=j: out.pair_marginal(i, j)) for i, j in itertools.combinations(range(n + 1), 2)]
    wires.append((list(range(n + 1, 2 * n + 1)), CloneOutput.copier_marginal))
    wires += [([w], lambda out, w=w: out._marginal([w])) for w in range(n + 1, 2 * n + 1)]
    return wires


def check_wire_sets(out: CloneOutput, scalars: list[CloneOutput], wire_sets) -> None:
    for wires, take in wire_sets:
        got = take(out).mat
        assert np.abs(got - reduced_density(out.joint, wires).mat).max() <= BOUND, wires
        for k, scalar in enumerate(scalars):
            assert take(scalar).mat.tobytes() == got[k].tobytes(), (wires, k)


@pytest.mark.parametrize("n", range(1, 9))
def test_qubit_cloner_marginals_agree_with_the_joint(n):
    q = random_bloch(900 + n, count=3)
    scalars = [gisin_massar_map(BlochQubit(t, p), n) for t, p in zip(q.theta, q.phi)]
    check_wire_sets(gisin_massar_map(q, n), scalars, gm_wire_sets(n))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 13, 16, 32, 63, 64])
def test_mdim_cloner_marginals_agree_with_the_joint(m):
    """Both clones and the copier come from transfers.  A clone pair's
    transfer would hold more entries than the joint has amplitudes
    (m (2m - 1)**2 against m**3), so the pair is reduced from the joint."""
    phi = haar_random_ket(m, 910 + m, count=2)
    scalars = [mdim_clone(StateVector(phi.layout, row)) for row in phi.amps]
    out = mdim_clone(phi)
    wire_sets = [([0], lambda o: o.clone_marginal(0)), ([1], lambda o: o.clone_marginal(1)),
                 ([2], CloneOutput.copier_marginal)]
    check_wire_sets(out, scalars, wire_sets)
    assert cloners._transfer(out._layout, out._table, m, (0, 1)) is None
    if m <= 8:
        assert out.pair_marginal(0, 1).mat.tobytes() == reduced_density(out.joint, [0, 1]).mat.tobytes()


@pytest.mark.parametrize("method,images,wires", [
    ("local", cloners._local_register_isometry, [0, 4]),
    ("nonlocal", lambda: cloners._mdim_images(4), [0, 1]),
])
def test_register_copies_agree_with_the_joint(method, images, wires):
    alpha = np.sqrt(np.linspace(0.0, 1.0, 9))
    got = register_clone(method, alpha).mat
    joint = StateVector(SubsystemLayout((2,) * 6), register_ket(alpha).amps @ images())
    assert np.abs(got - reduced_density(joint, wires).mat).max() <= BOUND
    for k, a in enumerate(alpha):
        assert register_clone(method, a).mat.tobytes() == got[k].tobytes()


def test_marginals_form_no_joint_and_the_joint_keeps_its_bits():
    """Marginals leave the joint unformed; formed on first access, it is
    the images' product with the inputs, or their scatter, bit for bit."""
    q = random_bloch(920, count=4)
    out = gisin_massar_map(q, 3)
    out.clone_marginal(1), out.pair_marginal(0, 2), out.copier_marginal()
    assert out._joint is None
    assert out.joint.amps.tobytes() == (bloch_ket(q).amps @ cloners._gm_columns(3)).tobytes()
    assert out.joint is out.joint

    phi = haar_random_ket(5, 921, count=2)
    layout, target, source, weight = cloners._mdim_scatter(5)
    want = np.zeros((2, 125), dtype=np.complex128)
    want[:, target] = weight * phi.amps[:, source]
    assert mdim_clone(phi).joint.amps.tobytes() == want.tobytes()


def test_a_table_read_afresh_gets_its_own_transfer(monkeypatch):
    """The transfer is keyed on the table a cloner reads at call time: a
    patched table, built anew on each call, never meets the cached
    transfer of the real one, and its cache entry goes with it."""
    q = random_bloch(930, count=3)
    real = cloners._gm_columns
    before = gisin_massar_map(q, 2).clone_marginal(0).mat

    def tilted(n):
        iso = real(n).copy()
        iso[1, np.flatnonzero(iso[1])[-1]] *= 1.0 + 1e-6
        iso[1] /= np.linalg.norm(iso[1])
        return iso

    monkeypatch.setattr(cloners, "_gm_columns", tilted)
    out = gisin_massar_map(q, 2)
    got = out.clone_marginal(0).mat
    assert np.abs(got - reduced_density(out.joint, [0]).mat).max() <= BOUND
    assert np.abs(got - before).max() > 1e-9
    key = (id(out._table),)
    assert key in cloners._TRANSFERS
    del out
    assert key not in cloners._TRANSFERS
    monkeypatch.undo()
    assert gisin_massar_map(q, 2).clone_marginal(0).mat.tobytes() == before.tobytes()


def test_explicit_joints_keep_reducing_from_the_joint():
    """An output built from a joint state, as the gate network's are,
    reduces with ``reduced_density`` and validates as it always did."""
    q = random_bloch(940, count=2)
    joint = gisin_massar_map(q, 2).joint
    out = CloneOutput(joint=joint, clone_count=3)
    assert out.joint is joint
    assert out.copier_dims == (2, 2)
    for take, wires in ((lambda o: o.clone_marginal(2), [2]), (lambda o: o.pair_marginal(1, 0), [1, 0]),
                        (CloneOutput.copier_marginal, [3, 4])):
        assert take(out).mat.tobytes() == reduced_density(joint, wires).mat.tobytes()
    with pytest.raises(ValueError, match="duplicate subsystem indices"):
        gisin_massar_map(q, 2).pair_marginal(1, 1)
