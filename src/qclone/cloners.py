"""Direct isometry route for every cloning machine in the package.

Each cloner is written as an explicit linear map on amplitudes, independent
of the gate network, so the two construction routes can be compared against
each other and against the closed-form expressions in ``analysis``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    DensityOperator,
    StateVector,
    SubsystemLayout,
    TOL_CONSTRUCT,
    _freeze,
    _trusted,
    reduced_density,
)
from .states import BlochQubit, _symmetric_amps, bloch_ket, register_ket


@dataclass(frozen=True, eq=False)
class CloneOutput:
    """Joint pure output of a cloner.

    The first ``clone_count`` subsystems of ``joint`` are the clones (equal
    dimensions); the remaining subsystems, of dimensions ``copier_dims``,
    belong to the copying machine.
    """

    joint: StateVector
    clone_count: int

    def __post_init__(self):
        if not 1 <= self.clone_count < len(self.joint.layout):
            raise ValueError("clone_count must leave at least one clone and one copier subsystem")

    @property
    def copier_dims(self) -> tuple[int, ...]:
        """Dimensions of the copier subsystems, in wire order."""
        return self.joint.layout.dims[self.clone_count:]

    def clone_marginal(self, i: int) -> DensityOperator:
        """Reduced state of clone ``i``."""
        if not 0 <= i < self.clone_count:
            raise ValueError(f"clone index {i} out of range")
        return reduced_density(self.joint, [i])

    def pair_marginal(self, i: int, j: int) -> DensityOperator:
        """Joint reduced state of clones ``i`` and ``j``."""
        if i == j or not (0 <= i < self.clone_count and 0 <= j < self.clone_count):
            raise ValueError(f"bad clone pair ({i}, {j})")
        return reduced_density(self.joint, [i, j])

    def copier_marginal(self) -> DensityOperator:
        """Reduced state of the whole copying machine."""
        k = len(self.joint.layout)
        return reduced_density(self.joint, list(range(self.clone_count, k)))


@lru_cache(maxsize=None)
def _uqcm_columns() -> np.ndarray:
    # rows: images of |0> and |1> on (a_0, a_1, x); the copier basis states
    # map onto |0> and |1> of the x wire
    iso = np.zeros((2, 8), dtype=np.complex128)
    iso[0, 0b000] = math.sqrt(2.0 / 3.0)
    iso[0, 0b101] = math.sqrt(1.0 / 6.0)
    iso[0, 0b011] = math.sqrt(1.0 / 6.0)
    iso[1, 0b111] = math.sqrt(2.0 / 3.0)
    iso[1, 0b100] = math.sqrt(1.0 / 6.0)
    iso[1, 0b010] = math.sqrt(1.0 / 6.0)
    return _freeze(iso)


_UQCM_LAYOUT = SubsystemLayout((2, 2, 2))


def uqcm_map(q: BlochQubit) -> CloneOutput:
    """Symmetric 1-to-2 qubit cloner as a direct isometry on (a_0, a_1, x).

    |0> goes to sqrt(2/3)|00>|0> + sqrt(1/3)|+>|1> and |1> to
    sqrt(2/3)|11>|1> + sqrt(1/3)|+>|0>, with |+> = (|01>+|10>)/sqrt(2);
    general inputs extend linearly, and a batched ``q`` gives the batch of
    joint outputs.
    """
    joint = _trusted(StateVector, layout=_UQCM_LAYOUT, amps=bloch_ket(q).amps @ _uqcm_columns())
    return CloneOutput(joint=joint, clone_count=2)


# cached: a fresh layout on every call raised perfbench's ensemble peak RSS
@lru_cache(maxsize=None)
def _gm_layout(n: int) -> SubsystemLayout:
    return SubsystemLayout((2,) * (2 * n + 1))


@lru_cache(maxsize=None)
def _gm_columns(n: int) -> np.ndarray:
    """Images of |0> and |1>, as the two rows of one array, under the
    1-to-(n+1) symmetric cloning isometry.

    |0> maps to sum_k lam_k |n+1;k>_a |n;k>_b and |1> to
    sum_k lam_{n-k} |n+1;k+1>_a |n;k>_b with
    lam_k = sqrt(2(n+1-k) / ((n+1)(n+2))).
    """
    lam = [math.sqrt(2.0 * (n + 1 - k) / ((n + 1) * (n + 2))) for k in range(n + 2)]
    iso = np.zeros((2, 2 ** (2 * n + 1)), dtype=np.complex128)
    for k in range(n + 1):
        b_part = _symmetric_amps(n, k)
        a_k = _symmetric_amps(n + 1, k)
        a_k1 = _symmetric_amps(n + 1, k + 1)
        iso[0] += lam[k] * np.kron(a_k, b_part)
        iso[1] += lam[n - k] * np.kron(a_k1, b_part)
    return _freeze(iso)


def gisin_massar_map(q: BlochQubit, n: int) -> CloneOutput:
    """Optimal symmetric 1-to-(n+1) cloner, Gisin-Massar form, on wires
    (a_0..a_n, b_1..b_n): n+1 clones followed by the n-qubit copier.  A
    batched ``q`` gives the batch of joint outputs."""
    if not 1 <= n <= 8:
        raise ValueError(f"clone count is limited to 1 <= n <= 8, got {n}")
    joint = _trusted(StateVector, layout=_gm_layout(n), amps=bloch_ket(q).amps @ _gm_columns(n))
    return CloneOutput(joint=joint, clone_count=n + 1)


def mdim_coefficients(m: int) -> tuple[float, float]:
    """Amplitudes (c, d) of the M-dimensional cloning transformation:
    c = sqrt(2/(m+1)), d = sqrt(1/(2(m+1))); these satisfy both the
    unitarity constraint c^2 + 2(m-1)d^2 = 1 and c^2 = 2cd."""
    if not 2 <= m <= 64:
        raise ValueError(f"dimension is limited to 2 <= m <= 64, got {m}")
    c = math.sqrt(2.0 / (m + 1))
    d = math.sqrt(1.0 / (2.0 * (m + 1)))
    return c, d


@lru_cache(maxsize=None)
def _mdim_scatter(m: int) -> tuple[SubsystemLayout, np.ndarray, np.ndarray, np.ndarray]:
    """Joint layout of the M-dimensional cloner and its amplitude scatter:
    joint amplitude ``target[t]`` is ``weight[t]`` times input amplitude
    ``source[t]``.  Every joint index is hit at most once."""
    c, d = mdim_coefficients(m)
    i, j = np.divmod(np.arange(m * m), m)
    off = i != j
    i, j = i[off], j[off]
    diag = np.arange(m)
    # c|ii>|X_i>, then d|ij>|X_j> and d|ji>|X_j> for every j != i
    target = np.concatenate([diag * (m * m + m + 1), i * m * m + j * m + j, j * m * m + i * m + j])
    source = np.concatenate([diag, i, i])
    weight = np.concatenate([np.full(m, c), np.full(2 * i.size, d)])
    return SubsystemLayout((m, m, m)), _freeze(target), _freeze(source), _freeze(weight)


def mdim_clone(phi: StateVector) -> CloneOutput:
    """Universal 1-to-2 cloner in M dimensions on (a_0, a_1, x).

    Basis action: |i>|0>|X> goes to c|ii>|X_i> + d sum_{j != i}
    (|ij> + |ji>)|X_j>; general inputs extend linearly.  The copier needs a
    full M-dimensional system x.  A batch of K inputs gives the batch of
    joint outputs.
    """
    if len(phi.layout) != 1:
        raise ValueError("input must be a single m-dimensional system")
    m = phi.dim
    layout, target, source, weight = _mdim_scatter(m)
    amps = phi.amps
    out = np.zeros(amps.shape[:-1] + (m**3,), dtype=np.complex128)
    out[..., target] = weight * amps[..., source]
    return CloneOutput(joint=_trusted(StateVector, layout=layout, amps=out), clone_count=2)


@lru_cache(maxsize=None)
def _local_register_isometry() -> np.ndarray:
    """Two independent qubit cloners on the register's two qubits, as one
    (64, 4) isometry; output wires (a_0, a_1, x_I, b_0, b_1, x_II)."""
    iso = mdim_clone(StateVector(SubsystemLayout((2,)), np.eye(2))).joint.amps.T
    return _freeze(np.kron(iso, iso))


def local_register_clone(alpha) -> DensityOperator:
    """Clone the two-qubit register alpha|00> + beta|11> qubit by qubit.

    Each register qubit passes through its own 1-to-2 qubit cloner; the
    output registers pair the first qubit of one copy with the second qubit
    of the other.  Both pairings carry the same state (asserted here), and
    that common two-qubit density operator is returned.  An array of alphas
    gives the batch of pair states.
    """
    joint = register_ket(alpha).amps @ _local_register_isometry().T
    psi = _trusted(StateVector, layout=SubsystemLayout((2,) * 6), amps=joint)
    pair_ab = reduced_density(psi, [0, 4])  # (a_0, b_1)
    pair_ba = reduced_density(psi, [1, 3])  # (a_1, b_0)
    if np.abs(pair_ab.mat - pair_ba.mat).max() > TOL_CONSTRUCT:
        raise AssertionError("register copy pairings disagree; cloner is broken")
    return pair_ab


def nonlocal_register_clone(alpha) -> DensityOperator:
    """Clone the register alpha|00> + beta|11> as one four-dimensional system.

    The four-dimensional cloner acts on the register as a whole, so each of
    its two output copies is itself a complete two-qubit register.  Both
    copies carry the same state (asserted here); the first one is returned
    with its four levels read as qubit pairs |00>, |01>, |10>, |11>.  An
    array of alphas gives the batch of register states.
    """
    # the four levels are the register basis |00>, |01>, |10>, |11>
    out = mdim_clone(_trusted(StateVector, layout=SubsystemLayout((4,)), amps=register_ket(alpha).amps))
    copy_a, copy_b = out.clone_marginal(0), out.clone_marginal(1)
    if np.abs(copy_a.mat - copy_b.mat).max() > TOL_CONSTRUCT:
        raise AssertionError("register copies disagree; cloner is broken")
    return _trusted(DensityOperator, layout=SubsystemLayout((2, 2)), mat=copy_a.mat)


#: The register cloners by method name: ``local`` clones qubit by qubit,
#: ``nonlocal`` clones the register as one four-dimensional system.
REGISTER_CLONERS = {"local": local_register_clone, "nonlocal": nonlocal_register_clone}


def register_clone(method: str, alpha) -> DensityOperator:
    """Cloned register pairing by method name, ``local`` or ``nonlocal``;
    an array of alphas gives the batch."""
    if method not in REGISTER_CLONERS:
        raise ValueError(f"method must be 'local' or 'nonlocal', got {method!r}")
    return REGISTER_CLONERS[method](alpha)
