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
    reduced_density,
)
from .states import BlochQubit, SymmetricIndex, bloch_ket, register_ket, symmetric_basis_ket


@dataclass(frozen=True, eq=False)
class CloneOutput:
    """Joint pure output of a cloner.

    The first ``clone_count`` subsystems of ``joint`` are the clones (equal
    dimensions); the remaining ``copier_dims`` subsystems belong to the
    copying machine.
    """

    joint: StateVector
    clone_count: int
    copier_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "copier_dims", tuple(self.copier_dims))
        dims = self.joint.layout.dims
        if self.clone_count < 1 or self.clone_count + len(self.copier_dims) != len(dims):
            raise ValueError("clone_count and copier_dims do not cover the joint layout")
        if dims[self.clone_count:] != self.copier_dims:
            raise ValueError("copier_dims disagree with the joint layout")

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

    def idle_marginal(self, j: int) -> DensityOperator:
        """Reduced state of the j-th copier subsystem alone."""
        if not 0 <= j < len(self.copier_dims):
            raise ValueError(f"copier index {j} out of range")
        return reduced_density(self.joint, [self.clone_count + j])


@lru_cache(maxsize=None)
def _uqcm_columns() -> tuple[np.ndarray, np.ndarray]:
    # images of |0> and |1> on (a_0, a_1, x); the copier basis states map
    # onto |0> and |1> of the x wire
    col0 = np.zeros(8, dtype=np.complex128)
    col0[0b000] = math.sqrt(2.0 / 3.0)
    col0[0b101] = math.sqrt(1.0 / 6.0)
    col0[0b011] = math.sqrt(1.0 / 6.0)
    col1 = np.zeros(8, dtype=np.complex128)
    col1[0b111] = math.sqrt(2.0 / 3.0)
    col1[0b100] = math.sqrt(1.0 / 6.0)
    col1[0b010] = math.sqrt(1.0 / 6.0)
    col0.flags.writeable = False
    col1.flags.writeable = False
    return col0, col1


def _linear_image(q: BlochQubit, col0: np.ndarray, col1: np.ndarray) -> np.ndarray:
    """a*col0 + b*col1 for the ket a|0> + b|1> of q, one row per qubit of a
    batch."""
    amps = bloch_ket(q).amps
    return amps[..., :1] * col0 + amps[..., 1:] * col1


_UQCM_LAYOUT = SubsystemLayout((2, 2, 2))


def uqcm_map(q: BlochQubit) -> CloneOutput:
    """Symmetric 1-to-2 qubit cloner as a direct isometry on (a_0, a_1, x).

    |0> goes to sqrt(2/3)|00>|0> + sqrt(1/3)|+>|1> and |1> to
    sqrt(2/3)|11>|1> + sqrt(1/3)|+>|0>, with |+> = (|01>+|10>)/sqrt(2);
    general inputs extend linearly, and a batched ``q`` gives the batch of
    joint outputs.
    """
    joint = StateVector(_UQCM_LAYOUT, _linear_image(q, *_uqcm_columns()))
    return CloneOutput(joint=joint, clone_count=2, copier_dims=(2,))


@lru_cache(maxsize=None)
def _gm_layout(n: int) -> SubsystemLayout:
    return SubsystemLayout((2,) * (2 * n + 1))


@lru_cache(maxsize=None)
def _gm_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Images of |0> and |1> under the 1-to-(n+1) symmetric cloning isometry.

    |0> maps to sum_k lam_k |n+1;k>_a |n;k>_b and |1> to
    sum_k lam_{n-k} |n+1;k+1>_a |n;k>_b with
    lam_k = sqrt(2(n+1-k) / ((n+1)(n+2))).
    """
    lam = [math.sqrt(2.0 * (n + 1 - k) / ((n + 1) * (n + 2))) for k in range(n + 2)]
    dim = 2 ** (2 * n + 1)
    col0 = np.zeros(dim, dtype=np.complex128)
    col1 = np.zeros(dim, dtype=np.complex128)
    for k in range(n + 1):
        b_part = symmetric_basis_ket(SymmetricIndex(n, k)).amps
        a_k = symmetric_basis_ket(SymmetricIndex(n + 1, k)).amps
        a_k1 = symmetric_basis_ket(SymmetricIndex(n + 1, k + 1)).amps
        col0 += lam[k] * np.kron(a_k, b_part)
        col1 += lam[n - k] * np.kron(a_k1, b_part)
    col0.flags.writeable = False
    col1.flags.writeable = False
    return col0, col1


def gisin_massar_map(q: BlochQubit, n: int) -> CloneOutput:
    """Optimal symmetric 1-to-(n+1) cloner, Gisin-Massar form, on wires
    (a_0..a_n, b_1..b_n): n+1 clones followed by the n-qubit copier.  A
    batched ``q`` gives the batch of joint outputs."""
    if not 1 <= n <= 8:
        raise ValueError(f"clone count is limited to 1 <= n <= 8, got {n}")
    joint = StateVector(_gm_layout(n), _linear_image(q, *_gm_columns(n)))
    return CloneOutput(joint=joint, clone_count=n + 1, copier_dims=(2,) * n)


@dataclass(frozen=True)
class MdimCoefficients:
    """Amplitudes (c, d) of the M-dimensional cloning transformation."""

    m: int
    c: float
    d: float


def mdim_coefficients(m: int) -> MdimCoefficients:
    """c = sqrt(2/(m+1)), d = sqrt(1/(2(m+1))); these satisfy both the
    unitarity constraint c^2 + 2(m-1)d^2 = 1 and c^2 = 2cd."""
    if not 2 <= m <= 64:
        raise ValueError(f"dimension is limited to 2 <= m <= 64, got {m}")
    c = math.sqrt(2.0 / (m + 1))
    d = math.sqrt(1.0 / (2.0 * (m + 1)))
    return MdimCoefficients(m=m, c=c, d=d)


def mdim_clone(phi: StateVector) -> CloneOutput:
    """Universal 1-to-2 cloner in M dimensions on (a_0, a_1, x).

    Basis action: |i>|0>|X> goes to c|ii>|X_i> + d sum_{j != i}
    (|ij> + |ji>)|X_j>; general inputs extend linearly.  The copier needs a
    full M-dimensional system x.
    """
    if len(phi.layout) != 1:
        raise ValueError("input must be a single m-dimensional system")
    m = phi.dim
    coeff = mdim_coefficients(m)
    amps = phi.amps
    out = np.zeros((m, m, m), dtype=np.complex128)
    for i in range(m):
        if amps[i] == 0.0:
            continue
        out[i, i, i] += coeff.c * amps[i]
        for j in range(m):
            if j == i:
                continue
            out[i, j, j] += coeff.d * amps[i]
            out[j, i, j] += coeff.d * amps[i]
    joint = StateVector(SubsystemLayout((m, m, m)), out.reshape(-1))
    return CloneOutput(joint=joint, clone_count=2, copier_dims=(m,))


def local_register_clone(alpha: float) -> DensityOperator:
    """Clone the two-qubit register alpha|00> + beta|11> qubit by qubit.

    Each register qubit passes through its own 1-to-2 qubit cloner; the
    output registers pair the first qubit of one copy with the second qubit
    of the other.  Both pairings carry the same state (asserted here), and
    that common two-qubit density operator is returned.
    """
    ket = register_ket(alpha)
    basis = np.eye(2, dtype=np.complex128)
    iso = np.zeros((8, 2), dtype=np.complex128)
    for i in range(2):
        iso[:, i] = mdim_clone(StateVector(SubsystemLayout((2,)), basis[i])).joint.amps
    # wires after kron: (a_0, a_1, x_I, b_0, b_1, x_II)
    joint = np.kron(iso, iso) @ ket.amps
    psi = StateVector(SubsystemLayout((2,) * 6), joint)
    pair_ab = reduced_density(psi, [0, 4])  # (a_0, b_1)
    pair_ba = reduced_density(psi, [1, 3])  # (a_1, b_0)
    if np.abs(pair_ab.mat - pair_ba.mat).max() > TOL_CONSTRUCT:
        raise AssertionError("register copy pairings disagree; cloner is broken")
    return pair_ab


def nonlocal_register_clone(alpha: float) -> DensityOperator:
    """Clone the register alpha|00> + beta|11> as one four-dimensional system.

    The four-dimensional cloner acts on the register as a whole, so each of
    its two output copies is itself a complete two-qubit register.  Both
    copies carry the same state (asserted here); the first one is returned
    with its four levels read as qubit pairs |00>, |01>, |10>, |11>.
    """
    # the four levels are the register basis |00>, |01>, |10>, |11>
    out = mdim_clone(StateVector(SubsystemLayout((4,)), register_ket(alpha).amps))
    # reinterpret (4, 4, 4) as qubit wires (a_0, b_0, a_1, b_1) + copier
    psi = StateVector(SubsystemLayout((2, 2, 2, 2, 4)), out.joint.amps)
    copy_a = reduced_density(psi, [0, 1])  # register copy (a_0, b_0)
    copy_b = reduced_density(psi, [2, 3])  # register copy (a_1, b_1)
    if np.abs(copy_a.mat - copy_b.mat).max() > TOL_CONSTRUCT:
        raise AssertionError("register copies disagree; cloner is broken")
    return copy_a


def register_clone(method: str, alpha: float) -> DensityOperator:
    """Cloned register pairing by method name, ``local`` or ``nonlocal``."""
    if method == "local":
        return local_register_clone(alpha)
    if method == "nonlocal":
        return nonlocal_register_clone(alpha)
    raise ValueError(f"method must be 'local' or 'nonlocal', got {method!r}")
