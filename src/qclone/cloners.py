"""Direct isometry route for every cloning machine in the package.

Each cloner is written as an explicit linear map on amplitudes, independent
of the gate network, so the two construction routes can be compared against
each other and against the closed-form expressions in ``analysis``.

Two families build every direct-map cloner: ``gisin_massar_map``, the
1-to-(n+1) qubit machine whose n = 1 member is ``uqcm_map``, and
``mdim_clone``, the 1-to-2 machine in m dimensions, whose basis images
also make up both register cloners.

Images are rows: a dense cloner is the input amplitudes times a cached
table whose row i is the joint image of basis state |i>, so a (K, d) batch
of inputs gives the (K, D) batch of joint outputs in one product.  Only
``mdim_clone`` scatters its images instead, since at m = 64 the table
would hold 64 rows of 2**18 amplitudes.
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
    _freeze,
    _size,
    _trusted,
    reduced_density,
)
from .states import BlochQubit, MAX_CLONE_COUNT, _CLONE_COUNT_RULE, _symmetric_amps, bloch_ket, register_ket

_CLONE_INDEX_RULE = "clone indices must be integers below clone_count"


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
        count = _size(
            self.clone_count,
            "clone_count must be an integer leaving at least one clone and one copier subsystem",
            1,
            len(self.joint.layout) - 1,
        )
        object.__setattr__(self, "clone_count", count)

    @property
    def copier_dims(self) -> tuple[int, ...]:
        """Dimensions of the copier subsystems, in wire order."""
        return self.joint.layout.dims[self.clone_count:]

    def clone_marginal(self, i: int) -> DensityOperator:
        """Reduced state of clone ``i``."""
        return reduced_density(self.joint, [_size(i, _CLONE_INDEX_RULE, 0, self.clone_count - 1)])

    def pair_marginal(self, i: int, j: int) -> DensityOperator:
        """Joint reduced state of clones ``i`` and ``j`` (``i != j``)."""
        last = self.clone_count - 1
        return reduced_density(self.joint, [_size(i, _CLONE_INDEX_RULE, 0, last), _size(j, _CLONE_INDEX_RULE, 0, last)])

    def copier_marginal(self) -> DensityOperator:
        """Reduced state of the whole copying machine."""
        k = len(self.joint.layout)
        return reduced_density(self.joint, list(range(self.clone_count, k)))


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
    n = _size(n, _CLONE_COUNT_RULE, 1, MAX_CLONE_COUNT)
    joint = _trusted(StateVector, layout=_gm_layout(n), amps=bloch_ket(q).amps @ _gm_columns(n))
    return CloneOutput(joint=joint, clone_count=n + 1)


def uqcm_map(q: BlochQubit) -> CloneOutput:
    """Symmetric 1-to-2 qubit cloner as a direct isometry on (a_0, a_1, x).

    |0> goes to sqrt(2/3)|00>|0> + sqrt(1/3)|+>|1> and |1> to
    sqrt(2/3)|11>|1> + sqrt(1/3)|+>|0>, with |+> = (|01>+|10>)/sqrt(2);
    general inputs extend linearly, and a batched ``q`` gives the batch of
    joint outputs.  This is ``gisin_massar_map`` at n = 1, its copier the
    single qubit x.
    """
    return gisin_massar_map(q, 1)


#: Largest dimension m of the M-dimensional cloner, read by the CLI too: its
#: joint state holds m**3 amplitudes.
MAX_CLONE_DIMENSION = 64
_CLONE_DIMENSION_RULE = f"dimension is limited to 2 <= m <= {MAX_CLONE_DIMENSION}"


def mdim_coefficients(m: int) -> tuple[float, float]:
    """Amplitudes (c, d) of the M-dimensional cloning transformation:
    c = sqrt(2/(m+1)), d = sqrt(1/(2(m+1))); these satisfy both the
    unitarity constraint c^2 + 2(m-1)d^2 = 1 and c^2 = 2cd."""
    m = _size(m, _CLONE_DIMENSION_RULE, 2, MAX_CLONE_DIMENSION)
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
def _mdim_images(m: int) -> np.ndarray:
    """Images of the m basis states under ``mdim_clone``, as the m rows of
    one (m, m**3) array."""
    return mdim_clone(_trusted(StateVector, layout=SubsystemLayout((m,)), amps=np.eye(m))).joint.amps


@lru_cache(maxsize=None)
def _local_register_isometry() -> np.ndarray:
    """Two independent qubit cloners on the register's two qubits, as the
    (4, 64) images of |00>, |01>, |10>, |11> on the wires (a_0, a_1, x_I,
    b_0, b_1, x_II) of ``_REGISTER_JOINT``."""
    return _freeze(np.kron(_mdim_images(2), _mdim_images(2)))


#: Joint output of both register cloners as six qubit wires: (a_0, a_1, x_I,
#: b_0, b_1, x_II) qubit by qubit, and the two copies and the copier of the
#: four-dimensional cloner, each four-level system read as two qubits.
_REGISTER_JOINT = SubsystemLayout((2,) * 6)


def _register_copy(alpha, images: np.ndarray, wires: list[int]) -> DensityOperator:
    """The copy on ``wires`` of the register alpha|00> + beta|11> cloned by
    ``images``, the (4, 64) rows of its basis images."""
    joint = _trusted(StateVector, layout=_REGISTER_JOINT, amps=register_ket(alpha).amps @ images)
    return reduced_density(joint, wires)


def local_register_clone(alpha) -> DensityOperator:
    """Clone the two-qubit register alpha|00> + beta|11> qubit by qubit.

    Each register qubit passes through its own 1-to-2 qubit cloner; the
    output registers pair the first qubit of one copy with the second qubit
    of the other.  Both pairings, (a_0, b_1) and (a_1, b_0), carry the same
    state by the symmetry of the two cloners; the first is returned.  An
    array of alphas gives the batch of pair states.
    """
    return _register_copy(alpha, _local_register_isometry(), [0, 4])


def nonlocal_register_clone(alpha) -> DensityOperator:
    """Clone the register alpha|00> + beta|11> as one four-dimensional system.

    The four-dimensional cloner acts on the register as a whole, so each of
    its two output copies is itself a complete two-qubit register, its four
    levels read as qubit pairs |00>, |01>, |10>, |11>.  Both copies carry
    the same state by the symmetry of the cloner; the first is returned.  An
    array of alphas gives the batch of register states.
    """
    return _register_copy(alpha, _mdim_images(4), [0, 1])


#: The register cloners by method name: ``local`` clones qubit by qubit,
#: ``nonlocal`` clones the register as one four-dimensional system.
REGISTER_CLONERS = {"local": local_register_clone, "nonlocal": nonlocal_register_clone}


def register_clone(method: str, alpha) -> DensityOperator:
    """Cloned register pairing by method name, ``local`` or ``nonlocal``;
    an array of alphas gives the batch."""
    if method not in REGISTER_CLONERS:
        raise ValueError(f"method must be 'local' or 'nonlocal', got {method!r}")
    return REGISTER_CLONERS[method](alpha)
