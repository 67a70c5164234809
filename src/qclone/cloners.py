"""Direct isometry route for every cloning machine in the package.

Each cloner is written as an explicit linear map on amplitudes, independent
of the gate network, so the two construction routes can be compared against
each other and against the closed-form expressions in ``analysis``.

Two families build every direct-map cloner: ``gisin_massar_map``, the
1-to-(n+1) qubit machine whose n = 1 member is ``uqcm_map``, and
``mdim_clone``, the 1-to-2 machine in m dimensions, whose basis images
also make up both register cloners.

Every cloner is its basis images: a cached table whose row i is the joint
image of basis state |i>, or for ``mdim_clone``, where at m = 64 such a
table would hold 64 rows of 2**18 amplitudes, the scatter of their nonzero
amplitudes.  A direct-map output keeps its inputs and the images it read.
Its joint state is formed only when asked for; its marginals are quadratic
forms in the input amplitudes, rho_K(psi) = sum_ij psi_i psi_j^* T_K[i, j],
where T_K[i, j] = Tr_rest(|v_i><v_j|) is the transfer of the wire set K
(the Choi matrix of that set's channel).  Each transfer is built once per
image table and wire set, from the images' nonzeros, and cached.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    DensityOperator,
    StateVector,
    SubsystemLayout,
    _MARGINAL_BLOCK,
    _check_subsystems,
    _freeze,
    _size,
    _trusted,
    reduced_density,
)
from .states import BlochQubit, MAX_CLONE_COUNT, _CLONE_COUNT_RULE, _symmetric_amps, bloch_ket, register_ket

_CLONE_INDEX_RULE = "clone indices must be integers below clone_count"


@dataclass(frozen=True, eq=False)
class _Transfer:
    """The marginal on one wire set as a function of the input: flattened
    entry ``entries[g]`` of the (dk, dk) marginal is the sum, in order, of
    ``coef[t] * psi_i psi_j^*`` over the terms t from ``starts[g]`` to the
    next group's start, term t reading the pair ``pair[t]`` = i * d + j."""

    layout: SubsystemLayout
    pair: np.ndarray
    coef: np.ndarray
    starts: np.ndarray
    entries: np.ndarray

    def marginal(self, amps: np.ndarray) -> DensityOperator:
        """The marginal of each input in ``amps``, (d,) or (K, d).  Every
        input's entries sum the same terms in the same order down the term
        axis, so a batch equals its scalar calls bit for bit."""
        d = amps.shape[-1]
        flat = amps.reshape(-1, d)
        # psi_i psi_j^* of every input, one row per pair (i, j)
        pairs = (flat[:, :, None] * flat[:, None, :].conj()).reshape(-1, d * d).T
        dk = self.layout.total
        red = np.zeros((flat.shape[0], dk * dk), dtype=np.complex128)
        red[:, self.entries] = np.add.reduceat(pairs[self.pair] * self.coef[:, None], self.starts, axis=0).T
        return _trusted(DensityOperator, layout=self.layout, mat=red.reshape(amps.shape[:-1] + (dk, dk)))


def _gram(block: np.ndarray) -> np.ndarray:
    """The Gram matrices block[k] block[k]^+ of a (n, g, c) stack, each
    entry a pairwise sum over the c columns: the products of a support's
    columns repeat, and a running sum of many equal terms drifts by many
    ulp.  At most ``_MARGINAL_BLOCK`` products are formed at a time."""
    n, g, c = block.shape
    rows = block.reshape(n * g, c)
    conj = block.conj()
    out = np.empty((n * g, g), dtype=np.complex128)
    step = max(1, _MARGINAL_BLOCK // (g * c))
    for s in range(0, n * g, step):
        out[s:s + step] = (rows[s:s + step, None, :] * conj[np.arange(s, min(s + step, n * g)) // g]).sum(axis=-1)
    return out.reshape(n, g, g)


def _build_transfer(layout: SubsystemLayout, nonzeros, d: int, wires: tuple[int, ...]) -> _Transfer | None:
    """The transfer of ``wires`` from the images' nonzeros (joint amplitude
    ``target[t]`` of the image of |source[t]> is ``weight[t]``), or None
    where it would hold more entries than the joint state has amplitudes.

    Read as a matrix M whose row (i, a) is image i at kept index a and whose
    column is the index on the other wires, T_K is M M^+.  Columns with the
    same nonzero rows (the same support) are multiplied as one dense block,
    so the work goes to products of whole groups, not to single entries.
    """
    target, source, weight = nonzeros
    dims = layout.dims
    strides = [math.prod(dims[j + 1:]) for j in range(len(dims))]
    dk = math.prod(dims[j] for j in wires)
    # the kept index, and the joint index with the kept digits zeroed, which
    # labels the column
    kept, rest = np.zeros_like(target), target
    for j in wires:
        digit = target // strides[j] % dims[j]
        kept = kept * dims[j] + digit
        rest = rest - digit * strides[j]
    rows = d * dk
    row = source * dk + kept
    # the nonzeros column by column, each column's rows ascending
    order = np.argsort(rest * rows + row, kind="stable")
    row, rest, weight = row[order], rest[order], weight[order]
    first = np.flatnonzero(np.diff(rest, prepend=-1))
    count = np.diff(first, append=rest.size)
    # per column count g, the columns ordered by support (their g rows), and
    # each support's rows and number of columns
    groups = []
    for g in np.flatnonzero(np.bincount(count)).tolist():
        cells = first[count == g][:, None] + np.arange(g)  # (columns, g)
        cells = cells[np.lexsort(row[cells].T[::-1])]
        support = row[cells]
        new = np.flatnonzero(np.diff(support, axis=0, prepend=-1).any(axis=1))
        groups.append((support[new], cells, np.diff(new, append=len(cells))))
    if sum(support.size * support.shape[1] for support, _, _ in groups) > layout.total:
        return None
    keys, values = [], []
    for support, cells, width in groups:
        offset = np.cumsum(width) - width
        for c in np.flatnonzero(np.bincount(width)).tolist():  # one batch per column count
            same = np.flatnonzero(width == c)
            block = weight[cells[offset[same][:, None] + np.arange(c)]].transpose(0, 2, 1)
            values.append(_gram(np.ascontiguousarray(block)).reshape(-1))
            # each product's key: its entry (a, b) of the marginal, then its
            # pair (i, j), so that the sorted keys come grouped by entry
            image, level = np.divmod(support[same], dk)
            entry = level[:, :, None] * dk + level[:, None, :]
            keys.append((entry * d * d + image[:, :, None] * d + image[:, None, :]).reshape(-1))
    # the distinct keys, and each product's place among them (only stable
    # sorts here: each sort kernel numpy runs pages in its code, up to 0.7 MiB)
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    new = np.diff(keys[order], prepend=-1) != 0
    key = keys[order][new]
    term = np.empty_like(order)
    term[order] = np.cumsum(new) - 1
    values = np.concatenate(values)
    coef = np.bincount(term, weights=values.real) + 1j * np.bincount(term, weights=values.imag)
    entry, pair = np.divmod(key, d * d)
    starts = np.flatnonzero(np.diff(entry, prepend=-1))
    kept_layout = _trusted(SubsystemLayout, dims=tuple(dims[j] for j in wires))
    return _Transfer(kept_layout, _freeze(pair), _freeze(coef), _freeze(starts), _freeze(entry[starts]))


#: The transfers of each image table by wire set (None for a set reduced from
#: the joint state), keyed on the ids of the arrays a cloner read: an entry
#: goes when one of them is freed, so a table built afresh on every call (a
#: patched one, say) never meets another table's transfers.
_TRANSFERS: dict[tuple[int, ...], dict[tuple[int, ...], _Transfer | None]] = {}


def _transfer(layout: SubsystemLayout, table, d: int, wires: tuple[int, ...]) -> _Transfer | None:
    """The transfer of ``wires`` for the images ``table``: a (d, D) array
    whose row i is the image of |i>, or a scatter (target, source, weight)."""
    arrays = table if isinstance(table, tuple) else (table,)
    key = tuple(map(id, arrays))
    cache = _TRANSFERS.get(key)
    if cache is None:
        cache = _TRANSFERS[key] = {}
        for array in arrays:
            weakref.finalize(array, _TRANSFERS.pop, key, None)
    if wires not in cache:
        nonzeros = table
        if not isinstance(table, tuple):
            source, target = np.nonzero(table)
            nonzeros = (target, source, table[source, target])
        cache[wires] = _build_transfer(layout, nonzeros, d, wires)
    return cache[wires]


@dataclass(frozen=True, eq=False, init=False)
class CloneOutput:
    """Joint pure output of a cloner.

    The first ``clone_count`` subsystems of ``joint`` are the clones (equal
    dimensions); the remaining subsystems, of dimensions ``copier_dims``,
    belong to the copying machine.  The output of a direct-map cloner keeps
    its inputs and the cloner's basis images instead: it forms ``joint`` on
    first access, and takes its marginals from the cached transfers of the
    images, bit for bit the same for a batch as for each input alone.
    """

    clone_count: int

    def __init__(self, joint: StateVector, clone_count: int):
        count = _size(
            clone_count,
            "clone_count must be an integer leaving at least one clone and one copier subsystem",
            1,
            len(joint.layout) - 1,
        )
        self._fill(count, joint.layout, joint, None, None)

    def _fill(self, clone_count, layout, joint, inputs, table) -> None:
        for name, value in zip(("clone_count", "_layout", "_joint", "_inputs", "_table"),
                               (clone_count, layout, joint, inputs, table)):
            object.__setattr__(self, name, value)

    @classmethod
    def _direct(cls, layout: SubsystemLayout, clone_count: int, inputs: np.ndarray, table) -> CloneOutput:
        """The output of the images ``table`` on the validated ``inputs``:
        a (d, D) array whose row i is the image of |i>, or a scatter
        (target, source, weight)."""
        out = object.__new__(cls)
        out._fill(clone_count, layout, None, inputs, table)
        return out

    @property
    def joint(self) -> StateVector:
        """The joint state, one or a batch; a direct-map output forms it
        here, on first access, and keeps it."""
        if self._joint is None:
            if isinstance(self._table, tuple):
                target, source, weight = self._table
                amps = np.zeros(self._inputs.shape[:-1] + (self._layout.total,), dtype=np.complex128)
                amps[..., target] = weight * self._inputs[..., source]
            else:
                amps = self._inputs @ self._table
            object.__setattr__(self, "_joint", _trusted(StateVector, layout=self._layout, amps=amps))
        return self._joint

    @property
    def copier_dims(self) -> tuple[int, ...]:
        """Dimensions of the copier subsystems, in wire order."""
        return self._layout.dims[self.clone_count:]

    def _marginal(self, wires: list[int]) -> DensityOperator:
        if self._table is not None:
            wires = tuple(_check_subsystems(self._layout, wires, "reduced_density"))
            transfer = _transfer(self._layout, self._table, self._inputs.shape[-1], wires)
            if transfer is not None:
                return transfer.marginal(self._inputs)
        return reduced_density(self.joint, wires)

    def clone_marginal(self, i: int) -> DensityOperator:
        """Reduced state of clone ``i``."""
        return self._marginal([_size(i, _CLONE_INDEX_RULE, 0, self.clone_count - 1)])

    def pair_marginal(self, i: int, j: int) -> DensityOperator:
        """Joint reduced state of clones ``i`` and ``j`` (``i != j``)."""
        last = self.clone_count - 1
        return self._marginal([_size(i, _CLONE_INDEX_RULE, 0, last), _size(j, _CLONE_INDEX_RULE, 0, last)])

    def copier_marginal(self) -> DensityOperator:
        """Reduced state of the whole copying machine."""
        return self._marginal(list(range(self.clone_count, len(self._layout))))


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
    return CloneOutput._direct(_gm_layout(n), n + 1, bloch_ket(q).amps, _gm_columns(n))


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
    layout, target, source, weight = _mdim_scatter(phi.dim)
    return CloneOutput._direct(layout, 2, phi.amps, (target, source, weight))


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
    ``images``, the (4, 64) rows of its basis images, from their transfer."""
    amps = register_ket(alpha).amps
    wires = tuple(_check_subsystems(_REGISTER_JOINT, wires, "reduced_density"))
    return _transfer(_REGISTER_JOINT, images, 4, wires).marginal(amps)


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
