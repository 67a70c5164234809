"""Dense linear algebra over small tensor-product Hilbert spaces.

State vectors and density operators carry an explicit subsystem layout so
partial traces, marginals and partial transposes need no bookkeeping at the
call site.  One index convention holds everywhere: the first subsystem is
the most significant index (row-major Kronecker ordering).

All spectral quantities come from LAPACK: a spectrum alone through
``numpy.linalg.eigvalsh``, and a matrix square root, which needs the
eigenvectors too, through ``numpy.linalg.eigh``.
Every inner product is ``numpy.vecdot`` (numpy >= 2.0), which conjugates
its first argument without copying it: norms, fidelities, purities and
overlaps.  A qubit marginal of a pure state takes three conjugated dot
products per state (BLAS ``zdotc``): its two norms and one overlap, whose
conjugate fills the other off-diagonal entry; a wider marginal is a blocked
matrix product.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Tolerance hierarchy used across the package: constructive identities,
# eigenvalue and functional identities.
TOL_CONSTRUCT = 1e-12
TOL_SPECTRAL = 1e-10

#: Most amplitudes ``reduced_density`` multiplies in one product when it keeps
#: more than a qubit and at most 128 levels; it bounds the temporaries (a
#: conjugated copy of each block) that wide joint states would otherwise
#: allocate.  Past 128 kept levels a block takes as many columns as there are
#: kept levels: each block's product is a full dkeep x dkeep matrix however few
#: its columns, so narrower blocks would only sum more of them, and a block's
#: input is then never larger than its product.  Either way the peak is at most
#: twice the result, the zeroed accumulator plus one product.  A qubit marginal
#: makes no temporary and needs no block.
_MARGINAL_BLOCK = 2**14

#: Most amplitudes one batched joint state may hold: the size of the single
#: joint state of the M-dimensional cloner at its largest dimension,
#: ``cloners.MAX_CLONE_DIMENSION`` = 64 (4 MiB).  A criterion of ``checks``
#: also holds at most one such joint at a time: it lets each go before it
#: builds the next, which a tier-1 test checks under ``tracemalloc``.
_BATCH_AMPS = 2**18


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _trusted(cls, **fields):
    """``cls`` from fields valid by construction, skipping validation: valid up
    to rounding compounded from inputs that may sit at the tolerances.  It owns
    each array, cast to complex128 and frozen: pass fresh or frozen arrays only."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = _freeze(value.astype(np.complex128, copy=False))
        object.__setattr__(obj, name, value)
    return obj


# Every validation test against a tolerance is written ``not (err <= tol)``
# so that a NaN fails it.  A NaN or inf entry then always fails the first such
# test (a state's norm, a matrix's Hermiticity); finiteness is checked only on
# that failure path, to name the cause without slowing valid input.
def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite (no NaN or inf)")


def _worst(values: np.ndarray, ref: float) -> complex:
    """The entry farthest from ``ref``, as a Python number for messages."""
    values = np.asarray(values).reshape(-1)
    return values[np.argmax(np.abs(values - ref))].item()


def _unbatched(x: np.ndarray):
    """The one exit of a functional's result: ``x`` as it is for a batch,
    and for a single input, which leaves no axis, its value as a Python
    float or bool."""
    return x if x.ndim else x.item()


def _size(value, rule: str, least: int, most: float = math.inf) -> int:
    """``value`` as an int in [least, most], or ValueError("<rule>, got
    <value!r>").  The one check of every size, count, wire and subsystem
    index in the package: operator.index takes Python and numpy integers and
    rejects a float or a string instead of truncating it.  ``rule`` is a
    constant string, so the success path builds no message."""
    try:
        size = operator.index(value)
    except TypeError:
        size = None
    if size is None or not least <= size <= most:
        raise ValueError(f"{rule}, got {value!r}")
    return size


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered subsystem dimensions of a tensor-product space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple([_size(d, "subsystem dimensions must be integers >= 1", 1) for d in self.dims])
        if len(dims) == 0:
            raise ValueError("layout needs at least one subsystem")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        """Dimension of the full product space."""
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state over an explicit subsystem layout.

    ``amps`` holds one state, or a batch of K states as a (K, D) array whose
    rows are each validated; the batch axis leads everywhere it is carried.
    """

    layout: SubsystemLayout
    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128, copy=True)
        d = self.layout.total
        if amps.ndim != 2 or amps.shape[1] != d:
            amps = amps.reshape(-1)
            if amps.size != d:
                raise ValueError(f"amplitude count {amps.size} does not match layout dimension {d}")
        elif amps.shape[0] == 0:
            raise ValueError("a batch needs at least one state")
        # squared norms as one real dot product per state, on the float64
        # view: no conjugate copy of a wide joint state, and an inf amplitude
        # gives inf where a complex product would form inf - inf
        re = amps.view(np.float64)
        norm2 = np.vecdot(re, re)
        if not abs(norm2 - 1.0).max() <= TOL_CONSTRUCT:
            _check_finite(amps, "amplitudes")
            raise ValueError(f"state is not normalized: |amps|^2 = {_worst(norm2, 1.0)!r}")
        object.__setattr__(self, "amps", _freeze(amps))

    @property
    def dim(self) -> int:
        return self.layout.total


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Unit-trace positive-semidefinite operator over an explicit layout.

    ``mat`` holds one (d, d) operator, or a batch of K as a (K, d, d) array.
    Construction validates ``mat`` as a :class:`HermitianMatrix` (finite,
    square, Hermitian within 1e-12), then enforces, on every element, the
    layout's dimension, trace within 1e-12 and eigenvalues >= -1e-10.
    """

    layout: SubsystemLayout
    mat: np.ndarray

    def __post_init__(self):
        mat = HermitianMatrix(self.mat).mat
        d = self.layout.total
        if mat.shape[-1] != d:
            raise ValueError(f"matrix shape {mat.shape} does not match layout dimension {d}")
        tr = np.trace(mat, axis1=-2, axis2=-1)
        if not abs(tr - 1.0).max() <= TOL_CONSTRUCT:
            raise ValueError(f"trace must be 1 within 1e-12, got {_worst(tr, 1.0)!r}")
        w = np.linalg.eigvalsh(mat)[..., 0]
        if not w.min() >= -TOL_SPECTRAL:
            raise ValueError(f"operator has a negative eigenvalue: {float(w.min())!r}")
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.layout.total


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Plain Hermitian matrix (partial transposes land here: trace 1, but
    possibly with negative eigenvalues); a (K, d, d) array is a batch."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=np.complex128, copy=True)
        if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2] or mat.shape[0] == 0:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if not np.abs(mat - mat.conj().swapaxes(-1, -2)).max() <= TOL_CONSTRUCT:
            _check_finite(mat, "matrix entries")
            raise ValueError("matrix is not Hermitian within 1e-12")
        object.__setattr__(self, "mat", _freeze(mat))


def tensor(a, b):
    """Kronecker product of two states or two density operators.

    The first factor is most significant, matching the global index
    convention; layouts concatenate.  A batch in either factor pairs with
    the other factor, and two batches pair elementwise.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        amps = a.amps[..., :, None] * b.amps[..., None, :]
        layout = _trusted(SubsystemLayout, dims=a.layout.dims + b.layout.dims)
        return _trusted(StateVector, layout=layout, amps=amps.reshape(amps.shape[:-2] + (-1,)))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        mat = a.mat[..., :, None, :, None] * b.mat[..., None, :, None, :]
        d = a.dim * b.dim
        layout = _trusted(SubsystemLayout, dims=a.layout.dims + b.layout.dims)
        return _trusted(DensityOperator, layout=layout, mat=mat.reshape(mat.shape[:-4] + (d, d)))
    raise TypeError("tensor expects two StateVectors or two DensityOperators")


def outer(psi: StateVector) -> DensityOperator:
    """Rank-one projector |psi><psi| as a density operator; a batch of
    states gives the batch of projectors."""
    return _trusted(DensityOperator, layout=psi.layout, mat=psi.amps[..., :, None] * psi.amps[..., None, :].conj())


_SUBSYSTEM_RULE = "subsystem indices must be integers within the layout"


def _check_subsystems(layout: SubsystemLayout, subs: Iterable[int], what: str) -> list[int]:
    """``subs`` as a list of distinct int subsystem indices of ``layout``."""
    subs = [_size(i, _SUBSYSTEM_RULE, 0, len(layout) - 1) for i in subs]
    if len(subs) == 0:
        raise ValueError(f"{what}: need at least one subsystem")
    if len(set(subs)) != len(subs):
        raise ValueError(f"{what}: duplicate subsystem indices in {subs}")
    return subs


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Trace out all subsystems not listed in ``keep``.

    Kept subsystems stay in their original order regardless of the order
    they are listed in.  A batch of operators gives the batch of their
    marginals.
    """
    keep_sorted = sorted(_check_subsystems(rho.layout, keep, "partial_trace"))
    dims = rho.layout.dims
    k = len(dims)
    lead = rho.mat.shape[:-2]
    t = rho.mat.reshape(lead + dims + dims)
    bra = list(range(k))
    ket = [j + k if j in keep_sorted else j for j in range(k)]
    out = [j for j in keep_sorted] + [j + k for j in keep_sorted]
    red = np.einsum(t, [...] + bra + ket, [...] + out)
    dkeep = math.prod(dims[j] for j in keep_sorted)
    layout = _trusted(SubsystemLayout, dims=tuple(dims[j] for j in keep_sorted))
    return _trusted(DensityOperator, layout=layout, mat=red.reshape(lead + (dkeep, dkeep)))


def reduced_density(psi: StateVector, keep: Sequence[int]) -> DensityOperator:
    """Marginal of a pure state without forming the joint density matrix.

    Unlike :func:`partial_trace` the kept subsystems appear in the order
    given, which lets callers reorder while reducing.  This is the only
    practical route for the wide joint states the gate network produces.
    A batch of states gives the batch of their marginals, each bit for bit
    the marginal of its state alone.
    """
    keep = _check_subsystems(psi.layout, keep, "reduced_density")
    dims = psi.layout.dims
    lead = psi.amps.shape[:-1]  # () for one state, (K,) for a batch
    batch = math.prod(lead)
    rest = [j for j in range(len(dims)) if j not in keep]
    axes = list(range(len(lead))) + [len(lead) + j for j in keep + rest]
    a = psi.amps.reshape(lead + dims).transpose(axes)
    dkeep = math.prod(dims[j] for j in keep)
    a = a.reshape((batch, dkeep, -1))
    layout = _trusted(SubsystemLayout, dims=tuple(dims[j] for j in keep))
    if dkeep == 2:
        # a qubit: per state the two norms vecdot(a_i, a_i) on the diagonal and
        # the overlap vecdot(a_0, a_1) at (1, 0), whose conjugate is (0, 1):
        # three conjugated dot products, no conjugated copy and no product.
        # Row k of red holds state k's entries in order, so [:, ::3] is the diagonal
        red = np.empty((batch, 4), dtype=np.complex128)
        lower = red[:, 2]
        np.vecdot(a, a, out=red[:, ::3])
        np.vecdot(a[:, 0], a[:, 1], out=lower)
        np.conjugate(lower, out=red[:, 1])
        return _trusted(DensityOperator, layout=layout, mat=red.reshape(lead + (2, 2)))
    cols = a.shape[-1]
    # each state sums the same column blocks in the same order at any batch
    # size, so a batch equals its scalar calls bit for bit and costs the same
    # per state; whole states are grouped up to one product block
    cstep = min(cols, max(dkeep, _MARGINAL_BLOCK // dkeep))
    kstep = max(1, _MARGINAL_BLOCK // (dkeep * cstep))
    red = np.zeros((batch, dkeep, dkeep), dtype=np.complex128)
    for k in range(0, batch, kstep):
        for j in range(0, cols, cstep):
            b = a[k:k + kstep, :, j:j + cstep]
            red[k:k + kstep] += b @ b.conj().swapaxes(-1, -2)
    return _trusted(DensityOperator, layout=layout, mat=red.reshape(lead + (dkeep, dkeep)))


def partial_transpose(rho: DensityOperator, sub: int) -> HermitianMatrix:
    """Transpose one subsystem only; an involution that preserves the trace
    but not positivity.  A batch of operators gives the batch of their
    partial transposes."""
    sub = _size(sub, _SUBSYSTEM_RULE, 0, len(rho.layout) - 1)
    dims = rho.layout.dims
    lead = rho.mat.shape[:-2]
    t = rho.mat.reshape(lead + dims + dims)
    t = t.swapaxes(len(lead) + sub, len(lead) + sub + len(dims))
    return _trusted(HermitianMatrix, mat=t.reshape(rho.mat.shape))


def _hermitian(h) -> HermitianMatrix | DensityOperator:
    """A HermitianMatrix or DensityOperator as given; a plain array is
    validated as a HermitianMatrix (finite, square, Hermitian within 1e-12)."""
    return h if isinstance(h, (HermitianMatrix, DensityOperator)) else HermitianMatrix(h)


def hermitian_eigenvalues(h) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix, or the (K, d) stack
    of them for a batch.  Accepts a HermitianMatrix, a DensityOperator or a
    plain array, which is validated as a HermitianMatrix first."""
    return np.linalg.eigvalsh(_hermitian(h).mat)


def von_neumann_entropy(rho):
    """Entropy -sum(w log w) in nats; eigenvalues at or below zero are
    treated as exact zeros (their limit contribution vanishes).  A float for
    one operator, the array of entropies for a batch."""
    w = hermitian_eigenvalues(rho)
    s = -np.sum(w * np.log(w, out=np.zeros_like(w), where=w > 0.0), axis=-1)
    return _unbatched(s)


def purity(rho):
    """Trace of rho squared; 1 for pure states, 1/d for the maximally mixed.
    A float for one operator, the array of purities for a batch.  Accepts
    what :func:`hermitian_eigenvalues` accepts."""
    mat = _hermitian(rho).mat
    flat = mat.reshape(mat.shape[:-2] + (-1,))
    return _unbatched(np.vecdot(flat, flat).real)


def pure_fidelity(psi: StateVector, rho: DensityOperator):
    """Fidelity <psi|rho|psi> of an operator against the pure state psi.

    A float for one state and one operator; for a batch of states, or of
    operators, or of both, the array of the elementwise fidelities (a single
    state or operator pairs with every element of the other batch).
    """
    # rho|psi> as a matrix product: np.matvec would need numpy >= 2.2
    return _unbatched(np.vecdot(psi.amps, (rho.mat @ psi.amps[..., :, None])[..., 0]).real)


def _clipped_sqrt(w: np.ndarray) -> np.ndarray:
    """Square roots of nominally nonnegative eigenvalues, one spectrum per
    last-axis row.

    Eigenvalues below 1e-13 of the largest in their own spectrum are
    indistinguishable from exact zeros at solver precision, and their square
    roots would otherwise inject O(1e-8) of noise per mode, so they clamp to
    zero.  The cut is never pooled over a batch.
    """
    cut = 1e-13 * w.max(axis=-1, initial=0.0, keepdims=True)
    return np.sqrt(np.where(w > cut, w, 0.0))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Matrix square root of a positive-semidefinite Hermitian matrix, or of
    each matrix of a stack."""
    w, v = np.linalg.eigh(mat)
    return (v * _clipped_sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def sqrt_fidelity(rho1: DensityOperator, rho2: DensityOperator | StateVector):
    """Root fidelity Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)), symmetric in two
    operators.  For a pure state rho2 = psi, given as a StateVector, it is
    sqrt(<psi|rho1|psi>) exactly, taken without an eigensolve.

    A float for two single arguments; for a batch of either or both, the
    array of the elementwise root fidelities, pairing like
    :func:`pure_fidelity`.
    """
    if rho1.dim != rho2.dim:
        raise ValueError("fidelity arguments have mismatched dimensions")
    if isinstance(rho2, StateVector):
        return _unbatched(np.sqrt(np.maximum(pure_fidelity(rho2, rho1), 0.0)))
    s = _psd_sqrt(rho1.mat)
    return _unbatched(_clipped_sqrt(np.linalg.eigvalsh(s @ rho2.mat @ s)).sum(axis=-1))


def bures_distance(rho1: DensityOperator, rho2: DensityOperator | StateVector):
    """Bures distance sqrt(2) * (1 - sqrt_fidelity)^(1/2), elementwise over
    a batch like :func:`sqrt_fidelity`; rho2 may be a pure StateVector."""
    return _unbatched(np.sqrt(2.0 * (1.0 - np.minimum(sqrt_fidelity(rho1, rho2), 1.0))))
