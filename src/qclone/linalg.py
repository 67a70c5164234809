"""Dense linear algebra over small tensor-product Hilbert spaces.

State vectors and density operators carry an explicit subsystem layout so
partial traces, marginals and partial transposes need no bookkeeping at the
call site.  One index convention holds everywhere: the first subsystem is
the most significant index (row-major Kronecker ordering).

All spectral quantities come from LAPACK through ``numpy.linalg.eigh``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Tolerance hierarchy used across the package: constructive identities,
# eigenvalue and functional identities, quadrature checks.
TOL_CONSTRUCT = 1e-12
TOL_SPECTRAL = 1e-10
TOL_QUADRATURE = 1e-6

#: Most amplitudes ``reduced_density`` multiplies in one product; it bounds
#: the temporaries that wide joint states would otherwise allocate.
_MARGINAL_BLOCK = 2**14


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Every validation test against a tolerance is written ``not (err <= tol)``
# so that a NaN fails it.  A NaN or inf entry then always fails the first such
# test (a state's norm, a matrix's Hermiticity); finiteness is checked only on
# that failure path, to name the cause without slowing valid input.
def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite (no NaN or inf)")


def _check_hermitian(mat: np.ndarray) -> None:
    if not np.abs(mat - mat.conj().swapaxes(-1, -2)).max() <= TOL_CONSTRUCT:
        _check_finite(mat, "matrix entries")
        raise ValueError("matrix is not Hermitian within 1e-12")


def _worst(values: np.ndarray, ref: float) -> complex:
    """The entry farthest from ``ref``, as a Python number for messages."""
    values = np.asarray(values).reshape(-1)
    return values[np.argmax(np.abs(values - ref))].item()


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered subsystem dimensions of a tensor-product space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0:
            raise ValueError("layout needs at least one subsystem")
        if any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        """Dimension of the full product space."""
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def concat(self, other: "SubsystemLayout") -> "SubsystemLayout":
        return SubsystemLayout(self.dims + other.dims)


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
        # squared norms as one real dot product per state: no conjugate copy
        # of a wide joint state
        re = amps.view(np.float64)[..., None, :]
        norm2 = (re @ re.swapaxes(-1, -2))[..., 0, 0]
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
    Construction enforces, on every element, finite entries, Hermiticity and
    trace within 1e-12 and eigenvalues >= -1e-10.  Positivity is certified by
    a Gershgorin bound where that is already conclusive; the elements it
    leaves open go to one stacked eigenvalue solve.
    """

    layout: SubsystemLayout
    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=np.complex128, copy=True)
        d = self.layout.total
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (d, d) or mat.shape[0] == 0:
            raise ValueError(f"matrix shape {mat.shape} does not match layout dimension {d}")
        _check_hermitian(mat)
        tr = np.trace(mat, axis1=-2, axis2=-1)
        if not abs(tr - 1.0).max() <= TOL_CONSTRUCT:
            raise ValueError(f"trace must be 1 within 1e-12, got {_worst(tr, 1.0)!r}")
        diag = mat.diagonal(axis1=-2, axis2=-1)
        gersh = diag.real - (np.abs(mat).sum(axis=-1) - np.abs(diag))
        if not gersh.min() >= -TOL_SPECTRAL:
            # only the elements the bound leaves open are solved, values only;
            # a 0-d mask adds the batch axis, so one operator is a batch of one
            undecided = ~(gersh.min(axis=-1) >= -TOL_SPECTRAL)
            w = np.linalg.eigvalsh(mat[undecided])[:, 0]
            if not w.min() >= -TOL_SPECTRAL:
                raise ValueError(f"operator has a negative eigenvalue: {float(w.min())!r}")
        object.__setattr__(self, "mat", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.layout.total


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Plain Hermitian matrix (partial transposes land here: trace 1, but
    possibly with negative eigenvalues)."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=np.complex128, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        _check_hermitian(mat)
        object.__setattr__(self, "mat", _freeze(mat))


def tensor(a, b):
    """Kronecker product of two states or two density operators.

    The first factor is most significant, matching the global index
    convention; layouts concatenate.  Batches are rejected.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        _reject_batch(a.amps, b.amps, core=1)
        return StateVector(a.layout.concat(b.layout), np.kron(a.amps, b.amps))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        _reject_batch(a.mat, b.mat, core=2)
        return DensityOperator(a.layout.concat(b.layout), np.kron(a.mat, b.mat))
    raise TypeError("tensor expects two StateVectors or two DensityOperators")


def outer(psi: StateVector) -> DensityOperator:
    """Rank-one projector |psi><psi| as a density operator."""
    return DensityOperator(psi.layout, np.outer(psi.amps, psi.amps.conj()))


def _check_subsystems(layout: SubsystemLayout, subs: Sequence[int], what: str) -> None:
    if len(subs) == 0:
        raise ValueError(f"{what}: need at least one subsystem")
    if len(set(subs)) != len(subs):
        raise ValueError(f"{what}: duplicate subsystem indices in {subs}")
    for i in subs:
        if not 0 <= i < len(layout):
            raise ValueError(f"{what}: subsystem {i} out of range for layout {layout.dims}")


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Trace out all subsystems not listed in ``keep``.

    Kept subsystems stay in their original order regardless of the order
    they are listed in.
    """
    keep_sorted = sorted(keep)
    _check_subsystems(rho.layout, keep_sorted, "partial_trace")
    dims = rho.layout.dims
    k = len(dims)
    t = rho.mat.reshape(dims + dims)
    bra = list(range(k))
    ket = [j + k if j in keep_sorted else j for j in range(k)]
    out = [j for j in keep_sorted] + [j + k for j in keep_sorted]
    red = np.einsum(t, bra + ket, out)
    dkeep = math.prod(dims[j] for j in keep_sorted)
    return DensityOperator(
        SubsystemLayout(tuple(dims[j] for j in keep_sorted)),
        red.reshape(dkeep, dkeep),
    )


def reduced_density(psi: StateVector, keep: Sequence[int]) -> DensityOperator:
    """Marginal of a pure state without forming the joint density matrix.

    Unlike :func:`partial_trace` the kept subsystems appear in the order
    given, which lets callers reorder while reducing.  This is the only
    practical route for the wide joint states the gate network produces.
    A batch of states gives the batch of their marginals.
    """
    keep = list(keep)
    _check_subsystems(psi.layout, keep, "reduced_density")
    dims = psi.layout.dims
    lead = psi.amps.shape[:-1]  # () for one state, (K,) for a batch
    rest = [j for j in range(len(dims)) if j not in keep]
    axes = list(range(len(lead))) + [len(lead) + j for j in keep + rest]
    a = psi.amps.reshape(lead + dims).transpose(axes)
    dkeep = math.prod(dims[j] for j in keep)
    a = a.reshape(lead + (dkeep, -1))
    # summing over column blocks keeps each conjugate copy small; a state
    # that fits in one block is still reduced by a single product
    step = max(1, _MARGINAL_BLOCK // dkeep)
    b = a[..., :step]
    red = b @ b.conj().swapaxes(-1, -2)
    for j in range(step, a.shape[-1], step):
        b = a[..., j:j + step]
        red += b @ b.conj().swapaxes(-1, -2)
    return DensityOperator(SubsystemLayout(tuple(dims[j] for j in keep)), red)


def _partial_transpose_mat(mat: np.ndarray, dims: Sequence[int], sub: int) -> np.ndarray:
    k = len(dims)
    t = mat.reshape(tuple(dims) + tuple(dims))
    t = t.swapaxes(sub, sub + k)
    d = math.prod(dims)
    return t.reshape(d, d)


def partial_transpose(rho: DensityOperator, sub: int) -> HermitianMatrix:
    """Transpose one subsystem only; an involution that preserves the trace
    but not positivity."""
    _check_subsystems(rho.layout, [sub], "partial_transpose")
    return HermitianMatrix(_partial_transpose_mat(rho.mat, rho.layout.dims, sub))


def _reject_batch(*arrays: np.ndarray, core: int) -> None:
    """Raise for a batch where a function is defined on one state (core 1)
    or one operator (core 2) only."""
    if any(a.ndim != core for a in arrays):
        raise ValueError("expected a single state or operator, not a batch")


def _as_matrix(h) -> np.ndarray:
    mat = h.mat if isinstance(h, (HermitianMatrix, DensityOperator)) else np.asarray(h, dtype=np.complex128)
    _reject_batch(mat, core=2)
    return mat


def hermitian_eigenvalues(h) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    Accepts a HermitianMatrix, a DensityOperator or a plain array; a plain
    array is validated as a HermitianMatrix (finite, square, Hermitian within
    1e-12) first.
    """
    if not isinstance(h, (HermitianMatrix, DensityOperator)):
        h = HermitianMatrix(h)
    w, _ = np.linalg.eigh(h.mat)
    return w


def von_neumann_entropy(rho) -> float:
    """Entropy -sum(w log w) in nats; eigenvalues at or below zero are
    treated as exact zeros (their limit contribution vanishes)."""
    w = hermitian_eigenvalues(rho)
    _reject_batch(w, core=1)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def purity(rho) -> float:
    """Trace of rho squared; 1 for pure states, 1/d for the maximally mixed."""
    mat = _as_matrix(rho)
    return float(np.vdot(mat, mat).real)


def pure_fidelity(psi: StateVector, rho: DensityOperator):
    """Fidelity <psi|rho|psi> of an operator against the pure state psi.

    A float for one state and one operator; for a batch of states, or of
    operators, or of both, the array of the elementwise fidelities (a single
    state or operator pairs with every element of the other batch).
    """
    ket = psi.amps[..., :, None]
    f = (ket.conj().swapaxes(-1, -2) @ (rho.mat @ ket))[..., 0, 0].real
    return f if f.ndim else float(f)


def _clipped_sqrt(w: np.ndarray) -> np.ndarray:
    """Square roots of nominally nonnegative eigenvalues.

    Eigenvalues below 1e-13 of the largest are indistinguishable from exact
    zeros at solver precision, and their square roots would otherwise inject
    O(1e-8) of noise per mode, so they clamp to zero.
    """
    cut = 1e-13 * max(float(w.max(initial=0.0)), 0.0)
    return np.sqrt(np.where(w > cut, w, 0.0))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Matrix square root of a positive-semidefinite Hermitian matrix."""
    w, v = np.linalg.eigh(mat)
    return (v * _clipped_sqrt(w)) @ v.conj().T


def sqrt_fidelity(rho1: DensityOperator, rho2: DensityOperator) -> float:
    """Root fidelity Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)), symmetric in its
    arguments and equal to sqrt(<psi|rho1|psi>) when rho2 = |psi><psi|."""
    if rho1.mat.shape != rho2.mat.shape:
        raise ValueError("density operators have mismatched dimensions")
    _reject_batch(rho1.mat, core=2)
    s = _psd_sqrt(rho1.mat)
    w, _ = np.linalg.eigh(s @ rho2.mat @ s)
    return float(_clipped_sqrt(w).sum())


def bures_distance(rho1: DensityOperator, rho2: DensityOperator) -> float:
    """Bures distance sqrt(2) * (1 - sqrt_fidelity)^(1/2)."""
    f = min(sqrt_fidelity(rho1, rho2), 1.0)
    return float(np.sqrt(2.0 * (1.0 - f)))
