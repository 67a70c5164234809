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
    if not np.abs(mat - mat.conj().T).max() <= TOL_CONSTRUCT:
        _check_finite(mat, "matrix entries")
        raise ValueError("matrix is not Hermitian within 1e-12")


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
    """Normalized pure state over an explicit subsystem layout."""

    layout: SubsystemLayout
    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128, copy=True).reshape(-1)
        if amps.size != self.layout.total:
            raise ValueError(
                f"amplitude count {amps.size} does not match layout dimension "
                f"{self.layout.total}"
            )
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= TOL_CONSTRUCT:
            _check_finite(amps, "amplitudes")
            raise ValueError(f"state is not normalized: |amps|^2 = {norm2!r}")
        object.__setattr__(self, "amps", _freeze(amps))

    @property
    def dim(self) -> int:
        return self.amps.size


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Unit-trace positive-semidefinite operator over an explicit layout.

    Construction enforces finite entries, Hermiticity and trace within 1e-12
    and eigenvalues >= -1e-10.  Positivity is certified by a Gershgorin bound
    when that is already conclusive, otherwise by a full eigensolve.
    """

    layout: SubsystemLayout
    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=np.complex128, copy=True)
        d = self.layout.total
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match layout dimension {d}")
        _check_hermitian(mat)
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= TOL_CONSTRUCT:
            raise ValueError(f"trace must be 1 within 1e-12, got {tr!r}")
        gersh = float(np.min(mat.diagonal().real - (np.abs(mat).sum(axis=1) - np.abs(mat.diagonal()))))
        if not gersh >= -TOL_SPECTRAL:
            w, _ = np.linalg.eigh(mat)
            if not w[0] >= -TOL_SPECTRAL:
                raise ValueError(f"operator has a negative eigenvalue: {w[0]!r}")
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
    convention; layouts concatenate.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(a.layout.concat(b.layout), np.kron(a.amps, b.amps))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
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
    """
    keep = list(keep)
    _check_subsystems(psi.layout, keep, "reduced_density")
    dims = psi.layout.dims
    rest = [j for j in range(len(dims)) if j not in keep]
    a = psi.amps.reshape(dims).transpose(keep + rest)
    dkeep = math.prod(dims[j] for j in keep)
    a = a.reshape(dkeep, -1)
    # summing over column blocks keeps each conjugate copy small; a state
    # that fits in one block is still reduced by a single product
    step = max(1, _MARGINAL_BLOCK // dkeep)
    b = a[:, :step]
    red = b @ b.conj().T
    for j in range(step, a.shape[1], step):
        b = a[:, j:j + step]
        red += b @ b.conj().T
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


def _as_matrix(h) -> np.ndarray:
    if isinstance(h, (HermitianMatrix, DensityOperator)):
        return h.mat
    return np.asarray(h, dtype=np.complex128)


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
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def purity(rho) -> float:
    """Trace of rho squared; 1 for pure states, 1/d for the maximally mixed."""
    mat = _as_matrix(rho)
    return float(np.vdot(mat, mat).real)


def pure_fidelity(psi: StateVector, rho: DensityOperator) -> float:
    """Fidelity <psi|rho|psi> of an operator against the pure state psi."""
    return float(np.vdot(psi.amps, rho.mat @ psi.amps).real)


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
    s = _psd_sqrt(rho1.mat)
    w, _ = np.linalg.eigh(s @ rho2.mat @ s)
    return float(_clipped_sqrt(w).sum())


def bures_distance(rho1: DensityOperator, rho2: DensityOperator) -> float:
    """Bures distance sqrt(2) * (1 - sqrt_fidelity)^(1/2)."""
    f = min(sqrt_fidelity(rho1, rho2), 1.0)
    return float(np.sqrt(2.0 * (1.0 - f)))
