"""Constructors for the special states the cloning machinery is built from."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .linalg import DensityOperator, StateVector, SubsystemLayout


@dataclass(frozen=True)
class BlochQubit:
    """Pure qubit state by polar angles, theta in [0, pi], phi in [0, 2*pi).

    Amplitude convention: sin(theta/2) e^{i phi} multiplies |0> and
    cos(theta/2) multiplies |1>.  The phase rides on the |0> component,
    which is the reverse of the more common Bloch-sphere convention, so
    theta = pi is |0> and theta = 0 is |1>.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi!r}")


@dataclass(frozen=True)
class SymmetricIndex:
    """Label (n, k) for the symmetric n-qubit state with k excitations."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")


def bloch_ket(q: BlochQubit) -> StateVector:
    """Single-qubit ket for the given polar angles."""
    alpha = math.sin(q.theta / 2.0) * np.exp(1j * q.phi)
    beta = math.cos(q.theta / 2.0)
    return StateVector(SubsystemLayout((2,)), np.array([alpha, beta]))


def orthogonal_ket(q: BlochQubit) -> StateVector:
    """The unique (up to phase) ket orthogonal to bloch_ket(q)."""
    a, b = bloch_ket(q).amps
    return StateVector(SubsystemLayout((2,)), np.array([b.conjugate(), -a.conjugate()]))


def register_ket(alpha: float) -> StateVector:
    """Two-qubit register alpha|00> + beta|11> with real amplitudes,
    beta = sqrt(1 - alpha^2)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    return StateVector(SubsystemLayout((2, 2)), np.array([alpha, 0.0, 0.0, beta]))


@lru_cache(maxsize=None)
def _symmetric_amps(n: int, k: int) -> np.ndarray:
    """Equal-weight superposition of all n-bit basis states with k ones."""
    amps = np.zeros(2**n, dtype=np.complex128)
    amp = 1.0 / math.sqrt(math.comb(n, k))
    for ones in combinations(range(n), k):
        idx = 0
        for pos in ones:
            idx |= 1 << (n - 1 - pos)  # first qubit most significant
        amps[idx] = amp
    amps.flags.writeable = False
    return amps


def symmetric_basis_ket(s: SymmetricIndex) -> StateVector:
    """Symmetric (Dicke) state |n;k>: all weight-k basis states, equal
    positive amplitudes."""
    return StateVector(SubsystemLayout((2,) * s.n), _symmetric_amps(s.n, s.k))


def prep_state(n: int) -> StateVector:
    """Entangled 2n-qubit copier start state for the 1-to-(n+1) network.

    Over wires (a_1..a_n, b_1..b_n) the state is

        sum_k [e_k |n;k>_a + f_k |n;k-1>_a] |n;k>_b

    with e_k = sqrt(2/(n+2)) C(n,k)/C(n+1,k) and f_k = sqrt(k/(n-k+1)) e_k
    (the k = 0 term has no f part).  For n = 1 this is exactly the state the
    two-qubit preparation circuit produces from |00>.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    amps = np.zeros(4**n, dtype=np.complex128)
    for k in range(n + 1):
        e_k = math.sqrt(2.0 / (n + 2)) * math.comb(n, k) / math.comb(n + 1, k)
        b_part = _symmetric_amps(n, k)
        amps += e_k * np.kron(_symmetric_amps(n, k), b_part)
        if k > 0:
            f_k = math.sqrt(k / (n - k + 1.0)) * e_k
            amps += f_k * np.kron(_symmetric_amps(n, k - 1), b_part)
    return StateVector(SubsystemLayout((2,) * (2 * n)), amps)


def scaled_state(ideal: DensityOperator, s: float) -> DensityOperator:
    """Shrink toward the maximally mixed state: s*rho + (1-s)/d * identity."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"scaling factor must lie in [0, 1], got {s!r}")
    d = ideal.dim
    mat = s * ideal.mat + (1.0 - s) / d * np.eye(d)
    return DensityOperator(ideal.layout, mat)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_random_ket(dim: int, seed) -> StateVector:
    """Haar-distributed pure state: a normalized standard complex Gaussian
    vector.  ``seed`` is an int (deterministic) or a Generator (streamed)."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    rng = _as_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(SubsystemLayout((dim,)), z / np.linalg.norm(z))


def random_bloch(seed) -> BlochQubit:
    """Haar-random qubit as polar angles: cos(theta) uniform on [-1, 1],
    phi uniform on [0, 2*pi)."""
    rng = _as_rng(seed)
    theta = math.acos(rng.uniform(-1.0, 1.0))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    if phi >= 2.0 * math.pi:  # guard the half-open interval
        phi = 0.0
    return BlochQubit(theta, phi)
