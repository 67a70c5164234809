"""Constructors for the special states the cloning machinery is built from."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import StateVector, SubsystemLayout, _freeze, _size, _trusted

#: Largest n of the 1 -> n+1 qubit cloners, read by both routes and the CLI:
#: n + 1 clones and an n-qubit copier hold 2**(2n + 1) amplitudes.
MAX_CLONE_COUNT = 8
_CLONE_COUNT_RULE = f"clone count must be an integer 1 <= n <= {MAX_CLONE_COUNT}"


@dataclass(frozen=True)
class BlochQubit:
    """Pure qubit state by polar angles, theta in [0, pi], phi in [0, 2*pi).

    Amplitude convention: sin(theta/2) e^{i phi} multiplies |0> and
    cos(theta/2) multiplies |1>.  The phase rides on the |0> component,
    which is the reverse of the more common Bloch-sphere convention, so
    theta = pi is |0> and theta = 0 is |1>.

    ``theta`` and ``phi`` may also be equal-shape 1-D arrays: a batch of
    qubits, every entry validated, which the cloners take in one call.
    """

    theta: float
    phi: float

    def __post_init__(self):
        theta, phi = np.asarray(self.theta), np.asarray(self.phi)
        if theta.ndim or phi.ndim:
            if theta.ndim != 1 or theta.shape != phi.shape or theta.size == 0:
                raise ValueError(f"batched angles must be equal-shape non-empty 1-D arrays, got {theta.shape} and {phi.shape}")
            theta, phi = _freeze(theta.astype(np.float64)), _freeze(phi.astype(np.float64))
            object.__setattr__(self, "theta", theta)
            object.__setattr__(self, "phi", phi)
        _require(theta, (theta >= 0.0) & (theta <= math.pi), "theta must lie in [0, pi]")
        _require(phi, (phi >= 0.0) & (phi < 2.0 * math.pi), "phi must lie in [0, 2*pi)")

    @cached_property
    def _ket(self) -> StateVector:
        # computed on first use and kept: the quadrature and every cloner it
        # calls share one ket per block (cached_property writes the instance
        # dict directly, which a frozen dataclass allows)
        amps = np.empty(np.shape(self.theta) + (2,), dtype=np.complex128)
        amps[..., 0] = np.sin(self.theta / 2.0) * np.exp(1j * self.phi)
        amps[..., 1] = np.cos(self.theta / 2.0)
        return _trusted(StateVector, layout=_QUBIT, amps=amps)


def _require(x: np.ndarray, ok: np.ndarray, rule: str) -> None:
    """ValueError("<rule>, got <first entry of x where ok is False!r>")
    unless ``ok`` holds everywhere: the one range check of every angle and
    register weight.  ``rule`` is a constant string, so the success path
    builds no message."""
    if not ok.all():
        raise ValueError(f"{rule}, got {x.reshape(-1)[np.argmin(ok.reshape(-1))].item()!r}")


_QUBIT = SubsystemLayout((2,))
_TWO_QUBITS = SubsystemLayout((2, 2))


def bloch_ket(q: BlochQubit) -> StateVector:
    """Single-qubit ket for the given polar angles; a batched BlochQubit
    gives the (K, 2) batch of kets.  Each BlochQubit computes its kets once;
    later calls return the same frozen StateVector."""
    return q._ket


def register_ket(alpha) -> StateVector:
    """Two-qubit register alpha|00> + beta|11> with real amplitudes,
    beta = sqrt(1 - alpha^2).  A 1-D array of alphas gives the (K, 4) batch
    of registers, every alpha validated."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim > 1:
        raise ValueError(f"alpha must be a number or a 1-D array, got shape {alpha.shape}")
    if alpha.size == 0:
        raise ValueError("a batch needs at least one state")
    _require(alpha, (alpha >= 0.0) & (alpha <= 1.0), "alpha must lie in [0, 1]")
    amps = np.zeros(alpha.shape + (4,))
    amps[..., 0] = alpha
    amps[..., 3] = np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha))
    return _trusted(StateVector, layout=_TWO_QUBITS, amps=amps)


@lru_cache(maxsize=None)
def _symmetric_amps(n: int, k: int) -> np.ndarray:
    """Equal-weight superposition of all n-bit basis states with k ones.
    Basis index i has qubit j (first qubit most significant) at bit n-1-j,
    so its weight is the popcount of i."""
    ones = np.bitwise_count(np.arange(2**n)) == k
    return _freeze(np.where(ones, 1.0 / math.sqrt(math.comb(n, k)), 0.0).astype(np.complex128))


def symmetric_basis_ket(n: int, k: int) -> StateVector:
    """Symmetric (Dicke) state |n;k> of n qubits with k excitations: all
    weight-k basis states, equal positive amplitudes."""
    n = _size(n, "need an integer n >= 1", 1)
    k = _size(k, "need an integer 0 <= k <= n", 0, n)
    return _trusted(StateVector, layout=SubsystemLayout((2,) * n), amps=_symmetric_amps(n, k))


def prep_state(n: int) -> StateVector:
    """Entangled 2n-qubit copier start state for the 1-to-(n+1) network.

    Over wires (a_1..a_n, b_1..b_n) the state is

        sum_k [e_k |n;k>_a + f_k |n;k-1>_a] |n;k>_b

    with e_k = sqrt(2/(n+2)) C(n,k)/C(n+1,k) and f_k = sqrt(k/(n-k+1)) e_k
    (the k = 0 term has no f part).  For n = 1 this is exactly the state the
    two-qubit preparation circuit produces from |00>.
    """
    n = _size(n, "need an integer n >= 1", 1)
    amps = np.zeros(4**n, dtype=np.complex128)
    for k in range(n + 1):
        e_k = math.sqrt(2.0 / (n + 2)) * math.comb(n, k) / math.comb(n + 1, k)
        b_part = _symmetric_amps(n, k)
        amps += e_k * np.kron(_symmetric_amps(n, k), b_part)
        if k > 0:
            f_k = math.sqrt(k / (n - k + 1.0)) * e_k
            amps += f_k * np.kron(_symmetric_amps(n, k - 1), b_part)
    return _trusted(StateVector, layout=SubsystemLayout((2,) * (2 * n)), amps=amps)


def haar_random_ket(dim: int, seed, count: int | None = None) -> StateVector:
    """Haar-distributed pure state: a normalized standard complex Gaussian
    vector.  ``seed`` is an int (deterministic) or a Generator (streamed).
    With ``count``, the (count, dim) batch that ``count`` streamed calls
    draw, each row equal to the ket its call returns."""
    dim = _size(dim, "need an integer dim >= 2", 2)
    k = 1 if count is None else _size(count, "a batch needs at least one state: count must be an integer >= 1", 1)
    g = np.random.default_rng(seed).standard_normal((k, 2, dim))
    z = g[:, 0] + 1j * g[:, 1]  # per ket: dim real parts, then dim imaginary parts
    # the sum np.linalg.norm takes for one vector, so no row depends on the batch
    norm = np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))
    amps = z / norm[:, None]
    return _trusted(StateVector, layout=SubsystemLayout((dim,)), amps=amps[0] if count is None else amps)


def random_bloch(seed, count: int | None = None) -> BlochQubit:
    """Haar-random qubit as polar angles: cos(theta) uniform on [-1, 1],
    phi uniform on [0, 2*pi).  With ``count``, the batch of the ``count``
    qubits that as many streamed calls draw."""
    k = 1 if count is None else _size(count, "a batch needs at least one qubit: count must be an integer >= 1", 1)
    draws = np.random.default_rng(seed).uniform([-1.0, 0.0], [1.0, 2.0 * math.pi], size=(k, 2))
    # math.acos per entry: np.arccos can differ from it in the last bit
    theta = [math.acos(c) for c in draws[:, 0].tolist()]
    # guard the half-open interval
    phi = [0.0 if p >= 2.0 * math.pi else p for p in draws[:, 1].tolist()]
    if count is None:
        return BlochQubit(theta[0], phi[0])
    return BlochQubit(np.array(theta), np.array(phi))
