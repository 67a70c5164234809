"""Closed-form predictions and the numerical checks that verify them.

Everything here is one of three things: a formula (input-independent
prediction), a measurement on simulated cloner output, or a comparison
helper between the two.  The simulation routes live in ``network`` and
``cloners``; this module never builds cloner output by formula where a
simulation is being tested.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cloners import CloneOutput, gisin_massar_map, mdim_coefficients, register_clone
from .linalg import (
    DensityOperator,
    StateVector,
    SubsystemLayout,
    TOL_SPECTRAL,
    hermitian_eigenvalues,
    outer,
    partial_transpose,
    pure_fidelity,
    purity,
    reduced_density,
)
from .states import BlochQubit, bloch_ket

#: residual threshold for declaring that an output fits the scaled form
SCALED_FORM_TOL = 1e-9


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of rho_out = s*rho_id + (1-s)/d * identity."""

    s: float
    residual: float

    @property
    def fits(self) -> bool:
        return self.residual <= SCALED_FORM_TOL


def extract_scaling_factor(rho_out: DensityOperator, rho_id: DensityOperator) -> ScalingFit:
    """Best-fit scaling factor of an output against its ideal state, plus
    the max-norm residual of the fit."""
    if rho_out.mat.shape != rho_id.mat.shape:
        raise ValueError("output and ideal operators have mismatched dimensions")
    d = rho_id.dim
    eye = np.eye(d) / d
    direction = rho_id.mat - eye
    target = rho_out.mat - eye
    denom = float(np.vdot(direction, direction).real)
    if denom < 1e-30:
        raise ValueError("ideal state is maximally mixed; scaling factor is undefined")
    s = float(np.vdot(direction, target).real) / denom
    residual = float(np.abs(target - s * direction).max())
    return ScalingFit(s=s, residual=residual)


def scaling_factor_formula(n: int) -> float:
    """Scaling factor of the 1-to-(n+1) cloner: 1/3 + 2/(3(n+1))."""
    return 1.0 / 3.0 + 2.0 / (3.0 * (n + 1))


def fidelity_formula(n: int) -> float:
    """Clone fidelity of the 1-to-(n+1) cloner: 2/3 + 1/(3(n+1))."""
    return 2.0 / 3.0 + 1.0 / (3.0 * (n + 1))


def mean_fidelity(
    clone_marginal_fn: Callable[[BlochQubit], DensityOperator],
    n_cos: int = 64,
    n_phi: int = 64,
) -> float:
    """Average <psi|rho(psi)|psi> over the Bloch sphere.

    Gauss-Legendre nodes in cos(theta) crossed with a uniform periodic grid
    in phi; both resolutions must be at least 16.  For every machine in this
    package the integrand is low-order in cos(theta), so the quadrature is
    exact far below the 1e-6 tolerance the checks use.

    ``clone_marginal_fn`` is called once per node in cos(theta), with a
    batched BlochQubit holding that row's ``n_phi`` angles.  It returns the
    batch of clone marginals, or one DensityOperator that then serves every
    input of the row.
    """
    if n_cos < 16 or n_phi < 16:
        raise ValueError("quadrature grid must be at least 16 x 16")
    nodes, weights = np.polynomial.legendre.leggauss(n_cos)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    total = 0.0
    for x, w in zip(nodes, weights):
        q = BlochQubit(np.full(n_phi, math.acos(float(x))), phis)
        total += (w / 2.0) / n_phi * np.sum(pure_fidelity(bloch_ket(q), clone_marginal_fn(q)))
    return float(total)


def ppt_separable(rho: DensityOperator) -> tuple[bool, float]:
    """Peres-Horodecki test for a two-qubit state, where positivity of the
    partial transpose is conclusive.  Returns (separable, min eigenvalue)."""
    if rho.layout.dims != (2, 2):
        raise ValueError(f"conclusive only for a (2, 2) layout, got {rho.layout.dims}")
    w = hermitian_eigenvalues(partial_transpose(rho, 1))
    return bool(w[0] >= -TOL_SPECTRAL), float(w[0])


def _from_reversed_basis(mat: np.ndarray) -> np.ndarray:
    # translate a matrix written over |11>,|10>,|01>,|00> into the package
    # convention |00>,|01>,|10>,|11>
    return mat[::-1, ::-1]


def clone_pair_density_formula(n: int, q: BlochQubit) -> DensityOperator:
    """Closed-form two-clone density operator of the 1-to-(n+1) cloner."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a, b = bloch_ket(q).amps
    aa, bb = abs(a) ** 2, abs(b) ** 2
    g = (n + 3.0) / (n + 1.0)
    up = np.conj(a) * b * g  # alpha* beta terms of the upper triangle
    dn = np.conj(up)
    top = ((3 * n + 5) * bb + (n - 1) * aa) / (n + 1.0)
    bot = ((3 * n + 5) * aa + (n - 1) * bb) / (n + 1.0)
    mat = np.array(
        [
            [top, up, up, 0.0],
            [dn, 1.0, 1.0, up],
            [dn, 1.0, 1.0, up],
            [0.0, dn, dn, bot],
        ],
        dtype=np.complex128,
    ) / 6.0
    return DensityOperator(SubsystemLayout((2, 2)), _from_reversed_basis(mat))


def pt_spectrum_formula(n: int) -> np.ndarray:
    """Ascending eigenvalues of the partially transposed two-clone state:
    {1/6, 1/6, 1/3 +- sqrt(2(5+4n+n^2))/(6(n+1))}, independent of the input."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    r = math.sqrt(2.0 * (5.0 + 4.0 * n + n * n)) / (6.0 * (n + 1.0))
    return np.sort(np.array([1.0 / 6.0, 1.0 / 6.0, 1.0 / 3.0 - r, 1.0 / 3.0 + r]))


def rho_a1b1_density_formula(q: BlochQubit) -> DensityOperator:
    """Closed-form clone/copier two-qubit state (a_1, b_1) of the single-copy
    cloner."""
    a, b = bloch_ket(q).amps
    aa, bb = abs(a) ** 2, abs(b) ** 2
    ab = a * np.conj(b)  # alpha beta*
    ba = np.conj(ab)
    mat = np.array(
        [
            [4 * bb + aa, ab, 2 * ba, 2.0],
            [ba, bb, 0.0, 2 * ba],
            [2 * ab, 0.0, aa, ab],
            [2.0, 2 * ab, ba, 4 * aa + bb],
        ],
        dtype=np.complex128,
    ) / 6.0
    return DensityOperator(SubsystemLayout((2, 2)), _from_reversed_basis(mat))


def rho_a1b1_pt_spectrum(q: BlochQubit) -> np.ndarray:
    """Simulated PT spectrum of the (clone a_1, copier b_1) pair of the
    single-copy cloner.  For real input amplitudes this equals
    {(1-sqrt(17))/12, 1/6, (1+sqrt(17))/12, 2/3}; the smallest eigenvalue
    stays negative for every input."""
    out = gisin_massar_map(q, 1)
    rho = reduced_density(out.joint, [1, 2])  # (a_1, b_1)
    return hermitian_eigenvalues(partial_transpose(rho, 1))


def idle_qubit_check(out: CloneOutput, q: BlochQubit) -> float:
    """Largest entrywise deviation of any single idle (copier) qubit from
    the law rho_b = (1/3) rho_id^T + (1/3) identity."""
    ideal_t = outer(bloch_ket(q)).mat.T
    expected = ideal_t / 3.0 + np.eye(2) / 3.0
    worst = 0.0
    for j, d in enumerate(out.copier_dims):
        if d != 2:
            raise ValueError("idle-qubit law applies to qubit copier wires only")
        got = out.idle_marginal(j).mat
        worst = max(worst, float(np.abs(got - expected).max()))
    return worst


def purity_xi(n: int) -> float:
    """Copier purity after producing n+1 clones:
    2(2n^2+7n+6) / (3(n+1)(n+2)^2)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return (2.0 * (2.0 * n * n + 7.0 * n + 6.0)) / (3.0 * (n + 1.0) * (n + 2.0) ** 2)


def purity_xi_simulated(out: CloneOutput) -> float:
    """Purity of the copier marginal of a simulated cloner output."""
    return purity(out.copier_marginal())


@dataclass(frozen=True)
class MdimFormulas:
    """Closed-form predictions for the M-dimensional cloner."""

    m: int
    scaling: float
    bures: float
    entropy_clone: float
    entropy_copier: float


def mdim_formulas(m: int) -> MdimFormulas:
    """Scaling s = (m+2)/(2(m+1)); Bures distance
    sqrt(2) (1 - sqrt((m+3)/(2(m+1))))^(1/2); clone entropy
    ln(2(m+1)) - (m+3)/(2(m+1)) ln(m+3); copier entropy
    ln(m+1) - 2 ln(2)/(m+1).  All entropies in nats."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    s = (m + 2.0) / (2.0 * (m + 1.0))
    bures = math.sqrt(2.0 * (1.0 - math.sqrt((m + 3.0) / (2.0 * (m + 1.0)))))
    s_clone = math.log(2.0 * (m + 1.0)) - (m + 3.0) / (2.0 * (m + 1.0)) * math.log(m + 3.0)
    s_copier = math.log(m + 1.0) - 2.0 * math.log(2.0) / (m + 1.0)
    return MdimFormulas(
        m=m, scaling=s, bures=bures, entropy_clone=s_clone, entropy_copier=s_copier
    )


def mdim_copier_formula(phi: StateVector) -> DensityOperator:
    """Closed-form copier marginal of the M-dimensional cloner:
    2d^2 rho_id^T + 2d^2 identity."""
    m = phi.dim
    dd2 = 2.0 * mdim_coefficients(m).d ** 2
    mat = dd2 * outer(phi).mat.T + dd2 * np.eye(m)
    return DensityOperator(SubsystemLayout((m,)), mat)


@dataclass(frozen=True)
class SeparabilityInterval:
    """Open interval of alpha^2 on which the clone pair is inseparable."""

    lower: float
    upper: float

    def __contains__(self, alpha2: float) -> bool:
        return self.lower < alpha2 < self.upper


def inseparability_boundary(method: str, resolution: float = 1e-8) -> SeparabilityInterval:
    """Bisect for the alpha^2 boundaries where the cloned register pair
    switches between separable and inseparable."""

    def inseparable(alpha2: float) -> bool:
        sep, _ = ppt_separable(register_clone(method, math.sqrt(alpha2)))
        return not sep

    if not inseparable(0.5) or inseparable(0.0) or inseparable(1.0):
        raise ArithmeticError("unexpected separability pattern; cannot bracket")

    def bisect(sep_end: float, insep_end: float) -> float:
        while abs(insep_end - sep_end) > resolution / 4.0:
            mid = 0.5 * (sep_end + insep_end)
            if inseparable(mid):
                insep_end = mid
            else:
                sep_end = mid
        return 0.5 * (sep_end + insep_end)

    return SeparabilityInterval(lower=bisect(0.0, 0.5), upper=bisect(1.0, 0.5))


def register_pair_formula(method: str, alpha: float) -> DensityOperator:
    """Closed-form density operator of a cloned register pair.

    Local, over |00>,|01>,|10>,|11>: diagonal ((24 a^2 + 1)/36, 5/36, 5/36,
    (24 b^2 + 1)/36) with 4ab/9 on the |00><11| corner.  Nonlocal: diagonal
    ((6 a^2 + 1)/10, 1/10, 1/10, (6 b^2 + 1)/10) with 3ab/5 on the corner.
    Amplitudes are real here, so the corner entries are symmetric.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    a2 = alpha * alpha
    b2 = 1.0 - a2
    corner = alpha * math.sqrt(b2)
    if method == "local":
        diag = [(24 * a2 + 1) / 36.0, 5 / 36.0, 5 / 36.0, (24 * b2 + 1) / 36.0]
        corner *= 4.0 / 9.0
    elif method == "nonlocal":
        diag = [(6 * a2 + 1) / 10.0, 1 / 10.0, 1 / 10.0, (6 * b2 + 1) / 10.0]
        corner *= 3.0 / 5.0
    else:
        raise ValueError(f"method must be 'local' or 'nonlocal', got {method!r}")
    mat = np.diag(np.array(diag, dtype=np.complex128))
    mat[0, 3] = mat[3, 0] = corner
    return DensityOperator(SubsystemLayout((2, 2)), mat)
